// The one definition of "parse a base-10 unsigned integer, strictly": the
// whole token must be consumed, no sign, no overflow — nullopt otherwise.
// Every line-oriented reader in the repo (fault-set feeds, table manifests,
// serve request lines) validates numeric tokens through this helper and
// attaches its own line-numbered error message, so a future tweak to what
// counts as a valid number lands in exactly one place instead of drifting
// across hand-rolled from_chars copies.
#pragma once

#include <charconv>
#include <cstdint>
#include <istream>
#include <optional>
#include <string>
#include <string_view>

#include "common/contracts.hpp"

namespace ftr {

/// Parses `text` as a fully-consumed base-10 uint64. Rejects empty input,
/// signs ("-1" must read as non-numeric, never wrap), non-digit trailers
/// ("12frog"), and values past 2^64-1.
inline std::optional<std::uint64_t> parse_u64(std::string_view text) {
  unsigned long long value = 0;
  const auto [ptr, ec] =
      std::from_chars(text.data(), text.data() + text.size(), value);
  if (ec != std::errc{} || ptr != text.data() + text.size() || text.empty()) {
    return std::nullopt;
  }
  return value;
}

/// Longest physical line next_data_line buffers (1 MiB).
inline constexpr std::size_t kMaxLineBytes = std::size_t{1} << 20;

/// The shared scaffolding of every line-oriented reader (fault-set feeds,
/// table manifests, serve request streams): pulls the next DATA line into
/// `line` — '#'-to-end-of-line comments stripped, lines that are blank
/// after stripping skipped — and returns false at end of stream. line_no
/// counts every PHYSICAL line read (skipped ones included), so error
/// messages downstream name the line the user sees in their editor.
///
/// A physical line longer than kMaxLineBytes is never buffered whole: the
/// excess is read and dropped up to the next newline, then the call throws
/// ContractViolation naming the line. The stream is left at the start of
/// the next line, so a caller that answers the error can keep reading.
inline bool next_data_line(std::istream& in, std::string& line,
                           std::size_t& line_no) {
  using Traits = std::istream::traits_type;
  for (;;) {
    const std::istream::sentry ok(in, /*noskipws=*/true);
    if (!ok) return false;
    std::streambuf& buf = *in.rdbuf();
    line.clear();
    bool too_long = false;
    Traits::int_type c = buf.sbumpc();
    if (Traits::eq_int_type(c, Traits::eof())) {
      in.setstate(std::ios::eofbit | std::ios::failbit);
      return false;
    }
    for (; !Traits::eq_int_type(c, Traits::eof()) && c != '\n';
         c = buf.sbumpc()) {
      if (line.size() < kMaxLineBytes) {
        line.push_back(Traits::to_char_type(c));
      } else {
        too_long = true;
      }
    }
    if (Traits::eq_int_type(c, Traits::eof())) in.setstate(std::ios::eofbit);
    ++line_no;
    FTR_EXPECTS_MSG(!too_long, "line " << line_no << " is longer than "
                                       << kMaxLineBytes << " bytes");
    const auto hash = line.find('#');
    if (hash != std::string::npos) line.resize(hash);
    if (line.find_first_not_of(" \t\r\n\f\v") == std::string::npos) continue;
    return true;
  }
}

}  // namespace ftr
