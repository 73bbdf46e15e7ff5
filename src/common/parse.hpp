// The one definition of "parse a base-10 unsigned integer, strictly": the
// whole token must be consumed, no sign, no overflow — nullopt otherwise.
// Every line-oriented reader in the repo (fault-set feeds, table manifests,
// serve request lines, the text graph and table formats) validates numeric
// tokens through this helper and
// attaches its own line-numbered error message, so a future tweak to what
// counts as a valid number lands in exactly one place instead of drifting
// across hand-rolled from_chars copies.
#pragma once

#include <algorithm>
#include <charconv>
#include <cstdint>
#include <istream>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

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
/// table manifests, serve request streams, text graphs and tables): pulls the next DATA line into
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

/// The next whitespace-separated token of `line` at or after `pos` (a view
/// into it), advancing `pos` past it; empty when none is left. Allocates
/// nothing, for readers that scan every line of a long feed.
inline std::string_view next_token(std::string_view line, std::size_t& pos) {
  constexpr std::string_view kSpace = " \t\r\n\f\v";
  const std::size_t i = line.find_first_not_of(kSpace, pos);
  if (i == std::string_view::npos) {
    pos = line.size();
    return {};
  }
  pos = std::min(line.find_first_of(kSpace, i), line.size());
  return line.substr(i, pos - i);
}

/// The whitespace-separated tokens of `line` (views into it).
inline std::vector<std::string_view> split_tokens(std::string_view line) {
  std::vector<std::string_view> out;
  std::size_t pos = 0;
  for (auto tok = next_token(line, pos); !tok.empty();
       tok = next_token(line, pos)) {
    out.push_back(tok);
  }
  return out;
}

/// A header count token (node count, say), parsed strictly and bounded by
/// `max` BEFORE the caller allocates anything sized by it. Throws
/// ContractViolation naming the line otherwise.
inline std::uint64_t parse_header_count(std::string_view token,
                                        std::uint64_t max, const char* what,
                                        std::size_t line_no) {
  const auto v = parse_u64(token);
  FTR_EXPECTS_MSG(v.has_value(), "line " << line_no << ": " << what << " '"
                                         << token << "' is not a number");
  FTR_EXPECTS_MSG(*v <= max, "line " << line_no << ": " << what << " '"
                                     << token << "' exceeds the limit "
                                     << max);
  return *v;
}

/// For the text formats closed by an `end` line: throws unless only blank
/// and comment lines follow it. Data there means two files were
/// concatenated or one was cut, and reading on would silently drop it.
inline void expect_nothing_after_end(std::istream& in, std::size_t& line_no) {
  std::string line;
  FTR_EXPECTS_MSG(!next_data_line(in, line, line_no),
                  "line " << line_no << ": data after 'end': '" << line << "'");
}

}  // namespace ftr
