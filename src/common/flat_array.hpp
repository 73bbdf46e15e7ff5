// FlatArray<T>: a contiguous, read-only POD array. Its bytes live either in
// a std::vector the array shares with its copies (structures built in
// process) or in a read-only region owned by someone else (a mmap'd
// snapshot file). Nothing writes an array once it is made: structures are
// assembled in plain vectors (GraphBuilder, RouteTableBuilder) and handed
// over whole.
//
// This is the span/owner seam the binary-snapshot loader needs: Graph,
// RoutingTable, and SrgIndex keep their hot arrays in FlatArrays, so the
// zero-copy load path can point them straight into a mapped file while every
// reader — including the SRG kernels — sees plain `data()[i]` indexing with
// no per-access branch.
//
// Copies share: copying a FlatArray copies two shared handles, never the
// elements, which is how an SrgIndex holds its table's arrays without a
// second copy of them. The shared handles keep the bytes alive for as long
// as any copy reads them — structures loaded from one file, or an index and
// the table it was built from, can be moved around and destroyed
// independently without lifetime coordination.
//
// memory_bytes() is what byte-accounted caches charge: allocator footprint
// (capacity) when vector-backed, mapped footprint (size) when aliased — a
// mapped table still occupies address space and page cache, so the registry
// budget accounts it like resident heap. Copies each report the shared
// bytes; a structure that shares an array with another leaves it out of
// its own count (SrgIndex::memory_bytes()).
#pragma once

#include <cstddef>
#include <memory>
#include <type_traits>
#include <utility>
#include <vector>

namespace ftr {

template <typename T>
class FlatArray {
  static_assert(std::is_trivially_copyable_v<T>,
                "FlatArray aliases raw file bytes; T must be trivially "
                "copyable");

 public:
  FlatArray() = default;
  explicit FlatArray(std::vector<T> v)
      : vec_(std::make_shared<const std::vector<T>>(std::move(v))),
        data_(vec_->data()),
        size_(vec_->size()) {}

  // Copies share the bytes (see the top of this header); a moved-from array
  // is empty.
  FlatArray(const FlatArray&) = default;
  FlatArray& operator=(const FlatArray&) = default;
  FlatArray(FlatArray&& other) noexcept
      : vec_(std::move(other.vec_)),
        mapping_(std::move(other.mapping_)),
        data_(std::exchange(other.data_, nullptr)),
        size_(std::exchange(other.size_, 0)) {}
  FlatArray& operator=(FlatArray&& other) noexcept {
    if (this == &other) return *this;
    vec_ = std::move(other.vec_);
    mapping_ = std::move(other.mapping_);
    data_ = std::exchange(other.data_, nullptr);
    size_ = std::exchange(other.size_, 0);
    return *this;
  }

  /// An array aliasing `[data, data + size)`; `owner` is held for the
  /// array's lifetime (the mmap'd file the bytes live in).
  static FlatArray aliased(const T* data, std::size_t size,
                           std::shared_ptr<const void> owner) {
    FlatArray a;
    a.mapping_ = std::move(owner);
    a.data_ = data;
    a.size_ = size;
    return a;
  }

  /// True when the array aliases external storage.
  bool aliased_view() const { return mapping_ != nullptr; }

  const T* data() const { return data_; }
  std::size_t size() const { return size_; }
  bool empty() const { return size_ == 0; }
  const T* begin() const { return data_; }
  const T* end() const { return data_ + size_; }
  const T& operator[](std::size_t i) const { return data_[i]; }
  const T& back() const { return data_[size_ - 1]; }

  /// Bytes charged to byte-accounted caches: allocator capacity when
  /// vector-backed, mapped extent when aliased (address space + page cache
  /// are real).
  std::size_t memory_bytes() const {
    return (vec_ ? vec_->capacity() : size_) * sizeof(T);
  }

  friend bool operator==(const FlatArray& a, const FlatArray& b) {
    if (a.size_ != b.size_) return false;
    for (std::size_t i = 0; i < a.size_; ++i) {
      if (!(a.data_[i] == b.data_[i])) return false;
    }
    return true;
  }

 private:
  std::shared_ptr<const std::vector<T>> vec_;  // null if aliased or empty
  std::shared_ptr<const void> mapping_;    // the aliased region's owner
  const T* data_ = nullptr;  // always valid: vec_->data() or the alias
  std::size_t size_ = 0;
};

}  // namespace ftr
