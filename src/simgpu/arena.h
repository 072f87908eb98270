// A simple first-fit arena allocator.
//
// Each simulated device owns one arena backed by a single anonymous host
// mapping; "device pointers" are real host pointers into that block, which
// lets the simulated kernels and copy engines move bytes with plain memcpy
// while the pointer registry still distinguishes address spaces.
//
// The mapping comes from a process-wide pool (namespace `pool` below) and
// goes back to it when the arena dies, so a figure sweep's next Machine
// reuses the pages the last one faulted in. The arena never touches its
// memory, so a mapping costs only the pages its buffers use. The pool
// bounds what it keeps: before a tenant's allocations reach pages it does
// not hold yet, the pool releases as many bytes from the unallocated tails
// of other mappings, live ones included, so pooled resident pages never
// exceed what live allocations reached. A large block is advised for
// transparent huge pages (docs/architecture.md).
#pragma once

#include <sys/mman.h>

#include <cstddef>
#include <cstdint>
#include <map>
#include <new>
#include <stdexcept>
#include <utility>

namespace gpuddt::sg {

/// The process-wide pool of device mappings. Process-global state: every
/// call takes the pool's one lock (docs/simulator.md, "Threading
/// contract"). The pool is never destroyed, so it outlives every static
/// Machine.
namespace pool {

/// The free mapping of exactly `capacity` bytes released first, or a
/// fresh one. Its contents are unspecified.
std::byte* acquire(std::size_t capacity);
/// Gives a mapping back: its tenant's huge-page advice is cleared, and a
/// mapping holding no pages is unmapped.
void release(std::byte* base);
/// The tenant of `base` now allocates up to byte offset `end`. When that
/// reaches beyond the pages the mapping may hold, first releases the same
/// number of bytes from other mappings' unallocated tails. Returns the
/// tenant's new high-water, `end` rounded up to a page.
std::size_t grow(std::byte* base, std::size_t end);
/// Bytes of the mapping at `base` that may hold pages (0 when unknown).
std::size_t resident(const std::byte* base);
/// `resident` summed over every pooled mapping.
std::size_t total_resident();

}  // namespace pool

class Arena {
 public:
  /// Allocation alignment; 512 mirrors cudaMalloc's large alignment and
  /// keeps every fresh device buffer transaction-aligned.
  static constexpr std::size_t kAlign = 512;
  /// Transparent huge page size the allocator advises in.
  static constexpr std::size_t kHugePage = std::size_t{2} << 20;

  // Not zeroed on purpose: a fresh cudaMalloc'd buffer has unspecified
  // contents anyway, and a pooled mapping keeps its last tenant's bytes.
  // mmap's page alignment covers kAlign.
  explicit Arena(std::size_t capacity)
      : capacity_(round_up(capacity)), base_(pool::acquire(capacity_)) {
    free_[base()] = capacity_;
  }

  ~Arena() { pool::release(base_); }

  Arena(const Arena&) = delete;
  Arena& operator=(const Arena&) = delete;

  std::byte* base() const { return base_; }
  std::size_t capacity() const { return capacity_; }

  bool contains(const void* p) const {
    auto* b = static_cast<const std::byte*>(p);
    return b >= base() && b < base() + capacity_;
  }

  std::byte* allocate(std::size_t bytes) {
    const std::size_t need = round_up(bytes == 0 ? 1 : bytes);
    for (auto it = free_.begin(); it != free_.end(); ++it) {
      if (it->second >= need) {
        std::byte* p = it->first;
        const std::size_t remaining = it->second - need;
        free_.erase(it);
        if (remaining > 0) free_[p + need] = remaining;
        allocated_[p] = need;
        in_use_ += need;
        // Holes below the high-water already hold pages: only growth past
        // it goes to the pool (and takes its lock).
        const auto end = static_cast<std::size_t>(p + need - base_);
        if (end > hw_) hw_ = pool::grow(base_, end);
        advise_huge(p, need);
        return p;
      }
    }
    throw std::bad_alloc();
  }

  void deallocate(std::byte* p) {
    if (p == nullptr) return;
    auto it = allocated_.find(p);
    if (it == allocated_.end())
      throw std::invalid_argument("Arena::deallocate: unknown pointer");
    std::size_t size = it->second;
    in_use_ -= size;
    allocated_.erase(it);
    // Coalesce with the next free block.
    auto next = free_.lower_bound(p);
    if (next != free_.end() && p + size == next->first) {
      size += next->second;
      next = free_.erase(next);
    }
    // Coalesce with the previous free block.
    if (next != free_.begin()) {
      auto prev = std::prev(next);
      if (prev->first + prev->second == p) {
        prev->second += size;
        return;
      }
    }
    free_[p] = size;
  }

  std::size_t bytes_in_use() const {
    return in_use_;
  }

  /// Size of the live allocation starting at p (0 if p is not live).
  std::size_t allocation_size(const void* p) const {
    auto it = allocated_.find(const_cast<std::byte*>(static_cast<const std::byte*>(p)));
    return it == allocated_.end() ? 0 : it->second;
  }

  /// Base and size of the live allocation *containing* p (interior
  /// pointers resolve to their block), or {nullptr, 0} when p does not
  /// point into a live allocation. Used by the access checker to key
  /// tracked ranges per buffer.
  std::pair<std::byte*, std::size_t> allocation_span(const void* p) const {
    auto* b = const_cast<std::byte*>(static_cast<const std::byte*>(p));
    auto it = allocated_.upper_bound(b);
    if (it == allocated_.begin()) return {nullptr, 0};
    --it;
    if (b >= it->first && b < it->first + it->second)
      return {it->first, it->second};
    return {nullptr, 0};
  }

 private:
  static std::size_t round_up(std::size_t n) {
    return (n + kAlign - 1) / kAlign * kAlign;
  }

  /// Ask for huge pages on exactly the whole 2 MiB pages inside [p, p+n).
  /// Partial pages at either end keep 4 KiB faults, so a small buffer or a
  /// staging ring never drags a neighbour's untouched bytes into memory.
  /// Best effort: where THP is unavailable madvise fails and nothing changes.
  static void advise_huge(std::byte* p, std::size_t n) {
    const auto lo = (reinterpret_cast<std::uintptr_t>(p) + kHugePage - 1) /
                    kHugePage * kHugePage;
    const auto hi =
        (reinterpret_cast<std::uintptr_t>(p) + n) / kHugePage * kHugePage;
    if (hi > lo)
      madvise(reinterpret_cast<void*>(lo), hi - lo, MADV_HUGEPAGE);
  }

  std::size_t capacity_;
  std::byte* base_;
  std::size_t hw_ = 0;  // allocated high-water, page-rounded (pool::grow)
  // Interval maps over this arena's own mapping: relative key order equals
  // offset order within it, and the order is never emitted.
  // det-lint: allow(pointer_order) - arena-internal interval map
  std::map<std::byte*, std::size_t> free_;       // start -> size
  // det-lint: allow(pointer_order) - arena-internal interval map
  std::map<std::byte*, std::size_t> allocated_;  // start -> size
  std::size_t in_use_ = 0;
};

}  // namespace gpuddt::sg
