#include "simgpu/arena.h"

#include <unistd.h>

#include <algorithm>
#include <mutex>

namespace gpuddt::sg::pool {

namespace {

struct Mapping {
  std::size_t length = 0;    // mapped bytes, page-rounded capacity
  std::size_t resident = 0;  // page-rounded extent that may hold pages
  std::size_t hw = 0;        // tenant's allocated high-water; 0 when free
  bool live = false;         // an Arena holds it
  std::uint64_t freed = 0;   // release order, for first-in first-out reuse
};

struct Pool {
  std::mutex mu;
  std::uint64_t releases = 0;
  // Mappings by base; lookups only, so address order is never emitted.
  // det-lint: allow(pointer_order) - keyed lookup, order never emitted
  std::map<std::byte*, Mapping> maps;
};

// Never destroyed: static Machines release their mappings during exit.
Pool& the_pool() {
  static Pool* p = new Pool;
  return *p;
}

std::size_t page_round(std::size_t n) {
  static const auto page = static_cast<std::size_t>(sysconf(_SC_PAGESIZE));
  return (n + page - 1) / page * page;
}

/// Releases up to `bytes` from the tops of other mappings' [hw, resident)
/// tails: free mappings first, then live tenants'. A free mapping left
/// with no pages is unmapped. Caller holds the pool's lock.
void release_tails(Pool& pool, std::size_t bytes, const std::byte* except) {
  for (const bool live : {false, true}) {
    for (auto it = pool.maps.begin(); it != pool.maps.end() && bytes > 0;) {
      Mapping& m = it->second;
      const std::size_t take = std::min(bytes, m.resident - m.hw);
      if (it->first == except || m.live != live || take == 0) {
        ++it;
        continue;
      }
      bytes -= take;
      m.resident -= take;
      if (!m.live && m.resident == 0) {
        munmap(it->first, m.length);
        it = pool.maps.erase(it);
        continue;
      }
      madvise(it->first + m.resident, take, MADV_DONTNEED);
      ++it;
    }
  }
}

}  // namespace

std::byte* acquire(std::size_t capacity) {
  const std::size_t length = page_round(capacity);
  Pool& pool = the_pool();
  std::lock_guard lock(pool.mu);
  // The mapping freed first: a Machine frees its devices in order and the
  // next one acquires them in the same order, so a repeated workload's
  // device d meets the pages it touched last time.
  auto best = pool.maps.end();
  for (auto it = pool.maps.begin(); it != pool.maps.end(); ++it) {
    if (!it->second.live && it->second.length == length &&
        (best == pool.maps.end() || it->second.freed < best->second.freed))
      best = it;
  }
  if (best != pool.maps.end()) {
    best->second.live = true;
    return best->first;
  }
  void* m = mmap(nullptr, length, PROT_READ | PROT_WRITE,
                 MAP_PRIVATE | MAP_ANONYMOUS, -1, 0);
  if (m == MAP_FAILED) throw std::bad_alloc();
  // Every tenant starts from the same advice; Arena::allocate opts whole
  // interior pages in.
  madvise(m, length, MADV_NOHUGEPAGE);
  auto* base = static_cast<std::byte*>(m);
  pool.maps[base] = Mapping{length, 0, 0, true};
  return base;
}

void release(std::byte* base) {
  Pool& pool = the_pool();
  std::lock_guard lock(pool.mu);
  auto it = pool.maps.find(base);
  if (it == pool.maps.end()) return;
  Mapping& m = it->second;
  m.live = false;
  m.hw = 0;
  m.freed = ++pool.releases;
  if (m.resident == 0) {
    munmap(base, m.length);
    pool.maps.erase(it);
    return;
  }
  // Drop the tenant's MADV_HUGEPAGE ranges: the next tenant's small
  // buffers must not fault in whole 2 MiB pages, and one advice over the
  // whole mapping merges the VMAs the last tenant split.
  madvise(base, m.length, MADV_NOHUGEPAGE);
}

std::size_t grow(std::byte* base, std::size_t end) {
  Pool& pool = the_pool();
  std::lock_guard lock(pool.mu);
  Mapping& m = pool.maps.at(base);
  m.hw = std::max(m.hw, std::min(page_round(end), m.length));
  if (m.hw > m.resident) {
    release_tails(pool, m.hw - m.resident, base);
    m.resident = m.hw;
  }
  return m.hw;
}

std::size_t resident(const std::byte* base) {
  Pool& pool = the_pool();
  std::lock_guard lock(pool.mu);
  auto it = pool.maps.find(const_cast<std::byte*>(base));
  return it == pool.maps.end() ? 0 : it->second.resident;
}

std::size_t total_resident() {
  Pool& pool = the_pool();
  std::lock_guard lock(pool.mu);
  std::size_t sum = 0;
  for (const auto& [base, m] : pool.maps) sum += m.resident;
  return sum;
}

}  // namespace gpuddt::sg::pool
