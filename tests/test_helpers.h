// Shared utilities for the gpuddt test suite.
#pragma once

#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <random>
#include <string>
#include <vector>

#include "mpi/cpu_pack.h"
#include "mpi/cursor.h"
#include "mpi/datatype.h"
#include "simgpu/runtime.h"

namespace gpuddt::test {

/// A MachineConfig with every field spelled out (keeps
/// -Wmissing-field-initializers quiet at the designated-init call sites).
inline sg::MachineConfig machine_config(int devices,
                                        std::size_t bytes = 256u << 20) {
  sg::MachineConfig m;
  m.num_devices = devices;
  m.device_memory_bytes = bytes;
  return m;
}

/// Deterministically fill a byte region with position-dependent values.
inline void fill_pattern(void* p, std::size_t bytes, std::uint32_t seed) {
  auto* b = static_cast<std::uint8_t*>(p);
  for (std::size_t i = 0; i < bytes; ++i)
    b[i] = static_cast<std::uint8_t>((i * 2654435761u + seed) >> 13);
}

/// Reference pack of (dt, count) at `src`: one memcpy per block of a plain
/// BlockCursor::next() walk, independent of the host engine's batched
/// run copies (mpi::cpu_pack), so tests can check that engine against it.
inline std::vector<std::byte> reference_pack(const mpi::DatatypePtr& dt,
                                             std::int64_t count,
                                             const void* src) {
  std::vector<std::byte> out(
      static_cast<std::size_t>(dt->size() * count));
  const auto* base = static_cast<const std::byte*>(src);
  mpi::BlockCursor cur(dt, count);
  std::size_t at = 0;
  mpi::Block b;
  while (cur.next(&b)) {
    std::memcpy(out.data() + at, base + b.offset,
                static_cast<std::size_t>(b.len));
    at += static_cast<std::size_t>(b.len);
  }
  return out;
}

/// A random "interesting" datatype for property tests: nested mixes of
/// vector / indexed / contiguous / struct over the primitive set.
inline mpi::DatatypePtr random_datatype(std::mt19937& rng, int depth = 0) {
  using mpi::Datatype;
  std::uniform_int_distribution<int> kind_dist(0, depth >= 2 ? 1 : 5);
  std::uniform_int_distribution<int> small(1, 5);
  switch (kind_dist(rng)) {
    case 0: {  // primitive
      std::uniform_int_distribution<int> p(0, 5);
      return Datatype::primitive(static_cast<mpi::Primitive>(p(rng)));
    }
    case 1:
      return Datatype::contiguous(small(rng), random_datatype(rng, depth + 1));
    case 2: {
      const int bl = small(rng);
      const int stride = bl + small(rng) - 1;  // stride >= blocklen
      return Datatype::vector(small(rng), bl, stride,
                              random_datatype(rng, depth + 1));
    }
    case 3: {  // indexed with increasing displacements
      const int n = small(rng);
      std::vector<std::int64_t> lens, displs;
      std::int64_t at = 0;
      for (int i = 0; i < n; ++i) {
        const std::int64_t l = small(rng);
        lens.push_back(l);
        displs.push_back(at);
        at += l + small(rng);
      }
      return Datatype::indexed(lens, displs, random_datatype(rng, depth + 1));
    }
    case 4: {  // hvector with byte stride
      auto t = random_datatype(rng, depth + 1);
      const int bl = small(rng);
      const std::int64_t stride = bl * t->extent() + 8 * small(rng);
      return Datatype::hvector(small(rng), bl, stride, t);
    }
    default: {  // struct of two
      auto a = random_datatype(rng, depth + 1);
      auto b = random_datatype(rng, depth + 1);
      const std::int64_t la = small(rng), lb = small(rng);
      const std::int64_t db = la * a->extent() + 8 * small(rng);
      const std::int64_t lens[] = {la, lb};
      const std::int64_t displs[] = {0, db};
      const mpi::DatatypePtr types[] = {a, b};
      return Datatype::struct_type(lens, displs, types);
    }
  }
}

/// Buffer span (bytes) needed to hold `count` elements of dt, including a
/// little negative-lb headroom.
inline std::int64_t span_bytes(const mpi::DatatypePtr& dt,
                               std::int64_t count) {
  if (count <= 0 || dt->size() == 0) return 1;
  return dt->true_extent() + (count - 1) * dt->extent() + 64;
}

/// Sets or unsets one environment variable for the scope and restores
/// the previous value on exit. The run-mode knobs (obs/knobs.h) read
/// their variable on every call, so this scopes an override to the
/// machines and runtimes created inside it.
class ScopedEnv {
 public:
  explicit ScopedEnv(const char* name) : name_(name) {
    const char* old = std::getenv(name);
    had_ = old != nullptr;
    if (had_) saved_ = old;
  }
  ScopedEnv(const char* name, const char* value) : ScopedEnv(name) {
    set(value);
  }
  ~ScopedEnv() {
    if (had_)
      setenv(name_, saved_.c_str(), 1);
    else
      unsetenv(name_);
  }
  ScopedEnv(const ScopedEnv&) = delete;
  ScopedEnv& operator=(const ScopedEnv&) = delete;

  void set(const char* v) { setenv(name_, v, 1); }
  void unset() { unsetenv(name_); }

 private:
  const char* name_;
  bool had_;
  std::string saved_;
};

}  // namespace gpuddt::test
