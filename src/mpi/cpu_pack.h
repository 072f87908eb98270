// The host (CPU) datatype engine: pack/unpack between a typed user buffer
// and a contiguous byte buffer. This is Open MPI's classic convertor - the
// reference implementation every GPU path is validated against, the engine
// used for host-resident data, and the "CPU" series of the paper's
// benchmarks.
//
// Both directions support partial progress through an explicit cursor, so
// the PML can fragment large messages.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>

#include "mpi/cursor.h"
#include "mpi/datatype.h"

namespace gpuddt::mpi {

struct PackStats {
  std::int64_t bytes = 0;
  std::int64_t pieces = 0;  // contiguous pieces visited (host walk cost)
};

/// Gather at most `out.size()` bytes from `src` (laid out as `cursor`'s
/// datatype) into `out`, advancing the cursor. Returns what was moved.
PackStats cpu_pack_some(BlockCursor& cursor, const void* src,
                        std::span<std::byte> out);

/// Scatter at most `in.size()` bytes from `in` into `dst`, advancing the
/// cursor.
PackStats cpu_unpack_some(BlockCursor& cursor, std::span<const std::byte> in,
                          void* dst);

/// Whole-datatype convenience wrappers. `out` / `in` must hold at least
/// dt->size() * count bytes; a shorter buffer or a negative `count`
/// throws std::invalid_argument.
PackStats cpu_pack(const DatatypePtr& dt, std::int64_t count, const void* src,
                   std::span<std::byte> out);
PackStats cpu_unpack(const DatatypePtr& dt, std::int64_t count,
                     std::span<const std::byte> in, void* dst);

}  // namespace gpuddt::mpi
