#include "mpi/cpu_pack.h"

#include <cstring>
#include <stdexcept>

namespace gpuddt::mpi {
namespace {

/// Move at most `room` bytes between the typed buffer `typed` and the
/// contiguous buffer `flat`, one strided run per cursor step. kPack
/// gathers typed -> flat; otherwise flat is scattered into typed. The
/// stats count every piece of every run, as the per-piece walk would.
template <bool kPack, class TypedByte, class FlatByte>
PackStats copy_runs(BlockCursor& cursor, TypedByte* typed, FlatByte* flat,
                    std::int64_t room) {
  PackStats st;
  const auto copy_run = [&](std::int64_t offset, std::int64_t len,
                            std::int64_t stride, std::int64_t k) {
    TypedByte* t = typed + offset;
    FlatByte* f = flat + st.bytes;
    st.bytes += len * k;
    st.pieces += k;
    room -= len * k;
    if (stride == len) {  // the run is one contiguous span
      len *= k;
      k = 1;
    }
    for (std::int64_t i = 0; i < k; ++i, t += stride, f += len) {
      if constexpr (kPack)
        std::memcpy(f, t, static_cast<std::size_t>(len));
      else
        std::memcpy(t, f, static_cast<std::size_t>(len));
    }
  };
  while (room > 0 && cursor.take(room, copy_run)) {
  }
  return st;
}

}  // namespace

PackStats cpu_pack_some(BlockCursor& cursor, const void* src,
                        std::span<std::byte> out) {
  return copy_runs<true>(cursor, static_cast<const std::byte*>(src),
                         out.data(), static_cast<std::int64_t>(out.size()));
}

PackStats cpu_unpack_some(BlockCursor& cursor, std::span<const std::byte> in,
                          void* dst) {
  return copy_runs<false>(cursor, static_cast<std::byte*>(dst), in.data(),
                          static_cast<std::int64_t>(in.size()));
}

PackStats cpu_pack(const DatatypePtr& dt, std::int64_t count, const void* src,
                   std::span<std::byte> out) {
  if (static_cast<std::int64_t>(out.size()) < dt->size() * count)
    throw std::invalid_argument("cpu_pack: output buffer too small");
  BlockCursor cur(dt, count);
  return cpu_pack_some(cur, src, out.first(
      static_cast<std::size_t>(dt->size() * count)));
}

PackStats cpu_unpack(const DatatypePtr& dt, std::int64_t count,
                     std::span<const std::byte> in, void* dst) {
  if (static_cast<std::int64_t>(in.size()) < dt->size() * count)
    throw std::invalid_argument("cpu_unpack: input buffer too small");
  BlockCursor cur(dt, count);
  return cpu_unpack_some(
      cur, in.first(static_cast<std::size_t>(dt->size() * count)), dst);
}

}  // namespace gpuddt::mpi
