#include "core/dev.h"

#include <algorithm>
#include <stdexcept>

namespace gpuddt::core {

DevCursor::DevCursor(mpi::DatatypePtr dt, std::int64_t count,
                     std::int64_t unit_bytes)
    // Convert over the canonical program: structurally equal types then
    // compile to identical unit lists, which is what lets the DEV cache
    // key on the shape digest (dev_cache.h) rather than type identity.
    : cursor_(std::move(dt), count,
              mpi::BlockCursor::ProgramView::kCanonical),
      unit_bytes_(unit_bytes) {
  if (unit_bytes < kMinUnitBytes)
    throw std::invalid_argument("DevCursor: unit size below 256B warp floor");
}

std::size_t DevCursor::next_units(std::vector<CudaDevDist>& out,
                                  std::size_t limit) {
  std::size_t n = 0;
  // Each block of at most unit_bytes_ is one unit, so a strided run of
  // them is emitted in one go; longer blocks come split, one unit per
  // call. A unit that does not continue the previous one's source bytes
  // begins a new contiguous piece.
  const auto emit = [&](std::int64_t off, std::int64_t len,
                        std::int64_t stride, std::int64_t k) {
    if (off != last_end_) ++pieces_;
    if (stride != len) pieces_ += k - 1;
    last_end_ = off + (k - 1) * stride + len;
    n += static_cast<std::size_t>(k);
    std::int64_t pk = packed_off_;
    for (; k > 0; --k) {
      out.push_back({off, pk, len});
      off += stride;
      pk += len;
    }
    packed_off_ = pk;
  };
  while (n < limit &&
         cursor_.take_pieces(unit_bytes_,
                             static_cast<std::int64_t>(std::min<std::size_t>(
                                 limit - n, INT64_MAX)),
                             emit)) {
  }
  return n;
}

std::vector<CudaDevDist> convert_all(const mpi::DatatypePtr& dt,
                                     std::int64_t count,
                                     std::int64_t unit_bytes) {
  DevCursor cur(dt, count, unit_bytes);
  std::vector<CudaDevDist> units;
  const std::int64_t total = cur.total_bytes();
  if (total > 0) units.reserve(static_cast<std::size_t>(total / unit_bytes + 16));
  cur.next_units(units, SIZE_MAX);
  return units;
}

}  // namespace gpuddt::core
