#include "core/dev.h"

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
  mpi::Block b;
  while (n < limit && cursor_.next(unit_bytes_, &b)) {
    if (b.offset != last_end_) ++pieces_;  // new contiguous run begins
    last_end_ = b.offset + b.len;
    out.push_back({b.offset, packed_off_, b.len});
    packed_off_ += b.len;
    ++n;
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
