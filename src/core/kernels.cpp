#include "core/kernels.h"

#include <bit>
#include <cstring>
#include <vector>

namespace gpuddt::core {

namespace {

/// Per-piece access ranges reported to the hazard detector. Only built when
/// the machine has an observer attached; above the cap we fall back to one
/// conservative spanning range per side (the tracker merges overlaps anyway).
constexpr std::size_t kMaxKernelRanges = 4096;

struct RangeBuilder {
  static constexpr std::size_t kNone = static_cast<std::size_t>(-1);

  std::vector<sg::MemRange> ranges;
  std::size_t last_src_ = kNone;
  std::size_t last_dst_ = kNone;
  const std::byte* src_lo = nullptr;
  const std::byte* src_hi = nullptr;
  std::byte* dst_lo = nullptr;
  std::byte* dst_hi = nullptr;
  bool spanning = false;

  void add(const std::byte* src, std::byte* dst, std::int64_t len) {
    if (len <= 0) return;
    if (src_lo == nullptr || src < src_lo) src_lo = src;
    if (src + len > src_hi) src_hi = src + len;
    if (dst_lo == nullptr || dst < dst_lo) dst_lo = dst;
    if (dst + len > dst_hi) dst_hi = dst + len;
    add_one(last_src_, src, len, false);
    add_one(last_dst_, dst, len, true);
  }

  // Extend the previously-pushed range of the same kind when the new piece
  // is contiguous with it, so the sequential side of a pack/unpack (the
  // packed buffer) collapses to one precise range instead of eating into
  // the cap and forcing the lossy spanning fallback.
  void add_one(std::size_t& last, const void* p, std::int64_t len,
               bool write) {
    if (spanning) return;
    const auto* b = static_cast<const std::byte*>(p);
    if (last != kNone) {
      sg::MemRange& r = ranges[last];
      if (b == static_cast<const std::byte*>(r.ptr) + r.len) {
        r.len += len;
        return;
      }
    }
    if (ranges.size() + 1 > kMaxKernelRanges) {
      spanning = true;
      ranges.clear();
      last_src_ = kNone;
      last_dst_ = kNone;
      return;
    }
    last = ranges.size();
    ranges.push_back({b, len, write});
  }

  void finish(const CudaDevDist* device_units, std::size_t n_units) {
    if (spanning) {
      if (src_lo != nullptr)
        ranges.push_back({src_lo, src_hi - src_lo, false});
      if (dst_lo != nullptr) ranges.push_back({dst_lo, dst_hi - dst_lo, true});
    }
    if (device_units != nullptr && n_units > 0) {
      ranges.push_back(
          {device_units,
           static_cast<std::int64_t>(n_units * sizeof(CudaDevDist)), false});
    }
  }
};

/// How one side of a copy is reached from the kernel's device.
enum class Side { kLocalDevice, kPeerDevice, kMappedHost };

Side classify(const sg::HostContext& ctx, const sg::Stream& stream,
              const void* p) {
  const sg::PtrAttributes a = ctx.machine->query(p);
  if (a.space == sg::MemorySpace::kDevice) {
    return a.device == stream.device().id() ? Side::kLocalDevice
                                            : Side::kPeerDevice;
  }
  // Pinned-mapped or plain host memory: reached over PCI-E (the simulator
  // is permissive about non-mapped host pointers; the cost is identical).
  return Side::kMappedHost;
}

/// Bytes of the transaction lines that [off, off + len) touches (len > 0).
/// `shift` is log2(mem_txn_bytes), or -1 when that is not a power of two.
inline std::int64_t line_bytes(const sg::CostModel& cm, int shift,
                               std::int64_t off, std::int64_t len) {
  if (shift < 0) return cm.txn_lines(off, len) * cm.mem_txn_bytes;
  return (((off + len - 1) >> shift) - (off >> shift) + 1) << shift;
}

/// One emulated gather/scatter kernel. Its body is a single walk over the
/// pieces that does all three per-piece jobs: the memcpy, the
/// KernelProfile traffic, and (with an observer attached) the checker
/// ranges. sg::LaunchKernel reads the profile and the ranges only after
/// the body has run. DEV kernels pass their device-resident descriptor
/// array, whose reads are charged too.
class Kernel {
 public:
  Kernel(sg::HostContext& ctx, sg::Stream& stream, const void* src, void* dst,
         int blocks, const CudaDevDist* device_units = nullptr,
         std::size_t n_units = 0)
      : ctx_(&ctx),
        stream_(&stream),
        src_(static_cast<const std::byte*>(src)),
        dst_(static_cast<std::byte*>(dst)),
        // Line counting by shifts (>> on a signed offset floors) whenever
        // the transaction size is a power of two.
        txn_shift_(std::has_single_bit(static_cast<std::uint64_t>(
                       ctx.cost().mem_txn_bytes))
                       ? std::countr_zero(static_cast<std::uint64_t>(
                             ctx.cost().mem_txn_bytes))
                       : -1),
        device_units_(device_units),
        n_units_(n_units) {
    prof_.blocks = blocks;
    if (n_units > 0)
      prof_.device_txn_bytes += line_bytes(
          ctx.cost(), txn_shift_, 0,
          static_cast<std::int64_t>(n_units * sizeof(CudaDevDist)));
  }

  /// Launch with `walk(piece)` as the body: the walk calls
  /// piece(src_off, dst_off, len) once per piece, in kernel order.
  template <class Walk>
  vt::Time launch(const char* label, const Walk& walk,
                  const vt::Time* triggered_at) {
    // Two captures fit std::function's inline storage: no allocation.
    return sg::LaunchKernel(*ctx_, *stream_, prof_,
                            [this, &walk] { run(walk); }, label,
                            ranges_.ranges, triggered_at);
  }

 private:
  template <class Walk>
  void run(const Walk& walk) {
    // Work in locals: members would be reloaded around every memcpy.
    const bool observed = ctx_->machine->observer() != nullptr;
    const std::byte* const src = src_;
    std::byte* const dst = dst_;
    const sg::CostModel& cm = ctx_->cost();
    const int shift = txn_shift_;
    std::int64_t txn = 0, pcie = 0, rounds = 0;
    bool first = true;
    Side src_side = Side::kLocalDevice, dst_side = Side::kLocalDevice;
    const auto charge = [&](Side side, std::int64_t off, std::int64_t len) {
      if (side == Side::kLocalDevice)
        txn += line_bytes(cm, shift, off, len);
      else
        pcie += len;  // peer device or mapped host
    };
    walk([&](std::int64_t s, std::int64_t d, std::int64_t len) {
      // Each side is classified by the first byte the kernel touches
      // there, not by its base: a layout's base lies below its first
      // typed byte (true_lb > 0) and may fall outside the allocation.
      if (first) {
        first = false;
        src_side = classify(*ctx_, *stream_, src + s);
        dst_side = classify(*ctx_, *stream_, dst + d);
      }
      if (len <= 0) return;
      std::memcpy(dst + d, src + s, static_cast<std::size_t>(len));
      charge(src_side, s, len);
      charge(dst_side, d, len);
      rounds += (len + 255) >> 8;
      if (observed) ranges_.add(src + s, dst + d, len);
    });
    if (observed) ranges_.finish(device_units_, n_units_);
    prof_.device_txn_bytes += txn;
    prof_.pcie_bytes += pcie;
    prof_.warp_rounds += rounds;
    if (src_side == Side::kMappedHost) prof_.pcie_dir = sg::PcieDir::kFromHost;
    if (dst_side == Side::kMappedHost) prof_.pcie_dir = sg::PcieDir::kToHost;
    if (src_side == Side::kPeerDevice || dst_side == Side::kPeerDevice)
      prof_.pcie_dir = sg::PcieDir::kPeer;
  }

  sg::HostContext* ctx_;
  sg::Stream* stream_;
  const std::byte* src_;
  std::byte* dst_;
  int txn_shift_;
  const CudaDevDist* device_units_;
  std::size_t n_units_;
  sg::KernelProfile prof_;
  RangeBuilder ranges_;
};

/// Iterate the (src_off, dst_off, len) pieces of a packed-range vector
/// operation. `fn(src_off, pk_off, len)` with pk_off relative to pk_lo.
/// One division places pk_lo; each later block starts at offset 0.
template <typename Fn>
void for_vector_range(const mpi::RegularPattern& pat, std::int64_t pk_lo,
                      std::int64_t pk_hi, Fn&& fn) {
  if (pat.blocklen <= 0) return;
  const std::int64_t end = std::min(pk_hi, pat.count * pat.blocklen);
  if (pk_lo >= end) return;
  const std::int64_t blk = pk_lo / pat.blocklen;
  std::int64_t intra = pk_lo - blk * pat.blocklen;
  std::int64_t off = pat.first_disp + blk * pat.stride + intra;
  for (std::int64_t pk = pk_lo; pk < end;) {
    const std::int64_t take = std::min(pat.blocklen - intra, end - pk);
    fn(off, pk - pk_lo, take);
    pk += take;
    off += pat.stride - intra;
    intra = 0;
  }
}

}  // namespace

vt::Time pack_vector_kernel(sg::HostContext& ctx, sg::Stream& stream,
                            const void* src_base,
                            const mpi::RegularPattern& pat, std::int64_t pk_lo,
                            std::int64_t pk_hi, void* dst, int blocks,
                            const vt::Time* triggered_at) {
  return Kernel(ctx, stream, src_base, dst, blocks)
      .launch(
          "pack_vector",
          [&](const auto& piece) {
            for_vector_range(pat, pk_lo, pk_hi,
                             [&](std::int64_t s, std::int64_t d,
                                 std::int64_t len) { piece(s, d, len); });
          },
          triggered_at);
}

vt::Time unpack_vector_kernel(sg::HostContext& ctx, sg::Stream& stream,
                              void* dst_base, const mpi::RegularPattern& pat,
                              std::int64_t pk_lo, std::int64_t pk_hi,
                              const void* src, int blocks,
                              const vt::Time* triggered_at) {
  return Kernel(ctx, stream, src, dst_base, blocks)
      .launch(
          "unpack_vector",
          [&](const auto& piece) {
            for_vector_range(pat, pk_lo, pk_hi,
                             [&](std::int64_t d, std::int64_t s,
                                 std::int64_t len) { piece(s, d, len); });
          },
          triggered_at);
}

vt::Time pack_dev_kernel(sg::HostContext& ctx, sg::Stream& stream,
                         const void* src_base,
                         std::span<const CudaDevDist> units,
                         std::int64_t pk_base, void* dst,
                         const CudaDevDist* device_units, int blocks,
                         const vt::Time* triggered_at) {
  return Kernel(ctx, stream, src_base, dst, blocks, device_units,
                units.size())
      .launch(
          "pack_dev",
          [&](const auto& piece) {
            for (const auto& u : units)
              piece(u.nc_disp, u.pk_disp - pk_base, u.length);
          },
          triggered_at);
}

vt::Time unpack_dev_kernel(sg::HostContext& ctx, sg::Stream& stream,
                           void* dst_base,
                           std::span<const CudaDevDist> units,
                           std::int64_t pk_base, const void* src,
                           const CudaDevDist* device_units, int blocks,
                           const vt::Time* triggered_at) {
  return Kernel(ctx, stream, src, dst_base, blocks, device_units,
                units.size())
      .launch(
          "unpack_dev",
          [&](const auto& piece) {
            for (const auto& u : units)
              piece(u.pk_disp - pk_base, u.nc_disp, u.length);
          },
          triggered_at);
}

}  // namespace gpuddt::core
