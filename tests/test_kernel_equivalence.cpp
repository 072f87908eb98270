// Equivalence of the DEV data path with piece-by-piece references.
//
// The emulated kernels walk their pieces once and count transaction
// lines with shifts; DevCursor converts whole strided runs at a time.
// These tests pin both to the plain per-piece computation: every
// kernel's virtual finish time and checker ranges, and every unit list
// and piece count, must equal what the one-piece-at-a-time walk with the
// division formula gives.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <memory>
#include <random>
#include <vector>

#include "core/dev.h"
#include "core/kernels.h"
#include "simgpu/access.h"
#include "test_helpers.h"

namespace gpuddt::core {
namespace {

// --- Kernels --------------------------------------------------------------------

/// Keeps the checker ranges of every operation reported to it.
class RangeSink : public sg::AccessObserver {
 public:
  std::vector<std::vector<sg::MemRange>> ops;
  void on_op(const sg::OpInfo& /*info*/,
             std::span<const sg::MemRange> ranges) override {
    ops.emplace_back(ranges.begin(), ranges.end());
  }
  void on_release(const void* /*ptr*/, std::size_t /*bytes*/) override {}
  void on_reset() override {}
};

/// One piece of a gather/scatter, as byte offsets from the kernel's source
/// and destination bases.
struct Piece {
  std::int64_t src = 0;
  std::int64_t dst = 0;
  std::int64_t len = 0;
};

/// The pieces of packed bytes [pk_lo, pk_hi) of `pat`, one division per
/// piece, with packed offsets relative to pk_lo.
std::vector<Piece> vector_pieces(const mpi::RegularPattern& pat,
                                 std::int64_t pk_lo, std::int64_t pk_hi) {
  std::vector<Piece> out;
  for (std::int64_t pk = pk_lo; pk < pk_hi;) {
    const std::int64_t blk = pk / pat.blocklen;
    if (blk >= pat.count) break;
    const std::int64_t intra = pk % pat.blocklen;
    const std::int64_t len = std::min(pat.blocklen - intra, pk_hi - pk);
    out.push_back({pat.first_disp + blk * pat.stride + intra, pk - pk_lo, len});
    pk += len;
  }
  return out;
}

enum class Where { kLocal, kPeer, kMappedHost };

/// Lines of `txn` bytes [off, off + len) touches, by division (off >= 0).
std::int64_t ref_lines(std::int64_t off, std::int64_t len, std::int64_t txn) {
  EXPECT_GE(off, 0);
  return (off + len - 1) / txn - off / txn + 1;
}

/// The profile of a kernel moving `pieces` from a `src` side to a `dst`
/// side, summed piece by piece.
sg::KernelProfile ref_profile(const sg::CostModel& cm, Where src, Where dst,
                              const std::vector<Piece>& pieces,
                              std::size_t n_desc, int blocks) {
  sg::KernelProfile p;
  p.blocks = blocks;
  const std::int64_t txn = cm.mem_txn_bytes;
  for (const Piece& pc : pieces) {
    const std::pair<Where, std::int64_t> sides[] = {{src, pc.src},
                                                    {dst, pc.dst}};
    for (const auto& [where, off] : sides) {
      if (where == Where::kLocal)
        p.device_txn_bytes += ref_lines(off, pc.len, txn) * txn;
      else
        p.pcie_bytes += pc.len;
    }
    p.warp_rounds += (pc.len + 255) / 256;
  }
  p.device_txn_bytes +=
      (static_cast<std::int64_t>(n_desc * sizeof(CudaDevDist)) + txn - 1) /
      txn * txn;
  if (!pieces.empty()) {
    if (src == Where::kMappedHost) p.pcie_dir = sg::PcieDir::kFromHost;
    if (dst == Where::kMappedHost) p.pcie_dir = sg::PcieDir::kToHost;
    if (src == Where::kPeer || dst == Where::kPeer)
      p.pcie_dir = sg::PcieDir::kPeer;
  }
  return p;
}

/// The checker ranges of the same kernel: per side, a piece extends the
/// side's previous range when it continues it; past 4096 ranges, one
/// spanning range per side; then the descriptor array.
std::vector<sg::MemRange> ref_ranges(const std::byte* src, std::byte* dst,
                                     const std::vector<Piece>& pieces,
                                     const CudaDevDist* desc,
                                     std::size_t n_desc) {
  std::vector<sg::MemRange> out;
  std::ptrdiff_t last[2] = {-1, -1};
  const std::byte* lo[2] = {nullptr, nullptr};
  const std::byte* hi[2] = {nullptr, nullptr};
  bool spanning = false;
  for (const Piece& pc : pieces) {
    const std::byte* at[2] = {src + pc.src, dst + pc.dst};
    for (int w = 0; w < 2; ++w) {
      if (lo[w] == nullptr || at[w] < lo[w]) lo[w] = at[w];
      if (hi[w] == nullptr || at[w] + pc.len > hi[w]) hi[w] = at[w] + pc.len;
      if (spanning) continue;
      if (last[w] >= 0) {
        sg::MemRange& r = out[static_cast<std::size_t>(last[w])];
        if (static_cast<const std::byte*>(r.ptr) + r.len == at[w]) {
          r.len += pc.len;
          continue;
        }
      }
      if (out.size() == 4096) {
        spanning = true;
        out.clear();
        continue;
      }
      last[w] = static_cast<std::ptrdiff_t>(out.size());
      out.push_back({at[w], pc.len, w == 1});
    }
  }
  if (spanning) {
    for (int w = 0; w < 2; ++w)
      out.push_back({lo[w], hi[w] - lo[w], w == 1});
  }
  if (desc != nullptr && n_desc > 0) {
    out.push_back(
        {desc, static_cast<std::int64_t>(n_desc * sizeof(CudaDevDist)),
         false});
  }
  return out;
}

/// A cost model in which one profile field decides the kernel duration
/// to the nanosecond per byte: device transactions (`pcie_probe` false)
/// or PCI-E bytes, with a distinct rate per direction (true).
sg::CostModel probe_model(int txn, bool pcie_probe) {
  sg::CostModel cm;
  cm.mem_txn_bytes = txn;
  cm.kernel_mem_inefficiency = 0.0;
  cm.sm_copy_gbps = 1e12;
  cm.gpu_mem_gbps = pcie_probe ? 1e12 : 1e-3;
  cm.pcie_h2d_gbps = pcie_probe ? 1e-3 : 1e12;
  cm.pcie_d2h_gbps = pcie_probe ? 5e-4 : 1e12;
  cm.kernel_peer_gbps = pcie_probe ? 2.5e-4 : 1e12;
  return cm;
}

enum class Kind { kPackVector, kUnpackVector, kPackDev, kUnpackDev };

struct KernelCase {
  Kind kind = Kind::kPackVector;
  mpi::RegularPattern pat;          // vector kernels
  std::int64_t pk_lo = 0, pk_hi = 0;
  std::vector<CudaDevDist> units;   // DEV kernels
  std::int64_t pk_base = 0;
  std::int64_t span = 0;            // bytes the strided side covers
  std::int64_t packed = 0;          // bytes the packed side covers
};

/// Runs `kc` on a fresh machine with the strided side in `user` memory and
/// the packed side in `packed` memory; checks the bytes moved, the finish
/// time and (when `check`) the checker ranges against the references.
void expect_kernel_matches(const KernelCase& kc, Where user, Where packed,
                           const sg::CostModel& cm, bool check) {
  sg::MachineConfig cfg = test::machine_config(2, 64u << 20);
  cfg.cost = cm;
  cfg.check = 0;
  sg::Machine m(cfg);
  auto owned_sink = std::make_unique<RangeSink>();
  RangeSink* sink = owned_sink.get();
  if (check) m.set_observer(std::move(owned_sink));
  sg::HostContext ctx(m, 0);
  const auto alloc = [&](Where w, std::int64_t bytes) -> std::byte* {
    const auto n = static_cast<std::size_t>(std::max<std::int64_t>(bytes, 1));
    if (w == Where::kMappedHost)
      return static_cast<std::byte*>(sg::HostAlloc(ctx, n, true));
    ctx.device = w == Where::kPeer ? 1 : 0;
    auto* p = static_cast<std::byte*>(sg::Malloc(ctx, n));
    ctx.device = 0;
    return p;
  };
  std::byte* ubuf = alloc(user, kc.span);
  std::byte* pbuf = alloc(packed, kc.packed);
  auto* desc = static_cast<CudaDevDist*>(
      sg::Malloc(ctx, std::max<std::size_t>(
                          kc.units.size() * sizeof(CudaDevDist), 1)));
  test::fill_pattern(ubuf, static_cast<std::size_t>(kc.span), 3);
  test::fill_pattern(pbuf, static_cast<std::size_t>(kc.packed), 4);
  std::vector<std::byte> want_u(ubuf, ubuf + kc.span);
  std::vector<std::byte> want_p(pbuf, pbuf + kc.packed);

  const bool pack = kc.kind == Kind::kPackVector || kc.kind == Kind::kPackDev;
  const bool dev = kc.kind == Kind::kPackDev || kc.kind == Kind::kUnpackDev;
  std::vector<Piece> pieces;  // strided-side offset, packed-side offset
  if (dev) {
    for (const auto& u : kc.units)
      pieces.push_back({u.nc_disp, u.pk_disp - kc.pk_base, u.length});
  } else {
    pieces = vector_pieces(kc.pat, kc.pk_lo, kc.pk_hi);
  }
  for (const Piece& pc : pieces) {
    auto* to = pack ? want_p.data() + pc.dst : want_u.data() + pc.src;
    const auto* from = pack ? want_u.data() + pc.src : want_p.data() + pc.dst;
    std::memcpy(to, from, static_cast<std::size_t>(pc.len));
  }
  if (!pack) {
    for (Piece& pc : pieces) std::swap(pc.src, pc.dst);
  }

  sg::Stream stream(&m.device(0));
  const vt::Time t0 = ctx.clock.now();
  const int blocks = 15;
  vt::Time fin = 0;
  switch (kc.kind) {
    case Kind::kPackVector:
      fin = pack_vector_kernel(ctx, stream, ubuf, kc.pat, kc.pk_lo, kc.pk_hi,
                               pbuf, blocks);
      break;
    case Kind::kUnpackVector:
      fin = unpack_vector_kernel(ctx, stream, ubuf, kc.pat, kc.pk_lo,
                                 kc.pk_hi, pbuf, blocks);
      break;
    case Kind::kPackDev:
      fin = pack_dev_kernel(ctx, stream, ubuf, kc.units, kc.pk_base, pbuf,
                            desc, blocks);
      break;
    case Kind::kUnpackDev:
      fin = unpack_dev_kernel(ctx, stream, ubuf, kc.units, kc.pk_base, pbuf,
                              desc, blocks);
      break;
  }
  EXPECT_EQ(std::memcmp(ubuf, want_u.data(), want_u.size()), 0);
  EXPECT_EQ(std::memcmp(pbuf, want_p.data(), want_p.size()), 0);

  const Where src = pack ? user : packed;
  const Where dst = pack ? packed : user;
  const sg::KernelProfile prof = ref_profile(
      cm, src, dst, pieces, dev ? kc.units.size() : 0, blocks);
  EXPECT_EQ(fin, t0 + cm.enqueue_ns +
                     sg::KernelDuration(cm, prof, cfg.sms_per_device));
  if (check) {
    ASSERT_EQ(sink->ops.size(), 1u);
    const auto want = ref_ranges(pack ? ubuf : pbuf, pack ? pbuf : ubuf,
                                 pieces, dev ? desc : nullptr,
                                 kc.units.size());
    const auto& got = sink->ops[0];
    ASSERT_EQ(got.size(), want.size());
    for (std::size_t i = 0; i < got.size(); ++i) {
      EXPECT_EQ(got[i].ptr, want[i].ptr) << i;
      EXPECT_EQ(got[i].len, want[i].len) << i;
      EXPECT_EQ(got[i].write, want[i].write) << i;
    }
  }
}

/// A seeded vector case: pk_lo lands mid-block, pk_hi anywhere after it.
KernelCase random_vector_case(std::mt19937& rng, Kind kind, bool many) {
  KernelCase kc;
  kc.kind = kind;
  const auto uni = [&](std::int64_t a, std::int64_t b) {
    return std::uniform_int_distribution<std::int64_t>(a, b)(rng);
  };
  kc.pat.blocklen = uni(2, 400);
  kc.pat.stride = kc.pat.blocklen + uni(1, 300);
  kc.pat.count = many ? uni(4100, 5000) : uni(1, 60);
  kc.pat.first_disp = uni(0, 500);
  const std::int64_t total = kc.pat.blocklen * kc.pat.count;
  // `many` walks more pieces than the checker keeps ranges for.
  const std::int64_t block_start =
      many ? 0 : uni(0, total / 2) / kc.pat.blocklen * kc.pat.blocklen;
  kc.pk_lo = block_start + uni(1, kc.pat.blocklen - 1);
  kc.pk_hi = many ? total : std::min(total, kc.pk_lo + uni(1, total));
  kc.span = kc.pat.first_disp + kc.pat.count * kc.pat.stride;
  kc.packed = kc.pk_hi - kc.pk_lo;
  return kc;
}

/// A seeded DEV case: a window of a converted random datatype, or of
/// hand-made units with arbitrary displacements and lengths.
KernelCase random_dev_case(std::mt19937& rng, Kind kind) {
  KernelCase kc;
  kc.kind = kind;
  const auto uni = [&](std::int64_t a, std::int64_t b) {
    return std::uniform_int_distribution<std::int64_t>(a, b)(rng);
  };
  std::vector<CudaDevDist> all;
  if (uni(0, 1) == 0) {
    mpi::DatatypePtr dt;
    do {
      dt = test::random_datatype(rng);
    } while (dt->size() == 0 || dt->true_lb() < 0);
    const std::int64_t count = uni(1, 4);
    all = convert_all(dt, count, uni(0, 1) == 0 ? 256 : 1024);
  } else {
    std::int64_t pk = 0;
    for (std::int64_t i = uni(1, 300); i > 0; --i) {
      const std::int64_t len = uni(1, 1100);
      all.push_back({uni(0, 20000), pk, len});
      pk += len;
    }
  }
  const auto a = static_cast<std::size_t>(
      uni(0, static_cast<std::int64_t>(all.size()) - 1));
  const auto b = static_cast<std::size_t>(
      uni(static_cast<std::int64_t>(a) + 1,
          static_cast<std::int64_t>(all.size())));
  kc.units.assign(all.begin() + static_cast<std::ptrdiff_t>(a),
                  all.begin() + static_cast<std::ptrdiff_t>(b));
  kc.pk_base = kc.units.front().pk_disp;
  for (const auto& u : kc.units) {
    kc.span = std::max(kc.span, u.nc_disp + u.length);
    kc.packed = std::max(kc.packed, u.pk_disp - kc.pk_base + u.length);
  }
  return kc;
}

class KernelEquivalence : public ::testing::TestWithParam<Kind> {};

TEST_P(KernelEquivalence, MatchesPerPieceReference) {
  const Kind kind = GetParam();
  const bool dev = kind == Kind::kPackDev || kind == Kind::kUnpackDev;
  std::mt19937 rng(1234 + static_cast<unsigned>(kind));
  const std::pair<Where, Where> sides[] = {
      {Where::kLocal, Where::kLocal},
      {Where::kPeer, Where::kLocal},
      {Where::kLocal, Where::kPeer},
      {Where::kMappedHost, Where::kLocal},
      {Where::kLocal, Where::kMappedHost}};
  for (int iter = 0; iter < 12; ++iter) {
    const KernelCase kc = dev ? random_dev_case(rng, kind)
                              : random_vector_case(rng, kind, iter == 0);
    for (const auto& [user, packed] : sides) {
      for (const int txn : {128, 96}) {
        for (const bool pcie_probe : {false, true}) {
          SCOPED_TRACE(testing::Message()
                       << "iter " << iter << " txn " << txn << " user "
                       << static_cast<int>(user) << " packed "
                       << static_cast<int>(packed) << " pcie_probe "
                       << pcie_probe);
          for (const bool check : {false, true})
            expect_kernel_matches(kc, user, packed,
                                  probe_model(txn, pcie_probe), check);
        }
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(AllKernels, KernelEquivalence,
                         ::testing::Values(Kind::kPackVector,
                                           Kind::kUnpackVector,
                                           Kind::kPackDev, Kind::kUnpackDev));

// --- DevCursor ------------------------------------------------------------------

/// DevCursor as a per-block walk: one BlockCursor::next(unit_bytes) per
/// unit, a new piece whenever a unit does not continue the previous one.
class RefDevCursor {
 public:
  RefDevCursor(const mpi::DatatypePtr& dt, std::int64_t count,
               std::int64_t unit_bytes)
      : cur_(dt, count, mpi::BlockCursor::ProgramView::kCanonical),
        unit_bytes_(unit_bytes) {}

  std::size_t next_units(std::vector<CudaDevDist>& out, std::size_t limit) {
    std::size_t n = 0;
    mpi::Block b;
    while (n < limit && cur_.next(unit_bytes_, &b)) {
      if (b.offset != last_end_) ++pieces_;
      last_end_ = b.offset + b.len;
      out.push_back({b.offset, bytes_, b.len});
      bytes_ += b.len;
      ++n;
    }
    return n;
  }
  std::int64_t pieces_visited() const { return pieces_; }
  std::int64_t bytes_emitted() const { return bytes_; }

 private:
  mpi::BlockCursor cur_;
  std::int64_t unit_bytes_;
  std::int64_t bytes_ = 0;
  std::int64_t pieces_ = 0;
  std::int64_t last_end_ = -1;
};

void expect_cursor_matches(const mpi::DatatypePtr& dt, std::int64_t count,
                           std::int64_t unit_bytes, std::mt19937& rng) {
  SCOPED_TRACE(dt->describe());
  DevCursor got(dt, count, unit_bytes);
  RefDevCursor want(dt, count, unit_bytes);
  std::vector<CudaDevDist> gu, wu;
  std::uniform_int_distribution<int> lim(1, 40);
  for (;;) {
    const std::size_t limit =
        lim(rng) == 40 ? SIZE_MAX : static_cast<std::size_t>(lim(rng));
    const std::size_t g = got.next_units(gu, limit);
    ASSERT_EQ(g, want.next_units(wu, limit));
    ASSERT_EQ(gu, wu);
    ASSERT_EQ(got.pieces_visited(), want.pieces_visited());
    ASSERT_EQ(got.bytes_emitted(), want.bytes_emitted());
    if (g == 0) break;
  }
  EXPECT_TRUE(got.done());
  EXPECT_EQ(got.bytes_emitted(), dt->size() * count);
}

TEST(DevCursorEquivalence, RandomTypesMatchPerBlockWalk) {
  std::mt19937 rng(77);
  for (int i = 0; i < 150; ++i) {
    const auto dt = test::random_datatype(rng);
    const std::int64_t count = std::uniform_int_distribution<int>(1, 5)(rng);
    for (const std::int64_t unit : {256, 1024, 4096})
      expect_cursor_matches(dt, count, unit, rng);
  }
}

TEST(DevCursorEquivalence, LongBlocksSplitAtUnitSize) {
  std::mt19937 rng(78);
  using mpi::Datatype;
  const mpi::DatatypePtr types[] = {
      Datatype::contiguous(600, mpi::kDouble()),  // one 4800 B block
      Datatype::vector(9, 200, 230, mpi::kDouble()),  // 1600 B blocks
      Datatype::hvector(5, 700, 6000, mpi::kChar()),
      Datatype::vector(40, 3, 7, Datatype::contiguous(50, mpi::kDouble()))};
  for (const auto& dt : types) {
    for (const std::int64_t unit : {256, 1024, 4096}) {
      for (const std::int64_t count : {1, 3})
        expect_cursor_matches(dt, count, unit, rng);
    }
  }
}

TEST(DevCursorEquivalence, NegativeLowerBoundResizedTypes) {
  std::mt19937 rng(79);
  using mpi::Datatype;
  for (int i = 0; i < 40; ++i) {
    const auto base = test::random_datatype(rng);
    // lb below zero: element k's blocks land at k * extent - |lb| + ...,
    // so the first units have negative displacements.
    const std::int64_t lb = -8 * std::uniform_int_distribution<int>(1, 9)(rng);
    const auto dt =
        Datatype::resized(base, lb, base->extent() + 8 * (i % 3));
    for (const std::int64_t unit : {256, 1024, 4096})
      expect_cursor_matches(dt, 1 + i % 4, unit, rng);
  }
}

TEST(BlockCursorTakePieces, RunsExpandToNextPieces) {
  // take_pieces(max_piece, max_pieces) must visit exactly the pieces that
  // next(max_piece) would, with the same pieces_produced() after each call.
  std::mt19937 rng(80);
  std::uniform_int_distribution<int> cap(1, 12);
  for (int i = 0; i < 150; ++i) {
    const auto dt = test::random_datatype(rng);
    for (const std::int64_t max_piece : {8, 24, 256}) {
      mpi::BlockCursor a(dt, 3), b(dt, 3);
      for (;;) {
        std::vector<mpi::Block> runs;
        const std::int64_t k_cap = cap(rng);
        const bool more = a.take_pieces(
            max_piece, k_cap,
            [&](std::int64_t off, std::int64_t len, std::int64_t stride,
                std::int64_t k) {
              ASSERT_GE(k, 1);
              ASSERT_LE(k, k_cap);
              for (std::int64_t j = 0; j < k; ++j)
                runs.push_back({off + j * stride, len});
            });
        for (const mpi::Block& r : runs) {
          mpi::Block w;
          ASSERT_TRUE(b.next(max_piece, &w));
          ASSERT_EQ(r.offset, w.offset);
          ASSERT_EQ(r.len, w.len);
        }
        ASSERT_EQ(a.pieces_produced(), b.pieces_produced());
        if (!more) break;
      }
      mpi::Block w;
      EXPECT_FALSE(b.next(max_piece, &w));
    }
  }
}

}  // namespace
}  // namespace gpuddt::core
