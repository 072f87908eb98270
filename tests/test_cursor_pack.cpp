#include <gtest/gtest.h>

#include <algorithm>
#include <numeric>
#include <random>
#include <stdexcept>
#include <vector>

#include "core/layouts.h"
#include "mpi/cpu_pack.h"
#include "mpi/cursor.h"
#include "mpi/datatype.h"
#include "test_helpers.h"

namespace gpuddt::mpi {
namespace {

std::vector<Block> all_blocks(const DatatypePtr& dt, std::int64_t count) {
  BlockCursor cur(dt, count);
  std::vector<Block> out;
  Block b;
  while (cur.next(&b)) out.push_back(b);
  return out;
}

TEST(BlockCursor, PrimitiveYieldsOneBlock) {
  auto blocks = all_blocks(kDouble(), 1);
  ASSERT_EQ(blocks.size(), 1u);
  EXPECT_EQ(blocks[0].offset, 0);
  EXPECT_EQ(blocks[0].len, 8);
}

TEST(BlockCursor, CountAdvancesByExtent) {
  auto r = Datatype::resized(kDouble(), 0, 32);
  auto blocks = all_blocks(r, 3);
  ASSERT_EQ(blocks.size(), 3u);
  EXPECT_EQ(blocks[1].offset, 32);
  EXPECT_EQ(blocks[2].offset, 64);
}

TEST(BlockCursor, VectorBlockSequence) {
  auto t = Datatype::vector(3, 2, 5, kDouble());
  auto blocks = all_blocks(t, 1);
  ASSERT_EQ(blocks.size(), 3u);
  EXPECT_EQ(blocks[0].offset, 0);
  EXPECT_EQ(blocks[0].len, 16);
  EXPECT_EQ(blocks[1].offset, 40);
  EXPECT_EQ(blocks[2].offset, 80);
}

TEST(BlockCursor, TriangularColumns) {
  const std::int64_t n = 5;
  auto t = core::lower_triangular_type(n, n);
  auto blocks = all_blocks(t, 1);
  ASSERT_EQ(blocks.size(), static_cast<std::size_t>(n));
  for (std::int64_t j = 0; j < n; ++j) {
    EXPECT_EQ(blocks[static_cast<std::size_t>(j)].offset, (j * n + j) * 8);
    EXPECT_EQ(blocks[static_cast<std::size_t>(j)].len, (n - j) * 8);
  }
}

TEST(BlockCursor, PartialBudgetSplitsBlocks) {
  auto t = Datatype::contiguous(8, kDouble());  // one 64-byte block
  BlockCursor cur(t, 1);
  Block b;
  ASSERT_TRUE(cur.next(24, &b));
  EXPECT_EQ(b.offset, 0);
  EXPECT_EQ(b.len, 24);
  ASSERT_TRUE(cur.next(100, &b));
  EXPECT_EQ(b.offset, 24);
  EXPECT_EQ(b.len, 40);
  EXPECT_TRUE(cur.done());
}

TEST(BlockCursor, BytesRemainingTracksProgress) {
  auto t = Datatype::vector(4, 2, 4, kDouble());
  BlockCursor cur(t, 2);
  EXPECT_EQ(cur.bytes_remaining(), 2 * 64);
  Block b;
  cur.next(10, &b);
  EXPECT_EQ(cur.bytes_remaining(), 128 - 10);
  EXPECT_EQ(cur.bytes_consumed(), 10);
}

TEST(BlockCursor, ZeroCountIsImmediatelyDone) {
  BlockCursor cur(kDouble(), 0);
  EXPECT_TRUE(cur.done());
  Block b;
  EXPECT_FALSE(cur.next(&b));
}

TEST(BlockCursor, NegativeCountThrows) {
  EXPECT_THROW(BlockCursor(kDouble(), -2), std::invalid_argument);
  EXPECT_THROW(BlockCursor(Datatype::vector(3, 1, 2, kInt32()), -1,
                           BlockCursor::ProgramView::kCanonical),
               std::invalid_argument);
}

TEST(BlockCursor, TakeEmitsWholeStridedRun) {
  // vector(4, 1, 2, double): one 8-byte block under a 4-iteration loop.
  auto t = Datatype::vector(4, 1, 2, kDouble());
  BlockCursor cur(t, 1);
  std::vector<std::int64_t> run;
  const auto record = [&run](std::int64_t off, std::int64_t len,
                             std::int64_t stride, std::int64_t k) {
    run = {off, len, stride, k};
  };
  // 20 bytes: two whole blocks as one run, then 4 bytes of the third.
  ASSERT_TRUE(cur.take(20, record));
  EXPECT_EQ(run, (std::vector<std::int64_t>{0, 8, 16, 2}));
  EXPECT_EQ(cur.pieces_produced(), 2);
  ASSERT_TRUE(cur.take(4, record));
  EXPECT_EQ(run, (std::vector<std::int64_t>{32, 4, 4, 1}));
  // Inside a block: the rest of it is one piece, then the last block.
  ASSERT_TRUE(cur.take(100, record));
  EXPECT_EQ(run, (std::vector<std::int64_t>{36, 4, 4, 1}));
  ASSERT_TRUE(cur.take(100, record));
  EXPECT_EQ(run, (std::vector<std::int64_t>{48, 8, 16, 1}));
  EXPECT_TRUE(cur.done());
  EXPECT_EQ(cur.pieces_produced(), 5);
  EXPECT_FALSE(cur.take(100, record));
}

TEST(BlockCursor, TakeRunsOverTheCountLoop) {
  // A one-block program strides by the extent across elements.
  auto r = Datatype::resized(kDouble(), 0, 32);
  BlockCursor cur(r, 5);
  std::vector<std::int64_t> run;
  ASSERT_TRUE(cur.take(INT64_MAX, [&run](std::int64_t off, std::int64_t len,
                                         std::int64_t stride,
                                         std::int64_t k) {
    run = {off, len, stride, k};
  }));
  EXPECT_EQ(run, (std::vector<std::int64_t>{0, 8, 32, 5}));
  EXPECT_TRUE(cur.done());
  EXPECT_EQ(cur.pieces_produced(), 5);
}

TEST(BlockCursor, NestedLoopsTraverseInOrder) {
  // vector of vectors: 2 outer blocks of (2 inner blocks of 1 double).
  auto inner = Datatype::vector(2, 1, 3, kDouble());
  auto outer = Datatype::hvector(2, 1, 100, inner);
  auto blocks = all_blocks(outer, 1);
  ASSERT_EQ(blocks.size(), 4u);
  EXPECT_EQ(blocks[0].offset, 0);
  EXPECT_EQ(blocks[1].offset, 24);
  EXPECT_EQ(blocks[2].offset, 100);
  EXPECT_EQ(blocks[3].offset, 124);
}

TEST(BlockCursor, SumOfBlocksEqualsSize) {
  std::mt19937 rng(42);
  for (int trial = 0; trial < 50; ++trial) {
    auto dt = test::random_datatype(rng);
    const std::int64_t count = 1 + trial % 4;
    auto blocks = all_blocks(dt, count);
    const std::int64_t sum = std::accumulate(
        blocks.begin(), blocks.end(), std::int64_t{0},
        [](std::int64_t acc, const Block& b) { return acc + b.len; });
    EXPECT_EQ(sum, dt->size() * count) << dt->describe();
  }
}

TEST(BlockCursor, PartialTraversalMatchesFullTraversal) {
  std::mt19937 rng(7);
  for (int trial = 0; trial < 30; ++trial) {
    auto dt = test::random_datatype(rng);
    const std::int64_t count = 1 + trial % 3;
    auto full = all_blocks(dt, count);
    // Re-walk with random small budgets and merge the pieces.
    BlockCursor cur(dt, count);
    std::vector<Block> merged;
    std::uniform_int_distribution<int> budget(1, 17);
    Block b;
    while (cur.next(budget(rng), &b)) {
      if (!merged.empty() &&
          merged.back().offset + merged.back().len == b.offset) {
        merged.back().len += b.len;
      } else {
        merged.push_back(b);
      }
    }
    // Merge the reference the same way (adjacent full blocks may abut).
    std::vector<Block> ref;
    for (const Block& f : full) {
      if (!ref.empty() && ref.back().offset + ref.back().len == f.offset) {
        ref.back().len += f.len;
      } else {
        ref.push_back(f);
      }
    }
    ASSERT_EQ(merged.size(), ref.size()) << dt->describe();
    for (std::size_t i = 0; i < ref.size(); ++i) {
      EXPECT_EQ(merged[i].offset, ref[i].offset);
      EXPECT_EQ(merged[i].len, ref[i].len);
    }
  }
}

// --- CPU pack/unpack --------------------------------------------------------------

TEST(CpuPack, VectorGathersStridedColumns) {
  auto t = Datatype::vector(2, 1, 2, kInt32());
  const std::int32_t src[] = {1, 2, 3, 4};
  std::vector<std::byte> out(8);
  cpu_pack(t, 1, src, out);
  std::int32_t vals[2];
  std::memcpy(vals, out.data(), 8);
  EXPECT_EQ(vals[0], 1);
  EXPECT_EQ(vals[1], 3);
}

TEST(CpuPack, UnpackScattersBack) {
  auto t = Datatype::vector(2, 1, 2, kInt32());
  const std::int32_t packed[] = {7, 9};
  std::int32_t dst[4] = {0, 0, 0, 0};
  cpu_unpack(t, 1,
             std::span<const std::byte>(
                 reinterpret_cast<const std::byte*>(packed), 8),
             dst);
  EXPECT_EQ(dst[0], 7);
  EXPECT_EQ(dst[1], 0);
  EXPECT_EQ(dst[2], 9);
}

TEST(CpuPack, TooSmallOutputThrows) {
  auto t = Datatype::contiguous(4, kDouble());
  std::vector<std::byte> out(8);
  double src[4];
  EXPECT_THROW(cpu_pack(t, 1, src, out), std::invalid_argument);
}

TEST(CpuPack, RoundTripRandomTypes) {
  std::mt19937 rng(1234);
  for (int trial = 0; trial < 60; ++trial) {
    auto dt = test::random_datatype(rng);
    const std::int64_t count = 1 + trial % 3;
    const std::int64_t span = test::span_bytes(dt, count);
    std::vector<std::byte> src(static_cast<std::size_t>(span));
    test::fill_pattern(src.data(), src.size(), trial);
    // Base shifted so negative-lb types stay in range.
    const std::byte* base = src.data() - dt->true_lb();

    auto packed = test::reference_pack(dt, count, base);
    std::vector<std::byte> dst(static_cast<std::size_t>(span));
    std::byte* dst_base = dst.data() - dt->true_lb();
    cpu_unpack(dt, count, packed, dst_base);
    auto repacked = test::reference_pack(dt, count, dst_base);
    EXPECT_EQ(packed, repacked) << dt->describe();
  }
}

TEST(CpuPack, PartialPackMatchesWholePack) {
  std::mt19937 rng(99);
  for (int trial = 0; trial < 30; ++trial) {
    auto dt = test::random_datatype(rng);
    const std::int64_t count = 2;
    const std::int64_t total = dt->size() * count;
    if (total == 0) continue;
    const std::int64_t span = test::span_bytes(dt, count);
    std::vector<std::byte> src(static_cast<std::size_t>(span));
    test::fill_pattern(src.data(), src.size(), trial + 1000);
    const std::byte* base = src.data() - dt->true_lb();

    auto whole = test::reference_pack(dt, count, base);
    std::vector<std::byte> pieces(static_cast<std::size_t>(total));
    BlockCursor cur(dt, count);
    std::int64_t at = 0;
    std::uniform_int_distribution<int> step(1, 13);
    while (at < total) {
      const std::int64_t n =
          std::min<std::int64_t>(step(rng), total - at);
      const auto st = cpu_pack_some(
          cur, base,
          std::span<std::byte>(pieces.data() + at,
                               static_cast<std::size_t>(n)));
      EXPECT_EQ(st.bytes, n);
      at += n;
    }
    EXPECT_EQ(whole, pieces) << dt->describe();
  }
}

TEST(CpuPack, NegativeCountThrows) {
  std::vector<std::byte> buf(64);
  double v[8] = {};
  EXPECT_THROW(cpu_pack(kDouble(), -1, v, buf), std::invalid_argument);
  EXPECT_THROW(cpu_unpack(kDouble(), -1, buf, v), std::invalid_argument);
}

// --- Batched vs per-piece walk ------------------------------------------------------

/// One type per MPI constructor, the padded particle struct resized to its
/// C++ sizeof, and nested random types.
std::vector<DatatypePtr> differential_types() {
  const std::int64_t idx_lens[] = {2, 1, 3};
  const std::int64_t idx_displs[] = {0, 4, 9};
  const std::int64_t hidx_lens[] = {1, 3};
  const std::int64_t hidx_displs[] = {0, 40};
  const std::int64_t blk_displs[] = {0, 3, 7};
  const std::int64_t st_lens[] = {2, 1};
  const std::int64_t st_displs[] = {0, 24};
  const DatatypePtr st_types[] = {kDouble(), kInt32()};
  const std::int64_t sizes[] = {6, 5};
  const std::int64_t subsizes[] = {3, 2};
  const std::int64_t starts[] = {1, 2};
  const std::int64_t gsizes[] = {8, 6};
  const Datatype::Distrib distribs[] = {Datatype::Distrib::kCyclic,
                                        Datatype::Distrib::kBlock};
  const std::int64_t dargs[] = {2, Datatype::kDefaultDarg};
  const std::int64_t psizes[] = {2, 2};
  // struct Particle { double pos[3]; double vel[3]; int id; }: sizeof 56.
  const std::int64_t p_lens[] = {3, 3, 1};
  const std::int64_t p_displs[] = {0, 24, 48};
  const DatatypePtr p_types[] = {kDouble(), kDouble(), kInt32()};
  std::vector<DatatypePtr> out = {
      Datatype::contiguous(5, kDouble()),
      Datatype::vector(6, 2, 3, kDouble()),
      Datatype::hvector(4, 3, 20, kInt32()),
      Datatype::indexed(idx_lens, idx_displs, kDouble()),
      Datatype::hindexed(hidx_lens, hidx_displs, kFloat()),
      Datatype::indexed_block(2, blk_displs, kDouble()),
      Datatype::struct_type(st_lens, st_displs, st_types),
      Datatype::subarray(sizes, subsizes, starts, kDouble()),
      Datatype::darray(4, 1, gsizes, distribs, dargs, psizes, kDouble()),
      Datatype::resized(Datatype::vector(3, 1, 2, kDouble()), 0, 64),
      Datatype::resized(Datatype::struct_type(p_lens, p_displs, p_types), 0,
                        56),
      Datatype::vector(3, 1, 4, Datatype::vector(2, 1, 2, kInt32())),
  };
  std::mt19937 rng(2024);
  for (int i = 0; i < 40; ++i) out.push_back(test::random_datatype(rng));
  return out;
}

/// The per-piece walk the batched engine must reproduce: one memcpy per
/// BlockCursor::next() piece.
PackStats pack_per_piece(BlockCursor& cur, const std::byte* src,
                         std::span<std::byte> out) {
  PackStats st;
  Block b;
  while (st.bytes < static_cast<std::int64_t>(out.size()) &&
         cur.next(static_cast<std::int64_t>(out.size()) - st.bytes, &b)) {
    std::memcpy(out.data() + st.bytes, src + b.offset,
                static_cast<std::size_t>(b.len));
    st.bytes += b.len;
    ++st.pieces;
  }
  return st;
}

PackStats unpack_per_piece(BlockCursor& cur, std::span<const std::byte> in,
                           std::byte* dst) {
  PackStats st;
  Block b;
  while (st.bytes < static_cast<std::int64_t>(in.size()) &&
         cur.next(static_cast<std::int64_t>(in.size()) - st.bytes, &b)) {
    std::memcpy(dst + b.offset, in.data() + st.bytes,
                static_cast<std::size_t>(b.len));
    st.bytes += b.len;
    ++st.pieces;
  }
  return st;
}

/// A budget in 1..4 x size, one time in four a single byte.
std::int64_t draw_budget(std::mt19937& rng, const DatatypePtr& dt) {
  if (rng() % 4 == 0) return 1;
  std::uniform_int_distribution<std::int64_t> d(
      1, std::max<std::int64_t>(1, 4 * dt->size()));
  return d(rng);
}

void expect_same_cursor(const BlockCursor& a, const BlockCursor& b) {
  EXPECT_EQ(a.bytes_consumed(), b.bytes_consumed());
  EXPECT_EQ(a.pieces_produced(), b.pieces_produced());
  EXPECT_EQ(a.done(), b.done());
}

TEST(CpuPack, BatchedMatchesPerPieceWalk) {
  std::mt19937 rng(31);
  for (const auto& dt : differential_types()) {
    for (std::int64_t count = 0; count <= 4; ++count) {
      SCOPED_TRACE(dt->describe() + " x" + std::to_string(count));
      const std::int64_t total = dt->size() * count;
      const auto span = static_cast<std::size_t>(test::span_bytes(dt, count));
      std::vector<std::byte> src(span);
      test::fill_pattern(src.data(), src.size(),
                         static_cast<std::uint32_t>(count));
      const std::byte* base = src.data() - dt->true_lb();
      // Room for a budget past the end, so the last call stops on the
      // cursor rather than on the buffer.
      const auto room = static_cast<std::size_t>(total + 4 * dt->size() + 1);

      std::vector<std::byte> fast(room), slow(room);
      BlockCursor fc(dt, count), sc(dt, count);
      for (std::int64_t at = 0; at < total || at == 0;) {
        const auto n = static_cast<std::size_t>(draw_budget(rng, dt));
        const auto a = static_cast<std::size_t>(at);
        const PackStats f = cpu_pack_some(
            fc, base, std::span<std::byte>(fast).subspan(a, n));
        const PackStats s = pack_per_piece(
            sc, base, std::span<std::byte>(slow).subspan(a, n));
        ASSERT_EQ(f.bytes, s.bytes);
        ASSERT_EQ(f.pieces, s.pieces);
        expect_same_cursor(fc, sc);
        if (f.bytes == 0) break;
        at += f.bytes;
      }
      EXPECT_TRUE(fc.done());
      EXPECT_EQ(fast, slow);
      EXPECT_EQ(std::vector<std::byte>(fast.begin(), fast.begin() + total),
                test::reference_pack(dt, count, base));

      // Scatter the packed bytes back over zeroed buffers, gaps included.
      std::vector<std::byte> fdst(span), sdst(span);
      std::byte* fbase = fdst.data() - dt->true_lb();
      std::byte* sbase = sdst.data() - dt->true_lb();
      BlockCursor fu(dt, count), su(dt, count);
      for (std::int64_t at = 0; at < total || at == 0;) {
        const auto n = static_cast<std::size_t>(draw_budget(rng, dt));
        const auto a = static_cast<std::size_t>(at);
        const auto in = std::span<const std::byte>(fast).subspan(a, n);
        const PackStats f = cpu_unpack_some(fu, in, fbase);
        const PackStats s = unpack_per_piece(su, in, sbase);
        ASSERT_EQ(f.bytes, s.bytes);
        ASSERT_EQ(f.pieces, s.pieces);
        expect_same_cursor(fu, su);
        if (f.bytes == 0) break;
        at += f.bytes;
      }
      EXPECT_TRUE(fu.done());
      EXPECT_EQ(fdst, sdst);
    }
  }
}

TEST(CpuPack, StatsCountPieces) {
  auto t = Datatype::vector(4, 1, 2, kDouble());
  double src[8];
  std::vector<std::byte> out(32);
  const auto st = cpu_pack(t, 1, src, out);
  EXPECT_EQ(st.bytes, 32);
  EXPECT_EQ(st.pieces, 4);
}

}  // namespace
}  // namespace gpuddt::mpi
