// MPI-3 style RMA windows: fence epochs, datatype put/get/accumulate on
// host and device windows.
#include <gtest/gtest.h>

#include <cstring>
#include <vector>

#include "check/config.h"
#include "core/layouts.h"
#include "mpi/runtime.h"
#include "protocols/gpu_plugin.h"
#include "rma/window.h"
#include "test_helpers.h"

namespace gpuddt::rma {
namespace {

mpi::RuntimeConfig world(int n) {
  mpi::RuntimeConfig cfg;
  cfg.world_size = n;
  cfg.machine.num_devices = 2;
  cfg.machine.device_memory_bytes = 256u << 20;
  return cfg;
}

TEST(RmaWindow, PutContiguousHost) {
  mpi::Runtime rt(world(2));
  rt.run([](mpi::Process& p) {
    mpi::Comm comm(p);
    std::vector<std::int32_t> win(256, -1);
    Window w(comm, win.data(), 256 * 4);
    w.fence();
    if (p.rank() == 0) {
      std::vector<std::int32_t> data(100);
      for (int i = 0; i < 100; ++i) data[static_cast<std::size_t>(i)] = i;
      w.put(data.data(), 100, mpi::kInt32(), 1, /*disp=*/64, 100,
            mpi::kInt32());
    }
    w.fence();
    if (p.rank() == 1) {
      for (int i = 0; i < 100; ++i) EXPECT_EQ(win[16 + i], i);
      EXPECT_EQ(win[15], -1);
      EXPECT_EQ(win[116], -1);
    }
  });
}

TEST(RmaWindow, PutWithTargetDatatypeOnDevice) {
  // Origin holds a dense block; the target scatters it as a triangular
  // matrix in device memory - the target datatype is applied remotely by
  // the origin's engine.
  mpi::Runtime rt(world(2));
  rt.set_gpu_plugin(std::make_shared<proto::GpuDatatypePlugin>());
  rt.run([](mpi::Process& p) {
    mpi::Comm comm(p);
    const std::int64_t n = 64;
    auto tri = core::lower_triangular_type(n, n);
    auto* win = static_cast<std::byte*>(
        sg::Malloc(p.gpu(), static_cast<std::size_t>(n * n * 8)));
    std::memset(win, 0, static_cast<std::size_t>(n * n * 8));
    Window w(comm, win, n * n * 8);
    w.fence();
    if (p.rank() == 0) {
      std::vector<double> dense(
          static_cast<std::size_t>(core::lower_triangle_elems(n)));
      for (std::size_t i = 0; i < dense.size(); ++i)
        dense[i] = static_cast<double>(i) + 0.5;
      w.put(dense.data(), core::lower_triangle_elems(n), mpi::kDouble(), 1,
            0, 1, tri);
    }
    w.fence();
    if (p.rank() == 1) {
      const auto got = test::reference_pack(tri, 1, win);
      const auto* vals = reinterpret_cast<const double*>(got.data());
      for (std::int64_t i = 0; i < core::lower_triangle_elems(n); ++i)
        ASSERT_EQ(vals[i], static_cast<double>(i) + 0.5);
      // Off-triangle untouched.
      EXPECT_EQ(reinterpret_cast<double*>(win)[1 * n + 0], 0.0);
    }
  });
}

TEST(RmaWindow, GetWithOriginDatatype) {
  mpi::Runtime rt(world(2));
  rt.set_gpu_plugin(std::make_shared<proto::GpuDatatypePlugin>());
  rt.run([](mpi::Process& p) {
    mpi::Comm comm(p);
    const std::int64_t rows = 32, cols = 8, ld = 48;
    auto vec = core::submatrix_type(rows, cols, ld);
    auto* win = static_cast<std::byte*>(
        sg::Malloc(p.gpu(), static_cast<std::size_t>(ld * cols * 8)));
    test::fill_pattern(win, static_cast<std::size_t>(ld * cols * 8),
                       p.rank() + 3);
    Window w(comm, win, ld * cols * 8);
    w.fence();
    if (p.rank() == 0) {
      // Fetch rank 1's sub-matrix into a dense local buffer.
      std::vector<double> dense(static_cast<std::size_t>(rows * cols));
      w.get(dense.data(), rows * cols, mpi::kDouble(), 1, 0, 1, vec);
      std::vector<std::byte> peer(static_cast<std::size_t>(ld * cols * 8));
      test::fill_pattern(peer.data(), peer.size(), 4);
      const auto expect = test::reference_pack(vec, 1, peer.data());
      EXPECT_EQ(std::memcmp(dense.data(), expect.data(), expect.size()), 0);
    }
    w.fence();
  });
}

TEST(RmaWindow, AccumulateSumsFromAllRanks) {
  mpi::Runtime rt(world(4));
  rt.run([](mpi::Process& p) {
    mpi::Comm comm(p);
    std::vector<double> win(64, 0.0);
    Window w(comm, win.data(), 64 * 8);
    w.fence();
    // Everyone accumulates into rank 0's window.
    std::vector<double> mine(64);
    for (int i = 0; i < 64; ++i)
      mine[static_cast<std::size_t>(i)] = p.rank() + 1.0;
    w.accumulate(mine.data(), 64, mpi::kDouble(), 0, 0, 64, mpi::kDouble(),
                 mpi::ReduceOp::kSum);
    w.fence();
    if (p.rank() == 0) {
      for (int i = 0; i < 64; ++i) EXPECT_DOUBLE_EQ(win[i], 1 + 2 + 3 + 4);
    }
  });
}

TEST(RmaWindow, FencePropagatesVirtualCompletion) {
  mpi::Runtime rt(world(2));
  rt.set_gpu_plugin(std::make_shared<proto::GpuDatatypePlugin>());
  rt.run([](mpi::Process& p) {
    mpi::Comm comm(p);
    auto* win = static_cast<std::byte*>(sg::Malloc(p.gpu(), 32u << 20));
    Window w(comm, win, 32 << 20);
    w.fence();
    if (p.rank() == 0) {
      auto* local = static_cast<std::byte*>(sg::Malloc(p.gpu(), 16u << 20));
      w.put(local, (16 << 20) / 8, mpi::kDouble(), 1, 0, (16 << 20) / 8,
            mpi::kDouble());
    }
    const vt::Time before = p.clock().now();
    w.fence();
    if (p.rank() == 1) {
      // The target's clock must absorb the origin's 16MB peer transfer.
      EXPECT_GT(p.clock().now(), before + vt::msec(1));
    }
  });
}

TEST(RmaWindow, SeededEpochConflictIsFlaggedByChecker) {
  // Two origins put into the SAME bytes of rank 0's device window inside
  // one fence epoch. MPI makes such conflicts the caller's problem
  // (window.h header comment); the access checker must surface the WAW -
  // the RMA layer previously had no seeded-hazard coverage.
  mpi::RuntimeConfig cfg = world(3);
  cfg.machine.check = 1;
  mpi::Runtime rt(cfg);
  rt.set_gpu_plugin(std::make_shared<proto::GpuDatatypePlugin>());
  const std::int64_t hazards0 = check::hazard_count();
  rt.run([](mpi::Process& p) {
    mpi::Comm comm(p);
    const std::int64_t bytes = 64 * 1024;
    std::byte* win = nullptr;
    if (p.rank() == 0) {
      win = static_cast<std::byte*>(
          sg::Malloc(p.gpu(), static_cast<std::size_t>(bytes)));
      std::memset(win, 0, static_cast<std::size_t>(bytes));
    }
    Window w(comm, win, p.rank() == 0 ? bytes : 0);
    w.fence();
    if (p.rank() != 0) {
      std::vector<std::int32_t> data(
          static_cast<std::size_t>(bytes / 4), p.rank());
      w.put(data.data(), bytes / 4, mpi::kInt32(), 0, /*disp=*/0, bytes / 4,
            mpi::kInt32());
    }
    w.fence();
    if (p.rank() == 0) sg::Free(p.gpu(), win);
  });
  EXPECT_GE(check::hazard_count() - hazards0, 1);
}

TEST(RmaWindow, DeviceAccumulateScratchIsCheckedAndClean) {
  // Accumulate on a device window stages through malloc'd host scratch
  // that the window now registers with the checker
  // (simgpu/staging.h). Fence-separated accumulates are fully ordered:
  // the newly-visible scratch ranges must not produce false positives,
  // and the result must still combine correctly.
  mpi::RuntimeConfig cfg = world(2);
  cfg.machine.check = 1;
  mpi::Runtime rt(cfg);
  rt.set_gpu_plugin(std::make_shared<proto::GpuDatatypePlugin>());
  const std::int64_t hazards0 = check::hazard_count();
  rt.run([](mpi::Process& p) {
    mpi::Comm comm(p);
    const std::int64_t n = 1024;
    std::byte* win = nullptr;
    if (p.rank() == 0) {
      win = static_cast<std::byte*>(
          sg::Malloc(p.gpu(), static_cast<std::size_t>(n * 4)));
      std::vector<std::int32_t> init(static_cast<std::size_t>(n), 10);
      std::memcpy(win, init.data(), static_cast<std::size_t>(n * 4));
    }
    Window w(comm, win, p.rank() == 0 ? n * 4 : 0);
    w.fence();
    if (p.rank() == 1) {
      std::vector<std::int32_t> data(static_cast<std::size_t>(n), 5);
      w.accumulate(data.data(), n, mpi::kInt32(), 0, 0, n, mpi::kInt32(),
                   mpi::ReduceOp::kSum);
    }
    w.fence();
    if (p.rank() == 0) {
      std::vector<std::int32_t> out(static_cast<std::size_t>(n));
      std::memcpy(out.data(), win, static_cast<std::size_t>(n * 4));
      EXPECT_EQ(out[0], 15);
      EXPECT_EQ(out[static_cast<std::size_t>(n) - 1], 15);
      sg::Free(p.gpu(), win);
    }
  });
  EXPECT_EQ(check::hazard_count() - hazards0, 0);
}

TEST(RmaWindow, FenceSeparatedPutsRunClean) {
  // The same two puts in separate fence epochs are ordered and must not
  // be flagged.
  mpi::RuntimeConfig cfg = world(3);
  cfg.machine.check = 1;
  mpi::Runtime rt(cfg);
  rt.set_gpu_plugin(std::make_shared<proto::GpuDatatypePlugin>());
  const std::int64_t hazards0 = check::hazard_count();
  rt.run([](mpi::Process& p) {
    mpi::Comm comm(p);
    const std::int64_t bytes = 64 * 1024;
    std::byte* win = nullptr;
    if (p.rank() == 0) {
      win = static_cast<std::byte*>(
          sg::Malloc(p.gpu(), static_cast<std::size_t>(bytes)));
      std::memset(win, 0, static_cast<std::size_t>(bytes));
    }
    Window w(comm, win, p.rank() == 0 ? bytes : 0);
    w.fence();
    if (p.rank() == 1) {
      std::vector<std::int32_t> data(static_cast<std::size_t>(bytes / 4), 1);
      w.put(data.data(), bytes / 4, mpi::kInt32(), 0, 0, bytes / 4,
            mpi::kInt32());
    }
    w.fence();
    if (p.rank() == 2) {
      std::vector<std::int32_t> data(static_cast<std::size_t>(bytes / 4), 2);
      w.put(data.data(), bytes / 4, mpi::kInt32(), 0, 0, bytes / 4,
            mpi::kInt32());
    }
    w.fence();
    if (p.rank() == 0) sg::Free(p.gpu(), win);
  });
  EXPECT_EQ(check::hazard_count() - hazards0, 0);
}

TEST(RmaWindow, OutOfRangeAccessThrows) {
  mpi::Runtime rt(world(2));
  rt.run([](mpi::Process& p) {
    mpi::Comm comm(p);
    std::vector<std::byte> win(1024);
    Window w(comm, win.data(), 1024);
    w.fence();
    std::vector<std::byte> data(512);
    EXPECT_THROW(w.put(data.data(), 512, mpi::kByte(), 1 - p.rank(), 768,
                       512, mpi::kByte()),
                 std::invalid_argument);
    w.fence();
  });
}

TEST(RmaWindow, SizeMismatchThrows) {
  mpi::Runtime rt(world(2));
  rt.run([](mpi::Process& p) {
    mpi::Comm comm(p);
    std::vector<std::byte> win(1024);
    Window w(comm, win.data(), 1024);
    w.fence();
    std::vector<std::byte> data(128);
    EXPECT_THROW(w.put(data.data(), 128, mpi::kByte(), 1 - p.rank(), 0, 64,
                       mpi::kByte()),
                 std::invalid_argument);
    w.fence();
  });
}

TEST(RmaWindow, HeterogeneousWindowSizes) {
  mpi::Runtime rt(world(3));
  rt.run([](mpi::Process& p) {
    mpi::Comm comm(p);
    const std::int64_t mine = 256 * (p.rank() + 1);
    std::vector<std::byte> win(static_cast<std::size_t>(mine));
    Window w(comm, win.data(), mine);
    for (int r = 0; r < 3; ++r)
      EXPECT_EQ(w.size_at(r), 256 * (r + 1));
    w.fence();
    w.fence();
  });
}

}  // namespace
}  // namespace gpuddt::rma
