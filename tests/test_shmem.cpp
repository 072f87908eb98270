// OpenSHMEM-style one-sided layer: symmetric heap semantics, put/get,
// strided transfers, datatype put/get via the GPU engine, and quiet()
// ordering in virtual time.
#include <gtest/gtest.h>

#include <cstring>
#include <vector>

#include "check/config.h"
#include "core/layouts.h"
#include "mpi/runtime.h"
#include "shmem/shmem.h"
#include "test_helpers.h"

namespace gpuddt::shmem {
namespace {

mpi::RuntimeConfig pe_world(int n) {
  mpi::RuntimeConfig cfg;
  cfg.world_size = n;
  cfg.machine.num_devices = 2;
  cfg.machine.device_memory_bytes = 256u << 20;
  return cfg;
}

TEST(Shmem, SymmetricAddressesTranslate) {
  mpi::Runtime rt(pe_world(2));
  SymmetricHeap heap(rt, 1 << 20);
  rt.run([&](mpi::Process& p) {
    Pe pe(p, heap);
    auto* a = static_cast<double*>(pe.malloc(1024));
    auto* b = static_cast<double*>(pe.malloc(2048));
    // Same offsets on every PE.
    EXPECT_EQ(reinterpret_cast<std::byte*>(a) - heap.base(p.rank()), 0);
    EXPECT_EQ(reinterpret_cast<std::byte*>(b) - heap.base(p.rank()), 1024);
  });
}

TEST(Shmem, PutDeliversBytes) {
  mpi::Runtime rt(pe_world(2));
  SymmetricHeap heap(rt, 1 << 20);
  rt.run([&](mpi::Process& p) {
    Pe pe(p, heap);
    auto* buf = static_cast<std::int32_t*>(pe.malloc(4096));
    for (int i = 0; i < 1024; ++i) buf[i] = p.rank() == 0 ? i : -1;
    pe.barrier_all();
    if (p.rank() == 0) pe.putmem(buf, buf, 4096, 1);
    pe.barrier_all();
    if (p.rank() == 1) {
      for (int i = 0; i < 1024; ++i) EXPECT_EQ(buf[i], i);
    }
  });
}

TEST(Shmem, GetPullsRemoteBytes) {
  mpi::Runtime rt(pe_world(2));
  SymmetricHeap heap(rt, 1 << 20);
  rt.run([&](mpi::Process& p) {
    Pe pe(p, heap);
    auto* buf = static_cast<std::byte*>(pe.malloc(8192));
    test::fill_pattern(buf, 8192, p.rank() + 40);
    pe.barrier_all();
    if (p.rank() == 1) {
      std::vector<std::byte> local(8192);
      pe.getmem(local.data(), buf, 8192, 0);
      std::vector<std::byte> expect(8192);
      test::fill_pattern(expect.data(), 8192, 40);
      EXPECT_EQ(std::memcmp(local.data(), expect.data(), 8192), 0);
    }
    pe.barrier_all();
  });
}

TEST(Shmem, StridedIputIget) {
  mpi::Runtime rt(pe_world(2));
  SymmetricHeap heap(rt, 1 << 20);
  rt.run([&](mpi::Process& p) {
    Pe pe(p, heap);
    auto* buf = static_cast<double*>(pe.malloc(64 * 8));
    for (int i = 0; i < 64; ++i) buf[i] = p.rank() * 100.0 + i;
    pe.barrier_all();
    if (p.rank() == 0) {
      // Scatter every element to every 2nd slot on PE 1.
      double local[16];
      for (int i = 0; i < 16; ++i) local[i] = 1000.0 + i;
      pe.iput(buf, local, /*dst stride=*/2, /*src stride=*/1, 16,
              sizeof(double), 1);
    }
    pe.barrier_all();
    if (p.rank() == 1) {
      for (int i = 0; i < 16; ++i) {
        EXPECT_EQ(buf[2 * i], 1000.0 + i);
        if (2 * i + 1 < 64) {
          EXPECT_EQ(buf[2 * i + 1], 100.0 + (2 * i + 1));  // untouched
        }
      }
      // Pull back strided.
      double pulled[8];
      pe.iget(pulled, buf, 1, 4, 8, sizeof(double), 0);
      for (int i = 0; i < 8; ++i) EXPECT_EQ(pulled[i], 4.0 * i);
    }
    pe.barrier_all();
  });
}

TEST(Shmem, DatatypePutMovesTriangle) {
  mpi::Runtime rt(pe_world(2));
  SymmetricHeap heap(rt, 8u << 20);
  rt.run([&](mpi::Process& p) {
    Pe pe(p, heap);
    const std::int64_t n = 64;
    auto dt = core::lower_triangular_type(n, n);
    auto* mat = static_cast<std::byte*>(
        pe.malloc(static_cast<std::size_t>(n * n * 8)));
    if (p.rank() == 0) {
      test::fill_pattern(mat, static_cast<std::size_t>(n * n * 8), 31);
    } else {
      std::memset(mat, 0, static_cast<std::size_t>(n * n * 8));
    }
    pe.barrier_all();
    if (p.rank() == 0) pe.put_datatype(mat, mat, dt, 1, 1);
    pe.barrier_all();
    if (p.rank() == 1) {
      std::vector<std::byte> expect(static_cast<std::size_t>(n * n * 8));
      test::fill_pattern(expect.data(), expect.size(), 31);
      EXPECT_EQ(test::reference_pack(dt, 1, mat),
                test::reference_pack(dt, 1, expect.data()));
      // Off-triangle stays zero.
      const auto* d = reinterpret_cast<const double*>(mat);
      EXPECT_EQ(d[1 * n + 0], 0.0);  // A(0,1): strictly upper
    }
    pe.barrier_all();
  });
}

TEST(Shmem, DatatypeGetPullsVector) {
  mpi::Runtime rt(pe_world(2));
  SymmetricHeap heap(rt, 8u << 20);
  rt.run([&](mpi::Process& p) {
    Pe pe(p, heap);
    const std::int64_t rows = 48, cols = 16, ld = 64;
    auto dt = core::submatrix_type(rows, cols, ld);
    auto* mat = static_cast<std::byte*>(
        pe.malloc(static_cast<std::size_t>(ld * cols * 8)));
    test::fill_pattern(mat, static_cast<std::size_t>(ld * cols * 8),
                       p.rank() + 7);
    pe.barrier_all();
    if (p.rank() == 1) {
      std::vector<std::byte> local(static_cast<std::size_t>(ld * cols * 8),
                                   std::byte{0});
      pe.get_datatype(local.data(), mat, dt, 1, 0);
      std::vector<std::byte> expect(static_cast<std::size_t>(ld * cols * 8));
      test::fill_pattern(expect.data(), expect.size(), 7);
      EXPECT_EQ(test::reference_pack(dt, 1, local.data()),
                test::reference_pack(dt, 1, expect.data()));
    }
    pe.barrier_all();
  });
}

TEST(Shmem, QuietAdvancesClockPastNbiOps) {
  mpi::Runtime rt(pe_world(2));
  SymmetricHeap heap(rt, 32u << 20);
  rt.run([&](mpi::Process& p) {
    Pe pe(p, heap);
    auto* buf = static_cast<std::byte*>(pe.malloc(16u << 20));
    pe.barrier_all();
    if (p.rank() == 0) {
      const vt::Time t0 = p.clock().now();
      pe.putmem_nbi(buf, buf, 16u << 20, 1);
      const vt::Time after_post = p.clock().now();
      pe.quiet();
      const vt::Time after_quiet = p.clock().now();
      // Posting is cheap; quiet absorbs the transfer time (16MB peer).
      EXPECT_LT(after_post - t0, vt::msec(1));
      EXPECT_GT(after_quiet - t0, vt::msec(1));
    }
    pe.barrier_all();
  });
}

TEST(Shmem, SeededConcurrentPutsAreFlaggedByChecker) {
  // Two PEs push into the SAME symmetric range on a third PE with no
  // ordering between them - a WAW the OpenSHMEM memory model leaves to
  // the programmer. The layer routes through checked BTL RDMA, so the
  // access checker must flag it (previously the SHMEM layer had no
  // seeded-hazard coverage of its own).
  //
  // There is deliberately no barrier after the puts: a trailing barrier's
  // messages carry post-put timestamps, and draining one before the
  // second put would order the writers in virtual time (a legitimate
  // happens-before edge - the checker is right to stay silent then).
  // quiet() only advances the local clock, so without closing traffic the
  // two transfer windows stay truly concurrent.
  mpi::RuntimeConfig cfg = pe_world(3);
  cfg.machine.check = 1;
  mpi::Runtime rt(cfg);
  SymmetricHeap heap(rt, 32u << 20);
  const std::int64_t hazards0 = check::hazard_count();
  rt.run([&](mpi::Process& p) {
    Pe pe(p, heap);
    const std::size_t bytes = 16u << 20;
    auto* buf = static_cast<std::byte*>(pe.malloc(bytes));
    pe.barrier_all();
    // PEs 1 and 2 write PE 0's whole buffer concurrently; PE 2 shares the
    // target's device (copy engine), PE 1 crosses PCI-E, so the two
    // transfers' virtual windows overlap (16MB dwarfs any barrier skew).
    if (p.rank() == 1 || p.rank() == 2) {
      pe.putmem_nbi(buf, buf, bytes, 0);
      pe.quiet();
    }
  });
  EXPECT_GE(check::hazard_count() - hazards0, 1);
}

TEST(Shmem, OrderedPutsRunClean) {
  // The same traffic with a barrier between the two puts is ordered in
  // virtual time and must NOT be flagged.
  mpi::RuntimeConfig cfg = pe_world(3);
  cfg.machine.check = 1;
  mpi::Runtime rt(cfg);
  SymmetricHeap heap(rt, 2u << 20);
  const std::int64_t hazards0 = check::hazard_count();
  rt.run([&](mpi::Process& p) {
    Pe pe(p, heap);
    auto* buf = static_cast<std::byte*>(pe.malloc(1 << 20));
    pe.barrier_all();
    if (p.rank() == 0) pe.putmem(buf, buf, 1 << 20, 2);
    pe.barrier_all();
    if (p.rank() == 1) pe.putmem(buf, buf, 1 << 20, 2);
    pe.barrier_all();
  });
  EXPECT_EQ(check::hazard_count() - hazards0, 0);
}

TEST(Shmem, RejectsNonSymmetricAddress) {
  mpi::Runtime rt(pe_world(2));
  SymmetricHeap heap(rt, 1 << 20);
  rt.run([&](mpi::Process& p) {
    Pe pe(p, heap);
    int stack_var = 0;
    EXPECT_THROW(pe.putmem(&stack_var, &stack_var, 4, 1 - p.rank()),
                 std::invalid_argument);
  });
}

TEST(Shmem, HeapExhaustionThrows) {
  mpi::Runtime rt(pe_world(1));
  SymmetricHeap heap(rt, 4096);
  rt.run([&](mpi::Process& p) {
    Pe pe(p, heap);
    pe.malloc(4096);
    EXPECT_THROW(pe.malloc(1), std::bad_alloc);
  });
}

}  // namespace
}  // namespace gpuddt::shmem
