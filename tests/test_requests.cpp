// Request-layer API: MPI_Test-style polling, sendrecv, and persistent
// requests - on host and device buffers.
#include <gtest/gtest.h>

#include <vector>

#include "core/layouts.h"
#include "mpi/pml.h"
#include "mpi/runtime.h"
#include "protocols/gpu_plugin.h"
#include "test_helpers.h"

namespace gpuddt::mpi {
namespace {

RuntimeConfig two_ranks() {
  RuntimeConfig cfg;
  cfg.world_size = 2;
  cfg.machine.num_devices = 2;
  cfg.machine.device_memory_bytes = 256u << 20;
  return cfg;
}

TEST(RequestApi, TestPollsToCompletion) {
  Runtime rt(two_ranks());
  rt.run([](Process& p) {
    Comm comm(p);
    int v = p.rank() == 0 ? 42 : -1;
    if (p.rank() == 0) {
      comm.send(&v, 1, kInt32(), 1, 0);
    } else {
      Request r = comm.irecv(&v, 1, kInt32(), 0, 0);
      int spins = 0;
      while (!comm.test(r)) {
        ++spins;
        ASSERT_LT(spins, 1000000);
      }
      EXPECT_EQ(v, 42);
      EXPECT_TRUE(r->done);
      EXPECT_TRUE(comm.test(r));  // idempotent once done
    }
  });
}

TEST(RequestApi, SendrecvExchangesWithoutDeadlock) {
  Runtime rt(two_ranks());
  rt.run([](Process& p) {
    Comm comm(p);
    // Large (rendezvous) payloads in both directions simultaneously.
    const std::int64_t n = 1 << 18;
    std::vector<std::int64_t> out(static_cast<std::size_t>(n), p.rank());
    std::vector<std::int64_t> in(static_cast<std::size_t>(n), -1);
    const Status st = comm.sendrecv(out.data(), n, kInt64(), 1 - p.rank(), 0,
                                    in.data(), n, kInt64(), 1 - p.rank(), 0);
    EXPECT_EQ(st.source, 1 - p.rank());
    for (auto v : in) ASSERT_EQ(v, 1 - p.rank());
  });
}

TEST(RequestApi, PersistentHaloLoop) {
  Runtime rt(two_ranks());
  rt.set_gpu_plugin(std::make_shared<proto::GpuDatatypePlugin>());
  rt.run([](Process& p) {
    Comm comm(p);
    // Persistent send/recv of a GPU-resident vector type, restarted over
    // several iterations - the stencil idiom.
    auto dt = core::submatrix_type(64, 16, 96);
    const std::size_t span = 96 * 16 * 8;
    auto* out = static_cast<std::byte*>(sg::Malloc(p.gpu(), span));
    auto* in = static_cast<std::byte*>(sg::Malloc(p.gpu(), span));
    auto ps = PersistentRequest::send_init(comm, out, 1, dt, 1 - p.rank(), 5);
    auto pr = PersistentRequest::recv_init(comm, in, 1, dt, 1 - p.rank(), 5);
    for (int iter = 0; iter < 6; ++iter) {
      test::fill_pattern(out, span,
                         static_cast<std::uint32_t>(p.rank() * 50 + iter));
      pr.start();
      ps.start();
      pr.wait();
      ps.wait();
      std::vector<std::byte> expect(span);
      test::fill_pattern(expect.data(), span,
                         static_cast<std::uint32_t>((1 - p.rank()) * 50 + iter));
      ASSERT_EQ(test::reference_pack(dt, 1, in),
                test::reference_pack(dt, 1, expect.data()))
          << "iter " << iter;
    }
  });
}

TEST(RequestApi, PersistentStartWhileActiveThrows) {
  Runtime rt(two_ranks());
  rt.run([](Process& p) {
    Comm comm(p);
    int buf = 0;
    if (p.rank() == 1) {
      auto pr = PersistentRequest::recv_init(comm, &buf, 1, kInt32(), 0, 0);
      pr.start();
      EXPECT_THROW(pr.start(), std::logic_error);  // still in flight
      pr.wait();
      EXPECT_EQ(buf, 7);
    } else {
      int v = 7;
      comm.send(&v, 1, kInt32(), 1, 0);
    }
  });
}

TEST(RequestApi, PersistentWaitBeforeStartThrows) {
  Runtime rt(two_ranks());
  rt.run([](Process& p) {
    Comm comm(p);
    int buf = 0;
    auto pr = PersistentRequest::recv_init(comm, &buf, 1, kInt32(),
                                           1 - p.rank(), 0);
    EXPECT_THROW(pr.wait(), std::logic_error);
  });
}

TEST(RequestApi, TransferStatsReflectProtocolChoice) {
  // Same-node device<->device: the pipelined RDMA protocol must be
  // chosen; the stats expose it (and the registration cache reuse).
  Runtime rt(two_ranks());
  auto plugin = std::make_shared<proto::GpuDatatypePlugin>();
  rt.set_gpu_plugin(plugin);
  rt.run([&](Process& p) {
    Comm comm(p);
    auto dt = core::lower_triangular_type(96, 96);
    const std::size_t span = 96 * 96 * 8;
    auto* buf = static_cast<std::byte*>(sg::Malloc(p.gpu(), span));
    for (int i = 0; i < 3; ++i) {
      if (p.rank() == 0) {
        comm.send(buf, 1, dt, 1, i);
      } else {
        comm.recv(buf, 1, dt, 0, i);
      }
    }
    comm.barrier();
    if (p.rank() == 1) {
      const auto& st = plugin->stats(p);
      EXPECT_EQ(st.rdma_pipelined, 3);
      EXPECT_EQ(st.host_staged, 0);
      EXPECT_EQ(st.bytes_received, 3 * dt->size());
      EXPECT_GT(st.fragments, 0);
      EXPECT_EQ(st.ipc_opens, 1);   // sender staging mapped once...
      EXPECT_EQ(st.ipc_reuses, 2);  // ...and reused afterwards
    }
  });
}

TEST(RequestApi, TransferStatsCopyInOutPath) {
  RuntimeConfig cfg = two_ranks();
  cfg.ranks_per_node = 1;  // IB: copy-in/out
  Runtime rt(cfg);
  auto plugin = std::make_shared<proto::GpuDatatypePlugin>();
  rt.set_gpu_plugin(plugin);
  rt.run([&](Process& p) {
    Comm comm(p);
    auto dt = core::submatrix_type(128, 32, 192);
    auto* buf = static_cast<std::byte*>(sg::Malloc(p.gpu(), 192 * 32 * 8));
    if (p.rank() == 0) {
      comm.send(buf, 1, dt, 1, 0);
    } else {
      comm.recv(buf, 1, dt, 0, 0);
      const auto& st = plugin->stats(p);
      EXPECT_EQ(st.host_staged, 1);
      EXPECT_EQ(st.rdma_pipelined, 0);
      EXPECT_EQ(st.ipc_opens, 0);
    }
  });
}

TEST(RequestApi, TransferStatsShortcuts) {
  Runtime rt(two_ranks());
  auto plugin = std::make_shared<proto::GpuDatatypePlugin>();
  rt.set_gpu_plugin(plugin);
  rt.run([&](Process& p) {
    Comm comm(p);
    auto vec = core::submatrix_type(256, 64, 320);
    auto cont = Datatype::contiguous(256 * 64, kDouble());
    auto* a = static_cast<std::byte*>(sg::Malloc(p.gpu(), 320 * 64 * 8));
    auto* b = static_cast<std::byte*>(sg::Malloc(p.gpu(), 256 * 64 * 8));
    if (p.rank() == 0) {
      comm.send(b, 1, cont, 1, 0);  // contiguous sender -> recv-driven
      comm.send(a, 1, vec, 1, 1);   // contiguous receiver -> pack-to-remote
    } else {
      comm.recv(a, 1, vec, 0, 0);
      comm.recv(b, 1, cont, 0, 1);
      const auto& st = plugin->stats(p);
      EXPECT_EQ(st.rdma_recv_driven, 1);
      EXPECT_EQ(st.rdma_pack_remote, 1);
    }
  });
}

TEST(RequestApi, WaitanyReturnsFirstCompleted) {
  Runtime rt(two_ranks());
  rt.run([](Process& p) {
    Comm comm(p);
    if (p.rank() == 0) {
      // Complete tag 2 first, then tag 1.
      int a = 10, b = 20;
      comm.send(&b, 1, kInt32(), 1, 2);
      comm.send(&a, 1, kInt32(), 1, 1);
    } else {
      int a = -1, b = -1;
      std::vector<Request> rs;
      rs.push_back(comm.irecv(&a, 1, kInt32(), 0, 1));
      rs.push_back(comm.irecv(&b, 1, kInt32(), 0, 2));
      const std::size_t first = comm.waitany(rs);
      EXPECT_TRUE(rs[first]->done);
      comm.waitall(rs);
      EXPECT_EQ(a, 10);
      EXPECT_EQ(b, 20);
    }
  });
}

TEST(RequestApi, WaitanyEmptyThrows) {
  Runtime rt(two_ranks());
  rt.run([](Process& p) {
    Comm comm(p);
    std::vector<Request> empty;
    EXPECT_THROW(comm.waitany(empty), std::invalid_argument);
  });
}

TEST(RequestApi, NegativeCountRejectedBeforeAnyRequest) {
  RuntimeConfig cfg = two_ranks();
  Runtime rt(cfg);
  rt.run([](Process& p) {
    Comm comm(p);
    int v = p.rank() == 0 ? 5 : -1;
    const int peer = 1 - p.rank();
    EXPECT_THROW(comm.isend(&v, -1, kInt32(), peer, 0),
                 std::invalid_argument);
    EXPECT_THROW(comm.irecv(&v, -3, kInt32(), peer, 0),
                 std::invalid_argument);
    EXPECT_EQ(p.pml().pending_summary(), "no pending point-to-point ops");
    // Nothing was sent or posted: the next exchange on the same tag
    // matches only itself.
    if (p.rank() == 0) {
      comm.send(&v, 1, kInt32(), 1, 0);
    } else {
      comm.recv(&v, 1, kInt32(), 0, 0);
      EXPECT_EQ(v, 5);
    }
  });
}

TEST(RequestApi, TraceProvesPipelineOverlap) {
  // The central mechanism of Section 4.1: fragment k+1 is packed and
  // announced while fragment k is still in flight or being unpacked. The
  // virtual-time trace must show that overlap for a multi-fragment
  // transfer.
  Runtime rt(two_ranks());
  auto plugin = std::make_shared<proto::GpuDatatypePlugin>();
  rt.set_gpu_plugin(plugin);
  rt.run([&](Process& p) {
    Comm comm(p);
    auto dt = core::lower_triangular_type(1024, 1024);
    auto* buf = static_cast<std::byte*>(
        sg::Malloc(p.gpu(), static_cast<std::size_t>(1024 * 1024 * 8)));
    if (p.rank() == 0) {
      comm.send(buf, 1, dt, 1, 0);
    } else {
      plugin->enable_tracing(p);
      comm.recv(buf, 1, dt, 0, 0);
      const auto& trace = plugin->trace(p);
      ASSERT_GT(trace.size(), 3u);
      int overlaps = 0;
      for (std::size_t k = 0; k + 1 < trace.size(); ++k) {
        EXPECT_LE(trace[k].packed_and_wired, trace[k].staged);
        EXPECT_LE(trace[k].staged, trace[k].unpacked);
        if (trace[k + 1].packed_and_wired < trace[k].unpacked) ++overlaps;
      }
      // Most adjacent pairs overlap; a serialized protocol would have 0.
      EXPECT_GE(overlaps, static_cast<int>(trace.size()) / 2);
    }
  });
}

}  // namespace
}  // namespace gpuddt::mpi

namespace gpuddt::mpi {
namespace {

TEST(RequestApi, IprobeSeesUnexpectedMessages) {
  Runtime rt(two_ranks());
  rt.run([](Process& p) {
    Comm comm(p);
    if (p.rank() == 0) {
      int v = 9;
      comm.send(&v, 1, kInt32(), 1, 7);
      comm.barrier();
    } else {
      // Spin until the eager message is sitting in the unexpected queue.
      Status st;
      while (!comm.iprobe(0, 7, &st)) {
      }
      EXPECT_EQ(st.source, 0);
      EXPECT_EQ(st.tag, 7);
      EXPECT_EQ(st.bytes, 4);
      // Probe does not consume: a second probe still matches, and the
      // actual receive still works.
      EXPECT_TRUE(comm.iprobe(kAnySource, kAnyTag, nullptr));
      int v = -1;
      comm.recv(&v, 1, kInt32(), 0, 7);
      EXPECT_EQ(v, 9);
      EXPECT_FALSE(comm.iprobe(0, 7, nullptr));
      comm.barrier();
    }
  });
}

TEST(RequestApi, IprobeSeesRendezvousSize) {
  Runtime rt(two_ranks());
  rt.run([](Process& p) {
    Comm comm(p);
    if (p.rank() == 0) {
      std::vector<std::byte> big(1 << 20);
      comm.send(big.data(), 1 << 20, kByte(), 1, 1);
      comm.barrier();
    } else {
      Status st;
      while (!comm.iprobe(0, 1, &st)) {
      }
      EXPECT_EQ(st.bytes, 1 << 20);  // RTS carries the size
      std::vector<std::byte> buf(1 << 20);
      comm.recv(buf.data(), 1 << 20, kByte(), 0, 1);
      comm.barrier();
    }
  });
}

TEST(RequestApi, UnexpectedGpuRtsMatchedLater) {
  // A device RTS arriving before the receive is posted must be stashed
  // and then drive the full RDMA protocol when the recv appears.
  Runtime rt(two_ranks());
  auto plugin = std::make_shared<proto::GpuDatatypePlugin>();
  rt.set_gpu_plugin(plugin);
  rt.run([&](Process& p) {
    Comm comm(p);
    auto dt = core::lower_triangular_type(128, 128);
    const std::size_t span = 128 * 128 * 8;
    auto* buf = static_cast<std::byte*>(sg::Malloc(p.gpu(), span));
    if (p.rank() == 0) {
      test::fill_pattern(buf, span, 61);
      comm.send(buf, 1, dt, 1, 0);
      comm.barrier();
    } else {
      // Let the RTS land unexpected first.
      Status st;
      while (!comm.iprobe(0, 0, &st)) {
      }
      EXPECT_EQ(st.bytes, dt->size());
      std::memset(buf, 0, span);
      comm.recv(buf, 1, dt, 0, 0);
      std::vector<std::byte> expect(span);
      test::fill_pattern(expect.data(), span, 61);
      EXPECT_EQ(test::reference_pack(dt, 1, buf),
                test::reference_pack(dt, 1, expect.data()));
      EXPECT_EQ(plugin->stats(p).rdma_pipelined, 1);
      comm.barrier();
    }
  });
}

TEST(RequestApi, EngineStatsAccumulate) {
  Runtime rt(two_ranks());
  auto plugin = std::make_shared<proto::GpuDatatypePlugin>();
  rt.set_gpu_plugin(plugin);
  rt.run([&](Process& p) {
    Comm comm(p);
    auto tri = core::lower_triangular_type(128, 128);
    auto vec = core::submatrix_type(128, 32, 192);
    const std::size_t span = 192 * 128 * 8;
    auto* buf = static_cast<std::byte*>(sg::Malloc(p.gpu(), span));
    for (int i = 0; i < 2; ++i) {
      if (p.rank() == 0) {
        comm.send(buf, 1, tri, 1, 2 * i);
        comm.send(buf, 1, vec, 1, 2 * i + 1);
      } else {
        comm.recv(buf, 1, tri, 0, 2 * i);
        comm.recv(buf, 1, vec, 0, 2 * i + 1);
      }
    }
    comm.barrier();
    const auto& st = plugin->engine(p).stats();
    EXPECT_GT(st.kernels_launched, 0);
    if (p.rank() == 1) {
      EXPECT_GT(st.bytes_unpacked, 0);
      EXPECT_GT(st.units_converted, 0);    // first triangular transfer
      EXPECT_GT(st.units_from_cache, 0);   // second one hits the cache
      EXPECT_GT(st.vector_fast_path_ops, 0);
    }
  });
}

}  // namespace
}  // namespace gpuddt::mpi
