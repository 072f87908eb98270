// End-to-end tests of the GPU datatype protocols (Section 4): pipelined
// RDMA over IPC, the contiguous-side shortcuts, the copy-in/out protocol,
// mixed host/device endpoints, the MVAPICH-style baseline plugin, and
// buffer classification by the first typed byte.
// Every transfer is verified bit-exact against the CPU datatype engine.
#include <gtest/gtest.h>

#include <cstring>
#include <functional>
#include <vector>

#include "baselines/mvapich_plugin.h"
#include "core/layouts.h"
#include "mpi/btl.h"
#include "mpi/pml.h"
#include "mpi/runtime.h"
#include "harness/harness.h"
#include "obs/recorder.h"
#include "protocols/gpu_plugin.h"
#include "rma/window.h"
#include "test_helpers.h"

namespace gpuddt::proto {
namespace {

using mpi::Comm;
using mpi::DatatypePtr;
using mpi::Process;
using mpi::Runtime;
using mpi::RuntimeConfig;

RuntimeConfig gpu_world() {
  RuntimeConfig cfg;
  cfg.world_size = 2;
  cfg.machine.num_devices = 2;
  cfg.machine.device_memory_bytes = 256 << 20;
  return cfg;
}

/// Run a 0->1 transfer of (send_dt on device?) -> (recv_dt on device?) and
/// verify the received layout packs identically to the sent one. Returns
/// the receiver's protocol statistics (empty for a non-gpuddt plugin).
TransferStats run_transfer(
    RuntimeConfig cfg, const DatatypePtr& send_dt, std::int64_t send_count,
    bool send_on_device, const DatatypePtr& recv_dt, std::int64_t recv_count,
    bool recv_on_device,
    std::shared_ptr<mpi::GpuTransferPlugin> plugin = nullptr) {
  if (!plugin) plugin = std::make_shared<GpuDatatypePlugin>();
  const auto gpuddt = std::dynamic_pointer_cast<GpuDatatypePlugin>(plugin);
  TransferStats recv_stats;
  Runtime rt(cfg);
  rt.set_gpu_plugin(plugin);
  rt.run([&](Process& p) {
    Comm comm(p);
    if (p.rank() == 0) {
      const std::int64_t span = test::span_bytes(send_dt, send_count);
      std::byte* buf;
      std::vector<std::byte> host_backing;
      if (send_on_device) {
        buf = static_cast<std::byte*>(sg::Malloc(p.gpu(), span));
      } else {
        host_backing.resize(static_cast<std::size_t>(span));
        buf = host_backing.data();
      }
      test::fill_pattern(buf, static_cast<std::size_t>(span), 77);
      std::byte* base = buf - send_dt->true_lb();
      comm.send(base, send_count, send_dt, 1, 42);
    } else {
      const std::int64_t span = test::span_bytes(recv_dt, recv_count);
      std::byte* buf;
      std::vector<std::byte> host_backing;
      if (recv_on_device) {
        buf = static_cast<std::byte*>(sg::Malloc(p.gpu(), span));
      } else {
        host_backing.resize(static_cast<std::size_t>(span));
        buf = host_backing.data();
      }
      std::memset(buf, 0, static_cast<std::size_t>(span));
      std::byte* base = buf - recv_dt->true_lb();
      const mpi::Status st = comm.recv(base, recv_count, recv_dt, 0, 42);
      EXPECT_EQ(st.bytes, send_dt->size() * send_count);

      // Reference: what the sender's data packs to.
      const std::int64_t sspan = test::span_bytes(send_dt, send_count);
      std::vector<std::byte> sent(static_cast<std::size_t>(sspan));
      test::fill_pattern(sent.data(), sent.size(), 77);
      const auto expect =
          test::reference_pack(send_dt, send_count,
                               sent.data() - send_dt->true_lb());
      const auto got = test::reference_pack(recv_dt, recv_count, base);
      ASSERT_EQ(got.size(), expect.size());
      EXPECT_EQ(got, expect) << "send=" << send_dt->describe()
                             << " recv=" << recv_dt->describe();
      if (gpuddt) recv_stats = gpuddt->stats(p);
    }
  });
  return recv_stats;
}

/// The same device-to-device transfer driven as a stream-triggered chain
/// (docs/protocols.md): the bytes must match the reference pack, and the
/// receiver must count `chains` completed chains (0 where the mode falls
/// back to the host-driven pipeline).
void run_stream_triggered(RuntimeConfig cfg, const DatatypePtr& dt,
                          std::int64_t chains = 1) {
  cfg.stream_triggered = 1;
  EXPECT_EQ(run_transfer(cfg, dt, 1, true, dt, 1, true).stream_triggered,
            chains);
}

// --- Pipelined RDMA over IPC (Section 4.1) -------------------------------------------

TEST(GpuStreamTriggered, EnvOffWordsLeaveChainsOff) {
  const auto dt = core::lower_triangular_type(200, 200);
  test::ScopedEnv env("GPUDDT_STREAM_TRIGGERED", "False");
  EXPECT_EQ(run_transfer(gpu_world(), dt, 1, true, dt, 1, true)
                .stream_triggered, 0);
  env.set("OFF");
  EXPECT_EQ(run_transfer(gpu_world(), dt, 1, true, dt, 1, true)
                .stream_triggered, 0);
  env.set("1");
  EXPECT_EQ(run_transfer(gpu_world(), dt, 1, true, dt, 1, true)
                .stream_triggered, 1);
}

TEST(GpuRdma, TriangularBetweenTwoGpus) {
  auto dt = core::lower_triangular_type(256, 256);
  run_transfer(gpu_world(), dt, 1, true, dt, 1, true);
}

TEST(GpuRdma, VectorBetweenTwoGpus) {
  auto dt = core::submatrix_type(512, 256, 768);
  run_transfer(gpu_world(), dt, 1, true, dt, 1, true);
}

TEST(GpuRdma, SameGpuBothRanks) {
  RuntimeConfig cfg = gpu_world();
  cfg.device_of = [](int) { return 0; };
  auto dt = core::lower_triangular_type(200, 200);
  run_transfer(cfg, dt, 1, true, dt, 1, true);
  run_stream_triggered(cfg, dt);
}

TEST(GpuRdma, DifferentLayoutsSameSignature) {
  // Sender: vector; receiver: triangular of the same element count? Not
  // equal counts - use vector vs contiguous instead (FFT reshape).
  auto vec = core::submatrix_type(128, 64, 192);
  auto cont = mpi::Datatype::contiguous(128 * 64, mpi::kDouble());
  run_transfer(gpu_world(), vec, 1, true, cont, 1, true);
}

TEST(GpuRdma, ContiguousSenderShortcutRecvDriven) {
  auto cont = mpi::Datatype::contiguous(1 << 19, mpi::kDouble());  // 4 MB
  auto vec = core::submatrix_type(1 << 10, 1 << 9, 1 << 10);
  run_transfer(gpu_world(), cont, 1, true, vec, 1, true);
}

TEST(GpuRdma, ContiguousBothSidesOneGet) {
  auto cont = mpi::Datatype::contiguous(1 << 18, mpi::kDouble());
  run_transfer(gpu_world(), cont, 1, true, cont, 1, true);
}

TEST(GpuRdma, ContiguousReceiverShortcutPackToRemote) {
  auto tri = core::lower_triangular_type(128, 128);
  auto cont =
      mpi::Datatype::contiguous(core::lower_triangle_elems(128),
                                mpi::kDouble());
  run_transfer(gpu_world(), tri, 1, true, cont, 1, true);
}

TEST(GpuRdma, TransposeStressTest) {
  auto t = core::transpose_type(96, 96);
  auto cont = mpi::Datatype::contiguous(96 * 96, mpi::kDouble());
  run_transfer(gpu_world(), cont, 1, true, t, 1, true);
}

TEST(GpuRdma, MultiCountElements) {
  auto dt = core::submatrix_type(64, 8, 96);
  run_transfer(gpu_world(), dt, 7, true, dt, 7, true);
}

TEST(GpuRdma, NoLocalStagingVariant) {
  RuntimeConfig cfg = gpu_world();
  cfg.recv_local_staging = false;  // unpack straight from remote memory
  auto dt = core::lower_triangular_type(192, 192);
  run_transfer(cfg, dt, 1, true, dt, 1, true);
  run_stream_triggered(cfg, dt);
}

TEST(GpuRdma, SmallFragmentsManyRounds) {
  RuntimeConfig cfg = gpu_world();
  cfg.gpu_frag_bytes = 4096;
  cfg.gpu_pipeline_depth = 2;
  auto dt = core::lower_triangular_type(128, 160);
  run_transfer(cfg, dt, 1, true, dt, 1, true);
  run_stream_triggered(cfg, dt);
}

TEST(GpuRdma, DepthOnePipelineStillCorrect) {
  RuntimeConfig cfg = gpu_world();
  cfg.gpu_pipeline_depth = 1;
  auto dt = core::submatrix_type(256, 64, 320);
  run_transfer(cfg, dt, 1, true, dt, 1, true);
  run_stream_triggered(cfg, dt);
}

// --- Copy-in/out protocol (Section 4.2) -----------------------------------------------

TEST(GpuCopyInOut, IpcDisabledFallsBackToHostStaging) {
  RuntimeConfig cfg = gpu_world();
  cfg.ipc_enabled = false;
  auto dt = core::lower_triangular_type(192, 192);
  run_transfer(cfg, dt, 1, true, dt, 1, true);
}

TEST(GpuCopyInOut, ForceCopyInOutFlag) {
  RuntimeConfig cfg = gpu_world();
  cfg.force_copy_inout = true;
  auto dt = core::submatrix_type(256, 128, 384);
  run_transfer(cfg, dt, 1, true, dt, 1, true);
}

TEST(GpuCopyInOut, InterNodeOverIb) {
  RuntimeConfig cfg = gpu_world();
  cfg.ranks_per_node = 1;  // force the IB path
  auto dt = core::lower_triangular_type(256, 256);
  run_transfer(cfg, dt, 1, true, dt, 1, true);
}

TEST(GpuCopyInOut, InterNodeWithoutZeroCopy) {
  RuntimeConfig cfg = gpu_world();
  cfg.ranks_per_node = 1;
  cfg.zero_copy = false;  // explicit D2H / H2D staging
  auto dt = core::submatrix_type(512, 128, 640);
  run_transfer(cfg, dt, 1, true, dt, 1, true);
}

TEST(GpuCopyInOut, InterNodeVectorToContiguous) {
  RuntimeConfig cfg = gpu_world();
  cfg.ranks_per_node = 1;
  auto vec = core::submatrix_type(256, 64, 300);
  auto cont = mpi::Datatype::contiguous(256 * 64, mpi::kDouble());
  run_transfer(cfg, vec, 1, true, cont, 1, true);
}

TEST(GpuCopyInOut, GpuDirectRdmaOverIb) {
  RuntimeConfig cfg = gpu_world();
  cfg.ranks_per_node = 1;
  cfg.gpudirect_rdma = true;  // RDMA family over the IB BTL
  auto dt = core::lower_triangular_type(160, 160);
  run_transfer(cfg, dt, 1, true, dt, 1, true);
}

// --- Mixed host/device endpoints ------------------------------------------------------

TEST(GpuMixed, DeviceToHost) {
  auto dt = core::lower_triangular_type(160, 160);
  run_transfer(gpu_world(), dt, 1, true, dt, 1, false);
}

TEST(GpuMixed, HostToDevice) {
  auto dt = core::lower_triangular_type(160, 160);
  run_transfer(gpu_world(), dt, 1, false, dt, 1, true);
}

TEST(GpuMixed, HostVectorToDeviceContiguous) {
  auto vec = core::submatrix_type(128, 32, 160);
  auto cont = mpi::Datatype::contiguous(128 * 32, mpi::kDouble());
  run_transfer(gpu_world(), vec, 1, false, cont, 1, true);
}

TEST(GpuMixed, SmallDeviceRecvViaEager) {
  // Host sender small enough for the eager path; device receiver.
  auto dt = mpi::Datatype::vector(16, 2, 4, mpi::kInt32());
  run_transfer(gpu_world(), dt, 1, false, dt, 1, true);
}

TEST(GpuMixed, EagerTraceCarriesNoFlowIds) {
  // Eager messages skip the rendezvous, so there is no RTS-carried
  // send_id to build a cross-rank frag_flow from. The receiver must
  // stamp its unpack spans flow-less (flow 0) - the old code recycled
  // req.last_flow, fabricating ids that collided across transfers.
  obs::Recorder rec;
  rec.enable_tracing();
  RuntimeConfig cfg = gpu_world();
  cfg.recorder = &rec;
  auto dt = mpi::Datatype::vector(16, 2, 4, mpi::kInt32());
  run_transfer(cfg, dt, 1, false, dt, 1, true);
  const auto events = rec.trace().snapshot();
  ASSERT_FALSE(events.empty());
  for (const auto& ev : events) {
    EXPECT_EQ(ev.flow, 0u) << "eager-path event '" << ev.name
                           << "' carries flow id " << ev.flow;
  }
}

TEST(GpuMixed, DeviceSenderSmallMessage) {
  // Device sends are always rendezvous; tiny payload must still work.
  auto dt = mpi::Datatype::vector(4, 1, 2, mpi::kDouble());
  run_transfer(gpu_world(), dt, 1, true, dt, 1, true);
}

TEST(GpuMixed, InterNodeDeviceToHost) {
  RuntimeConfig cfg = gpu_world();
  cfg.ranks_per_node = 1;
  auto dt = core::submatrix_type(128, 64, 192);
  run_transfer(cfg, dt, 1, true, dt, 1, false);
}

// --- Random property sweep --------------------------------------------------------------

class GpuRandomSweep : public ::testing::TestWithParam<int> {};

TEST_P(GpuRandomSweep, RandomTypeRoundTrip) {
  std::mt19937 rng(static_cast<unsigned>(GetParam()) * 7919 + 13);
  auto dt = test::random_datatype(rng);
  if (dt->size() == 0) GTEST_SKIP();
  const std::int64_t count = 1 + GetParam() % 4;
  RuntimeConfig cfg = gpu_world();
  // Vary the transport knobs with the seed.
  cfg.gpu_frag_bytes = 1u << (12 + GetParam() % 6);
  cfg.gpu_pipeline_depth = 1 + GetParam() % 4;
  if (GetParam() % 3 == 1) cfg.ranks_per_node = 1;
  if (GetParam() % 5 == 2) cfg.ipc_enabled = false;
  if (GetParam() % 7 == 3) cfg.zero_copy = false;
  if (GetParam() % 2 == 1) cfg.rdma_put_mode = true;
  run_transfer(cfg, dt, count, true, dt, count, true);
}

INSTANTIATE_TEST_SUITE_P(Seeds, GpuRandomSweep, ::testing::Range(0, 24));

// --- The MVAPICH-style baseline plugin ----------------------------------------------------

TEST(MvapichBaseline, TriangularCorrectness) {
  auto dt = core::lower_triangular_type(96, 96);
  run_transfer(gpu_world(), dt, 1, true, dt, 1, true,
               std::make_shared<base::MvapichLikePlugin>());
}

TEST(MvapichBaseline, VectorCorrectness) {
  auto dt = core::submatrix_type(128, 64, 160);
  run_transfer(gpu_world(), dt, 1, true, dt, 1, true,
               std::make_shared<base::MvapichLikePlugin>());
}

TEST(MvapichBaseline, DeviceToHost) {
  auto dt = core::submatrix_type(64, 32, 96);
  run_transfer(gpu_world(), dt, 1, true, dt, 1, false,
               std::make_shared<base::MvapichLikePlugin>());
}

TEST(MvapichBaseline, InterNode) {
  RuntimeConfig cfg = gpu_world();
  cfg.ranks_per_node = 1;
  auto dt = core::lower_triangular_type(128, 128);
  run_transfer(cfg, dt, 1, true, dt, 1, true,
               std::make_shared<base::MvapichLikePlugin>());
}

TEST(MvapichBaseline, EagerToDevice) {
  auto dt = mpi::Datatype::vector(8, 2, 4, mpi::kInt32());
  run_transfer(gpu_world(), dt, 1, false, dt, 1, true,
               std::make_shared<base::MvapichLikePlugin>());
}

// --- Registration cache ---------------------------------------------------------------------

TEST(GpuRdma, RepeatedTransfersReuseIpcRegistration) {
  RuntimeConfig cfg = gpu_world();
  Runtime rt(cfg);
  auto plugin = std::make_shared<GpuDatatypePlugin>();
  rt.set_gpu_plugin(plugin);
  auto dt = core::lower_triangular_type(96, 96);
  rt.run([&](Process& p) {
    Comm comm(p);
    const std::int64_t span = test::span_bytes(dt, 1);
    auto* buf = static_cast<std::byte*>(sg::Malloc(p.gpu(), span));
    test::fill_pattern(buf, static_cast<std::size_t>(span), 3);
    vt::Time first = 0, second = 0;
    for (int iter = 0; iter < 2; ++iter) {
      const vt::Time t0 = p.clock().now();
      if (p.rank() == 0) {
        comm.send(buf, 1, dt, 1, iter);
      } else {
        comm.recv(buf, 1, dt, 0, iter);
      }
      comm.barrier();
      (iter == 0 ? first : second) = p.clock().now() - t0;
    }
    // Second iteration skips IPC opens and DEV conversion: faster.
    EXPECT_LT(second, first);
  });
}

}  // namespace
}  // namespace gpuddt::proto

namespace gpuddt::proto {
namespace {

TEST(GpuRdmaPut, PutModeRoundTripsTriangular) {
  RuntimeConfig cfg = gpu_world();
  cfg.rdma_put_mode = true;
  auto dt = core::lower_triangular_type(256, 256);
  run_transfer(cfg, dt, 1, true, dt, 1, true);
  // PUT mode has no stream-triggered chain: it stays host-driven.
  run_stream_triggered(cfg, dt, 0);
}

TEST(GpuRdmaPut, PutModeReshape) {
  RuntimeConfig cfg = gpu_world();
  cfg.rdma_put_mode = true;
  cfg.gpu_frag_bytes = 32 * 1024;
  auto vec = core::submatrix_type(128, 64, 192);
  auto cont = mpi::Datatype::contiguous(128 * 64, mpi::kDouble());
  run_transfer(cfg, vec, 1, true, cont, 1, true);
}

TEST(GpuRdmaPut, PutAndGetModesPerformSimilarly) {
  auto run_mode = [](bool put) {
    harness::PingPongSpec spec;
    spec.cfg = gpu_world();
    spec.cfg.rdma_put_mode = put;
    spec.cfg.machine.device_memory_bytes = std::size_t{2} << 30;
    spec.dt0 = spec.dt1 = core::lower_triangular_type(2048, 2048);
    return harness::run_pingpong(spec);
  };
  const auto get = run_mode(false);
  const auto put = run_mode(true);
  // Same pipeline, opposite initiator: within ~20% of each other.
  EXPECT_LT(static_cast<double>(put.avg_roundtrip),
            1.2 * static_cast<double>(get.avg_roundtrip));
  EXPECT_GT(static_cast<double>(put.avg_roundtrip),
            0.8 * static_cast<double>(get.avg_roundtrip));
}

TEST(GpuRdmaPut, ContiguousShortcutsUnaffectedByPutMode) {
  RuntimeConfig cfg = gpu_world();
  cfg.rdma_put_mode = true;
  auto cont = mpi::Datatype::contiguous(1 << 19, mpi::kDouble());
  auto tri = core::lower_triangular_type(128, 128);
  auto tri_cont =
      mpi::Datatype::contiguous(core::lower_triangle_elems(128),
                                mpi::kDouble());
  run_transfer(cfg, cont, 1, true,
               core::submatrix_type(1 << 10, 1 << 9, 1 << 10), 1, true);
  run_transfer(cfg, tri, 1, true, tri_cont, 1, true);
}

// --- Classification by the first typed byte -----------------------------------------

std::int64_t counter(const obs::Recorder& rec, const std::string& name) {
  const auto snap = rec.metrics().counters_snapshot();
  const auto it = snap.find(name);
  return it == snap.end() ? 0 : it->second;
}

/// GPU datatype-engine operations started so far, over all ranks.
std::int64_t engine_ops(const obs::Recorder& rec) {
  return counter(rec, "engine.ops.vector") + counter(rec, "engine.ops.dev") +
         counter(rec, "engine.ops.dev_cached");
}

/// What a correct delivery leaves in `init`: cpu_pack of the sent layout,
/// then cpu_unpack into the receive layout.
std::vector<std::byte> cpu_delivery(const DatatypePtr& send_dt,
                                    const void* send_buf,
                                    const DatatypePtr& recv_dt,
                                    std::vector<std::byte> init) {
  const auto packed = test::reference_pack(send_dt, 1, send_buf);
  mpi::cpu_unpack(recv_dt, 1, packed, init.data() - recv_dt->true_lb());
  return init;
}

TEST(FirstTypedByte, BufferBelowTheArenaTakesItsDevicesGpuPath) {
  // 32 blocks of 4 KiB, 8 KiB apart, starting 64 KiB above the buffer
  // argument. Each rank's first allocation holds exactly the typed bytes,
  // so `buf` lies below that device's arena and only buf + true_lb() is
  // device memory: whatever sits below (another device's arena, a host
  // mapping, nothing) must not decide the path.
  std::vector<std::int64_t> lens(32, 512), displs;
  for (std::int64_t i = 0; i < 32; ++i)
    displs.push_back((64 << 10) + i * (8 << 10));
  const DatatypePtr dt = mpi::Datatype::hindexed(lens, displs, mpi::kDouble());
  // Same signature, one dense block at the same 64 KiB offset.
  const std::int64_t elems = dt->size() / 8;
  const std::int64_t lb = 64 << 10;
  const DatatypePtr flat = mpi::Datatype::hindexed(
      std::span<const std::int64_t>(&elems, 1),
      std::span<const std::int64_t>(&lb, 1), mpi::kDouble());
  ASSERT_EQ(dt->true_lb(), 64 << 10);
  ASSERT_TRUE(flat->is_contiguous(1));
  const auto span = static_cast<std::size_t>(dt->true_extent());
  const auto size = static_cast<std::size_t>(dt->size());

  obs::Recorder rec;
  RuntimeConfig cfg = gpu_world();
  cfg.recorder = &rec;
  Runtime rt(cfg);
  auto plugin = std::make_shared<GpuDatatypePlugin>();
  rt.set_gpu_plugin(plugin);
  rt.run([&](Process& p) {
    Comm comm(p);
    auto* first = static_cast<std::byte*>(sg::Malloc(p.gpu(), span));
    ASSERT_EQ(first,
              p.runtime().machine().device(p.gpu().device).arena().base());
    std::byte* buf = first - dt->true_lb();
    std::vector<std::byte> sent(span);
    test::fill_pattern(sent.data(), span, 5);
    const std::byte* sent_buf = sent.data() - dt->true_lb();
    std::vector<std::byte> zero(span);
    std::vector<std::byte> window(size);
    if (p.rank() == 0) {
      std::memcpy(first, sent.data(), span);
      comm.send(buf, 1, dt, 1, 1);  // pipelined RDMA
      comm.send(buf, 1, dt, 1, 2);  // into the receiver's exposed layout
    } else {
      std::memset(first, 0, span);
      comm.recv(buf, 1, dt, 0, 1);
      EXPECT_EQ(std::vector<std::byte>(first, first + span),
                cpu_delivery(dt, sent_buf, dt, zero));
      std::memset(first, 0, span);
      comm.recv(buf, 1, flat, 0, 2);
      EXPECT_EQ(std::vector<std::byte>(first, first + span),
                cpu_delivery(dt, sent_buf, flat, zero));
      EXPECT_EQ(plugin->stats(p).rdma_pipelined, 1);
      EXPECT_EQ(plugin->stats(p).rdma_pack_remote, 1);
      EXPECT_EQ(plugin->stats(p).host_staged, 0);

      // Explicit pack/unpack run on this rank's engine (device 1).
      std::memcpy(first, sent.data(), span);
      const core::EngineStats before = plugin->engine(p).stats();
      std::vector<std::byte> wire(size);
      std::int64_t pos = 0;
      plugin->pack(p, buf, 1, dt, wire, &pos);
      EXPECT_EQ(wire, test::reference_pack(dt, 1, sent_buf));
      std::memset(first, 0, span);
      pos = 0;
      plugin->unpack(p, wire, &pos, buf, 1, dt);
      EXPECT_EQ(std::vector<std::byte>(first, first + span),
                cpu_delivery(dt, sent_buf, dt, zero));
      const core::EngineStats& after = plugin->engine(p).stats();
      EXPECT_EQ(after.bytes_packed - before.bytes_packed, dt->size());
      EXPECT_EQ(after.bytes_unpacked - before.bytes_unpacked, dt->size());
    }
    // RMA put from the same device buffer into a host window on rank 0:
    // the origin alone makes the put device-staged.
    rma::Window w(comm, window.data(), static_cast<std::int64_t>(size));
    w.fence();
    if (p.rank() == 1) {
      std::memcpy(first, sent.data(), span);
      const std::int64_t ops = engine_ops(rec);
      w.put(buf, 1, dt, 0, 0, dt->size(), mpi::kByte());
      // The origin is packed by the GPU engine; the host target is not.
      EXPECT_EQ(engine_ops(rec) - ops, 1);
    }
    w.fence();
    if (p.rank() == 0) {
      EXPECT_EQ(window, test::reference_pack(dt, 1, sent_buf));
    }
    // And a get back into it: the GPU engine unpacks into the origin.
    if (p.rank() == 1) {
      std::memset(first, 0, span);
      const std::int64_t ops = engine_ops(rec);
      w.get(buf, 1, dt, 0, 0, dt->size(), mpi::kByte());
      EXPECT_EQ(engine_ops(rec) - ops, 1);
      EXPECT_EQ(std::vector<std::byte>(first, first + span),
                cpu_delivery(dt, sent_buf, dt, zero));
    }
    w.fence();
    sg::Free(p.gpu(), first);
  });
  EXPECT_EQ(counter(rec, "gpu.mode.ipc_rdma"), 1);
  EXPECT_EQ(counter(rec, "gpu.mode.rdma_pack_remote"), 1);
  EXPECT_EQ(counter(rec, "gpu.mode.host_frags"), 0);
  EXPECT_EQ(counter(rec, "rma.bytes.staged_device"), 2 * dt->size());
  EXPECT_EQ(counter(rec, "rma.bytes.staged_host"), 0);
}

}  // namespace
}  // namespace gpuddt::proto
