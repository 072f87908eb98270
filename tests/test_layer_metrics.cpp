// Cross-layer metrics accounting: the coll.* / rma.* / shmem.* byte
// counters (docs/metrics.md) must agree with the bytes the simulated
// machine actually moved. A ByteSink AccessObserver (simgpu/access.h)
// replaces the default checker and tallies observed writes into known
// target regions; the counters the instrumentation emitted must sum to
// the same value. Plain host stores (test setup memsets, CPU unpack)
// are invisible to the machine, so every test moves payload through
// observed paths: TimedCopy, RDMA, device engine.
#include <gtest/gtest.h>

#include <array>
#include <cstring>
#include <memory>
#include <utility>
#include <vector>

#include "mpi/coll.h"
#include "mpi/runtime.h"
#include "obs/recorder.h"
#include "protocols/gpu_plugin.h"
#include "rma/window.h"
#include "shmem/shmem.h"
#include "simgpu/access.h"

namespace gpuddt {
namespace {

struct Region {
  const std::byte* base = nullptr;
  std::size_t bytes = 0;
};

/// Sums the bytes of observed *writes* that land inside any of the
/// caller's target regions. Regions are read at on_op time, so tests may
/// fill them in from inside rt.run (ranks execute one at a time).
class ByteSink : public sg::AccessObserver {
 public:
  explicit ByteSink(const std::vector<Region>* regions)
      : regions_(regions) {}

  void on_op(const sg::OpInfo&,
             std::span<const sg::MemRange> ranges) override {
    for (const sg::MemRange& r : ranges) {
      if (!r.write) continue;
      const auto* lo = static_cast<const std::byte*>(r.ptr);
      const auto* hi = lo + r.len;
      for (const Region& reg : *regions_) {
        const auto* rlo = reg.base;
        const auto* rhi = reg.base + reg.bytes;
        const auto* a = lo < rlo ? rlo : lo;
        const auto* b = hi < rhi ? hi : rhi;
        if (a < b) written_ += b - a;
      }
    }
  }
  void on_release(const void*, std::size_t) override {}
  void on_reset() override { written_ = 0; }

  std::int64_t written() const { return written_; }

 private:
  const std::vector<Region>* regions_;
  std::int64_t written_ = 0;
};

std::int64_t counter(const obs::Recorder& rec, const std::string& name) {
  const auto snap = rec.metrics().counters_snapshot();
  const auto it = snap.find(name);
  return it == snap.end() ? 0 : it->second;
}

mpi::RuntimeConfig world(int n, obs::Recorder* rec) {
  mpi::RuntimeConfig cfg;
  cfg.world_size = n;
  cfg.machine.num_devices = 2;
  cfg.machine.device_memory_bytes = 256u << 20;
  cfg.recorder = rec;
  return cfg;
}

TEST(LayerMetrics, ShmemPutBytesMatchObservedWrites) {
  obs::Recorder rec;
  std::vector<Region> targets;
  mpi::Runtime rt(world(2, &rec));
  shmem::SymmetricHeap heap(rt, 1 << 20);
  // Only writes into PE 1's heap count: the put's destination.
  targets.push_back({heap.base(1), 1 << 20});
  auto sink = std::make_unique<ByteSink>(&targets);
  ByteSink* observed = sink.get();
  rt.machine().set_observer(std::move(sink));
  constexpr std::int64_t kBytes = 4096;
  rt.run([&](mpi::Process& p) {
    shmem::Pe pe(p, heap);
    auto* buf = static_cast<std::byte*>(pe.malloc(kBytes));
    pe.barrier_all();
    if (p.rank() == 0) pe.putmem(buf, buf, kBytes, 1);
    pe.barrier_all();
  });
  EXPECT_EQ(counter(rec, "shmem.put.calls"), 1);
  EXPECT_EQ(counter(rec, "shmem.put.bytes"), kBytes);
  EXPECT_EQ(counter(rec, "shmem.bytes.direct"), kBytes);
  EXPECT_EQ(observed->written(), kBytes);
}

TEST(LayerMetrics, RmaPutBytesMatchObservedDeviceWrites) {
  obs::Recorder rec;
  std::vector<Region> targets;
  mpi::Runtime rt(world(2, &rec));
  rt.set_gpu_plugin(std::make_shared<proto::GpuDatatypePlugin>());
  auto sink = std::make_unique<ByteSink>(&targets);
  ByteSink* observed = sink.get();
  rt.machine().set_observer(std::move(sink));
  constexpr std::int64_t kCount = 256;  // int32 -> 1 KiB payload
  rt.run([&](mpi::Process& p) {
    mpi::Comm comm(p);
    auto* win = static_cast<std::byte*>(
        sg::Malloc(p.gpu(), static_cast<std::size_t>(kCount) * 4));
    if (p.rank() == 1) targets.push_back({win, kCount * 4});
    rma::Window w(comm, win, kCount * 4);
    w.fence();
    if (p.rank() == 0) {
      std::vector<std::int32_t> data(kCount, 42);
      w.put(data.data(), kCount, mpi::kInt32(), 1, 0, kCount,
            mpi::kInt32());
    }
    w.fence();
    sg::Free(p.gpu(), win);
  });
  EXPECT_EQ(counter(rec, "rma.put.calls"), 1);
  EXPECT_EQ(counter(rec, "rma.put.bytes"), kCount * 4);
  EXPECT_EQ(counter(rec, "rma.bytes.contiguous"), kCount * 4);
  EXPECT_EQ(counter(rec, "rma.bytes.staged_device"), kCount * 4);
  EXPECT_EQ(observed->written(), kCount * 4);
}

TEST(LayerMetrics, CollBcastBytesMatchObservedDeviceWrites) {
  // Contiguous device bcast over 4 ranks: the tree forwards the block
  // world-1 times, and every non-root copy lands in a device buffer the
  // machine observes.
  obs::Recorder rec;
  std::vector<Region> targets;
  constexpr int kWorld = 4;
  mpi::Runtime rt(world(kWorld, &rec));
  rt.set_gpu_plugin(std::make_shared<proto::GpuDatatypePlugin>());
  auto sink = std::make_unique<ByteSink>(&targets);
  ByteSink* observed = sink.get();
  rt.machine().set_observer(std::move(sink));
  constexpr std::int64_t kBytes = 8192;
  rt.run([&](mpi::Process& p) {
    mpi::Collectives coll(mpi::Comm{p});
    auto* buf = static_cast<std::byte*>(
        sg::Malloc(p.gpu(), static_cast<std::size_t>(kBytes)));
    if (p.rank() != 0)
      targets.push_back({buf, static_cast<std::size_t>(kBytes)});
    if (p.rank() == 0) std::memset(buf, 7, static_cast<std::size_t>(kBytes));
    coll.bcast(buf, kBytes, mpi::kByte(), 0);
    coll.barrier();
    sg::Free(p.gpu(), buf);
  });
  EXPECT_EQ(counter(rec, "coll.bcast.calls"), kWorld);
  EXPECT_EQ(counter(rec, "coll.bcast.bytes"), (kWorld - 1) * kBytes);
  EXPECT_EQ(observed->written(), (kWorld - 1) * kBytes);
}

TEST(LayerMetrics, CollHostBcastCountsContiguousDirectBytes) {
  // Host path is invisible to the machine, but the counter algebra must
  // still hold: world-1 block sends, all contiguous, none staged.
  obs::Recorder rec;
  constexpr int kWorld = 4;
  mpi::Runtime rt(world(kWorld, &rec));
  constexpr std::int64_t kCount = 1024;
  rt.run([&](mpi::Process& p) {
    mpi::Collectives coll(mpi::Comm{p});
    std::vector<double> buf(kCount, p.rank() == 0 ? 3.5 : 0.0);
    coll.bcast(buf.data(), kCount, mpi::kDouble(), 0);
    EXPECT_EQ(buf[kCount - 1], 3.5);
  });
  EXPECT_EQ(counter(rec, "coll.bcast.calls"), kWorld);
  EXPECT_EQ(counter(rec, "coll.bcast.bytes"), (kWorld - 1) * kCount * 8);
  EXPECT_EQ(counter(rec, "coll.bytes.contiguous"),
            (kWorld - 1) * kCount * 8);
  EXPECT_EQ(counter(rec, "coll.bytes.direct"), (kWorld - 1) * kCount * 8);
  EXPECT_EQ(counter(rec, "coll.bytes.packed"), 0);
  EXPECT_EQ(counter(rec, "coll.bytes.staged"), 0);
}

TEST(LayerMetrics, ReduceOpFlopsPinToElementCounts) {
  // Binomial reduce combines world-1 incoming streams, each one operator
  // application per element, so coll.reduce.op_flops is exactly
  // (world-1) * count independent of primitive width or op.
  obs::Recorder rec;
  constexpr int kWorld = 4;
  mpi::Runtime rt(world(kWorld, &rec));
  constexpr std::int64_t kCount = 1024;
  rt.run([&](mpi::Process& p) {
    mpi::Collectives coll(mpi::Comm{p});
    std::vector<double> buf(kCount, 1.0), out(kCount, 0.0);
    coll.reduce(buf.data(), out.data(), kCount, mpi::kDouble(),
                mpi::ReduceOp::kSum, 0);
    if (p.rank() == 0) {
      EXPECT_EQ(out[kCount - 1], double(kWorld));
    }
  });
  EXPECT_EQ(counter(rec, "coll.reduce.op_flops"), (kWorld - 1) * kCount);
}

TEST(LayerMetrics, AllreduceOpFlopsAccrueUnderReduce) {
  // Allreduce = reduce + bcast: the combining work lands on the inner
  // reduce's counter, and a narrower primitive (int32) still counts
  // elements, not bytes.
  obs::Recorder rec;
  constexpr int kWorld = 4;
  mpi::Runtime rt(world(kWorld, &rec));
  constexpr std::int64_t kCount = 512;
  rt.run([&](mpi::Process& p) {
    mpi::Collectives coll(mpi::Comm{p});
    std::vector<std::int32_t> buf(kCount, 2), out(kCount, 0);
    coll.allreduce(buf.data(), out.data(), kCount, mpi::kInt32(),
                   mpi::ReduceOp::kMax);
    EXPECT_EQ(out[0], 2);
  });
  EXPECT_EQ(counter(rec, "coll.reduce.op_flops"), (kWorld - 1) * kCount);
  EXPECT_EQ(counter(rec, "coll.allreduce.op_flops"), 0);
  EXPECT_EQ(counter(rec, "coll.allreduce.calls"), kWorld);
}

}  // namespace
}  // namespace gpuddt
