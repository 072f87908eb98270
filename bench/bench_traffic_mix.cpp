// Seeded traffic-mix workload: concurrent point-to-point, collective and
// one-sided traffic over multiple communicators with mixed derived
// datatypes, all on the event scheduler backend.
//
// Not a paper figure - this is the observability workload for the
// streaming flow-latency engine (src/obs/flowstats.h, docs/latency.md):
// it exercises every completion hook at once (p2p recv, multi-rank
// collective flows, RMA epochs, plugin pack/unpack) so the traffic-mix
// baselines in bench/baselines/ pin both the gpuddt-metrics-v1 dump and
// the gpuddt-latency-v1 report byte-for-byte. The shape/size mix is
// drawn from a fixed-seed generator that every rank advances in
// lock-step, so both ends of each transfer agree on the datatype and
// repeat runs are bit-identical.
#include <algorithm>
#include <cstring>
#include <memory>
#include <random>
#include <vector>

#include "bench_common.h"
#include "mpi/coll.h"
#include "protocols/gpu_plugin.h"
#include "rma/window.h"

namespace gpuddt::bench {
namespace {

constexpr int kWorld = 4;
/// Fixed workload seed: every rank seeds its own generator identically
/// and draws the same number of values per round, so the mix is part of
/// the benchmark definition (change it and the baselines change).
constexpr unsigned kSeed = 0x9ddc17u;

mpi::RuntimeConfig mix_cfg() {
  mpi::RuntimeConfig cfg;
  cfg.world_size = kWorld;
  cfg.machine = bench_machine();  // 4 ranks sharing 2 devices
  cfg.recorder = &obs::default_recorder();
  return cfg;
}

/// One of the mixed datatype shapes, by generator draw: the paper's V
/// sub-matrix, its T lower triangle, or the contiguous peer of V.
mpi::DatatypePtr draw_type(std::mt19937& rng, std::int64_t n) {
  switch (rng() % 3) {
    case 0: return v_type(n);
    case 1: return t_type(n);
    default: return c_type_of(v_type(n));
  }
}

/// One round of mixed traffic. The same generator state on every rank
/// picks the round's shapes and sizes; traffic is concurrent by
/// construction - the p2p ring is posted nonblocking on the duplicated
/// world communicator, the collective then runs on the 2-rank split
/// communicator while those transfers are still in flight, and only
/// then does the rank wait on its ring requests.
void mix_round(mpi::Process& p, mpi::Comm& ring_comm, mpi::Comm& half_comm,
               std::mt19937& rng) {
  const std::int64_t sizes[] = {128, 256, 512};
  const std::int64_t n = sizes[rng() % 3];
  const mpi::DatatypePtr p2p_dt = draw_type(rng, n);
  const std::int64_t coll_n = sizes[rng() % 3];
  const mpi::DatatypePtr coll_dt = draw_type(rng, coll_n);
  const unsigned coll_kind = rng() % 3;

  // Device-resident p2p ring on the duplicated communicator.
  const auto extent = static_cast<std::size_t>(p2p_dt->true_extent());
  auto* sendbuf = static_cast<std::byte*>(sg::Malloc(p.gpu(), extent));
  auto* recvbuf = static_cast<std::byte*>(sg::Malloc(p.gpu(), extent));
  std::memset(sendbuf, p.rank() + 1, extent);
  std::memset(recvbuf, 0, extent);
  const int next = (p.rank() + 1) % kWorld;
  const int prev = (p.rank() + kWorld - 1) % kWorld;
  mpi::Request rr = ring_comm.irecv(recvbuf, 1, p2p_dt, prev, /*tag=*/7);
  mpi::Request sr = ring_comm.isend(sendbuf, 1, p2p_dt, next, /*tag=*/7);

  // Collective on the 2-rank split communicator while the ring is in
  // flight. Host buffers here: the mix should cover the host engine too.
  mpi::Collectives coll(half_comm);
  if (coll_kind == 0) {
    std::vector<std::byte> cbuf(
        static_cast<std::size_t>(coll_dt->true_extent()),
        std::byte{static_cast<unsigned char>(half_comm.rank())});
    coll.bcast(cbuf.data(), 1, coll_dt, 0);
  } else if (coll_kind == 1) {
    const std::int64_t count = static_cast<std::int64_t>(coll_n) * coll_n / 8;
    std::vector<double> in(static_cast<std::size_t>(count), 1.0);
    std::vector<double> out(static_cast<std::size_t>(count));
    coll.allreduce(in.data(), out.data(), count, mpi::kDouble(),
                   mpi::ReduceOp::kSum);
  } else {
    const std::int64_t count = static_cast<std::int64_t>(coll_n) * coll_n / 8;
    std::vector<double> mine(static_cast<std::size_t>(count), 2.0);
    std::vector<double> all(static_cast<std::size_t>(count) *
                            static_cast<std::size_t>(half_comm.size()));
    coll.allgather(mine.data(), all.data(), count, mpi::kDouble());
  }

  ring_comm.wait(rr);
  ring_comm.wait(sr);
  sg::Free(p.gpu(), sendbuf);
  sg::Free(p.gpu(), recvbuf);
}

/// One RMA fence epoch on the world communicator: every even rank
/// scatters a dense block into its odd neighbour's triangular device
/// window - the origin-driven datatype path of rma::Window.
void mix_rma_epoch(mpi::Process& p, mpi::Comm& world, std::int64_t n) {
  const auto tri = t_type(n);
  const std::size_t wbytes = static_cast<std::size_t>(n * n * 8);
  auto* win = static_cast<std::byte*>(sg::Malloc(p.gpu(), wbytes));
  std::memset(win, 0, wbytes);
  rma::Window w(world, win, static_cast<std::int64_t>(wbytes));
  w.fence();
  if (p.rank() % 2 == 0) {
    std::vector<double> dense(
        static_cast<std::size_t>(core::lower_triangle_elems(n)), 1.5);
    w.put(dense.data(), core::lower_triangle_elems(n), mpi::kDouble(),
          p.rank() + 1, 0, 1, tri);
  }
  w.fence();
  sg::Free(p.gpu(), win);
}

void BM_TrafficMix(benchmark::State& state) {
  const int rounds = static_cast<int>(state.range(0));
  for (auto _ : state) {
    mpi::Runtime rt(mix_cfg());
    rt.set_gpu_plugin(std::make_shared<proto::GpuDatatypePlugin>());
    std::vector<vt::Time> elapsed(kWorld, 0);
    rt.run([&](mpi::Process& p) {
      mpi::Comm world(p);
      // Multiple communicators: a duplicate of the world for the p2p
      // ring (its traffic never matches the parent) and a 2-rank split
      // pairing {0,2} and {1,3} for the collectives.
      mpi::Comm ring = world.dup();
      mpi::Comm half = world.split(p.rank() % 2, p.rank());
      std::mt19937 rng(kSeed);
      const vt::Time t0 = p.clock().now();
      for (int r = 0; r < rounds; ++r) mix_round(p, ring, half, rng);
      mix_rma_epoch(p, world, /*n=*/256);
      world.barrier();
      elapsed[static_cast<std::size_t>(p.rank())] = p.clock().now() - t0;
    });
    const vt::Time ns = *std::max_element(elapsed.begin(), elapsed.end());
    // Nominal payload: the per-round V payload per rank, both directions.
    record(state, ns, rounds * v_type(256)->size() * 2);
  }
}
BENCHMARK(BM_TrafficMix)->Arg(2)->Arg(4)->UseManualTime()->Iterations(1);

}  // namespace
}  // namespace gpuddt::bench

GPUDDT_BENCH_MAIN();
