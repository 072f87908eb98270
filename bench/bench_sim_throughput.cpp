// Simulator-throughput benchmark: how much virtual time the event-driven
// core advances per real second, at world sizes the retired
// thread-per-rank scheduler could not reach (docs/simulator.md).
//
// The workload is a communication-bound SPMD program over a modeled
// multi-node fat-tree: every rank runs a few rounds of neighbor exchange
// around a ring (host eager messages crossing SM, node-pair IB links and
// shared leaf uplinks) with a dissemination barrier between rounds. The
// deterministic outputs - the event-loop dispatch/wakeup/yield counts,
// the final virtual clock, and every engine/pml counter the run touches -
// are gated byte-exactly as bench/baselines/sim_throughput.json. The
// wall-clock throughput numbers (sim.wall_ns, sim.vns_per_wall_s) are
// real host time and canon-excluded (obs/canon.cpp), so the baseline
// stays machine-independent.
#include <chrono>
#include <cstring>
#include <vector>

#include "bench_common.h"
#include "mpi/pml.h"

namespace gpuddt::bench {
namespace {

constexpr int kRounds = 4;
constexpr std::int64_t kPayloadBytes = 4096;

/// One ring-exchange world: `ranks` ranks, 32 per node, 4 nodes per
/// fat-tree leaf with 2 shared uplinks each.
void BM_SimThroughput_Ring(benchmark::State& state) {
  const int ranks = static_cast<int>(state.range(0));
  for (auto _ : state) {
    mpi::RuntimeConfig cfg;
    cfg.world_size = ranks;
    cfg.ranks_per_node = 32;
    cfg.machine.num_devices = 1;
    cfg.machine.topo.fat_tree_leaf_nodes = 4;
    cfg.machine.topo.fat_tree_uplinks = 2;
    cfg.sim_stack_bytes = 256 * 1024;
    cfg.recorder = &obs::default_recorder();
    mpi::Runtime rt(cfg);

    // det-lint does not scan bench/, but for the record: this wall-clock
    // read feeds only the canon-excluded sim.wall* metrics.
    const auto wall0 = std::chrono::steady_clock::now();
    vt::Time max_vns = 0;
    std::vector<vt::Time> finish(static_cast<std::size_t>(ranks), 0);
    rt.run([&](mpi::Process& p) {
      mpi::Comm comm(p);
      std::vector<std::byte> out(kPayloadBytes);
      std::vector<std::byte> in(kPayloadBytes);
      std::memset(out.data(), p.rank() & 0xff, out.size());
      const int right = (p.rank() + 1) % ranks;
      const int left = (p.rank() + ranks - 1) % ranks;
      for (int round = 0; round < kRounds; ++round) {
        comm.sendrecv(out.data(), kPayloadBytes, mpi::kByte(), right, round,
                      in.data(), kPayloadBytes, mpi::kByte(), left, round);
        comm.barrier();
      }
      finish[static_cast<std::size_t>(p.rank())] = p.clock().now();
    });
    const auto wall1 = std::chrono::steady_clock::now();

    for (const vt::Time t : finish) max_vns = std::max(max_vns, t);
    const auto wall_ns = static_cast<std::int64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(wall1 - wall0)
            .count());
    const vt::EngineStats st = rt.sim_stats();

    obs::Recorder* rec = &obs::default_recorder();
    obs::count(rec, "sim.ranks", ranks);
    obs::count(rec, "sim.dispatches", static_cast<std::int64_t>(st.dispatches));
    obs::count(rec, "sim.wakeups", static_cast<std::int64_t>(st.wakeups));
    obs::count(rec, "sim.yields", static_cast<std::int64_t>(st.yields));
    obs::count(rec, "sim.virtual_ns", max_vns);
    obs::count(rec, "sim.wall_ns", wall_ns);
    obs::count(rec, "sim.vns_per_wall_s",
               wall_ns > 0 ? max_vns * vt::kNanosPerSecond / wall_ns : 0);

    record(state, max_vns, kPayloadBytes * ranks * kRounds);
    state.counters["vns_per_wall_s"] = benchmark::Counter(
        wall_ns > 0 ? static_cast<double>(max_vns) * 1e9 /
                          static_cast<double>(wall_ns)
                    : 0.0);
    state.counters["dispatches"] =
        benchmark::Counter(static_cast<double>(st.dispatches));
  }
}
BENCHMARK(BM_SimThroughput_Ring)
    ->Arg(256)->Arg(1024)->UseManualTime()->Iterations(1);

}  // namespace
}  // namespace gpuddt::bench

GPUDDT_BENCH_MAIN();
