// Collectives with derived datatypes and device buffers: virtual-time
// cost of bcast/allgather/alltoall/reduce built on the point-to-point
// layer, so device payloads ride the GPU datatype engine end to end.
//
// Not a paper figure - this is the observability workload for the
// `coll.*` counter family (docs/metrics.md) and the collectives baseline
// in bench/baselines/.
#include <algorithm>
#include <cstring>
#include <memory>
#include <vector>

#include "bench_common.h"
#include "mpi/coll.h"
#include "protocols/gpu_plugin.h"

namespace gpuddt::bench {
namespace {

constexpr int kWorld = 4;

/// Run `body` on every rank of a fresh world and return the largest
/// per-rank virtual-time advance (the collective's completion time).
template <typename F>
vt::Time run_world(F&& body) {
  mpi::RuntimeConfig cfg;
  cfg.world_size = kWorld;
  cfg.machine = bench_machine();
  cfg.recorder = &obs::default_recorder();
  mpi::Runtime rt(cfg);
  rt.set_gpu_plugin(std::make_shared<proto::GpuDatatypePlugin>());
  std::vector<vt::Time> elapsed(kWorld, 0);
  rt.run([&](mpi::Process& p) {
    mpi::Collectives coll(mpi::Comm{p});
    const vt::Time t0 = p.clock().now();
    body(p, coll);
    elapsed[static_cast<std::size_t>(p.rank())] = p.clock().now() - t0;
  });
  return *std::max_element(elapsed.begin(), elapsed.end());
}

void BM_Coll_Bcast_V_Device(benchmark::State& state) {
  const auto dt = v_type(state.range(0));
  for (auto _ : state) {
    const vt::Time ns = run_world([&](mpi::Process& p,
                                      mpi::Collectives& coll) {
      auto* buf = static_cast<std::byte*>(
          sg::Malloc(p.gpu(), static_cast<std::size_t>(dt->true_extent())));
      std::memset(buf, p.rank() == 0 ? 7 : 0,
                  static_cast<std::size_t>(dt->true_extent()));
      coll.bcast(buf, 1, dt, 0);
      sg::Free(p.gpu(), buf);
    });
    record(state, ns, dt->size());
  }
}
BENCHMARK(BM_Coll_Bcast_V_Device)
    ->Apply(small_matrix_sizes)->UseManualTime()->Iterations(1);

void BM_Coll_Allgather_C_Host(benchmark::State& state) {
  const std::int64_t count = state.range(0) * state.range(0) / 8;
  for (auto _ : state) {
    const vt::Time ns = run_world([&](mpi::Process& p,
                                      mpi::Collectives& coll) {
      std::vector<double> mine(static_cast<std::size_t>(count),
                               p.rank() + 0.5);
      std::vector<double> all(static_cast<std::size_t>(count) * kWorld);
      coll.allgather(mine.data(), all.data(), count, mpi::kDouble());
    });
    record(state, ns, count * 8 * kWorld);
  }
}
BENCHMARK(BM_Coll_Allgather_C_Host)
    ->Apply(small_matrix_sizes)->UseManualTime()->Iterations(1);

void BM_Coll_Alltoall_C_Host(benchmark::State& state) {
  const std::int64_t count = state.range(0) * state.range(0) / 8;
  for (auto _ : state) {
    const vt::Time ns = run_world([&](mpi::Process& p,
                                      mpi::Collectives& coll) {
      std::vector<double> in(static_cast<std::size_t>(count) * kWorld,
                             p.rank() + 0.25);
      std::vector<double> out(static_cast<std::size_t>(count) * kWorld);
      coll.alltoall(in.data(), out.data(), count, mpi::kDouble());
    });
    record(state, ns, count * 8 * kWorld);
  }
}
BENCHMARK(BM_Coll_Alltoall_C_Host)
    ->Apply(small_matrix_sizes)->UseManualTime()->Iterations(1);

void BM_Coll_Allreduce_Sum(benchmark::State& state) {
  const std::int64_t count = state.range(0) * state.range(0) / 8;
  for (auto _ : state) {
    const vt::Time ns = run_world([&](mpi::Process&,
                                      mpi::Collectives& coll) {
      std::vector<double> in(static_cast<std::size_t>(count), 1.0);
      std::vector<double> out(static_cast<std::size_t>(count));
      coll.allreduce(in.data(), out.data(), count, mpi::kDouble(),
                     mpi::ReduceOp::kSum);
    });
    record(state, ns, count * 8);
  }
}
BENCHMARK(BM_Coll_Allreduce_Sum)
    ->Apply(small_matrix_sizes)->UseManualTime()->Iterations(1);

}  // namespace
}  // namespace gpuddt::bench

GPUDDT_BENCH_MAIN();
