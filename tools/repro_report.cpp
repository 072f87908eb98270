// repro_report: run every experiment of the paper's evaluation and print
// a self-contained markdown report (the source of EXPERIMENTS.md's
// numbers). Unlike the google-benchmark binaries in bench/, this tool
// aggregates across experiments, computes the ratios the paper claims,
// and flags any claim that no longer holds.
//
//   $ ./repro_report            # full report (~a minute)
//   $ ./repro_report --quick    # smaller sizes
#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "baselines/alternatives.h"
#include "baselines/mvapich_plugin.h"
#include "core/layouts.h"
#include "harness/harness.h"
#include "protocols/gpu_plugin.h"

using namespace gpuddt;

namespace {

int g_checks = 0;
int g_failures = 0;

void claim(const char* what, bool ok) {
  ++g_checks;
  if (!ok) ++g_failures;
  std::printf("  - %s **%s**\n", what, ok ? "HOLDS" : "VIOLATED");
}

double ms(vt::Time t) { return static_cast<double>(t) / 1e6; }

sg::MachineConfig machine() {
  sg::MachineConfig m;
  m.num_devices = 2;
  m.device_memory_bytes = std::size_t{3} << 30;
  return m;
}

mpi::RuntimeConfig pp_cfg() {
  mpi::RuntimeConfig cfg;
  cfg.world_size = 2;
  cfg.machine = machine();
  return cfg;
}

harness::PingPongResult pingpong(
    const mpi::DatatypePtr& dt0, const mpi::DatatypePtr& dt1,
    mpi::RuntimeConfig cfg,
    std::shared_ptr<mpi::GpuTransferPlugin> plugin = nullptr) {
  harness::PingPongSpec spec;
  spec.cfg = std::move(cfg);
  spec.dt0 = dt0;
  spec.dt1 = dt1;
  spec.plugin = std::move(plugin);
  return harness::run_pingpong(spec);
}

void fig6(std::int64_t n) {
  std::printf("\n## Figure 6 - kernel GPU memory bandwidth (N=%lld)\n\n",
              static_cast<long long>(n));
  auto v = core::submatrix_type(n, n / 2, n + 512);
  auto t = core::lower_triangular_type(n, n);
  auto stair = core::stair_triangular_type(n, n, 128);
  const double peak = harness::memcpy_d2d_bandwidth(v->size(), machine());
  const double bv = harness::kernel_pack_bandwidth(v, 1, {}, machine());
  const double bt = harness::kernel_pack_bandwidth(t, 1, {}, machine());
  const double bs = harness::kernel_pack_bandwidth(stair, 1, {}, machine());
  std::printf("| series | GB/s | vs cudaMemcpy |\n|---|---|---|\n");
  std::printf("| C (cudaMemcpy d2d) | %.1f | 1.00 |\n", peak);
  std::printf("| V (vector kernel) | %.1f | %.2f |\n", bv, bv / peak);
  std::printf("| T (indexed kernel) | %.1f | %.2f |\n", bt, bt / peak);
  std::printf("| T-stair (nb=128) | %.1f | %.2f |\n\n", bs, bs / peak);
  claim("V reaches >= 88%% of memcpy (paper ~94%%)", bv > 0.88 * peak);
  claim("T loses to occupancy: 70-90%% (paper ~80%%)",
        bt > 0.70 * peak && bt < 0.90 * peak);
  claim("stair recovers vector bandwidth", bs > 0.95 * bv);
}

void fig7(std::int64_t n) {
  std::printf("\n## Figure 7 - engine pack+unpack (T, N=%lld)\n\n",
              static_cast<long long>(n));
  harness::PackBenchSpec spec;
  spec.dt = core::lower_triangular_type(n, n);
  spec.machine = machine();
  spec.engine.cache_enabled = false;
  spec.engine.pipeline_conversion = false;
  const auto plain = harness::run_pack_bench(spec);
  spec.engine.pipeline_conversion = true;
  const auto pipe = harness::run_pack_bench(spec);
  spec.engine.cache_enabled = true;
  spec.warmup = 1;
  const auto cached = harness::run_pack_bench(spec);
  spec.target = harness::PackTarget::kDeviceHost;
  const auto d2d2h = harness::run_pack_bench(spec);
  spec.target = harness::PackTarget::kZeroCopy;
  const auto cpy = harness::run_pack_bench(spec);
  std::printf("| variant | ms |\n|---|---|\n");
  std::printf("| T-d2d (plain) | %.3f |\n", ms(plain.avg_ns));
  std::printf("| T-d2d-pipeline | %.3f |\n", ms(pipe.avg_ns));
  std::printf("| T-d2d-cached | %.3f |\n", ms(cached.avg_ns));
  std::printf("| T-d2d2h-cached | %.3f |\n", ms(d2d2h.avg_ns));
  std::printf("| T-cpy-cached (zero-copy) | %.3f |\n\n", ms(cpy.avg_ns));
  claim("pipelining nearly doubles performance (>=1.4x)",
        plain.avg_ns > 1.4 * pipe.avg_ns);
  claim("caching beats pipelining", cached.avg_ns < pipe.avg_ns);
  claim("zero-copy slightly faster than explicit staging",
        cpy.avg_ns < d2d2h.avg_ns);
}

void fig9(std::int64_t n) {
  std::printf("\n## Figure 9 - ping-pong PCI-E bandwidth (N=%lld)\n\n",
              static_cast<long long>(n));
  auto v = core::submatrix_type(n, n / 2, n + 512);
  auto t = core::lower_triangular_type(n, n);
  auto c = mpi::Datatype::contiguous(v->size() / 8, mpi::kDouble());
  const auto rv = pingpong(v, v, pp_cfg());
  const auto rt_ = pingpong(t, t, pp_cfg());
  const auto rc = pingpong(c, c, pp_cfg());
  std::printf("| series | GB/s | vs contiguous |\n|---|---|---|\n");
  std::printf("| C | %.2f | 1.00 |\n", rc.bandwidth_gbps());
  std::printf("| V | %.2f | %.2f |\n", rv.bandwidth_gbps(),
              rv.bandwidth_gbps() / rc.bandwidth_gbps());
  std::printf("| T | %.2f | %.2f |\n\n", rt_.bandwidth_gbps(),
              rt_.bandwidth_gbps() / rc.bandwidth_gbps());
  claim("V >= 75%% of contiguous (paper ~90%%)",
        rv.bandwidth_gbps() > 0.75 * rc.bandwidth_gbps());
  claim("T <= V <= C ordering",
        rt_.bandwidth_gbps() <= rv.bandwidth_gbps() * 1.02 &&
            rv.bandwidth_gbps() < rc.bandwidth_gbps());
}

void fig10(std::int64_t n) {
  std::printf("\n## Figure 10 - ping-pong vs MVAPICH-style (N=%lld)\n\n",
              static_cast<long long>(n));
  auto v = core::submatrix_type(n, n / 2, n + 512);
  auto t = core::lower_triangular_type(n, n);
  auto one_gpu = pp_cfg();
  one_gpu.device_of = [](int) { return 0; };
  auto ib = pp_cfg();
  ib.ranks_per_node = 1;
  auto mv = [] { return std::make_shared<base::MvapichLikePlugin>(); };

  struct Row {
    const char* name;
    harness::PingPongResult ours, theirs;
  };
  std::vector<Row> rows;
  rows.push_back({"SM 1GPU V", pingpong(v, v, one_gpu),
                  pingpong(v, v, one_gpu, mv())});
  rows.push_back({"SM 1GPU T", pingpong(t, t, one_gpu),
                  pingpong(t, t, one_gpu, mv())});
  rows.push_back({"SM 2GPU V", pingpong(v, v, pp_cfg()),
                  pingpong(v, v, pp_cfg(), mv())});
  rows.push_back({"SM 2GPU T", pingpong(t, t, pp_cfg()),
                  pingpong(t, t, pp_cfg(), mv())});
  rows.push_back({"IB V", pingpong(v, v, ib), pingpong(v, v, ib, mv())});
  rows.push_back({"IB T", pingpong(t, t, ib), pingpong(t, t, ib, mv())});
  std::printf("| config | ours (ms) | mvapich-style (ms) | speedup |\n");
  std::printf("|---|---|---|---|\n");
  for (const auto& r : rows) {
    std::printf("| %s | %.2f | %.2f | %.1fx |\n", r.name,
                ms(r.ours.avg_roundtrip), ms(r.theirs.avg_roundtrip),
                static_cast<double>(r.theirs.avg_roundtrip) /
                    static_cast<double>(r.ours.avg_roundtrip));
  }
  std::printf("\n");
  claim("ours faster in every configuration",
        [&] {
          for (const auto& r : rows)
            if (r.ours.avg_roundtrip >= r.theirs.avg_roundtrip) return false;
          return true;
        }());
  claim("baseline indexed blows up (>=3x)",
        rows[3].theirs.avg_roundtrip > 3 * rows[3].ours.avg_roundtrip);
  claim("1 GPU >= ~2x faster than 2 GPUs (paper: at least 2x)",
        rows[2].ours.avg_roundtrip >
            static_cast<vt::Time>(1.8 * static_cast<double>(
                                            rows[0].ours.avg_roundtrip)));
  // Local-staging option (Section 5.2's 10-20%).
  auto no_staging = pp_cfg();
  no_staging.recv_local_staging = false;
  const auto remote_read = pingpong(t, t, no_staging);
  std::printf("  local staging %.2f ms vs remote-read unpack %.2f ms\n",
              ms(rows[3].ours.avg_roundtrip), ms(remote_read.avg_roundtrip));
  claim("receiver local staging faster than remote-read unpack",
        rows[3].ours.avg_roundtrip < remote_read.avg_roundtrip);
}

void fig11_12(std::int64_t n) {
  std::printf("\n## Figures 11/12 - reshape and transpose (N=%lld)\n\n",
              static_cast<long long>(n));
  auto v = core::submatrix_type(n, n / 2, n + 512);
  auto c = mpi::Datatype::contiguous(v->size() / 8, mpi::kDouble());
  const auto ours = pingpong(v, c, pp_cfg());
  const auto theirs =
      pingpong(v, c, pp_cfg(), std::make_shared<base::MvapichLikePlugin>());
  std::printf("vector<->contiguous: ours %.2f ms, baseline %.2f ms\n",
              ms(ours.avg_roundtrip), ms(theirs.avg_roundtrip));
  claim("reshape beats baseline", ours.avg_roundtrip < theirs.avg_roundtrip);

  const std::int64_t tn = n / 2;
  auto dense = mpi::Datatype::contiguous(tn * tn, mpi::kDouble());
  auto trans = core::transpose_type(tn, tn);
  const auto t_ours = pingpong(dense, trans, pp_cfg());
  const auto t_theirs = pingpong(dense, trans, pp_cfg(),
                                 std::make_shared<base::MvapichLikePlugin>());
  std::printf("transpose (N=%lld): ours %.2f ms, baseline %.2f ms\n",
              static_cast<long long>(tn), ms(t_ours.avg_roundtrip),
              ms(t_theirs.avg_roundtrip));
  claim("transpose stress beats baseline by >=5x",
        t_theirs.avg_roundtrip > 5 * t_ours.avg_roundtrip);
}

void fig1(std::int64_t n) {
  std::printf("\n## Figure 1 - design alternatives, pack side (T, N=%lld)\n\n",
              static_cast<long long>(n));
  sg::Machine m(machine());
  sg::HostContext ctx(m, 0);
  auto dt = core::lower_triangular_type(n, n);
  const std::int64_t total = dt->size();
  const std::int64_t span = dt->true_extent() + 64;
  auto* src = static_cast<std::byte*>(sg::Malloc(ctx, span));
  auto* scratch = static_cast<std::byte*>(
      sg::HostAlloc(ctx, static_cast<std::size_t>(span), false));
  auto* hpk = static_cast<std::byte*>(
      sg::HostAlloc(ctx, static_cast<std::size_t>(total), false));
  auto* dpk = static_cast<std::byte*>(sg::Malloc(ctx, total));
  const auto a = base::pack_stage_whole(ctx, dt, 1, src, scratch, hpk);
  const auto b = base::pack_per_block_d2h(ctx, dt, 1, src, hpk);
  const auto c = base::pack_per_block_d2d(ctx, dt, 1, src, dpk);
  core::GpuDatatypeEngine eng(ctx);
  const auto d = base::pack_gpu_kernel(eng, dt, 1, src, dpk);
  std::printf("| strategy | ms |\n|---|---|\n");
  std::printf("| (a) stage whole extent + CPU pack | %.3f |\n", ms(a.elapsed));
  std::printf("| (b) per-block memcpy D2H | %.3f |\n", ms(b.elapsed));
  std::printf("| (c) per-block memcpy D2D | %.3f |\n", ms(c.elapsed));
  std::printf("| (d) GPU pack kernel | %.3f |\n\n", ms(d.elapsed));
  claim("(d) is the fastest alternative",
        d.elapsed < a.elapsed && d.elapsed < b.elapsed &&
            d.elapsed < c.elapsed);
}

void gpudirect() {
  std::printf("\n## GPUDirect crossover (Section 5.2 / [14])\n\n");
  auto run = [&](bool direct, std::int64_t bytes) {
    auto cfg = pp_cfg();
    cfg.ranks_per_node = 1;
    cfg.gpu_eager_limit = 0;  // isolate the rendezvous protocols
    cfg.gpudirect_rdma = direct;
    if (direct) cfg.gpudirect_limit_bytes = INT64_MAX;
    auto dt = mpi::Datatype::contiguous(bytes / 8, mpi::kDouble());
    return pingpong(dt, dt, cfg);
  };
  std::printf("| size | direct (us) | staged (us) |\n|---|---|---|\n");
  bool small_direct_wins = false, large_staged_wins = false;
  for (std::int64_t kb : {4, 16, 32, 256, 4096}) {
    const auto d = run(true, kb * 1024);
    const auto s = run(false, kb * 1024);
    std::printf("| %lld KB | %.1f | %.1f |\n", static_cast<long long>(kb),
                static_cast<double>(d.avg_roundtrip) / 1e3,
                static_cast<double>(s.avg_roundtrip) / 1e3);
    if (kb <= 16 && d.avg_roundtrip < s.avg_roundtrip)
      small_direct_wins = true;
    if (kb >= 256 && s.avg_roundtrip < d.avg_roundtrip)
      large_staged_wins = true;
  }
  std::printf("\n");
  claim("GPUDirect wins below ~30KB", small_direct_wins);
  claim("host staging wins for large messages", large_staged_wins);
}

}  // namespace

int main(int argc, char** argv) {
  const bool quick =
      argc > 1 && std::string(argv[1]) == "--quick";
  const std::int64_t n = quick ? 1024 : 2048;

  std::printf("# gpuddt reproduction report\n");
  std::printf("\nAll times are virtual nanoseconds from the calibrated "
              "K40-era machine model; see DESIGN.md.\n");
  fig1(n);
  fig6(quick ? 2048 : 4096);
  fig7(quick ? 2048 : 4096);
  fig9(n);
  fig10(n);
  fig11_12(n);
  gpudirect();

  std::printf("\n---\n%d/%d paper claims hold.\n", g_checks - g_failures,
              g_checks);
  return g_failures == 0 ? 0 : 1;
}
