// dump_figures: write the data series behind every reproduced figure as
// CSV files (default into ./figdata), ready for plots/plot_figures.py.
// Unlike the google-benchmark binaries this sweeps full size ranges and
// emits one tidy file per figure.
//
//   $ ./dump_figures [output_dir]
#include <cstdio>
#include <filesystem>
#include <string>

#include "baselines/mvapich_plugin.h"
#include "core/layouts.h"
#include "harness/harness.h"
#include "mpi/datatype.h"

using namespace gpuddt;

namespace {

std::string g_dir = "figdata";

FILE* open_csv(const char* name, const char* header) {
  const std::string path = g_dir + "/" + name;
  FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    std::perror(path.c_str());
    std::exit(1);
  }
  std::fprintf(f, "%s\n", header);
  return f;
}

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

const std::int64_t kSizes[] = {256, 512, 1024, 2048, 4096};

void fig6() {
  FILE* f = open_csv("fig6_kernel_bandwidth.csv",
                     "N,C_gbps,V_gbps,T_gbps,Tstair_gbps");
  for (std::int64_t n : kSizes) {
    auto v = core::submatrix_type(n, n / 2, n + 512);
    const double c = harness::memcpy_d2d_bandwidth(v->size(), machine());
    const double bv = harness::kernel_pack_bandwidth(v, 1, {}, machine());
    const double bt = harness::kernel_pack_bandwidth(
        core::lower_triangular_type(n, n), 1, {}, machine());
    const double bs = harness::kernel_pack_bandwidth(
        core::stair_triangular_type(n, n, 128), 1, {}, machine());
    std::fprintf(f, "%lld,%.2f,%.2f,%.2f,%.2f\n",
                 static_cast<long long>(n), c, bv, bt, bs);
  }
  std::fclose(f);
}

void fig7() {
  FILE* f = open_csv(
      "fig7_pack_unpack.csv",
      "N,V_d2d_ms,T_d2d_ms,T_pipeline_ms,T_cached_ms,V_d2d2h_ms,V_cpy_ms");
  for (std::int64_t n : kSizes) {
    auto run = [&](const mpi::DatatypePtr& dt, bool pipeline, bool cache,
                   harness::PackTarget target) {
      harness::PackBenchSpec spec;
      spec.dt = dt;
      spec.machine = machine();
      spec.engine.pipeline_conversion = pipeline;
      spec.engine.cache_enabled = cache;
      spec.warmup = cache ? 1 : 0;
      spec.target = target;
      return static_cast<double>(harness::run_pack_bench(spec).avg_ns) / 1e6;
    };
    auto v = core::submatrix_type(n, n / 2, n + 512);
    auto t = core::lower_triangular_type(n, n);
    std::fprintf(f, "%lld,%.4f,%.4f,%.4f,%.4f,%.4f,%.4f\n",
                 static_cast<long long>(n),
                 run(v, true, true, harness::PackTarget::kDevice),
                 run(t, false, false, harness::PackTarget::kDevice),
                 run(t, true, false, harness::PackTarget::kDevice),
                 run(t, true, true, harness::PackTarget::kDevice),
                 run(v, true, true, harness::PackTarget::kDeviceHost),
                 run(v, true, true, harness::PackTarget::kZeroCopy));
  }
  std::fclose(f);
}

void fig8() {
  FILE* f = open_csv("fig8_vs_memcpy2d.csv",
                     "blocks,block_bytes,kernel_d2d_gbps,mcp2d_d2d_gbps,"
                     "kernel_d2h_gbps,mcp2d_d2h_gbps");
  for (std::int64_t nblocks : {1024, 8192}) {
    for (std::int64_t bs :
         {64, 120, 128, 448, 512, 1000, 1024, 2048, 4096}) {
      sg::Machine m(machine());
      sg::HostContext ctx(m, 0);
      sg::Stream stream(&m.device(0));
      const std::int64_t pitch = (bs + 127) / 128 * 128 + 128;
      const std::int64_t total = nblocks * bs;
      auto* src = static_cast<std::byte*>(sg::Malloc(ctx, nblocks * pitch));
      auto* dev = static_cast<std::byte*>(sg::Malloc(ctx, total));
      auto* mapped = static_cast<std::byte*>(
          sg::HostAlloc(ctx, static_cast<std::size_t>(total), true));
      std::vector<std::byte> host(static_cast<std::size_t>(total));
      const mpi::RegularPattern pat{0, bs, pitch, nblocks};
      auto gbps = [&](vt::Time dur) {
        return dur > 0 ? static_cast<double>(total) /
                             static_cast<double>(dur)
                       : 0.0;
      };
      vt::Time t0 = ctx.clock.now();
      vt::Time fin = core::pack_vector_kernel(ctx, stream, src, pat, 0,
                                              total, dev, 64);
      const double k_d2d = gbps(fin - t0);
      ctx.clock.wait_until(fin);
      t0 = ctx.clock.now();
      sg::Memcpy2D(ctx, dev, static_cast<std::size_t>(bs), src,
                   static_cast<std::size_t>(pitch),
                   static_cast<std::size_t>(bs),
                   static_cast<std::size_t>(nblocks));
      const double m_d2d = gbps(ctx.clock.now() - t0);
      t0 = ctx.clock.now();
      fin = core::pack_vector_kernel(ctx, stream, src, pat, 0, total,
                                     mapped, 64);
      const double k_d2h = gbps(fin - t0);
      ctx.clock.wait_until(fin);
      t0 = ctx.clock.now();
      sg::Memcpy2D(ctx, host.data(), static_cast<std::size_t>(bs), src,
                   static_cast<std::size_t>(pitch),
                   static_cast<std::size_t>(bs),
                   static_cast<std::size_t>(nblocks));
      const double m_d2h = gbps(ctx.clock.now() - t0);
      std::fprintf(f, "%lld,%lld,%.2f,%.2f,%.2f,%.2f\n",
                   static_cast<long long>(nblocks),
                   static_cast<long long>(bs), k_d2d, m_d2d, k_d2h, m_d2h);
    }
  }
  std::fclose(f);
}

void figs_9_10() {
  FILE* f9 = open_csv("fig9_pcie_bandwidth.csv", "N,C_gbps,V_gbps,T_gbps");
  FILE* f10 = open_csv(
      "fig10_pingpong.csv",
      "N,SM1_V_ms,SM1_T_ms,SM2_V_ms,SM2_T_ms,IB_V_ms,IB_T_ms,"
      "SM2_V_mvapich_ms,SM2_T_mvapich_ms,IB_V_mvapich_ms,IB_T_mvapich_ms");
  for (std::int64_t n : kSizes) {
    auto v = core::submatrix_type(n, n / 2, n + 512);
    auto t = core::lower_triangular_type(n, n);
    auto c = mpi::Datatype::contiguous(v->size() / 8, mpi::kDouble());
    auto pp = [&](const mpi::DatatypePtr& dt, mpi::RuntimeConfig cfg,
                  bool baseline = false) {
      harness::PingPongSpec spec;
      spec.cfg = std::move(cfg);
      spec.dt0 = spec.dt1 = dt;
      if (baseline)
        spec.plugin = std::make_shared<base::MvapichLikePlugin>();
      return harness::run_pingpong(spec);
    };
    auto one = pp_cfg();
    one.device_of = [](int) { return 0; };
    auto ib = pp_cfg();
    ib.ranks_per_node = 1;
    const auto rc = pp(c, pp_cfg());
    const auto rv = pp(v, pp_cfg());
    const auto rt_ = pp(t, pp_cfg());
    std::fprintf(f9, "%lld,%.2f,%.2f,%.2f\n", static_cast<long long>(n),
                 rc.bandwidth_gbps(), rv.bandwidth_gbps(),
                 rt_.bandwidth_gbps());
    auto ms = [](const harness::PingPongResult& r) {
      return static_cast<double>(r.avg_roundtrip) / 1e6;
    };
    std::fprintf(
        f10, "%lld,%.3f,%.3f,%.3f,%.3f,%.3f,%.3f,%.3f,%.3f,%.3f,%.3f\n",
        static_cast<long long>(n), ms(pp(v, one)), ms(pp(t, one)), ms(rv),
        ms(rt_), ms(pp(v, ib)), ms(pp(t, ib)), ms(pp(v, pp_cfg(), true)),
        ms(pp(t, pp_cfg(), true)), ms(pp(v, ib, true)),
        ms(pp(t, ib, true)));
  }
  std::fclose(f9);
  std::fclose(f10);
}

void figs_11_12() {
  FILE* f = open_csv("fig11_12_reshape_transpose.csv",
                     "N,reshape_ms,reshape_mvapich_ms,transpose_ms,"
                     "transpose_mvapich_ms");
  for (std::int64_t n : {256, 512, 1024, 2048}) {
    auto v = core::submatrix_type(n, n / 2, n + 512);
    auto c = mpi::Datatype::contiguous(v->size() / 8, mpi::kDouble());
    auto dense = mpi::Datatype::contiguous(n * n / 4, mpi::kDouble());
    auto trans = core::transpose_type(n / 2, n / 2);
    auto pp = [&](const mpi::DatatypePtr& a, const mpi::DatatypePtr& b,
                  bool baseline) {
      harness::PingPongSpec spec;
      spec.cfg = pp_cfg();
      spec.dt0 = a;
      spec.dt1 = b;
      spec.iters = 2;
      if (baseline)
        spec.plugin = std::make_shared<base::MvapichLikePlugin>();
      return static_cast<double>(
                 harness::run_pingpong(spec).avg_roundtrip) /
             1e6;
    };
    std::fprintf(f, "%lld,%.3f,%.3f,%.3f,%.3f\n", static_cast<long long>(n),
                 pp(v, c, false), pp(v, c, true), pp(dense, trans, false),
                 pp(dense, trans, true));
  }
  std::fclose(f);
}

}  // namespace

int main(int argc, char** argv) {
  if (argc > 1) g_dir = argv[1];
  std::filesystem::create_directories(g_dir);
  std::printf("writing figure data into %s/ ...\n", g_dir.c_str());
  fig6();
  std::printf("  fig6_kernel_bandwidth.csv\n");
  fig7();
  std::printf("  fig7_pack_unpack.csv\n");
  fig8();
  std::printf("  fig8_vs_memcpy2d.csv\n");
  figs_9_10();
  std::printf("  fig9_pcie_bandwidth.csv, fig10_pingpong.csv\n");
  figs_11_12();
  std::printf("  fig11_12_reshape_transpose.csv\n");
  std::printf("done; plot with plots/plot_figures.py\n");
  return 0;
}
