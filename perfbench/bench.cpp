// Wall-clock benchmark of the gpuddt simulator (see NOTES.md).
//
//   perfbench --workload sweep|steady|mix --seed N --seconds S
//                    [--trace 0|1] [--spans-out FILE] [--report-dir DIR]
//                    [--inject-corruption]
//
// Single process, single OS thread, closed loop: rank 0 is the one client
// and issues each op only after the previous one completed; every rank
// is a fiber of the default event backend. A run repeats the workload
// (one "pass") until --seconds have elapsed; pass 0 is a warm-up whose
// figures are checked but not reported. Every delivered buffer and every
// explicit unpack is compared byte for byte with mpi::cpu_pack ->
// cpu_unpack of the same seeded input, and every pass must reproduce the
// first pass's virtual-clock figures bit for bit.
//
// The last stdout line is one JSON object: the end-to-end metrics with
// --trace 0, the per-layer metrics (from spans around every call into a
// layer) with --trace 1.
#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <array>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <exception>
#include <filesystem>
#include <fstream>
#include <functional>
#include <memory>
#include <numeric>
#include <optional>
#include <set>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "core/layouts.h"
#include "mpi/canonical.h"
#include "mpi/coll.h"
#include "mpi/cpu_pack.h"
#include "mpi/pml.h"
#include "mpi/runtime.h"
#include "obs/recorder.h"
#include "protocols/gpu_plugin.h"
#include "rma/window.h"
#include "spans.h"

namespace perfbench {

Tracer& tracer() {
  static Tracer t;
  return t;
}

namespace {

using namespace gpuddt;
using mpi::Datatype;
using mpi::DatatypePtr;

// --- Seeded inputs -----------------------------------------------------------

std::uint64_t splitmix64(std::uint64_t& s) {
  std::uint64_t z = (s += 0x9E3779B97F4A7C15ull);
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
  return z ^ (z >> 31);
}

struct Rng {
  std::uint64_t s;
  std::uint64_t next() { return splitmix64(s); }
  std::int64_t below(std::int64_t n) {
    return static_cast<std::int64_t>(next() % static_cast<std::uint64_t>(n));
  }
  std::int64_t range(std::int64_t lo, std::int64_t hi) {  // inclusive
    return lo + below(hi - lo + 1);
  }
};

void seeded_fill(std::byte* p, std::size_t n, std::uint64_t tag) {
  std::uint64_t s = tag;
  std::size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    const std::uint64_t v = splitmix64(s);
    std::memcpy(p + i, &v, 8);
  }
  if (i < n) {
    const std::uint64_t v = splitmix64(s);
    std::memcpy(p + i, &v, n - i);
  }
}

/// Bytes a (dt, count) buffer spans from its first typed byte.
std::size_t span_of(const DatatypePtr& dt, std::int64_t count) {
  return static_cast<std::size_t>(dt->true_extent() +
                                  (count - 1) * dt->extent());
}

// --- Per-pass state ------------------------------------------------------------

struct OpRec {
  std::int64_t begin;
  std::int64_t end;
  vt::Time vt;
  std::int64_t payload;
};

struct Pass {
  std::uint64_t seed = 0;
  std::string report_dir;
  bool inject = false;  // flip one delivered byte before its check
  std::unique_ptr<obs::Recorder> rec;
  std::vector<OpRec> ops;
  std::int64_t cur_op = -1;
  std::int64_t planned_ops = 0;
  std::int64_t failed_checks = 0;
  std::vector<std::string> errors;
  // Counts made at the call sites and read from the layers' stats.
  std::int64_t pml_ops = 0, pml_bytes = 0;
  std::int64_t pack_bytes = 0, types_built = 0;
  vt::EngineStats sim{};
  std::int64_t units_converted = 0, units_from_cache = 0;
  std::int64_t fragments = 0, rdma_pipelined = 0, host_staged = 0;
  std::int64_t ipc_opens = 0, ipc_reuses = 0;
  std::int64_t flows = 0, flowstats_dropped = 0, flowstats_lost = 0;
  std::int64_t dev_cache_evictions = 0;
  std::array<std::int64_t, obs::FlowStats::kStages> stage_work_ns{};
};

void fail(Pass& ps, std::string what) {
  ++ps.failed_checks;
  if (ps.errors.size() < 8) ps.errors.push_back(std::move(what));
}

/// Closed-loop op timing on the client rank: wall and virtual clocks.
class OpClock {
 public:
  OpClock(Pass& ps, mpi::Process& p, std::int64_t payload)
      : ps_(ps), p_(p), payload_(payload) {
    ps_.cur_op = static_cast<std::int64_t>(ps_.ops.size());
    w0_ = wall_ns();
    v0_ = p_.clock().now();
  }
  void done() {
    ps_.ops.push_back({w0_, wall_ns(), p_.clock().now() - v0_, payload_});
  }

 private:
  Pass& ps_;
  mpi::Process& p_;
  std::int64_t payload_;
  std::int64_t w0_ = 0;
  vt::Time v0_ = 0;
};

// --- Correctness against the host reference engine ------------------------------

/// A device buffer plus a host shadow holding the contents it must have.
struct Buf {
  std::byte* dev = nullptr;
  std::vector<std::byte> shadow;
  int device = 0;
};

/// sg::Malloc + seeded fill; receive buffers (`shadowed`) also get their
/// shadow, whose copy is check time, not set-up.
Buf make_buf(mpi::Runtime& rt, int device, std::size_t bytes,
             std::uint64_t tag, bool shadowed) {
  sg::HostContext ctx(rt.machine(), device);
  Buf b;
  b.device = device;
  b.dev = static_cast<std::byte*>(sg::Malloc(ctx, bytes));
  seeded_fill(b.dev, bytes, tag);
  if (shadowed) {
    Scope s(Layer::kVerify);
    b.shadow.assign(b.dev, b.dev + bytes);
  }
  return b;
}

void free_buf(mpi::Runtime& rt, Buf& b) {
  if (b.dev == nullptr) return;
  sg::HostContext ctx(rt.machine(), b.device);
  sg::Free(ctx, b.dev);
  b.dev = nullptr;
}

/// Change the first typed byte of a send buffer, so every op delivers
/// bytes the previous op did not and a stale delivery cannot pass.
void stamp(std::byte* first_typed, std::int64_t k) {
  first_typed[0] = static_cast<std::byte>(0x80 | (k & 0x7f));
}

std::vector<std::byte>& reference_buffer() {
  static std::vector<std::byte> v;
  return v;
}

const std::byte* reference_pack(const std::byte* src, const DatatypePtr& dt,
                                std::int64_t count) {
  auto& packed = reference_buffer();
  packed.resize(static_cast<std::size_t>(dt->size() * count));
  mpi::cpu_pack(dt, count, src - dt->true_lb(), packed);
  return packed.data();
}

/// Check that (rdt, rcount) of `dst` now holds exactly what (sdt, scount)
/// of `src` packs to, and that no other byte the layout spans (gaps
/// included) changed. The receive layout's base sits at dst.dev +
/// base_off: -true_lb for message buffers (their first byte is the first
/// typed byte), 0 for an RMA window.
void check_delivery(Pass& ps, int rank, const std::byte* src,
                    const DatatypePtr& sdt, std::int64_t scount, Buf& dst,
                    const DatatypePtr& rdt, std::int64_t rcount,
                    const char* what, std::optional<std::int64_t> base_off = {}) {
  Scope s(Layer::kVerify, rank, ps.cur_op);
  const std::int64_t off = base_off.value_or(-rdt->true_lb());
  const std::byte* packed = reference_pack(src, sdt, scount);
  mpi::cpu_unpack(rdt, rcount,
                  std::span<const std::byte>(
                      packed, static_cast<std::size_t>(sdt->size() * scount)),
                  dst.shadow.data() + off);
  const auto first = static_cast<std::size_t>(off + rdt->true_lb());
  const std::size_t n = span_of(rdt, rcount);
  if (ps.inject) {
    ps.inject = false;
    dst.dev[first] ^= std::byte{0x01};  // the first typed byte
  }
  const std::byte* want = dst.shadow.data() + first;
  std::byte* got = dst.dev + first;
  if (std::memcmp(want, got, n) != 0) {
    std::size_t k = 0;
    while (want[k] == got[k]) ++k;
    fail(ps, std::string(what) + " on rank " + std::to_string(rank) +
                 ": byte " + std::to_string(k) + " of " + rdt->describe() +
                 " x" + std::to_string(rcount) +
                 " differs from the host reference");
    std::memcpy(dst.shadow.data() + first, got, n);
  }
}

// --- Calls into the layers, each wrapped in its span -----------------------------

mpi::Request isend(Pass& ps, const mpi::Comm& c, const Buf& b,
                   std::int64_t count, const DatatypePtr& dt, int dst,
                   int tag) {
  Scope s(Layer::kMpiPml, c.process().rank(), ps.cur_op);
  ++ps.pml_ops;
  ps.pml_bytes += dt->size() * count;
  return c.isend(b.dev - dt->true_lb(), count, dt, dst, tag);
}

mpi::Request irecv(Pass& ps, const mpi::Comm& c, Buf& b, std::int64_t count,
                   const DatatypePtr& dt, int src, int tag) {
  Scope s(Layer::kMpiPml, c.process().rank(), ps.cur_op);
  ++ps.pml_ops;
  return c.irecv(b.dev - dt->true_lb(), count, dt, src, tag);
}

void wait(Pass& ps, const mpi::Comm& c, const mpi::Request& r) {
  Scope s(Layer::kMpiPml, c.process().rank(), ps.cur_op);
  c.wait(r);
}

void send(Pass& ps, const mpi::Comm& c, const Buf& b, std::int64_t count,
          const DatatypePtr& dt, int dst, int tag) {
  wait(ps, c, isend(ps, c, b, count, dt, dst, tag));
}

void recv(Pass& ps, const mpi::Comm& c, Buf& b, std::int64_t count,
          const DatatypePtr& dt, int src, int tag) {
  wait(ps, c, irecv(ps, c, b, count, dt, src, tag));
}

DatatypePtr build_type(Pass& ps, const std::function<DatatypePtr()>& make) {
  DatatypePtr dt;
  {
    Scope s(Layer::kMpiTypeBuild);
    dt = make();
  }
  ++ps.types_built;
  if (tracer().full) {
    // The canonical form is computed inside the factory; this re-runs the
    // public canonicaliser from outside to time it, and cross-checks the
    // digest the DEV cache keys on.
    Scope s(Layer::kMpiCanonical);
    const auto canon = mpi::canonicalize_program(dt->program());
    if (mpi::shape_digest(canon, dt->extent()) != dt->shape_digest())
      fail(ps, "shape_digest disagrees with canonicalize_program");
  }
  return dt;
}

/// MPI_Pack + MPI_Unpack of (dt, count) through the GPU plugin on the
/// client rank: src -> packed device buffer -> dst. One op.
void pack_unpack_op(Pass& ps, mpi::Process& p, proto::GpuDatatypePlugin& plugin,
                    Buf& src, std::byte* packed, Buf& dst,
                    const DatatypePtr& dt, std::int64_t count) {
  const std::int64_t bytes = dt->size() * count;
  const auto out = std::span<std::byte>(packed, static_cast<std::size_t>(bytes));
  stamp(src.dev, static_cast<std::int64_t>(ps.ops.size()));
  OpClock oc(ps, p, 2 * bytes);
  std::int64_t pos = 0;
  {
    Scope s(Layer::kCorePack, p.rank(), ps.cur_op);
    plugin.pack(p, src.dev - dt->true_lb(), count, dt, out, &pos);
  }
  pos = 0;
  {
    Scope s(Layer::kCoreUnpack, p.rank(), ps.cur_op);
    plugin.unpack(p, out, &pos, dst.dev - dt->true_lb(), count, dt);
  }
  oc.done();
  ps.pack_bytes += bytes;
  {
    Scope s(Layer::kVerify, p.rank(), ps.cur_op);
    if (std::memcmp(reference_pack(src.dev, dt, count), packed,
                    static_cast<std::size_t>(bytes)) != 0)
      fail(ps, "MPI_Pack output differs from cpu_pack");
  }
  check_delivery(ps, p.rank(), src.dev, dt, count, dst, dt, count,
                 "MPI_Unpack");
}

mpi::RuntimeConfig base_cfg(Pass& ps, int world) {
  mpi::RuntimeConfig cfg;
  cfg.world_size = world;
  cfg.sched_backend = mpi::SchedBackend::kEvent;
  cfg.progress_timeout_ms = 60000;
  cfg.recorder = ps.rec.get();
  return cfg;
}

/// One Runtime's life: construct (set-up), run the rank bodies, read the
/// layers' stats, probe DEV conversion, free buffers and destroy.
class SimRun {
 public:
  SimRun(Pass& ps, const mpi::RuntimeConfig& cfg) : ps_(ps) {
    Scope s(Layer::kSimgpuSetup);
    rt_.emplace(cfg);
    plugin_ = std::make_shared<proto::GpuDatatypePlugin>();
    rt_->set_gpu_plugin(plugin_);
  }
  ~SimRun() { teardown(); }
  SimRun(const SimRun&) = delete;
  SimRun& operator=(const SimRun&) = delete;

  proto::GpuDatatypePlugin& plugin() { return *plugin_; }

  /// sg::Malloc + seeded fill of one rank-owned buffer.
  Buf& buf(int rank, std::size_t bytes, std::uint64_t tag,
           bool shadowed = true) {
    Scope s(Layer::kSimgpuSetup);
    bufs_.push_back(std::make_unique<Buf>(make_buf(
        *rt_, rt_->device_of(rank), bytes, ps_.seed ^ tag, shadowed)));
    return *bufs_.back();
  }

  /// Runs the rank bodies; an exception or deadlock diagnostic fails the
  /// ops not completed.
  void run(const std::function<void(mpi::Process&)>& body) {
    ran_ = true;
    try {
      Scope s(Layer::kRun);
      rt_->run([&](mpi::Process& p) {
        try {
          body(p);
        } catch (const std::exception& e) {
          // Name the rank that failed first; the others then deadlock.
          fail(ps_, "rank " + std::to_string(p.rank()) + ": " + e.what());
          throw;
        }
      });
    } catch (const std::exception& e) {
      fail(ps_, std::string("run: ") + e.what());
    }
    ps_.cur_op = -1;
    collect_stats();
  }

  /// Remember a (type, count) the DEV path converts, for the cold-cache
  /// conversion probe of the traced run.
  void note_dev(const DatatypePtr& dt, std::int64_t count) {
    if (dt->is_contiguous(count) || dt->regular_pattern(count)) return;
    if (probe_keys_.insert({dt->shape_digest(), count}).second)
      probe_.push_back({dt, count});
  }

  void teardown() {
    if (!rt_) return;
    probe_dev_conversion();
    Scope s(Layer::kSimgpuTeardown);
    for (auto& b : bufs_) free_buf(*rt_, *b);
    bufs_.clear();
    rt_.reset();
    plugin_.reset();
  }

 private:
  void collect_stats() {
    Scope s(Layer::kObsStats);
    const vt::EngineStats& st = rt_->sim_stats();
    ps_.sim.dispatches += st.dispatches;
    ps_.sim.wakeups += st.wakeups;
    ps_.sim.yields += st.yields;
    for (int r = 0; r < rt_->config().world_size; ++r) {
      mpi::Process& p = rt_->process(r);
      const proto::TransferStats& ts = plugin_->stats(p);
      ps_.fragments += ts.fragments;
      ps_.rdma_pipelined += ts.rdma_pipelined;
      ps_.host_staged += ts.host_staged;
      ps_.ipc_opens += ts.ipc_opens;
      ps_.ipc_reuses += ts.ipc_reuses;
      const core::EngineStats& es = plugin_->engine(p).stats();
      ps_.units_converted += es.units_converted;
      ps_.units_from_cache += es.units_from_cache;
    }
  }

  /// Traced run only: engine(p).prefetch of every distinct DEV (type,
  /// count) of this runtime on rank 0's engine, cache cleared first so
  /// each one converts. Runs after the stats were read and after the last
  /// op, so the ops' figures are untouched.
  void probe_dev_conversion() {
    if (!tracer().full || !ran_ || probe_.empty()) return;
    mpi::Process& p = rt_->process(0);
    core::GpuDatatypeEngine& eng = plugin_->engine(p);
    eng.cache().clear(p.gpu());
    for (const auto& [dt, count] : probe_) {
      Scope s(Layer::kCoreDevConvert);
      eng.prefetch(dt, count);
    }
    eng.cache().clear(p.gpu());
  }

  Pass& ps_;
  std::optional<mpi::Runtime> rt_;
  std::shared_ptr<proto::GpuDatatypePlugin> plugin_;
  std::vector<std::unique_ptr<Buf>> bufs_;
  bool ran_ = false;  // processes exist only once run() was called
  std::set<std::pair<std::uint64_t, std::int64_t>> probe_keys_;
  std::vector<std::pair<DatatypePtr, std::int64_t>> probe_;
};

/// The figure benches' machine: 2 devices x 3 GiB.
sg::MachineConfig figure_machine() {
  sg::MachineConfig m;
  m.num_devices = 2;
  m.device_memory_bytes = std::size_t{3} << 30;
  return m;
}

/// The paper's V: an n x n/2 sub-matrix of an (n+512)-ld double matrix.
DatatypePtr v_type(std::int64_t n) {
  return core::submatrix_type(n, n / 2, n + 512);
}
/// The paper's T: the lower triangle of an n x n double matrix.
DatatypePtr t_type(std::int64_t n) { return core::lower_triangular_type(n, n); }

// --- Workload: sweep ---------------------------------------------------------------

enum class Topo { kSm1Gpu, kSm2Gpu, kIb };

struct SweepPoint {
  bool triangular;
  std::int64_t n;
  Topo topo;
};

constexpr int kSweepWarmup = 1;
constexpr int kSweepRoundTrips = 4;

std::vector<SweepPoint> sweep_inputs(Rng& g) {
  std::vector<SweepPoint> pts;
  for (bool tri : {false, true})
    for (std::int64_t n : {256, 512, 1024, 2048})
      for (Topo t : {Topo::kSm1Gpu, Topo::kSm2Gpu, Topo::kIb})
        pts.push_back({tri, n + g.below(8), t});
  for (std::size_t i = pts.size(); i > 1; --i)
    std::swap(pts[i - 1], pts[static_cast<std::size_t>(g.below(
                              static_cast<std::int64_t>(i)))]);
  return pts;
}

/// Each point: a fresh 2-rank Runtime on the figure machine, a short
/// ping-pong and one explicit pack+unpack of the same type, then teardown
/// - how the figure benches and repro_report drive the simulator.
void run_sweep(Pass& ps, const std::vector<SweepPoint>& pts) {
  ps.planned_ops = static_cast<std::int64_t>(pts.size()) *
                   (kSweepRoundTrips + 1);
  for (const SweepPoint& pt : pts) {
    mpi::RuntimeConfig cfg = base_cfg(ps, 2);
    cfg.machine = figure_machine();
    if (pt.topo == Topo::kSm1Gpu) cfg.device_of = [](int) { return 0; };
    if (pt.topo == Topo::kIb) cfg.ranks_per_node = 1;
    SimRun sim(ps, cfg);
    const DatatypePtr dt = build_type(ps, [&] {
      return pt.triangular ? t_type(pt.n) : v_type(pt.n);
    });
    sim.note_dev(dt, 1);
    const std::size_t span = span_of(dt, 1);
    Buf* s[2] = {&sim.buf(0, span, 0x11), &sim.buf(1, span, 0x12)};
    Buf* r[2] = {&sim.buf(0, span, 0x21), &sim.buf(1, span, 0x22)};
    Buf& packed = sim.buf(0, static_cast<std::size_t>(dt->size()), 0x31);
    const std::int64_t bytes = dt->size();
    sim.run([&](mpi::Process& p) {
      const mpi::Comm comm(p);
      const int me = p.rank();
      const int peer = 1 - me;
      for (int it = 0; it < kSweepWarmup + kSweepRoundTrips; ++it) {
        if (me == 0) {
          stamp(s[0]->dev, it);
          std::optional<OpClock> oc;
          if (it >= kSweepWarmup) oc.emplace(ps, p, 2 * bytes);
          send(ps, comm, *s[0], 1, dt, peer, it);
          recv(ps, comm, *r[0], 1, dt, peer, it + 1000);
          if (oc) oc->done();
        } else {
          recv(ps, comm, *r[1], 1, dt, peer, it);
          check_delivery(ps, me, s[0]->dev, dt, 1, *r[1], dt, 1, "ping");
          stamp(s[1]->dev, it);
          send(ps, comm, *s[1], 1, dt, peer, it + 1000);
        }
        if (me == 0)
          check_delivery(ps, me, s[1]->dev, dt, 1, *r[0], dt, 1, "pong");
      }
      if (me == 0)
        pack_unpack_op(ps, p, sim.plugin(), *s[0], packed.dev, *r[0], dt, 1);
    });
  }
}

// --- Workload: steady ----------------------------------------------------------------

enum class SteadyKind { kIpc, kIb, kPack };

struct SteadyInputs {
  std::vector<std::pair<bool, std::int64_t>> types;  // (triangular, n)
  std::vector<std::pair<int, SteadyKind>> cycle;     // (type index, kind)
};

constexpr int kSteadyWarmCycles = 1;
constexpr int kSteadyCycles = 6;

SteadyInputs steady_inputs(Rng& g) {
  SteadyInputs in;
  // n = 1024 / 1448 / 2048 gives ~4 / 8 / 16 MiB of payload for V and T.
  for (bool tri : {false, true})
    for (std::int64_t n : {1024, 1448, 2048})
      in.types.push_back({tri, n + g.below(4)});
  for (int t = 0; t < static_cast<int>(in.types.size()); ++t)
    for (SteadyKind k : {SteadyKind::kIpc, SteadyKind::kIb, SteadyKind::kPack})
      in.cycle.push_back({t, k});
  for (std::size_t i = in.cycle.size(); i > 1; --i)
    std::swap(in.cycle[i - 1], in.cycle[static_cast<std::size_t>(g.below(
                                   static_cast<std::int64_t>(i)))]);
  return in;
}

/// One long-lived 3-rank Runtime: ranks 0 and 1 share node 0 on different
/// GPUs (IPC pipelined RDMA), rank 2 is on node 1 (IB copy-in/out). The
/// client exchanges 4-16 MiB V and T messages with each peer in turn and
/// packs/unpacks the same types; one warm-up cycle fills the DEV caches.
void run_steady(Pass& ps, const SteadyInputs& in) {
  ps.planned_ops =
      static_cast<std::int64_t>(in.cycle.size()) * kSteadyCycles;
  mpi::RuntimeConfig cfg = base_cfg(ps, 3);
  cfg.ranks_per_node = 2;
  cfg.machine.num_devices = 3;
  cfg.device_of = [](int r) { return r; };
  SimRun sim(ps, cfg);
  std::vector<DatatypePtr> types;
  std::size_t span = 0;
  std::int64_t max_bytes = 0;
  for (const auto& [tri, n] : in.types) {
    types.push_back(build_type(ps, [&, tri = tri, n = n] {
      return tri ? t_type(n) : v_type(n);
    }));
    sim.note_dev(types.back(), 1);
    span = std::max(span, span_of(types.back(), 1));
    max_bytes = std::max(max_bytes, types.back()->size());
  }
  Buf* s[3];
  Buf* r[3];
  for (int k = 0; k < 3; ++k) {
    s[k] = &sim.buf(k, span, 0x100 + static_cast<std::uint64_t>(k));
    r[k] = &sim.buf(k, span, 0x200 + static_cast<std::uint64_t>(k));
  }
  Buf& packed = sim.buf(0, static_cast<std::size_t>(max_bytes), 0x300);
  sim.run([&](mpi::Process& p) {
    const mpi::Comm comm(p);
    const int me = p.rank();
    int tag = 0;
    for (int c = 0; c < kSteadyWarmCycles + kSteadyCycles; ++c) {
      for (const auto& [ti, kind] : in.cycle) {
        const DatatypePtr& dt = types[static_cast<std::size_t>(ti)];
        ++tag;
        const bool timed = c >= kSteadyWarmCycles;
        if (kind == SteadyKind::kPack) {
          if (me != 0) continue;
          if (timed) {
            pack_unpack_op(ps, p, sim.plugin(), *s[0], packed.dev, *r[0], dt,
                           1);
          } else {
            std::int64_t pos = 0;
            const auto out = std::span<std::byte>(
                packed.dev, static_cast<std::size_t>(dt->size()));
            sim.plugin().pack(p, s[0]->dev - dt->true_lb(), 1, dt, out, &pos);
          }
          continue;
        }
        const int peer = kind == SteadyKind::kIpc ? 1 : 2;
        if (me == 0) {
          stamp(s[0]->dev, tag);
          std::optional<OpClock> oc;
          if (timed) oc.emplace(ps, p, 2 * dt->size());
          send(ps, comm, *s[0], 1, dt, peer, tag);
          recv(ps, comm, *r[0], 1, dt, peer, tag);
          if (oc) oc->done();
          check_delivery(ps, me, s[peer]->dev, dt, 1, *r[0], dt, 1, "pong");
        } else if (me == peer) {
          recv(ps, comm, *r[me], 1, dt, 0, tag);
          check_delivery(ps, me, s[0]->dev, dt, 1, *r[me], dt, 1, "ping");
          stamp(s[me]->dev, tag);
          send(ps, comm, *s[me], 1, dt, 0, tag);
        }
      }
    }
  });
}

// --- Workload: mix --------------------------------------------------------------------

constexpr int kMixWorld = 64;
constexpr int kMixRanksPerNode = 8;
constexpr int kMixRounds = 56;
/// Every mix buffer has this fixed size, so memory and set-up do not
/// depend on which layouts a seed draws; draws are sized to fit.
constexpr std::size_t kMixBufBytes = 640 << 10;

/// A datatype recipe: one of the ten MPI constructors, or the padded
/// particle struct resized to its C++ sizeof.
struct TypeRecipe {
  int kind = 0;
  std::vector<std::int64_t> a, b;  // lengths / displacements
  std::int64_t p0 = 0, p1 = 0, p2 = 0, p3 = 0;
  std::int64_t count = 1;
};

constexpr int kRecipeKinds = 11;
constexpr int kIndexed = 3;

/// Blocks of 1..max_len doubles separated by gaps no longer than the
/// block, totalling exactly `elems` doubles; displacements in `unit`s.
void draw_blocks(Rng& g, TypeRecipe& t, std::int64_t elems,
                 std::int64_t max_len, std::int64_t unit) {
  for (std::int64_t at = 0, left = elems; left > 0;) {
    const std::int64_t len = std::min(left, g.range(1, max_len));
    at += g.range(0, len);
    t.a.push_back(len);
    t.b.push_back(at * unit);
    at += len;
    left -= len;
  }
}

/// A recipe of the given kind with a payload of about `target` bytes
/// (over `count` elements) in contiguous pieces of about `scale`
/// doubles. Kind, payload and piece size come from the seed-independent
/// round profile; the seed draws the rest of the layout.
TypeRecipe draw_recipe(Rng& g, int kind, std::int64_t target,
                       std::int64_t scale) {
  TypeRecipe t;
  t.kind = kind;
  t.count = g.range(1, 3);
  const std::int64_t elems = std::max<std::int64_t>(1, target / 8 / t.count);
  switch (kind) {
    case 0:  // contiguous
      t.p0 = elems;
      break;
    case 1:  // vector
    case 2:  // hvector (stride in bytes)
    case 9:  // resized vector with trailing padding
      t.p1 = scale;
      t.p0 = std::max<std::int64_t>(1, elems / t.p1);
      t.p2 = t.p1 + g.range(1, t.p1 + 1);
      t.p3 = g.range(1, 8);
      break;
    case 3:  // indexed
    case 4:  // hindexed
      draw_blocks(g, t, elems, 2 * scale, kind == 3 ? 1 : 8);
      break;
    case 5:  // indexed_block
      t.p0 = scale;
      for (std::int64_t i = 0, at = 0; i < std::max<std::int64_t>(
                                               1, elems / t.p0);
           ++i) {
        t.b.push_back(at);
        at += t.p0 + g.range(0, t.p0);
      }
      break;
    case 6:  // struct of doubles / int32s / doubles
      t.p0 = scale;
      t.p1 = g.range(1, 4);
      t.p2 = scale;
      t.count = std::max<std::int64_t>(
          1, target / (8 * t.p0 + 4 * t.p1 + 8 * t.p2));
      break;
    case 7: {  // 2-D subarray: columns of rows doubles
      const std::int64_t rows = 4 * scale + g.below(4 * scale);
      const std::int64_t cols = std::max<std::int64_t>(1, elems / rows);
      t.a = {rows + g.range(0, rows / 2), cols + g.range(0, cols / 2)};
      t.b = {rows, cols};
      t.p0 = g.range(0, t.a[0] - rows);
      t.p1 = g.range(0, t.a[1] - cols);
      break;
    }
    case 8: {  // 2-D block-cyclic darray over a 2x2 grid (a quarter each)
      const std::int64_t g0 = 2 * g.range(16, 32);
      t.a = {g0, std::max<std::int64_t>(2, 4 * elems / g0 / 2 * 2)};
      t.p0 = scale;
      t.p1 = g.below(4);
      break;
    }
    default:  // padded particle struct: 3+3 doubles and an int, sizeof 56
      t.count = std::max<std::int64_t>(1, target / 52);
      break;
  }
  return t;
}

/// An indexed layout of the same number of doubles as `from`, so a ring
/// receive unpacks a different DEV shape than the send packs (same
/// signature). Types with int32 fields are received as themselves.
TypeRecipe draw_reshape(Rng& g, const TypeRecipe& from, std::int64_t doubles) {
  if (from.kind == 6 || from.kind == 10) return from;
  TypeRecipe t;
  t.kind = kIndexed;
  draw_blocks(g, t, doubles, 16, 1);
  return t;
}

DatatypePtr build_recipe(const TypeRecipe& t) {
  const DatatypePtr& d = mpi::kDouble();
  switch (t.kind) {
    case 0:
      return Datatype::contiguous(t.p0, d);
    case 1:
      return Datatype::vector(t.p0, t.p1, t.p2, d);
    case 2:
      return Datatype::hvector(t.p0, t.p1, t.p2 * 8 + 4, d);
    case 3:
      return Datatype::indexed(t.a, t.b, d);
    case 4:
      return Datatype::hindexed(t.a, t.b, d);
    case 5:
      return Datatype::indexed_block(t.p0, t.b, d);
    case 6: {
      const std::int64_t lens[] = {t.p0, t.p1, t.p2};
      const std::int64_t off1 = t.p0 * 8 + 8;
      const std::int64_t off2 = (off1 + t.p1 * 4 + 15) / 8 * 8;
      const std::int64_t displs[] = {0, off1, off2};
      const DatatypePtr types[] = {d, mpi::kInt32(), d};
      return Datatype::struct_type(lens, displs, types);
    }
    case 7: {
      const std::int64_t starts[] = {t.p0, t.p1};
      return Datatype::subarray(t.a, t.b, starts, d);
    }
    case 8: {
      const Datatype::Distrib dist[] = {Datatype::Distrib::kCyclic,
                                        Datatype::Distrib::kBlock};
      const std::int64_t dargs[] = {t.p0, Datatype::kDefaultDarg};
      const std::int64_t psizes[] = {2, 2};
      return Datatype::darray(4, static_cast<int>(t.p1), t.a, dist, dargs,
                              psizes, d);
    }
    case 9: {
      auto v = Datatype::vector(t.p0, t.p1, t.p2, d);
      return Datatype::resized(v, 0, v->extent() + t.p3 * 8);
    }
    default: {
      const std::int64_t lens[] = {3, 3, 1};
      const std::int64_t displs[] = {0, 24, 48};
      const DatatypePtr types[] = {d, d, mpi::kInt32()};
      return Datatype::resized(Datatype::struct_type(lens, displs, types), 0,
                               56);
    }
  }
}

enum class CollKind { kBcast, kAllgather, kAllreduce };

struct MixRound {
  TypeRecipe send, recv;  // ring layouts (same signature)
  CollKind coll;
  TypeRecipe bcast;        // kBcast only
  std::int64_t elems = 0;  // kAllgather / kAllreduce: int64s per rank
  TypeRecipe target;       // RMA target layout
};

/// The rounds' kinds, payload sizes and piece sizes follow a fixed,
/// seed-independent schedule (every constructor, a 2 KiB..128 KiB
/// geometric ladder of payloads, pieces of 1..16 doubles), so every seed
/// does about the same work; the seed draws the layouts' details (gaps,
/// counts, dimensions, offsets) and the data.
std::vector<MixRound> mix_inputs(Rng& g) {
  constexpr int R = kMixRounds;
  // The size-ladder index multipliers below permute 0..R-1.
  static_assert(std::gcd(3, R) == 1 && std::gcd(5, R) == 1 &&
                std::gcd(11, R) == 1);
  const std::int64_t scales[] = {1, 2, 4, 8, 16};
  auto size = [](int k, double lo, double hi) {
    return static_cast<std::int64_t>(
        lo * std::pow(hi / lo, static_cast<double>(k % R) / (R - 1)));
  };
  std::vector<MixRound> rounds(R);
  for (int i = 0; i < R; ++i) {
    MixRound& m = rounds[static_cast<std::size_t>(i)];
    m.send = draw_recipe(g, i % kRecipeKinds, size(i, 2048, 131072),
                         scales[(i / kRecipeKinds) % 5]);
    m.recv = draw_reshape(
        g, m.send, build_recipe(m.send)->size() / 8 * m.send.count);
    m.coll = static_cast<CollKind>(i % 3);
    m.bcast = draw_recipe(g, 1 + i % (kRecipeKinds - 1),
                          size(5 * i + 3, 2048, 131072), scales[i % 5]);
    m.elems = size(3 * i + 1, 256, 8192);
    m.target = draw_recipe(g, 1 + (i + 5) % (kRecipeKinds - 1),
                           size(11 * i + 7, 2048, 131072),
                           scales[(i + 2) % 5]);
  }
  return rounds;
}

std::int64_t allgather_value(int rank, std::int64_t i, int round) {
  return rank * 100003 + i * 7 + round;
}

/// One long-lived 64-rank Runtime over 8 nodes on a 2-level fat tree. Per
/// round: a nonblocking device ring on a duplicate of the world (sent as
/// one layout, received as another), the client's explicit pack+unpack
/// of the send type, a collective on the node communicator and a fence
/// epoch of RMA puts into DEV-path layouts. Each rank's engine meets more
/// distinct (shape, count) pairs than the 64-entry DEV cache holds, so
/// the cache misses and evicts.
void run_mix(Pass& ps, const std::vector<MixRound>& rounds) {
  ps.planned_ops = static_cast<std::int64_t>(rounds.size()) * 4;
  constexpr int W = kMixWorld;
  constexpr int G = kMixRanksPerNode;
  mpi::RuntimeConfig cfg = base_cfg(ps, W);
  cfg.ranks_per_node = G;
  cfg.machine.num_devices = G;
  cfg.machine.device_memory_bytes = std::size_t{256} << 20;
  cfg.machine.topo.fat_tree_leaf_nodes = 2;
  cfg.machine.topo.fat_tree_uplinks = 2;
  SimRun sim(ps, cfg);

  struct Types {
    DatatypePtr send, recv, bcast, target;
  };
  std::vector<Types> types;
  auto fits = [&](const DatatypePtr& dt, std::int64_t count) {
    if (static_cast<std::size_t>(dt->true_lb()) + span_of(dt, count) >
        kMixBufBytes)
      throw std::logic_error("mix: drawn layout exceeds its buffer");
    return dt;
  };
  for (const MixRound& m : rounds) {
    Types t;
    auto make = [&](const TypeRecipe& r) {
      DatatypePtr dt =
          fits(build_type(ps, [&] { return build_recipe(r); }), r.count);
      sim.note_dev(dt, r.count);
      return dt;
    };
    t.send = make(m.send);
    t.recv = make(m.recv);
    if (m.coll == CollKind::kBcast) t.bcast = make(m.bcast);
    t.target = make(m.target);
    types.push_back(std::move(t));
  }
  std::vector<Buf*> s(W), r(W), cb(W), win(W), origin(W);
  for (int k = 0; k < W; ++k) {
    const auto u = static_cast<std::uint64_t>(k) << 8;
    const auto uk = static_cast<std::size_t>(k);
    s[uk] = &sim.buf(k, kMixBufBytes, u | 1, false);
    r[uk] = &sim.buf(k, kMixBufBytes, u | 2);
    cb[uk] = &sim.buf(k, kMixBufBytes, u | 3);
    win[uk] = &sim.buf(k, kMixBufBytes, u | 4);
    // RMA origins are contiguous device buffers.
    origin[uk] = &sim.buf(k, kMixBufBytes, u | 5, false);
  }
  // The client packs from its own source buffer: its ring peer may still
  // be checking the ring buffer against s[0] while the client packs.
  Buf& pack_src = sim.buf(0, kMixBufBytes, 0x6, false);
  Buf& packed = sim.buf(0, kMixBufBytes, 0x7, false);

  sim.run([&](mpi::Process& p) {
    const int me = p.rank();
    const auto ume = static_cast<std::size_t>(me);
    const mpi::Comm world(p);
    const mpi::Comm ring = world.dup();
    const mpi::Comm node = world.split(me / G, me);
    mpi::Collectives coll(node);
    std::optional<rma::Window> w;
    {
      Scope sc(Layer::kRmaEpoch, me, ps.cur_op);
      w.emplace(world, win[ume]->dev, static_cast<std::int64_t>(kMixBufBytes));
    }
    const int next = (me + 1) % W, prev = (me + W - 1) % W;
    for (int i = 0; i < static_cast<int>(rounds.size()); ++i) {
      const MixRound& m = rounds[static_cast<std::size_t>(i)];
      const Types& t = types[static_cast<std::size_t>(i)];
      const bool client = me == 0;

      // Nonblocking ring.
      stamp(s[ume]->dev, i);
      {
        std::optional<OpClock> oc;
        if (client) oc.emplace(ps, p, W * t.send->size() * m.send.count);
        auto rr = irecv(ps, ring, *r[ume], m.recv.count, t.recv, prev, i);
        auto sr = isend(ps, ring, *s[ume], m.send.count, t.send, next, i);
        wait(ps, ring, rr);
        wait(ps, ring, sr);
        if (oc) oc->done();
      }
      check_delivery(ps, me, s[static_cast<std::size_t>(prev)]->dev, t.send,
                     m.send.count, *r[ume], t.recv, m.recv.count, "ring");

      // Explicit MPI_Pack/MPI_Unpack of the ring's send type.
      if (client)
        pack_unpack_op(ps, p, sim.plugin(), pack_src, packed.dev, *r[0],
                       t.send, m.send.count);

      // Collective on the node communicator.
      {
        const int root = me / G * G;
        std::optional<OpClock> oc;
        std::vector<std::int64_t> mine, all;
        if (m.coll == CollKind::kBcast) {
          if (me == root) stamp(cb[ume]->dev, i);
          if (client)
            oc.emplace(ps, p, W / G * (G - 1) * t.bcast->size() * m.bcast.count);
          Scope sc(Layer::kMpiColl, me, ps.cur_op);
          coll.bcast(cb[ume]->dev - t.bcast->true_lb(), m.bcast.count,
                     t.bcast, 0);
        } else {
          mine.resize(static_cast<std::size_t>(m.elems));
          for (std::int64_t k = 0; k < m.elems; ++k)
            mine[static_cast<std::size_t>(k)] = allgather_value(me, k, i);
          const std::int64_t per = m.elems * 8;
          if (m.coll == CollKind::kAllgather) {
            all.resize(mine.size() * G);
            if (client) oc.emplace(ps, p, W * (G - 1) * per);
            Scope sc(Layer::kMpiColl, me, ps.cur_op);
            coll.allgather(mine.data(), all.data(), m.elems, mpi::kInt64());
          } else {
            all.resize(mine.size());
            if (client) oc.emplace(ps, p, W / G * 2 * (G - 1) * per);
            Scope sc(Layer::kMpiColl, me, ps.cur_op);
            coll.allreduce(mine.data(), all.data(), m.elems, mpi::kInt64(),
                           mpi::ReduceOp::kSum);
          }
        }
        if (oc) oc->done();
        Scope sc(Layer::kVerify, me, ps.cur_op);
        if (m.coll == CollKind::kBcast) {
          if (me != root)
            check_delivery(ps, me, cb[static_cast<std::size_t>(root)]->dev,
                           t.bcast, m.bcast.count, *cb[ume], t.bcast,
                           m.bcast.count, "bcast");
        } else {
          bool ok = true;
          for (std::int64_t k = 0; k < m.elems; ++k) {
            std::int64_t want = 0;
            for (int q = 0; q < G; ++q) {
              const std::int64_t v = allgather_value(root + q, k, i);
              if (m.coll == CollKind::kAllgather) {
                ok &= all[static_cast<std::size_t>(q * m.elems + k)] == v;
              } else {
                want += v;
              }
            }
            if (m.coll == CollKind::kAllreduce)
              ok &= all[static_cast<std::size_t>(k)] == want;
          }
          if (!ok) fail(ps, "collective result differs on rank " +
                                std::to_string(me));
        }
      }

      // RMA fence epoch: even ranks put into their odd neighbour's window.
      {
        const std::int64_t tb = t.target->size() * m.target.count;
        std::optional<OpClock> oc;
        if (client) oc.emplace(ps, p, W / 2 * tb);
        {
          Scope sc(Layer::kRmaEpoch, me, ps.cur_op);
          w->fence();
          // After the opening fence: every target has checked last round.
          if (me % 2 == 0) {
            stamp(origin[ume]->dev, i);
            w->put(origin[ume]->dev, tb, mpi::kByte(), me + 1, 0,
                   m.target.count, t.target);
          }
          w->fence();
        }
        if (oc) oc->done();
        if (me % 2 == 1)
          check_delivery(ps, me, origin[ume - 1]->dev, mpi::kByte(), tb,
                         *win[ume], t.target, m.target.count, "rma put", 0);
      }
    }
    Scope sc(Layer::kRmaEpoch, me, ps.cur_op);
    w.reset();
  });
}

// --- Pass analysis -------------------------------------------------------------------

constexpr int kLayers = static_cast<int>(Layer::kCount);

struct PassResult {
  bool traced = false;
  double wall_s = 0, setup_s = 0, run_s = 0, uncovered_s = 0;
  double busy_s = 0, glue_s = 0;
  std::array<double, kLayers> union_s{}, self_s{};
  std::vector<double> op_wall_ms;
  std::vector<vt::Time> op_vt;
  std::int64_t payload = 0;
  double ops_per_s = 0, sim_MBps = 0;
  double minor_faults = 0, sys_s = 0;
};

double seconds(std::int64_t ns) { return static_cast<double>(ns) * 1e-9; }

/// Union/self/uncovered accounting of one pass. The benchmark's own
/// verification intervals are cut out of the timeline first.
PassResult analyze(const Pass& ps, const std::vector<Span>& spans,
                   std::int64_t t0, std::int64_t t1) {
  PassResult pr;
  Intervals verify, setup, busy, inside, run, all;
  std::array<Intervals, kLayers> by_layer, self;
  std::vector<Intervals> children(spans.size());
  for (std::size_t i = 0; i < spans.size(); ++i)
    if (spans[i].parent >= 0)
      children[static_cast<std::size_t>(spans[i].parent)].push_back(
          {spans[i].begin, spans[i].end});
  for (const Span& s : spans)
    if (s.layer == Layer::kVerify) verify.push_back({s.begin, s.end});
  verify = merged(std::move(verify));
  auto eff = [&](Intervals v) {
    return length(subtract(merged(std::move(v)), verify));
  };
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const Span& s = spans[i];
    if (s.layer == Layer::kVerify) continue;
    const Interval iv{s.begin, s.end};
    const auto l = static_cast<std::size_t>(s.layer);
    by_layer[l].push_back(iv);
    for (const Interval& x :
         subtract({iv}, merged(std::move(children[i]))))
      self[l].push_back(x);
    all.push_back(iv);
    if (s.layer == Layer::kRun) {
      run.push_back(iv);
    } else if (is_setup(s.layer)) {
      setup.push_back(iv);
    } else {
      busy.push_back(iv);
    }
    if (s.rank >= 0) inside.push_back(iv);
  }
  const std::int64_t wall = (t1 - t0) - length(verify);
  pr.wall_s = seconds(wall);
  for (int l = 0; l < kLayers; ++l) {
    pr.union_s[static_cast<std::size_t>(l)] =
        seconds(eff(by_layer[static_cast<std::size_t>(l)]));
    pr.self_s[static_cast<std::size_t>(l)] =
        seconds(eff(self[static_cast<std::size_t>(l)]));
  }
  const Intervals setup_m = merged(setup);
  pr.setup_s = seconds(eff(setup));
  pr.run_s = seconds(eff(run));
  pr.uncovered_s = pr.run_s - seconds(eff(inside));
  pr.busy_s = seconds(length(
      subtract(subtract(merged(std::move(busy)), setup_m), verify)));
  pr.glue_s = pr.wall_s - seconds(eff(all));
  for (const OpRec& op : ps.ops) {
    pr.op_wall_ms.push_back(
        static_cast<double>(
            length(subtract({{op.begin, op.end}}, verify))) *
        1e-6);
    pr.op_vt.push_back(op.vt);
    pr.payload += op.payload;
  }
  const double active = pr.wall_s - pr.setup_s;
  if (active > 0) {
    pr.ops_per_s = static_cast<double>(ps.ops.size()) / active;
    pr.sim_MBps = static_cast<double>(pr.payload) / active * 1e-6;
  }
  return pr;
}

/// Deterministic figures every pass of one seed must reproduce exactly.
std::vector<std::int64_t> fingerprint(const Pass& ps) {
  std::vector<std::int64_t> f;
  for (const OpRec& op : ps.ops) f.push_back(op.vt);
  for (std::int64_t v :
       {static_cast<std::int64_t>(ps.sim.dispatches),
        static_cast<std::int64_t>(ps.sim.wakeups),
        static_cast<std::int64_t>(ps.sim.yields), ps.units_converted,
        ps.units_from_cache, ps.fragments, ps.rdma_pipelined, ps.host_staged,
        ps.ipc_opens, ps.ipc_reuses, ps.flows, ps.flowstats_dropped,
        ps.flowstats_lost})
    f.push_back(v);
  for (std::int64_t v : ps.stage_work_ns) f.push_back(v);
  return f;
}

/// Serialise and write the metrics and latency reports, then read the
/// per-stage virtual work back from the latency engine.
void write_reports(Pass& ps, const std::string& workload) {
  Scope s(Layer::kObsReport);
  if (!ps.report_dir.empty()) {
    ps.rec->write_json(ps.report_dir + "/" + workload + ".metrics.json");
    ps.rec->write_latency_json(ps.report_dir + "/" + workload +
                               ".latency.json");
  } else {
    (void)ps.rec->to_json();
    (void)ps.rec->latency_json();
  }
  const obs::FlowStats::Report rep = ps.rec->flowstats().report();
  ps.flows = rep.flows;
  ps.flowstats_dropped = rep.dropped;
  // Eager messages carry no flow id and are dropped by design
  // (docs/latency.md); any other drop is a lost flow.
  obs::Registry& reg = ps.rec->metrics();
  ps.flowstats_lost = rep.dropped - reg.counter("pml.sends.eager").value() -
                      reg.counter("gpu.sends.eager").value();
  ps.dev_cache_evictions = reg.counter("dev_cache.evictions").value();
  for (const auto& [name, cr] : rep.classes)
    for (int k = 0; k < obs::FlowStats::kStages; ++k)
      ps.stage_work_ns[static_cast<std::size_t>(k)] +=
          cr.work[static_cast<std::size_t>(k)];
}

// --- Statistics and output -----------------------------------------------------------

double median(std::vector<double> v) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

/// Nearest-rank percentile.
template <class T>
T percentile(std::vector<T> v, double p) {
  if (v.empty()) return T{};
  std::sort(v.begin(), v.end());
  auto k = static_cast<std::size_t>(
      std::ceil(p * static_cast<double>(v.size())));
  k = std::clamp<std::size_t>(k, 1, v.size());
  return v[k - 1];
}

struct Metric {
  std::string name;
  double value;
  std::string unit;
  const char* clock;  // "wall", "virtual" or "count"
};

std::string num(double v) {
  if (!std::isfinite(v)) return "0";
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  bool inject = false;
  std::string spans_out;
  std::string report_dir;
};

double memcpy_probe(std::int64_t bytes) {
  sg::MachineConfig mc;
  mc.num_devices = 1;
  mc.device_memory_bytes = static_cast<std::size_t>(2 * bytes) + 4096;
  sg::Machine m(mc);
  sg::HostContext ctx(m, 0);
  auto* a = static_cast<std::byte*>(
      sg::Malloc(ctx, static_cast<std::size_t>(bytes)));
  auto* b = static_cast<std::byte*>(
      sg::Malloc(ctx, static_cast<std::size_t>(bytes)));
  seeded_fill(a, static_cast<std::size_t>(bytes), 0x5eed);
  std::memset(b, 0, static_cast<std::size_t>(bytes));
  std::vector<double> rates;
  for (int i = 0; i < 9; ++i) {
    const std::int64_t t0 = wall_ns();
    sg::Memcpy(ctx, b, a, static_cast<std::size_t>(bytes));
    const std::int64_t dt = std::max<std::int64_t>(1, wall_ns() - t0);
    rates.push_back(static_cast<double>(bytes) / static_cast<double>(dt));
  }
  return median(rates);
}

void write_spans(const std::string& path, const std::vector<Span>& spans,
                 const PassResult& pr, std::int64_t t0, std::int64_t t1) {
  std::ofstream out(path);
  out << "{\"t0\":" << t0 << ",\"t1\":" << t1
      << ",\"wall_s\":" << num(pr.wall_s) << ",\"setup_s\":" << num(pr.setup_s)
      << ",\"run_s\":" << num(pr.run_s)
      << ",\"uncovered_s\":" << num(pr.uncovered_s)
      << ",\"busy_s\":" << num(pr.busy_s) << ",\"glue_s\":" << num(pr.glue_s)
      << ",\"layers\":{";
  for (int l = 0; l < kLayers; ++l) {
    out << (l ? "," : "") << '"' << layer_name(static_cast<Layer>(l))
        << "\":{\"union_s\":" << num(pr.union_s[static_cast<std::size_t>(l)])
        << ",\"self_s\":" << num(pr.self_s[static_cast<std::size_t>(l)])
        << ",\"setup\":" << (is_setup(static_cast<Layer>(l)) ? "true" : "false")
        << '}';
  }
  out << "},\"spans\":[";
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const Span& s = spans[i];
    out << (i ? ",\n" : "\n") << "[\"" << layer_name(s.layer) << "\","
        << s.begin << ',' << s.end << ',' << s.parent << ',' << s.rank << ','
        << s.op << ']';
  }
  out << "]}\n";
}

int run(const Options& o) {
  Rng g{o.seed * 0x2545F4914F6CDD1Dull + 0x5851F42D4C957F2Dull};
  // Inputs are generated once, before anything is timed.
  std::function<void(Pass&)> workload;
  if (o.workload == "sweep") {
    workload = [pts = sweep_inputs(g)](Pass& ps) { run_sweep(ps, pts); };
  } else if (o.workload == "steady") {
    workload = [in = steady_inputs(g)](Pass& ps) { run_steady(ps, in); };
  } else if (o.workload == "mix") {
    workload = [rounds = mix_inputs(g)](Pass& ps) { run_mix(ps, rounds); };
  } else {
    std::fprintf(stderr, "unknown workload '%s' (sweep|steady|mix)\n",
                 o.workload.c_str());
    return 2;
  }
  if (!o.report_dir.empty())
    std::filesystem::create_directories(o.report_dir);

  std::vector<PassResult> results;
  std::vector<std::int64_t> reference;
  std::int64_t attempted = 0, failed = 0, mismatches = 0;
  std::vector<std::string> errors;
  Pass counts;  // deterministic counts: pass 0, then the last traced pass
  std::int64_t largest_payload = 0;
  std::vector<Span> kept_spans;
  std::int64_t kept_t0 = 0, kept_t1 = 0;
  const std::int64_t start = wall_ns();
  for (int i = 0;; ++i) {
    const bool traced = o.trace && i % 2 == 1;
    tracer().clear();
    tracer().full = traced;
    Pass ps;
    ps.seed = o.seed;
    ps.inject = o.inject && i == 0;
    ps.report_dir = o.report_dir;
    ps.rec = std::make_unique<obs::Recorder>();
    ps.rec->flowstats().enable(true);
    rusage u0{}, u1{};
    getrusage(RUSAGE_SELF, &u0);
    const std::int64_t t0 = wall_ns();
    try {
      workload(ps);
    } catch (const std::exception& e) {  // set-up failed: no op ran
      fail(ps, std::string("set-up: ") + e.what());
    }
    write_reports(ps, o.workload);
    const std::int64_t t1 = wall_ns();
    getrusage(RUSAGE_SELF, &u1);

    PassResult pr = analyze(ps, tracer().spans(), t0, t1);
    pr.traced = traced;
    pr.minor_faults = static_cast<double>(u1.ru_minflt - u0.ru_minflt);
    pr.sys_s = static_cast<double>(u1.ru_stime.tv_sec - u0.ru_stime.tv_sec) +
               1e-6 * static_cast<double>(u1.ru_stime.tv_usec -
                                          u0.ru_stime.tv_usec);
    const std::int64_t completed = static_cast<std::int64_t>(ps.ops.size());
    std::int64_t pass_failed =
        std::min(ps.planned_ops,
                 ps.failed_checks + (ps.planned_ops - completed));
    if (ps.flowstats_lost != 0) {
      ps.errors.push_back("flowstats dropped " +
                          std::to_string(ps.flowstats_lost) +
                          " flows that were not eager sends");
      pass_failed = std::max<std::int64_t>(pass_failed, 1);
    }
    if (i == 0) {
      reference = fingerprint(ps);
    } else if (fingerprint(ps) != reference) {
      ++mismatches;
      ps.errors.push_back("virtual-clock figures differ from pass 0");
      pass_failed = ps.planned_ops;
    }
    attempted += ps.planned_ops;
    failed += pass_failed;
    for (auto& e : ps.errors)
      if (errors.size() < 8) errors.push_back(e);
    for (const OpRec& op : ps.ops)
      largest_payload = std::max(largest_payload, op.payload);
    if (traced) {
      kept_spans = tracer().spans();
      kept_t0 = t0;
      kept_t1 = t1;
      counts = std::move(ps);
    } else if (i == 0) {
      counts = std::move(ps);
    }
    results.push_back(std::move(pr));
    const double elapsed = seconds(wall_ns() - start);
    const int min_passes = 3;
    if (i + 1 >= min_passes && elapsed >= o.seconds) break;
    if (elapsed >= 150.0) break;  // hard stop well inside the exit limit
  }

  // Pass 0 is the warm-up; every later pass is measured.
  std::vector<const PassResult*> plain, traced;
  for (std::size_t i = 1; i < results.size(); ++i)
    (results[i].traced ? traced : plain).push_back(&results[i]);
  auto med = [](const std::vector<const PassResult*>& v,
                double PassResult::*f) {
    std::vector<double> x;
    for (const PassResult* r : v) x.push_back(r->*f);
    return median(x);
  };
  std::vector<double> op_ms;
  for (const PassResult* r : plain)
    op_ms.insert(op_ms.end(), r->op_wall_ms.begin(), r->op_wall_ms.end());
  const PassResult& first = results.front();
  std::vector<double> vt_us;
  for (vt::Time t : first.op_vt) vt_us.push_back(static_cast<double>(t) * 1e-3);
  const vt::Time vt_total =
      std::accumulate(first.op_vt.begin(), first.op_vt.end(), vt::Time{0});
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);

  std::vector<Metric> m;
  if (!o.trace) {
    m = {
        {"wall_s", med(plain, &PassResult::wall_s), "s", "wall"},
        {"setup_s", med(plain, &PassResult::setup_s), "s", "wall"},
        {"ops_per_s", med(plain, &PassResult::ops_per_s), "1/s", "wall"},
        {"sim_MBps", med(plain, &PassResult::sim_MBps), "MB/s", "wall"},
        {"op_p50_ms", percentile(op_ms, 0.50), "ms", "wall"},
        {"op_p90_ms", percentile(op_ms, 0.90), "ms", "wall"},
        {"peak_rss_mb", static_cast<double>(ru.ru_maxrss) / 1024.0, "MiB",
         "wall"},
        {"vt_p50_us", percentile(vt_us, 0.50), "us", "virtual"},
        {"vt_p90_us", percentile(vt_us, 0.90), "us", "virtual"},
        {"vt_GBps",
         vt_total > 0 ? static_cast<double>(first.payload) /
                            static_cast<double>(vt_total)
                      : 0.0,
         "GB/s", "virtual"},
        {"ok_frac",
         attempted > 0 ? static_cast<double>(attempted - failed) /
                             static_cast<double>(attempted)
                       : 0.0,
         "ratio", "count"},
    };
  } else {
    const Pass& c = counts;
    auto L = [&](Layer l) {
      std::vector<double> x;
      for (const PassResult* r : traced)
        x.push_back(r->union_s[static_cast<std::size_t>(l)]);
      return median(x);
    };
    const double pack_s = L(Layer::kCorePack);
    const double pack_GBps =
        pack_s > 0 ? static_cast<double>(c.pack_bytes) / pack_s * 1e-9 : 0.0;
    const std::int64_t memcpy_bytes = std::max<std::int64_t>(
        largest_payload / 2, 1 << 20);
    const double memcpy_GBps = memcpy_probe(memcpy_bytes);
    const long llc = sysconf(_SC_LEVEL3_CACHE_SIZE);
    const double units = static_cast<double>(c.units_converted);
    const double cached = static_cast<double>(c.units_from_cache);
    const double ipc = static_cast<double>(c.ipc_opens + c.ipc_reuses);
    m = {
        {"simgpu.setup_s", L(Layer::kSimgpuSetup), "s", "wall"},
        {"simgpu.teardown_s", L(Layer::kSimgpuTeardown), "s", "wall"},
        {"simgpu.minor_faults", med(traced, &PassResult::minor_faults),
         "count", "count"},
        {"simgpu.sys_s", med(traced, &PassResult::sys_s), "s", "wall"},
        {"simgpu.memcpy_GBps", memcpy_GBps, "GB/s", "wall"},
        {"simgpu.memcpy_bytes", static_cast<double>(memcpy_bytes), "B",
         "count"},
        {"simgpu.llc_bytes", static_cast<double>(std::max(0L, llc)), "B",
         "count"},
        {"mpi.type_build_s", L(Layer::kMpiTypeBuild), "s", "wall"},
        {"mpi.types_built", static_cast<double>(c.types_built), "count",
         "count"},
        {"mpi.canonical_s", L(Layer::kMpiCanonical), "s", "wall"},
        {"mpi.pml_s", L(Layer::kMpiPml), "s", "wall"},
        {"mpi.pml_ops", static_cast<double>(c.pml_ops), "count", "count"},
        {"mpi.pml_bytes", static_cast<double>(c.pml_bytes), "B", "count"},
        {"mpi.coll_s", L(Layer::kMpiColl), "s", "wall"},
        {"rma.epoch_s", L(Layer::kRmaEpoch), "s", "wall"},
        {"core.dev_convert_s", L(Layer::kCoreDevConvert), "s", "wall"},
        {"core.units_converted", units, "count", "count"},
        {"core.dev_cache_hit_ratio",
         units + cached > 0 ? cached / (units + cached) : 0.0, "ratio",
         "count"},
        {"core.dev_cache_evictions",
         static_cast<double>(c.dev_cache_evictions), "count", "count"},
        {"core.pack_s", pack_s, "s", "wall"},
        {"core.unpack_s", L(Layer::kCoreUnpack), "s", "wall"},
        {"core.pack_GBps", pack_GBps, "GB/s", "wall"},
        {"core.pack_vs_memcpy", memcpy_GBps > 0 ? pack_GBps / memcpy_GBps : 0,
         "ratio", "wall"},
        {"protocols.fragments", static_cast<double>(c.fragments), "count",
         "count"},
        {"protocols.rdma_pipelined", static_cast<double>(c.rdma_pipelined),
         "count", "count"},
        {"protocols.host_staged", static_cast<double>(c.host_staged), "count",
         "count"},
        {"protocols.ipc_reuse_ratio",
         ipc > 0 ? static_cast<double>(c.ipc_reuses) / ipc : 0.0, "ratio",
         "count"},
        {"vtime.run_s", L(Layer::kRun), "s", "wall"},
        {"vtime.dispatches", static_cast<double>(c.sim.dispatches), "count",
         "count"},
        {"vtime.wakeups", static_cast<double>(c.sim.wakeups), "count",
         "count"},
        {"vtime.yields", static_cast<double>(c.sim.yields), "count", "count"},
        {"vtime.yields_per_wakeup",
         c.sim.wakeups > 0 ? static_cast<double>(c.sim.yields) /
                                 static_cast<double>(c.sim.wakeups)
                           : 0.0,
         "ratio", "count"},
        {"vtime.uncovered_s", med(traced, &PassResult::uncovered_s), "s",
         "wall"},
        {"obs.report_s", L(Layer::kObsReport), "s", "wall"},
        {"obs.flowstats_dropped", static_cast<double>(c.flowstats_dropped),
         "count", "count"},
        {"obs.flowstats_lost", static_cast<double>(c.flowstats_lost), "count",
         "count"},
    };
    static const char* const kStageMetric[] = {"conv", "desc", "kernel",
                                               "wire", "rdma", "unpack"};
    for (int k = 0; k < 6; ++k)
      m.push_back({std::string("vt.stage.") + kStageMetric[k] + "_us",
                   static_cast<double>(c.stage_work_ns[static_cast<std::size_t>(k)]) *
                       1e-3,
                   "us", "virtual"});
    m.push_back({"trace.wall_s", med(traced, &PassResult::wall_s), "s",
                 "wall"});
    m.push_back({"trace.overhead_s",
                 med(traced, &PassResult::wall_s) -
                     med(plain, &PassResult::wall_s),
                 "s", "wall"});
    m.push_back({"bench.busy_s", med(traced, &PassResult::busy_s), "s",
                 "wall"});
    m.push_back({"bench.failed_frac",
                 attempted > 0 ? static_cast<double>(failed) /
                                     static_cast<double>(attempted)
                               : 0.0,
                 "ratio", "count"});
    if (!o.spans_out.empty() && !traced.empty())
      write_spans(o.spans_out, kept_spans, *traced.back(), kept_t0, kept_t1);
    std::printf("# memcpy probe: %lld B per copy, LLC %ld B: %s\n",
                static_cast<long long>(memcpy_bytes), llc,
                llc > 0 && memcpy_bytes <= llc ? "cache-resident"
                                               : "not cache-resident");
  }

  std::printf("# workload=%s seed=%llu passes=%zu (1 warm-up) op samples=%zu "
              "attempted=%lld failed=%lld determinism_mismatches=%lld\n",
              o.workload.c_str(), static_cast<unsigned long long>(o.seed),
              results.size(), op_ms.size(), static_cast<long long>(attempted),
              static_cast<long long>(failed),
              static_cast<long long>(mismatches));
  std::printf("# pass wall_s:");
  for (const PassResult& r : results)
    std::printf(" %.4f%s", r.wall_s, r.traced ? "t" : "");
  std::printf("\n");
  for (const std::string& e : errors) std::printf("# FAILURE: %s\n", e.c_str());
  for (const Metric& x : m)
    std::printf("# %-28s %-22s %-6s [%s]\n", x.name.c_str(),
                num(x.value).c_str(), x.unit.c_str(), x.clock);
  std::string json = "{\"correct\": ";
  json += failed == 0 ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(attempted);
  json += ", \"failed\": " + std::to_string(failed);
  json += ", \"metrics\": {";
  for (std::size_t i = 0; i < m.size(); ++i) {
    json += (i ? ", \"" : "\"") + m[i].name + "\": {\"value\": " +
            num(m[i].value) + ", \"unit\": \"" + m[i].unit + "\"}";
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  return 0;
}

bool parse(int argc, char** argv, Options& o) {
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    auto value = [&]() -> std::string {
      if (i + 1 >= argc) throw std::invalid_argument(a + " needs a value");
      return argv[++i];
    };
    if (a == "--workload") {
      o.workload = value();
    } else if (a == "--seed") {
      o.seed = std::stoull(value());
    } else if (a == "--seconds") {
      o.seconds = std::stod(value());
    } else if (a == "--trace") {
      o.trace = value() != "0";
    } else if (a == "--spans-out") {
      o.spans_out = value();
    } else if (a == "--report-dir") {
      o.report_dir = value();
    } else if (a == "--inject-corruption") {
      o.inject = true;
    } else {
      throw std::invalid_argument("unknown argument " + a);
    }
  }
  return !o.workload.empty();
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  perfbench::Options o;
  try {
    if (!perfbench::parse(argc, argv, o)) {
      std::fprintf(stderr,
                   "usage: perfbench --workload sweep|steady|mix "
                   "--seed N --seconds S [--trace 0|1]\n");
      return 2;
    }
    return perfbench::run(o);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 1;
  }
}
