// In-memory wall-clock spans recorded around the benchmark's calls into
// each simulator layer, and the interval algebra that turns them into
// per-layer times.
//
// Every simulated rank is a fiber on the one benchmark thread, so a span
// left open by a rank that blocks in recv() also covers the work of the
// ranks that run meanwhile. Layer time is therefore always the *union*
// of a layer's intervals over all ranks, never their sum; self time is a
// span minus the part of it its own (same-rank) children cover.
#pragma once

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <utility>
#include <vector>

namespace perfbench {

inline std::int64_t wall_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// Layers, named after the repository module whose public calls the span
/// wraps. The first three are set-up (they make up setup_s); kRun wraps
/// mpi::Runtime::run; kVerify wraps the benchmark's own byte checks,
/// whose time is removed from every wall-clock figure.
enum class Layer : int {
  kSimgpuSetup,     // Runtime ctor + plugin attach, sg::Malloc + seeded fill
  kSimgpuTeardown,  // sg::Free + Runtime dtor
  kMpiTypeBuild,    // mpi::Datatype factories
  kMpiCanonical,    // canonicalize_program + shape_digest (traced only)
  kMpiPml,          // mpi::Comm send/recv/isend/irecv/wait
  kMpiColl,         // mpi::Collectives
  kRmaEpoch,        // rma::Window creation, fence, put
  kCoreDevConvert,  // engine(p).prefetch on a cold DEV cache (traced only)
  kCorePack,        // GpuDatatypePlugin::pack
  kCoreUnpack,      // GpuDatatypePlugin::unpack
  kObsStats,        // sim_stats() / engine.stats() / plugin->stats()
  kObsReport,       // metrics + latency report serialisation and write
  kRun,             // mpi::Runtime::run
  kVerify,          // byte checks against the host reference engine
  kCount
};

inline const char* layer_name(Layer l) {
  static const char* const kNames[] = {
      "simgpu.setup", "simgpu.teardown", "mpi.type_build", "mpi.canonical",
      "mpi.pml",      "mpi.coll",        "rma.epoch",      "core.dev_convert",
      "core.pack",    "core.unpack",     "obs.stats",      "obs.report",
      "vtime.run",    "bench.verify"};
  return kNames[static_cast<int>(l)];
}

inline bool is_setup(Layer l) {
  return l == Layer::kSimgpuSetup || l == Layer::kSimgpuTeardown ||
         l == Layer::kMpiTypeBuild;
}

struct Span {
  Layer layer;
  std::int64_t begin;
  std::int64_t end;
  int parent;  // index of the enclosing span of the same rank, -1 if none
  int rank;    // -1: outside Runtime::run
  std::int64_t op;  // client op id, -1 outside ops
};

/// Span recorder. With `full` off only the spans end-to-end metrics need
/// are kept (set-up, run, verify), so the untraced run pays a handful of
/// clock reads per pass.
class Tracer {
 public:
  bool full = false;

  void clear() {
    spans_.clear();
    top_.clear();
  }
  const std::vector<Span>& spans() const { return spans_; }

  int begin(Layer l, int rank, std::int64_t op) {
    if (!full && !is_setup(l) && l != Layer::kRun && l != Layer::kVerify)
      return -1;
    const auto slot = static_cast<std::size_t>(rank + 1);
    if (top_.size() <= slot) top_.resize(slot + 1, -1);
    spans_.push_back({l, wall_ns(), 0, top_[slot], rank, op});
    top_[slot] = static_cast<int>(spans_.size()) - 1;
    return top_[slot];
  }

  void end(int idx) {
    if (idx < 0) return;
    Span& s = spans_[static_cast<std::size_t>(idx)];
    s.end = wall_ns();
    top_[static_cast<std::size_t>(s.rank + 1)] = s.parent;
  }

 private:
  std::vector<Span> spans_;
  std::vector<int> top_;  // innermost open span per rank slot
};

Tracer& tracer();

/// RAII span on the process-wide tracer.
class Scope {
 public:
  explicit Scope(Layer l, int rank = -1, std::int64_t op = -1)
      : idx_(tracer().begin(l, rank, op)) {}
  ~Scope() { tracer().end(idx_); }
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;

 private:
  int idx_;
};

// --- Interval algebra (half-open [begin, end) nanosecond intervals) --------

using Interval = std::pair<std::int64_t, std::int64_t>;
using Intervals = std::vector<Interval>;

/// Sorted, disjoint union of `v`.
inline Intervals merged(Intervals v) {
  std::sort(v.begin(), v.end());
  Intervals out;
  for (const Interval& iv : v) {
    if (iv.second <= iv.first) continue;
    if (!out.empty() && iv.first <= out.back().second) {
      out.back().second = std::max(out.back().second, iv.second);
    } else {
      out.push_back(iv);
    }
  }
  return out;
}

inline std::int64_t length(const Intervals& m) {
  std::int64_t n = 0;
  for (const Interval& iv : m) n += iv.second - iv.first;
  return n;
}

/// a minus b; both sorted and disjoint.
inline Intervals subtract(const Intervals& a, const Intervals& b) {
  Intervals out;
  std::size_t j = 0;
  for (Interval iv : a) {
    while (j < b.size() && b[j].second <= iv.first) ++j;
    std::size_t k = j;
    while (k < b.size() && b[k].first < iv.second) {
      if (b[k].first > iv.first) out.push_back({iv.first, b[k].first});
      iv.first = std::max(iv.first, b[k].second);
      ++k;
    }
    if (iv.first < iv.second) out.push_back(iv);
  }
  return out;
}

}  // namespace perfbench
