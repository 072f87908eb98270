#include "protocols/gpu_plugin.h"

#include <stdexcept>
#include <string>

#include "obs/knobs.h"
#include "obs/recorder.h"
#include "simgpu/staging.h"

namespace gpuddt::proto {

namespace {

using Engine = core::GpuDatatypeEngine;
using mpi::CtsHeader;
using mpi::FinHeader;
using mpi::FragHeader;
using mpi::RtsHeader;
using mpi::TransferMode;

/// Pack-ready notification: sender -> receiver, "fragment `frag_idx` of
/// `bytes` bytes is packed in staging slot frag_idx % depth" (the paper's
/// "unpack request").
struct FragReadyHeader {
  std::uint64_t recv_id = 0;
  std::uint64_t send_id = 0;
  std::int64_t frag_idx = 0;
  std::int64_t bytes = 0;
  std::uint8_t last = 0;
};

/// Fragment-free acknowledgment: receiver -> sender, "slot of `frag_idx`
/// may be reused".
struct FragFreeHeader {
  std::uint64_t send_id = 0;
  std::int64_t frag_idx = 0;
};

using mpi::make_payload;
using mpi::read_header;

// Receiver-side unpack reads AM payload bytes in place; register the
// span for the duration of the handler (simgpu/staging.h).
using sg::ScopedStagingRegistration;

core::EngineConfig engine_config(const mpi::RuntimeConfig& cfg,
                                 std::int32_t trace_pid) {
  core::EngineConfig e;
  e.unit_bytes = cfg.dev_unit_bytes;
  e.cache_enabled = cfg.dev_cache_enabled;
  e.cache_max_bytes = cfg.dev_cache_max_bytes;
  e.kernel_blocks = cfg.gpu_kernel_blocks;
  e.pipeline_conversion = cfg.dev_pipeline_conversion;
  e.recorder = cfg.recorder;
  e.trace_pid = trace_pid;
  return e;
}

/// Expose a contiguous device layout over IPC. The handle names the
/// allocation holding the layout's first typed byte and the returned
/// displacement locates that byte in it: `buf` itself may lie below the
/// allocation (true_lb > 0), so it is never what gets exposed.
std::int64_t expose_contiguous(mpi::Process& p, const void* buf,
                               const mpi::DatatypePtr& dt,
                               sg::IpcMemHandle* handle) {
  auto* first = const_cast<std::byte*>(dt->first_typed_byte(buf));
  sg::Machine& m = p.runtime().machine();
  std::byte* base =
      m.device(m.query(first).device).arena().allocation_span(first).first;
  if (base == nullptr) base = first;
  *handle = sg::IpcGetMemHandle(p.gpu(), base);
  return first - base;
}

/// Drain step: run `op` over the packed bytes [op.bytes_done(), total)
/// against the contiguous span `contig` (which holds packed byte 0), at
/// most `chunk` bytes per engine call, every kernel ordered after `dep`.
/// Call i joins flow frag_flow(flow_rank, flow_id, i); flow_id 0 leaves
/// the spans flow-less. Returns the last kernel's completion (`dep` when
/// nothing ran). The caller finishes the op.
vt::Time drain(Engine& eng, Engine::Op& op, std::byte* contig,
               std::int64_t total, std::int64_t chunk, vt::Time dep,
               int flow_rank, std::uint64_t flow_id) {
  vt::Time last = dep;
  for (std::int64_t i = 0; op.bytes_done() < total; ++i) {
    if (flow_id != 0) op.set_flow(mpi::frag_flow(flow_rank, flow_id, i));
    const auto r =
        eng.process_some(op, contig + op.bytes_done(),
                         std::min(chunk, total - op.bytes_done()), dep);
    if (r.bytes == 0)
      throw std::runtime_error("gpu plugin: packed stream exceeds datatype");
    last = r.ready;
  }
  return last;
}

/// CTS reply: grant the RTS with `cts` (the caller fills in the mode and
/// its fields) and stamp the request's CTS time.
void reply_cts(mpi::Process& p, mpi::RecvRequest& req, const RtsHeader& rts,
               CtsHeader cts) {
  cts.send_id = rts.send_id;
  cts.recv_id = req.id;
  p.am_send(rts.env.src, mpi::Pml::cts_handler(), make_payload(cts));
  req.cts_sent = p.clock().now();
}

/// The host-driven unpack for the receiver fragment step: launch the
/// kernels from the host now, ordered after `dep`.
auto host_unpack(Engine& eng, Engine::Op& op) {
  return [&eng, &op](std::byte* src, std::int64_t n, vt::Time dep) {
    return eng.process_some(op, src, n, dep);
  };
}

/// A ring of `depth` staging slots of `frag_bytes` each. Fragment f uses
/// slot f % depth; slot_free[slot] is that slot's credit - the virtual
/// time from which its bytes may be overwritten.
struct Ring {
  std::int64_t frag_bytes = 0;
  int depth = 0;
  std::vector<vt::Time> slot_free;

  void shape(std::int64_t frag, int slots) {
    frag_bytes = frag;
    depth = slots;
    slot_free.assign(static_cast<std::size_t>(slots), 0);
  }
  std::byte* at(std::byte* base, std::int64_t f) const {
    return base + (f % depth) * frag_bytes;
  }
  vt::Time& credit(std::int64_t f) {
    return slot_free[static_cast<std::size_t>(f % depth)];
  }
  std::size_t bytes() const {
    return static_cast<std::size_t>(frag_bytes) *
           static_cast<std::size_t>(depth);
  }
  /// Ring allocation: device memory for every slot.
  std::byte* alloc(mpi::Process& p) const {
    return static_cast<std::byte*>(sg::Malloc(p.gpu(), bytes()));
  }
};

/// What the receiver fragment step did, on the receiver's timeline.
struct FragStep {
  vt::Time get_start = 0;      // GET issued (staged_at when there is none)
  vt::Time staged_at = 0;      // the bytes the unpack reads are in place
  vt::Time unpacked = 0;       // unpack kernel completion
  vt::Time sender_credit = 0;  // the sender's slot may be reused
};

/// The completion of an unpack that had to consume exactly `bytes`.
vt::Time unpacked_exactly(const Engine::Result& r, std::int64_t bytes) {
  if (r.bytes != bytes)
    throw std::runtime_error("gpu plugin: fragment size mismatch");
  return r.ready;
}

}  // namespace

// --- Per-request protocol state ----------------------------------------------

struct GpuDatatypePlugin::SendState : mpi::PluginState, Ring {
  std::unique_ptr<Engine::Op> op;
  TransferMode mode = TransferMode::kHostFrags;
  std::uint64_t recv_id = 0;

  // The ring this rank packs into: the device ring exposed to the
  // receiver (GET, stream chain), kept local and pushed to `remote_ring`
  // (PUT), or the device bounce ring of explicit copy-out staging.
  std::byte* staging = nullptr;
  std::byte* remote_ring = nullptr;
  std::byte* host_bounce = nullptr;  // kHostFrags: host ring on the wire
  std::int64_t next_frag = 0;
  std::int64_t acks = 0;
  bool all_packed = false;

  /// Sender fragment step: pack fragment `f` into its slot of `ring` once
  /// that slot's credit has arrived.
  Engine::Result pack(Engine& eng, std::byte* ring, std::int64_t f,
                      std::uint64_t flow) {
    op->set_flow(flow);
    return eng.process_some(*op, at(ring, f), frag_bytes, credit(f));
  }
};

struct GpuDatatypePlugin::RecvState : mpi::PluginState, Ring {
  std::unique_ptr<Engine::Op> op;
  TransferMode mode = TransferMode::kHostFrags;
  std::uint64_t send_id = 0;
  int src_rank = -1;

  // Where fragments are read: the sender's ring, its contiguous source, or
  // (PUT) `exposed`, this rank's own ring the sender pushes fragments into.
  std::byte* remote = nullptr;
  std::byte* exposed = nullptr;
  // Device-local staging: the ring remote fragments are fetched into by a
  // GET before the unpack, or the kHostFrags copy-in bounce (one slot).
  std::byte* local_staging = nullptr;

  std::int64_t bytes_done = 0;
  vt::Time last_ready = 0;

  /// Receiver fragment step: fragment `f` of `bytes` packed bytes sits at
  /// `src` from `ready` on. With local staging, GET it into the local slot
  /// once that slot's credit has returned and unpack behind the GET;
  /// otherwise unpack straight from `src`. `unpack(src, bytes, dep)`
  /// issues the kernels - from the host, or pre-enqueued.
  template <typename Unpack>
  FragStep fragment(mpi::Process& p, std::int64_t f, std::byte* src,
                    std::int64_t bytes, vt::Time ready, Unpack&& unpack) {
    if (local_staging == nullptr) {
      const vt::Time done = unpacked_exactly(unpack(src, bytes, ready), bytes);
      return {ready, ready, done, done};
    }
    std::byte* local = at(local_staging, f);
    const vt::Time start = std::max(ready, credit(f));
    const vt::Time got = p.runtime().btl_between(p.rank(), src_rank).rdma_get(
        p, src_rank, local, src, static_cast<std::size_t>(bytes), start);
    credit(f) = unpacked_exactly(unpack(local, bytes, got), bytes);
    return {start, got, credit(f), got};
  }
};

// --- Plumbing ---------------------------------------------------------------------

void GpuDatatypePlugin::attach(mpi::Runtime& rt) {
  h_frag_ready_ = rt.register_handler(
      [this](mpi::Process& p, mpi::AmMessage& m) { on_frag_ready(p, m); });
  h_frag_free_ = rt.register_handler(
      [this](mpi::Process& p, mpi::AmMessage& m) { on_frag_free(p, m); });
}

GpuDatatypePlugin::PerRank& GpuDatatypePlugin::per_rank(mpi::Process& p) {
  auto& slot = ranks_[p.rank()];
  if (!slot) {
    slot = std::make_unique<PerRank>();
    slot->engine = std::make_unique<core::GpuDatatypeEngine>(
        p.gpu(), engine_config(p.config(), p.rank()));
  }
  return *slot;
}

core::GpuDatatypeEngine& GpuDatatypePlugin::engine(mpi::Process& p) {
  return *per_rank(p).engine;
}

void* GpuDatatypePlugin::open_handle(mpi::Process& p,
                                     const sg::IpcMemHandle& h) {
  PerRank& pr = per_rank(p);
  const auto key = std::make_pair(h.device, h.offset);
  auto it = pr.ipc_cache.find(key);
  if (it != pr.ipc_cache.end()) {
    ++pr.stats.ipc_reuses;  // registration cache hit
    return it->second;
  }
  ++pr.stats.ipc_opens;
  void* ptr = sg::IpcOpenMemHandle(p.gpu(), h);
  pr.ipc_cache.emplace(key, ptr);
  return ptr;
}

void GpuDatatypePlugin::finish_recv(mpi::Process& p, mpi::RecvRequest& req,
                                    core::GpuDatatypeEngine::Op* op,
                                    vt::Time last) {
  if (op != nullptr) engine(p).finish(*op);
  if (auto* st = static_cast<RecvState*>(req.plugin.get())) {
    if (st->local_staging != nullptr) sg::Free(p.gpu(), st->local_staging);
    if (st->exposed != nullptr) sg::Free(p.gpu(), st->exposed);
    st->local_staging = st->exposed = nullptr;
  }
  per_rank(p).stats.bytes_received += req.total_bytes;
  p.clock().wait_until(last);
}

// --- Explicit MPI_Pack-style API --------------------------------------------------------

std::int64_t GpuDatatypePlugin::pack(mpi::Process& p, const void* inbuf,
                                     std::int64_t count,
                                     const mpi::DatatypePtr& dt,
                                     std::span<std::byte> outbuf,
                                     std::int64_t* position) {
  return copy_packed(p, Engine::Dir::kPack, const_cast<void*>(inbuf), count,
                     dt, outbuf, position);
}

std::int64_t GpuDatatypePlugin::unpack(mpi::Process& p,
                                       std::span<const std::byte> inbuf,
                                       std::int64_t* position, void* outbuf,
                                       std::int64_t count,
                                       const mpi::DatatypePtr& dt) {
  return copy_packed(p, Engine::Dir::kUnpack, outbuf, count, dt,
                     {const_cast<std::byte*>(inbuf.data()), inbuf.size()},
                     position);
}

std::int64_t GpuDatatypePlugin::copy_packed(mpi::Process& p,
                                            core::GpuDatatypeEngine::Dir dir,
                                            void* typed, std::int64_t count,
                                            const mpi::DatatypePtr& dt,
                                            std::span<std::byte> packed,
                                            std::int64_t* position) {
  const std::string what = dir == Engine::Dir::kPack ? "pack" : "unpack";
  if (count < 0 || *position < 0)
    throw std::invalid_argument(what + ": negative count or position");
  const std::int64_t total = dt->size() * count;
  if (*position + total > static_cast<std::int64_t>(packed.size()))
    throw std::invalid_argument(what + ": packed buffer too small");
  std::byte* contig = packed.data() + *position;
  // Standalone packs are flows of their own when the latency engine is
  // on: one PML request id per call keys the flow (and stamps the engine
  // spans), so explicit pack/unpack classes are directly comparable to
  // the "send" class in the latency report (docs/latency.md).
  obs::Recorder* rec = p.config().recorder;
  const bool track = rec != nullptr && rec->flowstats().enabled();
  const std::uint64_t id = track ? p.pml().allocate_id() : 0;
  const vt::Time begin = p.clock().now();
  if (p.runtime().machine().is_device_ptr(dt->first_typed_byte(typed))) {
    Engine& eng = engine(p);
    auto op = eng.start(dir, dt, count, typed);
    const vt::Time last =
        drain(eng, *op, contig, total, total, 0, p.rank(), id);
    eng.finish(*op);
    p.clock().wait_until(last);
  } else {
    const std::span<std::byte> bytes(contig, static_cast<std::size_t>(total));
    p.pml().charge_cpu_pack(dir == Engine::Dir::kPack
                                ? mpi::cpu_pack(dt, count, typed, bytes)
                                : mpi::cpu_unpack(dt, count, bytes, typed));
  }
  if (track) {
    rec->flowstats().complete({mpi::frag_flow(p.rank(), id, 0), what,
                               dt->shape_digest(), total, begin,
                               p.clock().now(), 1});
  }
  *position += total;
  return total;
}

// --- Sender side ---------------------------------------------------------------------

void GpuDatatypePlugin::send_start(mpi::Process& p, mpi::SendRequest& req) {
  const mpi::RuntimeConfig& cfg = p.config();

  // Small-message tier: pack into a zero-copy host buffer and ship one
  // eager AM - no handshake, no staging ring, no acks.
  if (req.total_bytes <= static_cast<std::int64_t>(cfg.gpu_eager_limit)) {
    Engine& eng = engine(p);
    auto* bounce = static_cast<std::byte*>(sg::HostAlloc(
        p.gpu(), static_cast<std::size_t>(req.total_bytes + 1), true));
    auto op = eng.start(Engine::Dir::kPack, req.dt, req.count,
                        const_cast<void*>(req.buf));
    const vt::Time ready =
        drain(eng, *op, bounce, req.total_bytes, req.total_bytes, 0, 0, 0);
    eng.finish(*op);
    p.pml().send_packed_eager(
        req.env,
        std::span<const std::byte>(bounce,
                                   static_cast<std::size_t>(req.total_bytes)),
        ready);
    sg::HostFree(p.gpu(), bounce);
    obs::count(cfg.recorder, "gpu.sends.eager");
    p.pml().complete_send(req);
    return;
  }

  auto st = std::make_unique<SendState>();
  st->shape(
      std::max<std::int64_t>(static_cast<std::int64_t>(cfg.gpu_frag_bytes),
                             cfg.dev_unit_bytes),
      std::max(1, cfg.gpu_pipeline_depth));

  RtsHeader rts;
  rts.env = req.env;
  rts.send_id = req.id;
  rts.total_bytes = req.total_bytes;
  rts.src_is_device = 1;
  rts.src_contiguous = req.dt->is_contiguous(req.count) ? 1 : 0;
  rts.src_device = req.space.device;
  rts.src_node = p.node();
  rts.frag_bytes = st->frag_bytes;
  rts.depth = st->depth;
  rts.sig_hash = req.dt->signature().hash();

  mpi::Btl& btl = p.runtime().btl_between(p.rank(), req.env.dst);
  if (btl.supports_gpu_rdma(p, req.env.dst) && req.total_bytes > 0 &&
      req.total_bytes <= btl.gpu_rdma_limit(p)) {
    if (rts.src_contiguous) {
      // Shortcut: expose the source buffer itself; the receiver drives
      // the whole transfer and fins us.
      rts.has_handle = 1;
      rts.src_disp = expose_contiguous(p, req.buf, req.dt, &rts.handle);
    } else {
      st->staging = st->alloc(p);
      rts.has_handle = 1;
      rts.handle = sg::IpcGetMemHandle(p.gpu(), st->staging);
    }
  }
  req.plugin = std::move(st);
  p.am_send(req.env.dst, mpi::Pml::rts_handler(), make_payload(rts));
  req.rts_sent = p.clock().now();
  obs::count(cfg.recorder, "gpu.sends.rendezvous");
}

void GpuDatatypePlugin::send_on_cts(mpi::Process& p, mpi::SendRequest& req,
                                    const CtsHeader& cts, vt::Time /*arrival*/) {
  auto* st = static_cast<SendState*>(req.plugin.get());
  if (st == nullptr)
    throw std::runtime_error("gpu plugin: CTS without send state");
  st->recv_id = cts.recv_id;
  st->mode = cts.mode;
  Engine& eng = engine(p);

  switch (cts.mode) {
    case TransferMode::kHostFrags: {
      // Receiver declined (or cannot do) RDMA: copy-in/out protocol. The
      // host ring goes on the wire; explicit staging packs into a device
      // bounce ring first, zero-copy straight into the mapped host ring.
      if (st->staging != nullptr) sg::Free(p.gpu(), st->staging);
      st->staging = nullptr;
      const mpi::RuntimeConfig& cfg = p.config();
      mpi::Btl& btl = p.runtime().btl_between(p.rank(), req.env.dst);
      std::int64_t frag = cts.frag_bytes > 0 ? cts.frag_bytes : st->frag_bytes;
      frag = std::min<std::int64_t>(
          frag, static_cast<std::int64_t>(btl.max_am_payload() -
                                          sizeof(FragHeader)));
      st->frag_bytes = std::max<std::int64_t>(frag, cfg.dev_unit_bytes);
      if (!cfg.zero_copy) st->staging = st->alloc(p);
      st->host_bounce = static_cast<std::byte*>(
          sg::HostAlloc(p.gpu(), st->bytes(), cfg.zero_copy));
      st->op = eng.start(Engine::Dir::kPack, req.dt, req.count,
                         const_cast<void*>(req.buf));
      pump_host_send(p, req);
      return;
    }
    case TransferMode::kIpcRdma: {
      if (cts.has_handle) {
        // PUT mode: the receiver exposed its staging ring; we keep our
        // ring local and push each packed fragment across.
        st->remote_ring =
            static_cast<std::byte*>(open_handle(p, cts.handle));
      }
      st->op = eng.start(Engine::Dir::kPack, req.dt, req.count,
                         const_cast<void*>(req.buf));
      pump_rdma_send(p, req);
      return;
    }
    case TransferMode::kRdmaPackToRemote: {
      // Contiguous receiver exposed its destination: pack straight into
      // remote device memory, then fin the receiver.
      std::byte* remote = static_cast<std::byte*>(open_handle(p, cts.handle)) +
                          cts.remote_disp;
      st->op = eng.start(Engine::Dir::kPack, req.dt, req.count,
                         const_cast<void*>(req.buf));
      const vt::Time last = drain(eng, *st->op, remote, req.total_bytes,
                                  st->frag_bytes, 0, p.rank(), req.id);
      eng.finish(*st->op);
      FinHeader fin;
      fin.req_id = cts.recv_id;
      fin.to_sender = 0;
      p.am_send(req.env.dst, mpi::Pml::fin_handler(), make_payload(fin),
                last);
      p.pml().complete_send(req);
      return;
    }
    case TransferMode::kStreamTriggered: {
      drive_stream_chain(p, req, cts);
      return;
    }
    case TransferMode::kRdmaRecvDriven:
      throw std::runtime_error(
          "gpu plugin: kRdmaRecvDriven must not produce a CTS");
  }
}

void GpuDatatypePlugin::drive_stream_chain(mpi::Process& p,
                                           mpi::SendRequest& req,
                                           const CtsHeader& cts) {
  auto* st = static_cast<SendState*>(req.plugin.get());
  if (st == nullptr || st->staging == nullptr)
    throw std::runtime_error("gpu plugin: stream chain without staging");
  Engine& eng = engine(p);
  obs::Recorder* rec = p.config().recorder;

  // The chain spans both ranks. The receiver pre-enqueued (and
  // pre-charged) its triggered GETs and unpack launches at CTS time, so
  // the whole per-fragment recurrence is resolved here in one forward
  // pass over stream/event dependencies: pack[f] waits its slot's
  // credit-return event, the GET waits the pack-ready event, the unpack
  // waits the GET, and the GET's completion event is the credit that
  // releases the sender slot for pack[f+depth]. It is the host-driven
  // schedule with a different driver: the same two fragment steps, with
  // the unpack pre-enqueued (process_triggered) instead of launched by a
  // FragReady AM, and credits crossing devices as events instead of
  // FragFree AMs - no per-fragment host wakeup on either rank. Driving the
  // receiver's engine from the sender's turn is safe: ranks run one at a
  // time on the Runtime's one thread, and the triggered entry points never
  // touch the receiver's host clock.
  mpi::Process& rp = p.runtime().process(req.env.dst);
  mpi::RecvRequest* rreq = rp.pml().find_recv(cts.recv_id);
  if (rreq == nullptr)
    throw std::runtime_error("gpu plugin: stream chain lost its recv");
  auto* rst = static_cast<RecvState*>(rreq->plugin.get());
  if (rst == nullptr || rst->mode != TransferMode::kStreamTriggered)
    throw std::runtime_error("gpu plugin: stream chain mode mismatch");
  Engine& reng = engine(rp);

  st->op = eng.start(Engine::Dir::kPack, req.dt, req.count,
                     const_cast<void*>(req.buf));
  eng.stage_all(*st->op);  // full conversion charged now, at CTS time

  const int sdev = p.gpu().device;
  const int rdev = rp.gpu().device;
  const vt::Time chain_begin = p.clock().now();
  PerRank& rpr = per_rank(rp);
  vt::Time last_pack = 0;

  // Credits resolve forward: the sender's slot credit is the consuming
  // GET's (or, without local staging, the unpack's) completion event
  // crossed back to the sender's device; the receiver ring's is its
  // previous unpack (same device, so free).
  for (std::int64_t f = 0; !st->op->done(); ++f) {
    const std::uint64_t flow = mpi::frag_flow(p.rank(), req.id, f);
    const auto res = st->pack(eng, st->staging, f, flow);
    if (res.bytes == 0) break;
    last_pack = res.ready;
    // Pack-ready event, observed across the PCI-E switch by the
    // receiver's triggered queue.
    const vt::Time pack_ready =
        sg::EventReadyOn(p.gpu(), sg::Event{res.ready}, sdev, rdev);
    const FragStep s = rst->fragment(
        rp, f, rst->at(rst->remote, f), res.bytes, pack_ready,
        [&](std::byte* src, std::int64_t n, vt::Time dep) {
          return reng.process_triggered(*rst->op, src, n, dep, flow);
        });
    if (rst->local_staging != nullptr) {
      obs::trace(rec, {"rdma_frag", "gpu", s.get_start, s.staged_at,
                       rp.rank(), res.bytes, rp.rank(), flow});
    }
    st->credit(f) =
        sg::EventReadyOn(p.gpu(), sg::Event{s.sender_credit}, rdev, sdev);
    rst->bytes_done += res.bytes;
    rst->last_ready = s.unpacked;
    ++rpr.stats.fragments;
    obs::count(rec, "pml.stream_triggered.frags");
    obs::count(rec, "pml.stream_triggered.frag.bytes", res.bytes);
    if (rpr.tracing)
      rpr.trace.push_back(FragTrace{f, pack_ready, s.staged_at, s.unpacked});
  }
  if (!st->op->done() || rst->bytes_done != rreq->total_bytes)
    throw std::runtime_error("gpu plugin: stream chain incomplete");

  // One fin - the only AM after the rendezvous - sent as soon as the
  // whole chain is posted. It carries no data the receiver waits for: the
  // receiver blocks on its OWN last unpack event (it co-enqueued the
  // chain), so its completion lands at last_ready with no trailing wire
  // hop - the fin merely wakes its progress loop.
  FinHeader fin;
  fin.req_id = st->recv_id;
  fin.to_sender = 0;
  p.am_send(req.env.dst, mpi::Pml::fin_handler(), make_payload(fin));
  // Sender completion: the one remaining host wait is the chain's last
  // credit event - every pack done and the staging ring fully drained.
  vt::Time drained = last_pack;
  for (const vt::Time t : st->slot_free) drained = std::max(drained, t);
  eng.finish(*st->op);
  p.clock().wait_until(drained);
  sg::Free(p.gpu(), st->staging);
  st->staging = nullptr;
  obs::count(rec, "pml.stream_triggered.sends");
  obs::trace(rec, {"stream_chain", "gpu", chain_begin, drained, p.rank(),
                   req.total_bytes, p.rank(), 0});
  p.pml().complete_send(req);
}

void GpuDatatypePlugin::pump_rdma_send(mpi::Process& p,
                                       mpi::SendRequest& req) {
  auto* st = static_cast<SendState*>(req.plugin.get());
  Engine& eng = engine(p);
  mpi::Btl& btl = p.runtime().btl_between(p.rank(), req.env.dst);
  while (!st->op->done() && st->next_frag - st->acks < st->depth) {
    const std::int64_t f = st->next_frag;
    // GET mode never returns a credit early: the FragFree window above
    // gates slot reuse. In PUT mode the local slot is reusable once its
    // last put completed.
    const auto res =
        st->pack(eng, st->staging, f, mpi::frag_flow(p.rank(), req.id, f));
    if (res.bytes == 0) break;
    vt::Time notify_after = res.ready;
    if (st->remote_ring != nullptr) {
      // Push the packed fragment into the receiver's ring (one-sided).
      notify_after = btl.rdma_put(p, req.env.dst, st->at(st->remote_ring, f),
                                  st->at(st->staging, f),
                                  static_cast<std::size_t>(res.bytes),
                                  res.ready);
      st->credit(f) = notify_after;
    }
    FragReadyHeader h;
    h.recv_id = st->recv_id;
    h.send_id = req.id;
    h.frag_idx = f;
    h.bytes = res.bytes;
    h.last = st->op->done() ? 1 : 0;
    p.am_send(req.env.dst, h_frag_ready_, make_payload(h), notify_after);
    ++st->next_frag;
  }
  if (st->op->done()) st->all_packed = true;
  maybe_complete_rdma_send(p, req);
}

void GpuDatatypePlugin::maybe_complete_rdma_send(mpi::Process& p,
                                                 mpi::SendRequest& req) {
  auto* st = static_cast<SendState*>(req.plugin.get());
  if (!st->all_packed || st->acks != st->next_frag) return;
  engine(p).finish(*st->op);
  if (st->staging != nullptr) {
    sg::Free(p.gpu(), st->staging);
    st->staging = nullptr;
  }
  p.pml().complete_send(req);
}

void GpuDatatypePlugin::pump_host_send(mpi::Process& p,
                                       mpi::SendRequest& req) {
  auto* st = static_cast<SendState*>(req.plugin.get());
  Engine& eng = engine(p);
  std::byte* ring = st->staging != nullptr ? st->staging : st->host_bounce;
  for (std::int64_t f = 0; !st->op->done(); ++f) {
    const std::int64_t offset = st->op->bytes_done();
    // Pack into the slot; reuse must wait until the previous occupant's
    // bytes were read onto the wire (virtual-time dependency).
    const auto res =
        st->pack(eng, ring, f, mpi::frag_flow(p.rank(), req.id, f));
    if (res.bytes == 0) break;
    std::byte* host_slot = st->at(st->host_bounce, f);
    vt::Time ready = res.ready;
    if (st->staging != nullptr) {
      // Explicit staging: D2H copy chained on the pack stream.
      ready = sg::MemcpyAsync(p.gpu(), host_slot, st->at(st->staging, f),
                              static_cast<std::size_t>(res.bytes),
                              eng.pack_stream());
    }
    FragHeader h;
    h.recv_id = st->recv_id;
    h.offset = offset;
    h.bytes = res.bytes;
    h.last = st->op->done() ? 1 : 0;
    st->credit(f) = p.am_send(
        req.env.dst, mpi::Pml::frag_handler(),
        make_payload(h, std::span<const std::byte>(
                            host_slot, static_cast<std::size_t>(res.bytes))),
        ready);
  }
  eng.finish(*st->op);
  sg::HostFree(p.gpu(), st->host_bounce);
  if (st->staging != nullptr) sg::Free(p.gpu(), st->staging);
  st->host_bounce = nullptr;
  st->staging = nullptr;
  p.pml().complete_send(req);
}

// --- Receiver side ----------------------------------------------------------------------

void GpuDatatypePlugin::recv_start(mpi::Process& p, mpi::RecvRequest& req,
                                   const RtsHeader& rts, vt::Time arrival) {
  const mpi::RuntimeConfig& cfg = p.config();
  req.total_bytes = rts.total_bytes;

  if (req.space.space != sg::MemorySpace::kDevice) {
    // Host destination: behave exactly like the host rendezvous receiver;
    // the (GPU) sender will stream host-packed fragments.
    req.cursor = mpi::BlockCursor(req.dt, req.count);
    CtsHeader cts;
    cts.mode = TransferMode::kHostFrags;
    cts.frag_bytes = static_cast<std::int64_t>(cfg.frag_bytes);
    reply_cts(p, req, rts, cts);
    obs::count(cfg.recorder, "gpu.mode.host_frags");
    return;
  }

  auto st = std::make_unique<RecvState>();
  st->send_id = rts.send_id;
  st->src_rank = rts.env.src;
  Engine& eng = engine(p);
  mpi::Btl& btl = p.runtime().btl_between(p.rank(), rts.env.src);
  const bool rdma = rts.src_is_device && rts.has_handle &&
                    btl.supports_gpu_rdma(p, rts.env.src) &&
                    rts.total_bytes > 0 &&
                    rts.total_bytes <= btl.gpu_rdma_limit(p);

  if (!rdma) {
    // Copy-in/out receive side; explicit copy-in stages each fragment
    // through a one-slot device bounce.
    st->mode = TransferMode::kHostFrags;
    st->shape(std::max<std::int64_t>(
                  std::min<std::int64_t>(
                      static_cast<std::int64_t>(cfg.gpu_frag_bytes),
                      static_cast<std::int64_t>(btl.max_am_payload() -
                                                sizeof(FragHeader))),
                  cfg.dev_unit_bytes),
              1);
    st->op = eng.start(Engine::Dir::kUnpack, req.dt, req.count, req.buf);
    if (!cfg.zero_copy) st->local_staging = st->alloc(p);
    CtsHeader cts;
    cts.mode = TransferMode::kHostFrags;
    cts.frag_bytes = st->frag_bytes;
    cts.depth = cfg.gpu_pipeline_depth;
    req.plugin = std::move(st);
    reply_cts(p, req, rts, cts);
    obs::count(cfg.recorder, "gpu.mode.host_frags");
    return;
  }

  st->shape(rts.frag_bytes, rts.depth);
  if (rts.src_contiguous) {
    // Receiver-driven GET from the exposed contiguous source.
    st->mode = TransferMode::kRdmaRecvDriven;
    st->remote = static_cast<std::byte*>(open_handle(p, rts.handle)) +
                 rts.src_disp;
    req.plugin = std::move(st);
    obs::count(cfg.recorder, "gpu.mode.rdma_recv_driven");
    drive_recv_from_contiguous(p, req, arrival);
    return;
  }

  if (req.dt->is_contiguous(req.count)) {
    // Shortcut: expose my destination; the sender packs into it directly.
    st->mode = TransferMode::kRdmaPackToRemote;
    CtsHeader cts;
    cts.mode = TransferMode::kRdmaPackToRemote;
    cts.has_handle = 1;
    cts.frag_bytes = rts.frag_bytes;
    cts.remote_disp = expose_contiguous(p, req.buf, req.dt, &cts.handle);
    req.plugin = std::move(st);
    PerRank& pr = per_rank(p);
    ++pr.stats.rdma_pack_remote;
    pr.stats.bytes_received += rts.total_bytes;
    reply_cts(p, req, rts, cts);
    obs::count(cfg.recorder, "gpu.mode.rdma_pack_remote");
    return;  // completion arrives as a fin
  }

  // Full pipelined RDMA protocol, driven by FragReady/FragFree AMs
  // (kIpcRdma) or as a stream-triggered chain (docs/protocols.md): there
  // this CTS is the last per-message host work on this rank until the
  // sender's fin. The whole conversion is staged and uploaded now, the
  // ring is allocated now, and the host charge for posting every
  // triggered GET and unpack launch of the chain lands here - the chain
  // driver (sender side, drive_stream_chain) then resolves the
  // per-fragment recurrence purely through stream/event dependencies.
  // PUT mode has no triggered form and always runs host-driven.
  st->op = eng.start(Engine::Dir::kUnpack, req.dt, req.count, req.buf);
  const bool triggered =
      obs::resolve(obs::Knob::kStreamTriggered, cfg.stream_triggered) &&
      !cfg.rdma_put_mode;
  st->mode =
      triggered ? TransferMode::kStreamTriggered : TransferMode::kIpcRdma;
  if (st->mode == TransferMode::kStreamTriggered) eng.stage_all(*st->op);
  CtsHeader cts;
  cts.mode = st->mode;
  cts.frag_bytes = st->frag_bytes;
  cts.depth = st->depth;
  if (cfg.rdma_put_mode) {
    // PUT mode: expose MY staging ring; the sender pushes fragments in.
    st->remote = st->exposed = st->alloc(p);
    cts.has_handle = 1;
    cts.handle = sg::IpcGetMemHandle(p.gpu(), st->exposed);
  } else {
    st->remote = static_cast<std::byte*>(open_handle(p, rts.handle));
    if (cfg.recv_local_staging && rts.src_device != p.gpu().device)
      st->local_staging = st->alloc(p);
  }
  const bool local_staged = st->local_staging != nullptr;
  req.plugin = std::move(st);
  reply_cts(p, req, rts, cts);
  if (cts.mode != TransferMode::kStreamTriggered) {
    obs::count(cfg.recorder, "gpu.mode.ipc_rdma");
    return;
  }
  // Posting charge for the chain: one triggered launch (and one GET
  // post, when staging locally) per fragment. Charged after the CTS is
  // on the wire - the posting overlaps the CTS flight and the sender's
  // own staging, exactly the overlap the offloaded path exists for -
  // but still at rendezvous time: the host never wakes per fragment.
  const std::int64_t nfrags =
      (rts.total_bytes + cts.frag_bytes - 1) / cts.frag_bytes;
  const vt::Time enq = p.gpu().cost().enqueue_ns;
  const vt::Time t0 = p.clock().now();
  p.clock().advance(static_cast<vt::Time>(nfrags) * enq *
                    (local_staged ? 2 : 1));
  obs::count(cfg.recorder, "pml.stream_triggered.recvs");
  obs::observe(cfg.recorder, "pml.stream_triggered.enqueue_ns",
               p.clock().now() - t0);
  obs::trace(cfg.recorder, {"chain_enqueue", "gpu", t0, p.clock().now(),
                            p.rank(), nfrags, p.rank(), 0});
  obs::count(cfg.recorder, "gpu.mode.stream_triggered");
  // Completion arrives as the sender's fin (recv_fin).
}

void GpuDatatypePlugin::drive_recv_from_contiguous(mpi::Process& p,
                                                   mpi::RecvRequest& req,
                                                   vt::Time arrival) {
  auto* st = static_cast<RecvState*>(req.plugin.get());
  Engine& eng = engine(p);
  const mpi::RuntimeConfig& cfg = p.config();
  const sg::PtrAttributes remote_attr = p.runtime().machine().query(st->remote);
  const bool same_device = remote_attr.space == sg::MemorySpace::kDevice &&
                           remote_attr.device == p.gpu().device;
  vt::Time last = arrival;

  if (req.dt->is_contiguous(req.count)) {
    // Contiguous on both ends: one big one-sided get into place. The
    // single GET is the whole flow, so it must carry the frag-flow id -
    // without this span the latency engine has no time window for the
    // contiguous-send class and would count the flow dropped.
    auto* dst = static_cast<std::byte*>(req.buf) + req.dt->true_lb();
    const vt::Time t_start = std::max(arrival, p.clock().now());
    if (same_device) {
      last = sg::TimedCopy(p.gpu(), dst, st->remote,
                           static_cast<std::size_t>(req.total_bytes),
                           t_start, "recv_contig_get");
    } else {
      last = p.runtime().btl_between(p.rank(), st->src_rank).rdma_get(
          p, st->src_rank, dst, st->remote,
          static_cast<std::size_t>(req.total_bytes), t_start);
    }
    obs::trace(cfg.recorder,
               {"rdma_frag", "gpu", t_start, last, p.rank(), req.total_bytes,
                p.rank(), mpi::frag_flow(st->src_rank, st->send_id, 0)});
  } else {
    st->op = eng.start(Engine::Dir::kUnpack, req.dt, req.count, req.buf);
    if (same_device || !cfg.recv_local_staging) {
      // Unpack straight out of the exposed source (fast when same device,
      // the slower remote-read option otherwise).
      last = drain(eng, *st->op, st->remote, req.total_bytes, st->frag_bytes,
                   arrival, st->src_rank, st->send_id);
    } else {
      // Pipelined: the receiver fragment step over a source read linearly
      // rather than as a ring - GET each fragment into the local ring,
      // then unpack behind the GET.
      st->local_staging = st->alloc(p);
      for (std::int64_t f = 0; st->op->bytes_done() < req.total_bytes; ++f) {
        const std::int64_t n = std::min<std::int64_t>(
            st->frag_bytes, req.total_bytes - st->op->bytes_done());
        const std::uint64_t flow =
            mpi::frag_flow(st->src_rank, st->send_id, f);
        st->op->set_flow(flow);
        const FragStep s = st->fragment(
            p, f, st->remote + st->op->bytes_done(), n,
            std::max(arrival, p.clock().now()), host_unpack(eng, *st->op));
        obs::trace(cfg.recorder, {"rdma_frag", "gpu", s.get_start,
                                  s.staged_at, p.rank(), n, p.rank(), flow});
        last = s.unpacked;
      }
    }
  }

  finish_recv(p, req, st->op.get(), last);
  ++per_rank(p).stats.rdma_recv_driven;
  FinHeader fin;
  fin.req_id = st->send_id;
  fin.to_sender = 1;
  p.am_send(st->src_rank, mpi::Pml::fin_handler(), make_payload(fin), last);
  p.pml().complete_recv(req);
}

void GpuDatatypePlugin::on_frag_ready(mpi::Process& p, mpi::AmMessage& m) {
  const FragReadyHeader h = read_header<FragReadyHeader>(m);
  mpi::RecvRequest* req = p.pml().find_recv(h.recv_id);
  if (req == nullptr)
    throw std::runtime_error("gpu plugin: frag-ready for unknown recv");
  auto* st = static_cast<RecvState*>(req->plugin.get());
  Engine& eng = engine(p);
  // Same pure function of (src rank, send id, frag idx) the sender used,
  // so this fragment's unpack spans join its cross-rank flow chain.
  const std::uint64_t flow =
      mpi::frag_flow(st->src_rank, h.send_id, h.frag_idx);
  st->op->set_flow(flow);
  // The fragment is in the sender's slot (GET) or was already pushed into
  // mine (PUT, `remote` is then my exposed ring); the ack releases the
  // sender-side slot (GET) or my slot for the sender's next put (PUT).
  const FragStep s =
      st->fragment(p, h.frag_idx, st->at(st->remote, h.frag_idx), h.bytes,
                   p.clock().now(), host_unpack(eng, *st->op));
  st->last_ready = s.unpacked;
  st->bytes_done += h.bytes;
  {
    PerRank& pr = per_rank(p);
    ++pr.stats.fragments;
    if (pr.tracing) {
      pr.trace.push_back(FragTrace{
          h.frag_idx, m.arrival,
          st->exposed != nullptr         ? s.unpacked
          : st->local_staging != nullptr ? s.staged_at
                                         : m.arrival,
          s.unpacked});
    }
  }
  {
    // The pipelined-RDMA fragments bypass Pml::on_frag, so the per-frag
    // rendezvous latencies are recorded here.
    obs::Recorder* rec = p.config().recorder;
    obs::count(rec, "pml.frags");
    obs::count(rec, "pml.frag.bytes", h.bytes);
    if (req->first_frag_arrival == 0) {
      req->first_frag_arrival = m.arrival;
      if (req->cts_sent > 0)
        obs::observe(rec, "pml.cts_to_first_frag_ns",
                     m.arrival - req->cts_sent);
    } else if (m.arrival >= req->last_frag_arrival) {
      obs::observe(rec, "pml.frag_gap_ns",
                   m.arrival - req->last_frag_arrival);
    }
    req->last_frag_arrival = m.arrival;
    obs::observe(rec, "gpu.frag.unpack_ns", st->last_ready - m.arrival);
    obs::trace(rec, {"rdma_frag", "gpu", m.arrival, st->last_ready,
                     p.rank(), h.bytes, p.rank(), flow});
  }

  FragFreeHeader ack;
  ack.send_id = st->send_id;
  ack.frag_idx = h.frag_idx;
  p.am_send(st->src_rank, h_frag_free_, make_payload(ack), s.sender_credit);

  if (h.last) {
    if (st->bytes_done != req->total_bytes)
      throw std::runtime_error("gpu plugin: RDMA stream size mismatch");
    finish_recv(p, *req, st->op.get(), st->last_ready);
    ++per_rank(p).stats.rdma_pipelined;
    p.pml().complete_recv(*req);
  }
}

void GpuDatatypePlugin::on_frag_free(mpi::Process& p, mpi::AmMessage& m) {
  const FragFreeHeader h = read_header<FragFreeHeader>(m);
  mpi::SendRequest* req = p.pml().find_send(h.send_id);
  if (req == nullptr)
    throw std::runtime_error("gpu plugin: frag-free for unknown send");
  auto* st = static_cast<SendState*>(req->plugin.get());
  ++st->acks;
  if (!st->all_packed) pump_rdma_send(p, *req);
  maybe_complete_rdma_send(p, *req);
}

void GpuDatatypePlugin::recv_on_frag(mpi::Process& p, mpi::RecvRequest& req,
                                     const FragHeader& hdr,
                                     std::span<const std::byte> data,
                                     vt::Time arrival) {
  auto* st = static_cast<RecvState*>(req.plugin.get());
  if (st == nullptr || st->mode != TransferMode::kHostFrags)
    throw std::runtime_error("gpu plugin: unexpected host fragment");
  Engine& eng = engine(p);
  if (hdr.offset != st->bytes_done)
    throw std::runtime_error("gpu plugin: out-of-order fragment");
  // Pml::on_frag computed this fragment's flow id before dispatching here
  // - but only a rendezvous carries the sender's request id. A fragment
  // stream without an RTS-carried send_id (peer_send_id 0) would
  // fabricate a flow that collides across that peer's sends and draw
  // wrong/dangling Perfetto arrows; stamp those spans flow-less instead.
  const std::uint64_t frag_flow_id =
      req.peer_send_id != 0 ? req.last_flow : 0;
  st->op->set_flow(frag_flow_id);

  if (hdr.bytes > 0) {
    ScopedStagingRegistration staging(p.runtime().machine(), data.data(),
                                      static_cast<std::size_t>(hdr.bytes));
    // Zero-copy: the unpack kernel reads the arrived host bytes over
    // PCI-E directly (UMA mapping). Explicit copy-in: H2D staging into
    // the device bounce first, then unpack from device memory.
    auto* src = const_cast<std::byte*>(data.data());
    vt::Time dep = arrival;
    if (st->local_staging != nullptr) {
      if (hdr.bytes > st->frag_bytes)
        throw std::runtime_error("gpu plugin: fragment exceeds bounce");
      dep = sg::MemcpyAsync(p.gpu(), st->local_staging, data.data(),
                            static_cast<std::size_t>(hdr.bytes),
                            eng.pack_stream());
      src = st->local_staging;
    }
    st->last_ready =
        unpacked_exactly(eng.process_some(*st->op, src, hdr.bytes, dep),
                         hdr.bytes);
    st->bytes_done += hdr.bytes;
    PerRank& pr = per_rank(p);
    ++pr.stats.fragments;
    if (pr.tracing) {
      pr.trace.push_back(
          FragTrace{hdr.offset / std::max<std::int64_t>(1, st->frag_bytes),
                    arrival, arrival, st->last_ready});
    }
    // Arrival gaps were recorded by Pml::on_frag before dispatching here;
    // add the device-side unpack latency of this fragment.
    obs::observe(p.config().recorder, "gpu.frag.unpack_ns",
                 st->last_ready - arrival);
    obs::trace(p.config().recorder,
               {"host_frag_unpack", "gpu", arrival, st->last_ready, p.rank(),
                hdr.bytes, p.rank(), frag_flow_id});
  }

  if (hdr.last) {
    if (st->bytes_done != req.total_bytes)
      throw std::runtime_error("gpu plugin: fragment stream size mismatch");
    finish_recv(p, req, st->op.get(), st->last_ready);
    ++per_rank(p).stats.host_staged;
    p.pml().complete_recv(req);
  }
}

void GpuDatatypePlugin::recv_eager(mpi::Process& p, mpi::RecvRequest& req,
                                   std::span<const std::byte> data,
                                   vt::Time arrival) {
  Engine& eng = engine(p);
  auto op = eng.start(Engine::Dir::kUnpack, req.dt, req.count, req.buf);
  // Eager messages skip the rendezvous, so there is no RTS-carried
  // send_id to derive a cross-rank frag_flow from; the drain leaves the
  // unpack spans flow-less rather than fabricating a colliding id.
  req.total_bytes = static_cast<std::int64_t>(data.size());
  vt::Time last;
  {
    ScopedStagingRegistration staging(p.runtime().machine(), data.data(),
                                      data.size());
    last = drain(eng, *op, const_cast<std::byte*>(data.data()),
                 req.total_bytes, req.total_bytes, arrival, 0, 0);
  }
  finish_recv(p, req, op.get(), last);
  ++per_rank(p).stats.eager_unpacks;
  p.pml().complete_recv(req);
}

void GpuDatatypePlugin::recv_fin(mpi::Process& p, mpi::RecvRequest& req,
                                 vt::Time arrival) {
  auto* st = static_cast<RecvState*>(req.plugin.get());
  if (st == nullptr || st->mode != TransferMode::kStreamTriggered) return;
  // First host wakeup this transfer caused on the receiving rank since
  // the CTS: the chain driver already moved every byte and resolved
  // every kernel's virtual time through the triggered entry points.
  finish_recv(p, req, st->op.get(), std::max(arrival, st->last_ready));
  ++per_rank(p).stats.stream_triggered;
  obs::trace(p.config().recorder,
             {"stream_chain", "gpu", req.cts_sent, st->last_ready, p.rank(),
              st->bytes_done, p.rank(), 0});
}

}  // namespace gpuddt::proto
