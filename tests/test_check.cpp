// Tests for the checking layer (src/check/, docs/checking.md): the stream
// hazard detector over the simulated runtime, the DEV invariant checker at
// the engine boundary, and their wiring into machines, engines and the
// MPI runtime.
#include <gtest/gtest.h>

#include <cstring>
#include <vector>

#include "check/access_tracker.h"
#include "check/config.h"
#include "check/dev_invariants.h"
#include "core/engine.h"
#include "core/layouts.h"
#include "harness/harness.h"
#include "obs/recorder.h"
#include "simgpu/runtime.h"
#include "simgpu/staging.h"
#include "test_helpers.h"

namespace gpuddt {
namespace {

using core::CudaDevDist;
using Dir = core::GpuDatatypeEngine::Dir;

sg::MachineConfig checked_config(int devices = 1) {
  sg::MachineConfig m = test::machine_config(devices);
  m.check = 1;  // explicit per-machine setting beats GPUDDT_CHECK
  return m;
}

/// Snapshot of the global sink totals, for per-test deltas (the sink is
/// process-global and other tests contribute to it).
struct SinkDelta {
  std::int64_t hazards0 = check::hazard_count();
  std::int64_t violations0 = check::violation_count();
  std::int64_t hazards() const { return check::hazard_count() - hazards0; }
  std::int64_t violations() const {
    return check::violation_count() - violations0;
  }
};

// --- Enablement -------------------------------------------------------------

TEST(CheckConfig, MachineSettingWins) {
  sg::MachineConfig off = test::machine_config(1);
  off.check = 0;
  sg::Machine m_off(off);
  EXPECT_EQ(m_off.observer(), nullptr);

  sg::Machine m_on(checked_config());
  ASSERT_NE(m_on.observer(), nullptr);
  EXPECT_NE(check::tracker_of(m_on), nullptr);
}

TEST(CheckConfig, EnvOffWordsLeaveCheckerDetached) {
  test::ScopedEnv env("GPUDDT_CHECK");
  for (const char* off : {"OFF", "False", "no", "0"}) {
    env.set(off);
    sg::Machine m(test::machine_config(1));
    EXPECT_EQ(m.observer(), nullptr) << "GPUDDT_CHECK=" << off;
  }
  env.set("On");
  sg::Machine on(test::machine_config(1));
  EXPECT_NE(check::tracker_of(on), nullptr);
}

// --- Hazard detector --------------------------------------------------------

TEST(CheckHazard, UnorderedWritesAreWaw) {
  sg::Machine m(checked_config());
  sg::HostContext ctx(m, 0);
  const std::size_t bytes = 1 << 20;
  void* dev = sg::Malloc(ctx, bytes);
  std::vector<std::byte> h1(bytes), h2(bytes);
  sg::Stream s1(&m.device(0), "s1");
  sg::Stream s2(&m.device(0), "s2");

  const SinkDelta d;
  const auto n0 = check::diagnostics().size();
  sg::MemcpyAsync(ctx, dev, h1.data(), bytes, s1);
  // No event wait: the second upload is enqueued while the first may
  // still be in flight - a WAW on the device buffer.
  sg::MemcpyAsync(ctx, dev, h2.data(), bytes, s2);
  EXPECT_GE(d.hazards(), 1);

  const auto diags = check::diagnostics();
  ASSERT_GT(diags.size(), n0);
  const check::Diagnostic& diag = diags.back();
  EXPECT_EQ(diag.kind, "hazard");
  EXPECT_EQ(diag.type, "WAW");
  EXPECT_EQ(diag.device, 0);
  EXPECT_EQ(diag.a.queue, "s1");
  EXPECT_EQ(diag.b.queue, "s2");
  EXPECT_EQ(diag.a.label, "memcpy_async");
  EXPECT_EQ(diag.a.len, static_cast<std::int64_t>(bytes));
  EXPECT_EQ(diag.a.ptr, reinterpret_cast<std::uintptr_t>(dev));
  EXPECT_TRUE(diag.a.write);
  EXPECT_TRUE(diag.b.write);
  EXPECT_LT(diag.a.start, diag.b.finish);  // overlapping windows
  EXPECT_LT(diag.b.start, diag.a.finish);
  sg::Free(ctx, dev);
}

TEST(CheckHazard, RegisteredHostScratchExposesHiddenWaw) {
  // Two D2H copies from DISJOINT device buffers land in the SAME plain
  // (malloc'd) host vector with no ordering between their streams. The
  // only conflicting range is the host scratch, which the tracker skips
  // while unregistered - this WAW used to go undetected. Registering the
  // scratch (sg::ScopedStagingRegistration, what the protocol layers now
  // do for their staging) makes the same pair of copies a reported WAW.
  sg::Machine m(checked_config());
  sg::HostContext ctx(m, 0);
  const std::size_t bytes = 1 << 20;
  void* dev1 = sg::Malloc(ctx, bytes);
  void* dev2 = sg::Malloc(ctx, bytes);
  std::vector<std::byte> scratch(bytes);
  sg::Stream s1(&m.device(0), "s1");
  sg::Stream s2(&m.device(0), "s2");

  {
    const SinkDelta d;
    sg::MemcpyAsync(ctx, scratch.data(), dev1, bytes, s1);
    sg::MemcpyAsync(ctx, scratch.data(), dev2, bytes, s2);
    EXPECT_EQ(d.hazards(), 0);  // the historical blind spot
  }
  sg::StreamSynchronize(ctx, s1);
  sg::StreamSynchronize(ctx, s2);
  {
    sg::ScopedStagingRegistration reg(m, scratch.data(), scratch.size());
    const SinkDelta d;
    sg::MemcpyAsync(ctx, scratch.data(), dev1, bytes, s1);
    sg::MemcpyAsync(ctx, scratch.data(), dev2, bytes, s2);
    EXPECT_GE(d.hazards(), 1);
    // diagnostics() returns a snapshot by value; copy the entry so it
    // outlives the temporary vector.
    const check::Diagnostic diag = check::diagnostics().back();
    EXPECT_EQ(diag.type, "WAW");
    EXPECT_EQ(diag.a.ptr, reinterpret_cast<std::uintptr_t>(scratch.data()));
  }
  sg::Free(ctx, dev1);
  sg::Free(ctx, dev2);
}

TEST(CheckHazard, ReadAfterUnorderedWriteIsRaw) {
  sg::Machine m(checked_config());
  sg::HostContext ctx(m, 0);
  const std::size_t bytes = 1 << 20;
  void* dev = sg::Malloc(ctx, bytes);
  std::vector<std::byte> host(bytes);
  sg::Stream s1(&m.device(0), "writer");
  sg::Stream s2(&m.device(0), "reader");

  const SinkDelta d;
  sg::MemcpyAsync(ctx, dev, host.data(), bytes, s1);
  sg::MemcpyAsync(ctx, host.data(), dev, bytes, s2);  // missing wait
  EXPECT_GE(d.hazards(), 1);
  EXPECT_EQ(check::diagnostics().back().type, "RAW");
  sg::Free(ctx, dev);
}

TEST(CheckHazard, WriteAfterUnorderedReadIsWar) {
  sg::Machine m(checked_config());
  sg::HostContext ctx(m, 0);
  const std::size_t bytes = 1 << 20;
  void* dev = sg::Malloc(ctx, bytes);
  std::vector<std::byte> host(bytes);
  sg::Stream s1(&m.device(0), "reader");
  sg::Stream s2(&m.device(0), "writer");

  sg::MemcpyAsync(ctx, host.data(), dev, bytes, s1);  // read dev
  const SinkDelta d;
  sg::MemcpyAsync(ctx, dev, host.data(), bytes, s2);  // overwrite, no wait
  EXPECT_GE(d.hazards(), 1);
  EXPECT_EQ(check::diagnostics().back().type, "WAR");
  sg::Free(ctx, dev);
}

TEST(CheckHazard, EventWaitOrdersAccesses) {
  sg::Machine m(checked_config());
  sg::HostContext ctx(m, 0);
  const std::size_t bytes = 1 << 20;
  void* dev = sg::Malloc(ctx, bytes);
  std::vector<std::byte> host(bytes);
  sg::Stream s1(&m.device(0), "producer");
  sg::Stream s2(&m.device(0), "consumer");

  const SinkDelta d;
  sg::MemcpyAsync(ctx, dev, host.data(), bytes, s1);
  sg::StreamWaitEvent(ctx, s2, sg::EventRecord(ctx, s1));
  sg::MemcpyAsync(ctx, host.data(), dev, bytes, s2);
  EXPECT_EQ(d.hazards(), 0);
  sg::Free(ctx, dev);
}

TEST(CheckHazard, SameStreamIsOrdered) {
  sg::Machine m(checked_config());
  sg::HostContext ctx(m, 0);
  const std::size_t bytes = 1 << 20;
  void* dev = sg::Malloc(ctx, bytes);
  std::vector<std::byte> h1(bytes), h2(bytes);
  sg::Stream s(&m.device(0), "only");

  const SinkDelta d;
  sg::MemcpyAsync(ctx, dev, h1.data(), bytes, s);
  sg::MemcpyAsync(ctx, dev, h2.data(), bytes, s);
  sg::MemcpyAsync(ctx, h1.data(), dev, bytes, s);
  EXPECT_EQ(d.hazards(), 0);
  sg::Free(ctx, dev);
}

TEST(CheckHazard, DisjointRangesAreClean) {
  sg::Machine m(checked_config());
  sg::HostContext ctx(m, 0);
  const std::size_t bytes = 1 << 20;
  auto* dev = static_cast<std::byte*>(sg::Malloc(ctx, 2 * bytes));
  std::vector<std::byte> h1(bytes), h2(bytes);
  sg::Stream s1(&m.device(0), "a");
  sg::Stream s2(&m.device(0), "b");

  const SinkDelta d;
  sg::MemcpyAsync(ctx, dev, h1.data(), bytes, s1);
  sg::MemcpyAsync(ctx, dev + bytes, h2.data(), bytes, s2);  // disjoint halves
  EXPECT_EQ(d.hazards(), 0);
  sg::Free(ctx, dev);
}

TEST(CheckHazard, FreeDropsHistory) {
  sg::Machine m(checked_config());
  sg::HostContext ctx(m, 0);
  const std::size_t bytes = 1 << 20;
  std::vector<std::byte> host(bytes);
  sg::Stream s1(&m.device(0), "a");
  sg::Stream s2(&m.device(0), "b");

  const SinkDelta d;
  void* dev = sg::Malloc(ctx, bytes);
  sg::MemcpyAsync(ctx, dev, host.data(), bytes, s1);
  sg::Free(ctx, dev);
  // A fresh allocation can land at the same address; the old history must
  // not produce a false positive against it.
  void* dev2 = sg::Malloc(ctx, bytes);
  sg::MemcpyAsync(ctx, dev2, host.data(), bytes, s2);
  EXPECT_EQ(d.hazards(), 0);
  sg::Free(ctx, dev2);
}

TEST(CheckHazard, UnregisteredHostStagingIsInvisible) {
  // Two unordered D2H downloads into the SAME malloc'd staging buffer are
  // a WAW on the host side - but plain host memory is not keyed to any
  // allocation, so the tracker has nowhere to file the ranges. This is
  // the blind spot register_host_range closes (next test).
  sg::Machine m(checked_config());
  sg::HostContext ctx(m, 0);
  const std::size_t bytes = 1 << 20;
  void* dev = sg::Malloc(ctx, bytes);
  std::vector<std::byte> staging(bytes);
  sg::Stream s1(&m.device(0), "a");
  sg::Stream s2(&m.device(0), "b");

  const SinkDelta d;
  sg::MemcpyAsync(ctx, staging.data(), dev, bytes, s1);
  sg::MemcpyAsync(ctx, staging.data(), dev, bytes, s2);
  EXPECT_EQ(d.hazards(), 0);  // undetected: documents the gap
  sg::Free(ctx, dev);
}

TEST(CheckHazard, RegisteredHostStagingIsTracked) {
  // Same seeded WAW as above, with the staging registered the way the
  // protocol registers payload staging: now the hazard is caught.
  sg::Machine m(checked_config());
  sg::HostContext ctx(m, 0);
  const std::size_t bytes = 1 << 20;
  void* dev = sg::Malloc(ctx, bytes);
  std::vector<std::byte> staging(bytes);
  sg::Stream s1(&m.device(0), "a");
  sg::Stream s2(&m.device(0), "b");

  m.register_host_range(staging.data(), bytes);
  const SinkDelta d;
  const auto n0 = check::diagnostics().size();
  sg::MemcpyAsync(ctx, staging.data(), dev, bytes, s1);
  sg::MemcpyAsync(ctx, staging.data(), dev, bytes, s2);
  EXPECT_GE(d.hazards(), 1);
  const auto diags = check::diagnostics();
  ASSERT_GT(diags.size(), n0);
  EXPECT_EQ(diags.back().type, "WAW");

  // Unregistering drops the history: a reuse of the same addresses as a
  // new logical buffer must not alias the old accesses.
  m.unregister_host_range(staging.data());
  const SinkDelta d2;
  m.register_host_range(staging.data(), bytes);
  sg::MemcpyAsync(ctx, staging.data(), dev, bytes, s2);
  EXPECT_EQ(d2.hazards(), 0);
  m.unregister_host_range(staging.data());
  EXPECT_THROW(m.unregister_host_range(staging.data()),
               std::invalid_argument);
  sg::Free(ctx, dev);
}

TEST(CheckHazard, CountersReachRecorder) {
  sg::Machine m(checked_config());
  check::set_recorder(m, &obs::default_recorder());
  sg::HostContext ctx(m, 0);
  const std::size_t bytes = 1 << 20;
  void* dev = sg::Malloc(ctx, bytes);
  std::vector<std::byte> h1(bytes), h2(bytes);
  sg::Stream s1(&m.device(0), "r1");
  sg::Stream s2(&m.device(0), "r2");

  auto& reg = obs::default_recorder().metrics();
  const std::int64_t ops0 = reg.counter("check.ops").value();
  const std::int64_t haz0 = reg.counter("check.hazards").value();
  sg::MemcpyAsync(ctx, dev, h1.data(), bytes, s1);
  sg::MemcpyAsync(ctx, dev, h2.data(), bytes, s2);
  EXPECT_GE(reg.counter("check.ops").value(), ops0 + 2);
  EXPECT_GE(reg.counter("check.hazards").value(), haz0 + 1);
  check::set_recorder(m, nullptr);
  sg::Free(ctx, dev);
}

// --- Engine under checking --------------------------------------------------

void roundtrip(sg::HostContext& ctx, core::GpuDatatypeEngine& eng,
               const mpi::DatatypePtr& dt, std::int64_t count,
               std::int64_t frag_bytes) {
  const std::int64_t total = dt->size() * count;
  const std::int64_t span = test::span_bytes(dt, count);
  auto* src = static_cast<std::byte*>(sg::Malloc(ctx, span));
  auto* packed = static_cast<std::byte*>(sg::Malloc(ctx, total));
  auto* back = static_cast<std::byte*>(sg::Malloc(ctx, span));
  test::fill_pattern(src, static_cast<std::size_t>(span), 5);
  std::byte* src_base = src - dt->true_lb();
  std::byte* back_base = back - dt->true_lb();

  auto pack = eng.start(Dir::kPack, dt, count, src_base);
  while (!pack->done()) {
    if (eng.process_some(*pack, packed + pack->bytes_done(), frag_bytes)
            .bytes == 0)
      break;
  }
  eng.finish(*pack);
  auto unpack = eng.start(Dir::kUnpack, dt, count, back_base);
  while (!unpack->done()) {
    if (eng.process_some(*unpack, packed + unpack->bytes_done(), frag_bytes)
            .bytes == 0)
      break;
  }
  eng.finish(*unpack);
  eng.synchronize();
  EXPECT_EQ(test::reference_pack(dt, count, back_base),
            test::reference_pack(dt, count, src_base));
  sg::Free(ctx, src);
  sg::Free(ctx, packed);
  sg::Free(ctx, back);
}

TEST(CheckEngine, PipelinedConversionRunsClean) {
  sg::Machine m(checked_config());
  sg::HostContext ctx(m, 0);
  core::EngineConfig cfg;
  cfg.unit_bytes = 1024;
  cfg.convert_chunk_units = 16;  // many small upload/launch windows
  core::GpuDatatypeEngine eng(ctx, cfg);

  const SinkDelta d;
  roundtrip(ctx, eng, core::lower_triangular_type(96, 96), 1, 8 * 1024);
  EXPECT_EQ(d.hazards(), 0);
  EXPECT_EQ(d.violations(), 0);
  EXPECT_GT(eng.stats().kernels_launched, 2);
}

TEST(CheckEngine, ResidueStreamRunsClean) {
  sg::Machine m(checked_config());
  sg::HostContext ctx(m, 0);
  core::EngineConfig cfg;
  cfg.unit_bytes = 1024;
  cfg.convert_chunk_units = 16;
  cfg.residue_separate_stream = true;
  core::GpuDatatypeEngine eng(ctx, cfg);

  const SinkDelta d;
  roundtrip(ctx, eng, core::lower_triangular_type(96, 96), 1, 8 * 1024);
  EXPECT_EQ(d.hazards(), 0);
  EXPECT_EQ(d.violations(), 0);
}

TEST(CheckEngine, CachedPathRunsCleanAndCountsDistinctUnits) {
  sg::Machine m(checked_config());
  sg::HostContext ctx(m, 0);
  core::EngineConfig cfg;
  cfg.unit_bytes = 1024;
  core::GpuDatatypeEngine eng(ctx, cfg);
  auto dt = core::lower_triangular_type(64, 64);

  const SinkDelta d;
  roundtrip(ctx, eng, dt, 1, 64 * 1024);  // first run fills the cache
  const auto* entry = eng.cache().find(dt, 1, cfg.unit_bytes);
  ASSERT_NE(entry, nullptr);
  const auto n_units = static_cast<std::int64_t>(entry->units.size());

  // Second run is served from the cache, with a budget of half a unit so
  // every unit is split across two windows: the per-window counter sees
  // each unit about twice, the distinct counter exactly once.
  const std::int64_t from_cache0 = eng.stats().units_from_cache;
  const std::int64_t distinct0 = eng.stats().units_from_cache_distinct;
  const std::int64_t total = dt->size();
  auto* src = static_cast<std::byte*>(
      sg::Malloc(ctx, test::span_bytes(dt, 1)));
  auto* packed = static_cast<std::byte*>(sg::Malloc(ctx, total));
  auto op = eng.start(Dir::kPack, dt, 1, src - dt->true_lb());
  ASSERT_TRUE(op->used_cache());
  while (!op->done()) {
    if (eng.process_some(*op, packed + op->bytes_done(), 512).bytes == 0)
      break;
  }
  eng.finish(*op);
  eng.synchronize();

  const std::int64_t from_cache = eng.stats().units_from_cache - from_cache0;
  const std::int64_t distinct =
      eng.stats().units_from_cache_distinct - distinct0;
  EXPECT_EQ(distinct, n_units);
  EXPECT_GT(from_cache, distinct);
  EXPECT_EQ(d.hazards(), 0);
  EXPECT_EQ(d.violations(), 0);
  sg::Free(ctx, src);
  sg::Free(ctx, packed);
}

TEST(CheckEngine, PingPongRunsClean) {
  harness::PingPongSpec spec;
  spec.cfg.world_size = 2;
  spec.cfg.machine = checked_config(2);
  spec.cfg.machine.device_memory_bytes = std::size_t{1} << 30;
  spec.dt0 = spec.dt1 = core::lower_triangular_type(256, 256);

  const SinkDelta d;
  const auto res = harness::run_pingpong(spec);
  EXPECT_GT(res.avg_roundtrip, 0);
  EXPECT_EQ(d.hazards(), 0);
  EXPECT_EQ(d.violations(), 0);
}

// --- DEV invariant checker --------------------------------------------------

TEST(CheckInvariants, OutOfBoundsUnitThrows) {
  const check::DevListBounds b{0, 1000, 2048, 1024};
  const CudaDevDist bad[] = {{950, 0, 100}};  // nc end 1050 > 1000
  const SinkDelta d;
  EXPECT_THROW(
      check::validate_dev_window(bad, b, 0, /*contiguous=*/false, "test"),
      check::InvariantViolation);
  EXPECT_EQ(d.violations(), 1);
  EXPECT_EQ(check::diagnostics().back().kind, "dev_invariant");
  EXPECT_EQ(check::diagnostics().back().type, "nc_bounds");
  EXPECT_EQ(check::diagnostics().back().unit_index, 0);
}

TEST(CheckInvariants, BadUnitLengthThrows) {
  const check::DevListBounds b{0, 4096, 4096, 1024};
  const CudaDevDist zero[] = {{0, 0, 0}};
  const CudaDevDist oversize[] = {{0, 0, 2048}};
  EXPECT_THROW(check::validate_dev_window(zero, b, 0, false, "test"),
               check::InvariantViolation);
  EXPECT_THROW(check::validate_dev_window(oversize, b, 0, false, "test"),
               check::InvariantViolation);
}

TEST(CheckInvariants, OverlappingPackDestinationsThrow) {
  const check::DevListBounds b{0, 8192, 2048, 1024};
  // Two units whose packed destinations collide on [512, 1024).
  const CudaDevDist bad[] = {{0, 0, 1024}, {4096, 512, 1024}};
  const SinkDelta d;
  EXPECT_THROW(
      check::validate_dev_window(bad, b, 0, /*contiguous=*/false, "test"),
      check::InvariantViolation);
  EXPECT_EQ(d.violations(), 1);
  EXPECT_EQ(check::diagnostics().back().type, "pk_overlap");
}

TEST(CheckInvariants, NonContiguousWindowThrows) {
  const check::DevListBounds b{0, 8192, 4096, 1024};
  // Valid pairwise, but the window must start at pk_expected=0 and be
  // gap-free; this one jumps 512 bytes.
  const CudaDevDist bad[] = {{0, 0, 1024}, {4096, 1536, 1024}};
  EXPECT_THROW(
      check::validate_dev_window(bad, b, 0, /*contiguous=*/true, "test"),
      check::InvariantViolation);
}

TEST(CheckInvariants, FullListCoverageChecked) {
  const check::DevListBounds b{0, 2048, 2048, 1024};
  const CudaDevDist good[] = {{0, 0, 1024}, {1024, 1024, 1024}};
  EXPECT_NO_THROW(check::validate_dev_list(good, b, "test"));
  // Same list with a missing tail no longer covers [0, total_bytes).
  const CudaDevDist gap[] = {{0, 0, 1024}};
  EXPECT_THROW(check::validate_dev_list(gap, b, "test"),
               check::InvariantViolation);
}

TEST(CheckInvariants, CacheInsertValidates) {
  sg::Machine m(test::machine_config(1));
  sg::HostContext ctx(m, 0);
  core::DevCache cache;
  cache.set_validation(true);
  auto dt = core::lower_triangular_type(16, 16);
  auto units = core::convert_all(dt, 1, 1024);
  ASSERT_FALSE(units.empty());
  units.front().nc_disp = dt->true_extent() + 4096;  // corrupt: out of bounds
  EXPECT_THROW(cache.insert(ctx, dt, 1, 1024, std::move(units)),
               check::InvariantViolation);
}

TEST(CheckInvariants, EngineValidatesWindowsWithoutFalsePositives) {
  // The whole-suite guarantee in miniature: a checked engine validates
  // every window of a real conversion without tripping.
  sg::Machine m(checked_config());
  sg::HostContext ctx(m, 0);
  core::EngineConfig cfg;
  cfg.unit_bytes = 1024;
  core::GpuDatatypeEngine eng(ctx, cfg);
  const SinkDelta d;
  roundtrip(ctx, eng, core::submatrix_type(64, 32, 96), 1, 4 * 1024);
  roundtrip(ctx, eng, core::lower_triangular_type(48, 48), 2, 4 * 1024);
  EXPECT_EQ(d.violations(), 0);
}

// --- Report serialization ---------------------------------------------------

TEST(CheckReport, JsonCarriesTotalsAndDiagnostics) {
  sg::Machine m(checked_config());
  sg::HostContext ctx(m, 0);
  const std::size_t bytes = 1 << 20;
  void* dev = sg::Malloc(ctx, bytes);
  std::vector<std::byte> host(bytes);
  sg::Stream s1(&m.device(0), "jsa");
  sg::Stream s2(&m.device(0), "jsb");
  sg::MemcpyAsync(ctx, dev, host.data(), bytes, s1);
  sg::MemcpyAsync(ctx, dev, host.data(), bytes, s2);
  sg::Free(ctx, dev);

  const std::string json = check::report_json();
  EXPECT_NE(json.find("\"schema\": \"gpuddt-check-v1\""), std::string::npos);
  EXPECT_NE(json.find("\"hazards\""), std::string::npos);
  EXPECT_NE(json.find("\"dev_violations\""), std::string::npos);
  EXPECT_NE(json.find("\"WAW\""), std::string::npos);
  EXPECT_NE(json.find("jsa"), std::string::npos);
}

}  // namespace
}  // namespace gpuddt
