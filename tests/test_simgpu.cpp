#include <gtest/gtest.h>
#include <sys/mman.h>
#include <sys/resource.h>
#include <unistd.h>

#include <cstdio>
#include <cstring>
#include <fstream>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "simgpu/arena.h"
#include "simgpu/machine.h"
#include "simgpu/runtime.h"
#include "simgpu/stream.h"
#include "test_helpers.h"

namespace gpuddt::sg {
namespace {

// --- Arena ---------------------------------------------------------------------

TEST(Arena, AllocateReturnsAlignedPointers) {
  Arena a(1 << 20);
  void* p = a.allocate(100);
  EXPECT_EQ(reinterpret_cast<std::uintptr_t>(p) % Arena::kAlign, 0u);
  void* q = a.allocate(100);
  EXPECT_NE(p, q);
}

TEST(Arena, ContainsDetectsOwnership) {
  Arena a(1 << 16);
  std::byte* p = a.allocate(64);
  EXPECT_TRUE(a.contains(p));
  EXPECT_TRUE(a.contains(p + 63));
  int x;
  EXPECT_FALSE(a.contains(&x));
}

TEST(Arena, FreeingCoalescesNeighbors) {
  Arena a(4096);
  // Fill the arena, free everything, and re-allocate the full size.
  std::byte* p1 = a.allocate(1024);
  std::byte* p2 = a.allocate(1024);
  std::byte* p3 = a.allocate(1024);
  a.deallocate(p2);
  a.deallocate(p1);
  a.deallocate(p3);
  EXPECT_EQ(a.bytes_in_use(), 0u);
  EXPECT_NO_THROW(a.allocate(4096));
}

TEST(Arena, ExhaustionThrowsBadAlloc) {
  Arena a(4096);
  a.allocate(4096);
  EXPECT_THROW(a.allocate(1), std::bad_alloc);
}

TEST(Arena, DoubleFreeThrows) {
  Arena a(4096);
  std::byte* p = a.allocate(64);
  a.deallocate(p);
  EXPECT_THROW(a.deallocate(p), std::invalid_argument);
}

TEST(Arena, AllocationSizeTracksRoundedSize) {
  Arena a(1 << 16);
  std::byte* p = a.allocate(100);
  EXPECT_GE(a.allocation_size(p), 100u);
  EXPECT_EQ(a.allocation_size(p + 1), 0u);  // interior pointer
}

/// True when the kernel offers transparent huge pages to madvise callers.
bool thp_available() {
  std::ifstream f("/sys/kernel/mm/transparent_hugepage/enabled");
  std::string mode;
  return std::getline(f, mode) && mode.find("[never]") == std::string::npos;
}

/// Whether the mapping holding `p` carries the MADV_HUGEPAGE flag ("hg" in
/// its /proc/self/smaps VmFlags line).
bool huge_page_advised(const void* p) {
  std::ifstream smaps("/proc/self/smaps");
  const auto addr = reinterpret_cast<std::uintptr_t>(p);
  bool inside = false;
  std::string line;
  while (std::getline(smaps, line)) {
    unsigned long lo = 0, hi = 0;
    if (std::sscanf(line.c_str(), "%lx-%lx ", &lo, &hi) == 2) {
      inside = addr >= lo && addr < hi;
    } else if (inside && line.rfind("VmFlags:", 0) == 0) {
      return (line + " ").find(" hg ") != std::string::npos;
    }
  }
  return false;
}

/// Number of VMAs of /proc/self/maps overlapping [p, p + n).
int vmas_overlapping(const void* p, std::size_t n) {
  std::ifstream maps("/proc/self/maps");
  const auto lo = reinterpret_cast<std::uintptr_t>(p);
  int count = 0;
  std::string line;
  while (std::getline(maps, line)) {
    unsigned long a = 0, b = 0;
    if (std::sscanf(line.c_str(), "%lx-%lx ", &a, &b) == 2 && a < lo + n &&
        b > lo)
      ++count;
  }
  return count;
}

TEST(Arena, AdvisesHugePagesOnWholeInteriorPagesOnly) {
  if (!thp_available()) GTEST_SKIP() << "transparent huge pages unavailable";
  // A capacity no other test uses, so the recycled mapping below is this
  // arena's own.
  constexpr std::size_t kCap = (64 << 20) + 3 * Arena::kAlign;
  auto a = std::make_unique<Arena>(kCap);
  std::byte* small = a->allocate(640 << 10);  // the arena head
  std::byte* big = a->allocate(4 << 20);
  const auto hp = static_cast<std::uintptr_t>(Arena::kHugePage);
  const auto lo = (reinterpret_cast<std::uintptr_t>(big) + hp - 1) / hp * hp;
  const auto hi = (reinterpret_cast<std::uintptr_t>(big) + (4 << 20)) / hp * hp;
  ASSERT_GT(hi, lo);  // 4 MiB always holds at least one whole 2 MiB page
  for (auto p = lo; p < hi; p += hp) {
    EXPECT_TRUE(huge_page_advised(reinterpret_cast<void*>(p)));
    EXPECT_TRUE(huge_page_advised(reinterpret_cast<void*>(p + hp - 1)));
  }
  // Partial pages at either end of the block stay on 4 KiB faults.
  EXPECT_FALSE(huge_page_advised(reinterpret_cast<void*>(lo - 1)));
  EXPECT_FALSE(huge_page_advised(reinterpret_cast<void*>(hi)));
  EXPECT_FALSE(huge_page_advised(a->base()));
  EXPECT_FALSE(huge_page_advised(small + (640 << 10) - 1));
  std::byte* small2 = a->allocate(640 << 10);
  EXPECT_FALSE(huge_page_advised(small2));
  EXPECT_FALSE(huge_page_advised(small2 + (640 << 10) - 1));

  // Recycled: the last tenant's advice does not reach the next tenant's
  // small buffers, and the mapping is one VMA again.
  std::byte* base = a->base();
  a.reset();
  Arena b(kCap);
  ASSERT_EQ(b.base(), base);
  EXPECT_EQ(vmas_overlapping(base, kCap), 1);
  std::vector<std::byte*> smalls;
  for (int i = 0; i < 8; ++i) smalls.push_back(b.allocate(640 << 10));
  ASSERT_GT(smalls.back() + (640 << 10), big + (4 << 20));  // covers `big`
  for (auto p = lo; p < hi; p += hp) {
    EXPECT_FALSE(huge_page_advised(reinterpret_cast<void*>(p)));
    EXPECT_FALSE(huge_page_advised(reinterpret_cast<void*>(p + hp - 1)));
  }
  // A large block of the new tenant is advised as on a fresh mapping.
  std::byte* big2 = b.allocate(4 << 20);
  const auto lo2 = (reinterpret_cast<std::uintptr_t>(big2) + hp - 1) / hp * hp;
  const auto hi2 =
      (reinterpret_cast<std::uintptr_t>(big2) + (4 << 20)) / hp * hp;
  ASSERT_GT(hi2, lo2);
  for (auto p = lo2; p < hi2; p += hp)
    EXPECT_TRUE(huge_page_advised(reinterpret_cast<void*>(p)));
  EXPECT_FALSE(huge_page_advised(reinterpret_cast<void*>(lo2 - 1)));
  EXPECT_FALSE(huge_page_advised(reinterpret_cast<void*>(hi2)));
}

// --- Mapping pool ----------------------------------------------------------------

/// Minor page faults this process has taken so far.
long minor_faults() {
  rusage u{};
  getrusage(RUSAGE_SELF, &u);
  return u.ru_minflt;
}

/// Bytes of [p, p + n) the kernel holds in memory (mincore).
std::size_t resident_bytes(const std::byte* p, std::size_t n) {
  const auto page = static_cast<std::size_t>(sysconf(_SC_PAGESIZE));
  std::vector<unsigned char> in((n + page - 1) / page);
  if (mincore(const_cast<std::byte*>(p), n, in.data()) != 0) return n;
  std::size_t pages = 0;
  for (unsigned char c : in) pages += c & 1;
  return pages * page;
}

TEST(Arena, RecycledMappingKeepsBaseAndPages) {
  constexpr std::size_t kCap = (40 << 20) + 7 * Arena::kAlign;  // unshared
  constexpr std::size_t kTouch = 8 << 20;
  std::byte* base = nullptr;
  long fresh = 0;
  {
    Arena a(kCap);
    base = a.base();
    std::byte* p = a.allocate(kTouch);
    const long f0 = minor_faults();
    std::memset(p, 1, kTouch);
    fresh = minor_faults() - f0;
  }
  EXPECT_GE(pool::resident(base), kTouch);
  Arena b(kCap);
  ASSERT_EQ(b.base(), base);
  std::byte* p = b.allocate(kTouch);
  ASSERT_EQ(p, base);
  const long f0 = minor_faults();
  std::memset(p, 2, kTouch);
  const long recycled = minor_faults() - f0;
  // Fresh pages take at least one fault per 2 MiB; recycled ones none.
  EXPECT_GE(fresh, 4);
  EXPECT_LE(recycled, 1);
}

TEST(Arena, GrowthTakesItsPagesFromIdleTails) {
  constexpr std::size_t kCapA = (48 << 20) + 11 * Arena::kAlign;  // unshared
  constexpr std::size_t kCapB = (24 << 20) + 13 * Arena::kAlign;
  constexpr std::size_t kTouch = 16 << 20;
  auto first = std::make_unique<Arena>(kCapA);
  std::memset(first->allocate(kTouch), 1, kTouch);
  first.reset();
  // The next tenant is live but has allocated nothing: all 16 MiB of its
  // mapping are an idle tail.
  Arena live(kCapA);
  EXPECT_GE(pool::resident(live.base()), kTouch);
  const std::size_t before = pool::total_resident();

  Arena grower(kCapB);
  std::memset(grower.allocate(8 << 20), 2, 8 << 20);
  EXPECT_EQ(pool::resident(grower.base()), std::size_t{8} << 20);
  EXPECT_LE(pool::total_resident(), before);
  // The pool's figure bounds what the kernel holds: released tails are
  // really dropped, including the live tenant's.
  EXPECT_LE(resident_bytes(live.base(), live.capacity()),
            pool::resident(live.base()));
  EXPECT_LE(resident_bytes(grower.base(), grower.capacity()),
            pool::resident(grower.base()));

  // Allocations into holes below the high-water need no new pages.
  std::byte* q = live.allocate(4 << 20);
  const std::size_t live_resident = pool::resident(live.base());
  live.deallocate(q);
  std::memset(live.allocate(2 << 20), 3, 2 << 20);
  EXPECT_EQ(pool::resident(live.base()), live_resident);
}

TEST(Arena, AllocationSpanResolvesInteriorPointers) {
  Arena a(8 << 20);
  std::byte* p = a.allocate(100);
  std::byte* q = a.allocate(3 << 20);
  const auto span = a.allocation_span(q + 12345);
  EXPECT_EQ(span.first, q);
  EXPECT_EQ(span.second, std::size_t{3} << 20);
  EXPECT_EQ(a.allocation_span(p + 99).first, p);
  a.deallocate(q);
  EXPECT_EQ(a.allocation_span(q + 12345).first, nullptr);
  EXPECT_EQ(a.allocation_span(a.base() + (7 << 20)).first, nullptr);
}

TEST(Arena, FreedLargeBlockCoalescesAndIsReused) {
  Arena a(16 << 20);
  std::byte* p1 = a.allocate(4 << 20);
  std::byte* p2 = a.allocate(4 << 20);
  std::byte* p3 = a.allocate(4 << 20);
  a.deallocate(p1);
  a.deallocate(p2);
  // First fit: the coalesced 8 MiB hole at the head serves the next
  // request before the tail does.
  EXPECT_EQ(a.allocate(6 << 20), p1);
  EXPECT_TRUE(a.contains(p3 + (4 << 20) - 1));
  EXPECT_FALSE(a.contains(a.base() + (16 << 20)));
}

// --- Machine / registry ----------------------------------------------------------

TEST(Machine, ClassifiesDevicePointersPerDevice) {
  Machine m(test::machine_config(2));
  HostContext c0(m, 0), c1(m, 1);
  void* d0 = Malloc(c0, 256);
  void* d1 = Malloc(c1, 256);
  EXPECT_EQ(m.query(d0).space, MemorySpace::kDevice);
  EXPECT_EQ(m.query(d0).device, 0);
  EXPECT_EQ(m.query(d1).device, 1);
}

TEST(Machine, ClassifiesHostAllocations) {
  Machine m;
  HostContext c(m, 0);
  void* pinned = HostAlloc(c, 128, false);
  void* mapped = HostAlloc(c, 128, true);
  int stack_var = 0;
  EXPECT_EQ(m.query(pinned).space, MemorySpace::kPinnedHost);
  EXPECT_EQ(m.query(mapped).space, MemorySpace::kMappedHost);
  EXPECT_EQ(m.query(&stack_var).space, MemorySpace::kUnregisteredHost);
  HostFree(c, pinned);
  HostFree(c, mapped);
}

TEST(Machine, InteriorHostPointerResolves) {
  Machine m;
  HostContext c(m, 0);
  auto* p = static_cast<std::byte*>(HostAlloc(c, 128, true));
  EXPECT_EQ(m.query(p + 64).space, MemorySpace::kMappedHost);
  EXPECT_EQ(m.query(p + 128).space, MemorySpace::kUnregisteredHost);
  HostFree(c, p);
}

TEST(Machine, FreeRejectsNonDevicePointer) {
  Machine m;
  HostContext c(m, 0);
  int x;
  EXPECT_THROW(Free(c, &x), std::invalid_argument);
}

// --- Copies: functional + timing --------------------------------------------------

class CopyTest : public ::testing::Test {
 protected:
  Machine m{test::machine_config(2)};
  HostContext ctx{m, 0};
};

TEST_F(CopyTest, H2DandD2HRoundTripBytes) {
  std::vector<std::byte> host(4096);
  test::fill_pattern(host.data(), host.size(), 1);
  void* dev = Malloc(ctx, 4096);
  Memcpy(ctx, dev, host.data(), 4096);
  std::vector<std::byte> back(4096);
  Memcpy(ctx, back.data(), dev, 4096);
  EXPECT_EQ(std::memcmp(host.data(), back.data(), 4096), 0);
}

TEST_F(CopyTest, H2DCostsPcieTime) {
  std::vector<std::byte> host(1 << 20);
  void* dev = Malloc(ctx, 1 << 20);
  const vt::Time t0 = ctx.clock.now();
  Memcpy(ctx, dev, host.data(), 1 << 20);
  const vt::Time dt = ctx.clock.now() - t0;
  const vt::Time expected = vt::transfer_time(1 << 20, ctx.cost().pcie_h2d_gbps);
  EXPECT_GT(dt, expected);  // overheads included
  EXPECT_LT(dt, expected + vt::usec(30));
}

TEST_F(CopyTest, D2DUsesFullDeviceBandwidth) {
  void* a = Malloc(ctx, 1 << 20);
  void* b = Malloc(ctx, 1 << 20);
  const vt::Time t0 = ctx.clock.now();
  Memcpy(ctx, b, a, 1 << 20);
  const vt::Time d2d = ctx.clock.now() - t0;
  // D2D is far faster than the PCI-E copy of the same size.
  EXPECT_LT(d2d, vt::transfer_time(1 << 20, ctx.cost().pcie_h2d_gbps));
}

TEST_F(CopyTest, PeerCopyReservesBothPcieLinks) {
  HostContext ctx1(m, 1);
  void* a = Malloc(ctx, 1 << 20);
  void* b = Malloc(ctx1, 1 << 20);
  Memcpy(ctx, b, a, 1 << 20);  // peer d2d
  EXPECT_GT(m.device(0).pcie().total_busy(), 0);
  EXPECT_GT(m.device(1).pcie().total_busy(), 0);
}

TEST_F(CopyTest, HostToHostAdvancesOnlyCpuTime) {
  std::vector<std::byte> a(1 << 20), b(1 << 20);
  const vt::Time t0 = ctx.clock.now();
  Memcpy(ctx, b.data(), a.data(), 1 << 20);
  EXPECT_EQ(ctx.clock.now() - t0,
            ctx.cost().cpu_copy_ns(1 << 20));
  EXPECT_EQ(m.device(0).pcie().total_busy(), 0);
}

TEST_F(CopyTest, ZeroByteCopyIsFree) {
  void* dev = Malloc(ctx, 64);
  const vt::Time t0 = ctx.clock.now();
  Memcpy(ctx, dev, dev, 0);
  EXPECT_EQ(ctx.clock.now(), t0);
}

TEST_F(CopyTest, MemsetFillsDeviceMemory) {
  auto* dev = static_cast<std::byte*>(Malloc(ctx, 256));
  Memset(ctx, dev, 0xAB, 256);
  for (int i = 0; i < 256; ++i)
    EXPECT_EQ(std::to_integer<int>(dev[i]), 0xAB);
}

// --- Memcpy2D ----------------------------------------------------------------------

TEST_F(CopyTest, Memcpy2DMovesRowsFunctionally) {
  const std::size_t spitch = 64, dpitch = 32, width = 32, rows = 8;
  std::vector<std::byte> src(spitch * rows), dst(dpitch * rows);
  test::fill_pattern(src.data(), src.size(), 3);
  Memcpy2D(ctx, dst.data(), dpitch, src.data(), spitch, width, rows);
  for (std::size_t r = 0; r < rows; ++r)
    EXPECT_EQ(std::memcmp(dst.data() + r * dpitch, src.data() + r * spitch,
                          width),
              0);
}

TEST_F(CopyTest, Memcpy2DRejectsWidthBeyondPitch) {
  std::vector<std::byte> a(1024), b(1024);
  EXPECT_THROW(Memcpy2D(ctx, a.data(), 16, b.data(), 64, 32, 4),
               std::invalid_argument);
}

TEST_F(CopyTest, Memcpy2DMisalignedWidthIsSlower) {
  // Same total payload; 64B-multiple rows vs. off-granule rows.
  const std::size_t rows = 1024;
  void* dev = Malloc(ctx, 256 * rows);
  std::vector<std::byte> host(256 * rows);
  HostContext c1(m, 0);
  const vt::Time t0 = c1.clock.now();
  Memcpy2D(c1, host.data(), 256, dev, 256, 128, rows);
  const vt::Time aligned = c1.clock.now() - t0;
  const vt::Time t1 = c1.clock.now();
  Memcpy2D(c1, host.data(), 256, dev, 256, 120, rows);
  const vt::Time misaligned = c1.clock.now() - t1;
  EXPECT_GT(misaligned, aligned);
}

// --- Streams, events, kernels --------------------------------------------------------

TEST_F(CopyTest, StreamOperationsSerializeInVirtualTime) {
  Stream s(&m.device(0));
  void* a = Malloc(ctx, 1 << 20);
  void* b = Malloc(ctx, 1 << 20);
  std::vector<std::byte> h(1 << 20);
  const vt::Time f1 = MemcpyAsync(ctx, a, h.data(), 1 << 20, s);
  const vt::Time f2 = MemcpyAsync(ctx, b, h.data(), 1 << 20, s);
  EXPECT_GT(f2, f1);
  EXPECT_EQ(s.tail(), f2);
}

TEST_F(CopyTest, StreamSynchronizeAdvancesHostClock) {
  Stream s(&m.device(0));
  void* a = Malloc(ctx, 1 << 20);
  std::vector<std::byte> h(1 << 20);
  const vt::Time f = MemcpyAsync(ctx, a, h.data(), 1 << 20, s);
  EXPECT_LT(ctx.clock.now(), f);  // async: host ran ahead
  StreamSynchronize(ctx, s);
  EXPECT_GE(ctx.clock.now(), f);
}

TEST_F(CopyTest, EventsOrderStreams) {
  Stream s1(&m.device(0)), s2(&m.device(0));
  void* a = Malloc(ctx, 1 << 20);
  std::vector<std::byte> h(1 << 20);
  MemcpyAsync(ctx, a, h.data(), 1 << 20, s1);
  const Event e = EventRecord(ctx, s1);
  StreamWaitEvent(ctx, s2, e);
  const vt::Time f2 = MemcpyAsync(ctx, a, h.data(), 1 << 20, s2);
  EXPECT_GE(f2, e.timestamp);
}

TEST_F(CopyTest, KernelBodyRunsAndProfileSetsDuration) {
  Stream s(&m.device(0));
  bool ran = false;
  KernelProfile prof;
  prof.device_txn_bytes = 1 << 20;
  prof.blocks = 64;
  const vt::Time finish = LaunchKernel(ctx, s, prof, [&] { ran = true; });
  EXPECT_TRUE(ran);
  EXPECT_GE(finish - ctx.clock.now(),
            ctx.cost().kernel_launch_ns / 2);
}

TEST_F(CopyTest, NarrowKernelIsComputeBound) {
  const CostModel& cm = ctx.cost();
  KernelProfile narrow;
  narrow.device_txn_bytes = 100 << 20;
  narrow.blocks = 1;
  KernelProfile wide = narrow;
  wide.blocks = 15;
  const vt::Time t_narrow = KernelDuration(cm, narrow, 15);
  const vt::Time t_wide = KernelDuration(cm, wide, 15);
  EXPECT_GT(t_narrow, 3 * t_wide);
}

TEST_F(CopyTest, ConcurrentKernelsContendForSms) {
  Stream s1(&m.device(0)), s2(&m.device(0));
  KernelProfile big;
  big.device_txn_bytes = 100 << 20;
  big.blocks = 64;  // full width
  const vt::Time f1 = LaunchKernel(ctx, s1, big, [] {});
  const vt::Time f2 = LaunchKernel(ctx, s2, big, [] {});
  // Full-width kernels cannot overlap: the second queues behind the first.
  EXPECT_GE(f2, f1);
}

TEST_F(CopyTest, ZeroCopyKernelHoldsPcieLink) {
  Stream s(&m.device(0));
  KernelProfile prof;
  prof.device_txn_bytes = 1 << 20;
  prof.pcie_bytes = 1 << 20;
  prof.pcie_dir = PcieDir::kToHost;
  prof.blocks = 15;
  LaunchKernel(ctx, s, prof, [] {});
  EXPECT_GT(m.device(0).pcie().total_busy(), 0);
}

// --- IPC --------------------------------------------------------------------------------

TEST_F(CopyTest, IpcHandleRoundTripsAcrossContexts) {
  auto* dev = static_cast<std::byte*>(Malloc(ctx, 512));
  test::fill_pattern(dev, 512, 9);
  const IpcMemHandle h = IpcGetMemHandle(ctx, dev);
  HostContext peer(m, 1);
  auto* mapped = static_cast<std::byte*>(IpcOpenMemHandle(peer, h));
  EXPECT_EQ(mapped, dev);  // same simulated address space
  EXPECT_EQ(std::memcmp(mapped, dev, 512), 0);
}

TEST_F(CopyTest, IpcOpenCostsTime) {
  void* dev = Malloc(ctx, 64);
  const IpcMemHandle h = IpcGetMemHandle(ctx, dev);
  HostContext peer(m, 1);
  const vt::Time t0 = peer.clock.now();
  IpcOpenMemHandle(peer, h);
  EXPECT_EQ(peer.clock.now() - t0, ctx.cost().ipc_open_ns);
}

TEST_F(CopyTest, IpcGetHandleRejectsHostPointer) {
  int x;
  EXPECT_THROW(IpcGetMemHandle(ctx, &x), std::invalid_argument);
}

// --- TimedCopy ------------------------------------------------------------------------------

TEST_F(CopyTest, TimedCopyRespectsDependency) {
  void* a = Malloc(ctx, 4096);
  void* b = Malloc(ctx, 4096);
  const vt::Time f = TimedCopy(ctx, b, a, 4096, vt::usec(500));
  EXPECT_GE(f, vt::usec(500));
}

TEST_F(CopyTest, TimedCopyDoesNotBlockHostClock) {
  void* a = Malloc(ctx, 1 << 20);
  void* b = Malloc(ctx, 1 << 20);
  const vt::Time t0 = ctx.clock.now();
  TimedCopy(ctx, b, a, 1 << 20, 0);
  EXPECT_EQ(ctx.clock.now(), t0);
}

}  // namespace
}  // namespace gpuddt::sg

namespace gpuddt::sg {
namespace {

TEST(Memcpy3D, MovesPitched3DBlocks) {
  Machine m;
  HostContext ctx(m, 0);
  const std::size_t w = 24, h = 4, d = 3;
  const std::size_t spitch = 32, sslice = spitch * h + 64;
  const std::size_t dpitch = 24, dslice = dpitch * h;
  std::vector<std::byte> src(sslice * d), dst(dslice * d);
  test::fill_pattern(src.data(), src.size(), 77);
  Memcpy3D(ctx, dst.data(), dpitch, dslice, src.data(), spitch, sslice, w, h,
           d);
  for (std::size_t z = 0; z < d; ++z)
    for (std::size_t r = 0; r < h; ++r)
      EXPECT_EQ(std::memcmp(dst.data() + z * dslice + r * dpitch,
                            src.data() + z * sslice + r * spitch, w),
                0);
}

TEST(Memcpy3D, RejectsBadPitches) {
  Machine m;
  HostContext ctx(m, 0);
  std::vector<std::byte> a(1024), b(1024);
  EXPECT_THROW(
      Memcpy3D(ctx, a.data(), 8, 64, b.data(), 16, 64, 12, 4, 2),
      std::invalid_argument);
}

TEST(Memcpy3D, ChargesPerSliceTime) {
  Machine m;
  HostContext ctx(m, 0);
  void* dev = Malloc(ctx, 1 << 20);
  std::vector<std::byte> host(1 << 20);
  const vt::Time t0 = ctx.clock.now();
  Memcpy3D(ctx, host.data(), 1024, 1024 * 64, dev, 1024, 1024 * 64, 1024, 64,
           4);
  // Four D2H slices of 64KB each: at least the PCI-E time of 256KB.
  EXPECT_GT(ctx.clock.now() - t0, vt::transfer_time(256 << 10, 11.0));
}

// --- Threading: the mapping pool is process-global ------------------------------

TEST(Threading, PoolSharedByTwoThreads) {
  // Equal capacities, so the two threads' Machines trade each other's
  // freed mappings.
  const MachineConfig cfg =
      test::machine_config(2, (32 << 20) + 5 * Arena::kAlign);
  std::vector<std::string> errors(2);
  {
    std::vector<std::jthread> threads;  // joined at the end of this scope
    for (int t = 0; t < 2; ++t) {
      std::string& err = errors[static_cast<std::size_t>(t)];
      threads.emplace_back([&cfg, &err, t] {
        try {
          for (int it = 0; it < 16; ++it) {
            Machine m(cfg);
            std::vector<std::pair<std::byte*, std::size_t>> bufs;
            for (int d = 0; d < 2; ++d) {
              HostContext ctx(m, d);
              for (int k = 0; k < 3; ++k) {
                const auto n = static_cast<std::size_t>(1 + (it + k + t) % 5)
                               << 19;
                auto* p = static_cast<std::byte*>(Malloc(ctx, n));
                test::fill_pattern(p, n,
                                   static_cast<std::uint32_t>(t * 100 + k));
                bufs.push_back({p, n});
              }
            }
            std::size_t i = 0;
            for (int d = 0; d < 2; ++d) {
              for (int k = 0; k < 3; ++k, ++i) {
                std::vector<std::byte> want(bufs[i].second);
                test::fill_pattern(want.data(), want.size(),
                                   static_cast<std::uint32_t>(t * 100 + k));
                if (std::memcmp(bufs[i].first, want.data(), want.size()) != 0)
                  err = "buffer changed under its owner";
              }
            }
          }
        } catch (const std::exception& e) {
          err = std::string("threw: ") + e.what();
        }
      });
    }
  }
  EXPECT_EQ(errors[0], "");
  EXPECT_EQ(errors[1], "");
}

}  // namespace
}  // namespace gpuddt::sg
