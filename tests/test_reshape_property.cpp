// Property sweep: ANY two layouts with identical signatures (here: N
// doubles) may be used as the two ends of one transfer, and the packed
// byte stream must be preserved exactly - the on-the-fly reshape that
// Figure 11 and the transpose stress test are special cases of.
//
// Each seed generates two independent random layouts of the same N
// doubles (random hindexed partitions with random gaps, random vector
// factorizations, contiguous, or transpose-like single-element vectors)
// and runs the transfer device-to-device across randomized transports.
#include <gtest/gtest.h>

#include <cstring>
#include <numeric>
#include <random>
#include <vector>

#include "core/layouts.h"
#include "mpi/pml.h"
#include "mpi/runtime.h"
#include "protocols/gpu_plugin.h"
#include "test_helpers.h"

namespace gpuddt {
namespace {

/// A random layout holding exactly `n` doubles.
mpi::DatatypePtr random_layout_of_n_doubles(std::mt19937& rng,
                                            std::int64_t n) {
  using mpi::Datatype;
  std::uniform_int_distribution<int> kind(0, 3);
  switch (kind(rng)) {
    case 0:
      return Datatype::contiguous(n, mpi::kDouble());
    case 1: {  // vector factorization n = count * blocklen
      std::vector<std::int64_t> divisors;
      for (std::int64_t d = 1; d * d <= n; ++d)
        if (n % d == 0) {
          divisors.push_back(d);
          divisors.push_back(n / d);
        }
      std::uniform_int_distribution<std::size_t> pick(0, divisors.size() - 1);
      const std::int64_t bl = divisors[pick(rng)];
      const std::int64_t count = n / bl;
      std::uniform_int_distribution<std::int64_t> gap(0, 7);
      return Datatype::vector(count, bl, bl + gap(rng), mpi::kDouble());
    }
    case 2: {  // random partition with random gaps -> indexed
      std::vector<std::int64_t> lens, displs;
      std::int64_t left = n, at = 0;
      std::uniform_int_distribution<std::int64_t> blk(1, 37);
      std::uniform_int_distribution<std::int64_t> gap(0, 11);
      while (left > 0) {
        const std::int64_t l = std::min(blk(rng), left);
        lens.push_back(l);
        displs.push_back(at);
        at += l + gap(rng);
        left -= l;
      }
      return Datatype::indexed(lens, displs, mpi::kDouble());
    }
    default: {  // transpose-like: n single-element columns, strided
      std::uniform_int_distribution<std::int64_t> stride(2, 5);
      return Datatype::vector(n, 1, stride(rng), mpi::kDouble());
    }
  }
}

class ReshapeProperty : public ::testing::TestWithParam<int> {};

TEST_P(ReshapeProperty, PackedStreamSurvivesAnyLayoutPair) {
  std::mt19937 rng(static_cast<unsigned>(GetParam()) * 104729 + 7);
  std::uniform_int_distribution<std::int64_t> n_dist(64, 4096);
  const std::int64_t n = n_dist(rng);
  auto send_dt = random_layout_of_n_doubles(rng, n);
  auto recv_dt = random_layout_of_n_doubles(rng, n);
  ASSERT_EQ(send_dt->signature().hash(), recv_dt->signature().hash());

  mpi::RuntimeConfig cfg;
  cfg.world_size = 2;
  cfg.machine.num_devices = 2;
  cfg.machine.device_memory_bytes = 128u << 20;
  // Randomize the transport so every protocol sees these layouts.
  if (GetParam() % 3 == 1) cfg.ranks_per_node = 1;
  if (GetParam() % 4 == 2) cfg.ipc_enabled = false;
  if (GetParam() % 5 == 3) cfg.zero_copy = false;
  cfg.gpu_frag_bytes = 1u << (12 + GetParam() % 5);
  cfg.gpu_eager_limit = (GetParam() % 2) ? 16 * 1024 : 0;

  mpi::Runtime rt(cfg);
  rt.set_gpu_plugin(std::make_shared<proto::GpuDatatypePlugin>());
  rt.run([&](mpi::Process& p) {
    mpi::Comm comm(p);
    if (p.rank() == 0) {
      const std::int64_t span = test::span_bytes(send_dt, 1);
      auto* buf = static_cast<std::byte*>(
          sg::Malloc(p.gpu(), static_cast<std::size_t>(span)));
      test::fill_pattern(buf, static_cast<std::size_t>(span),
                         static_cast<std::uint32_t>(GetParam()));
      comm.send(buf - send_dt->true_lb(), 1, send_dt, 1, 0);
    } else {
      const std::int64_t span = test::span_bytes(recv_dt, 1);
      auto* buf = static_cast<std::byte*>(
          sg::Malloc(p.gpu(), static_cast<std::size_t>(span)));
      std::memset(buf, 0, static_cast<std::size_t>(span));
      std::byte* base = buf - recv_dt->true_lb();
      comm.recv(base, 1, recv_dt, 0, 0);

      const std::int64_t sspan = test::span_bytes(send_dt, 1);
      std::vector<std::byte> sent(static_cast<std::size_t>(sspan));
      test::fill_pattern(sent.data(), sent.size(),
                         static_cast<std::uint32_t>(GetParam()));
      EXPECT_EQ(test::reference_pack(recv_dt, 1, base),
                test::reference_pack(send_dt, 1,
                                     sent.data() - send_dt->true_lb()))
          << "send=" << send_dt->describe_tree()
          << " recv=" << recv_dt->describe_tree();
    }
  });
}

INSTANTIATE_TEST_SUITE_P(Seeds, ReshapeProperty, ::testing::Range(0, 30));

}  // namespace
}  // namespace gpuddt
