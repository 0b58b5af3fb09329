// Locks each POD kernel (protocols/kernels.hpp) to its virtual protocol
// class, bit for bit: driven with the same observation stream, the
// kernel must report the same transmit probability (to the exact double)
// and the same election/phase state at every step. This is the oracle
// the batched Monte-Carlo engine's bit-identity contract rests on.
#include "protocols/kernels.hpp"

#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <vector>

#include "baselines/lesk_symmetric.hpp"
#include "protocols/estimation.hpp"
#include "protocols/lesk.hpp"
#include "protocols/lesu.hpp"
#include "protocols/plain_uniform.hpp"
#include "sim/batch.hpp"
#include "support/math.hpp"
#include "support/rng.hpp"

namespace jamelect {
namespace {

using kernels::EstimationKernel;
using kernels::LeskKernel;
using kernels::LesuKernel;
using kernels::UniformKernel;

[[nodiscard]] std::uint64_t bits(double x) {
  return std::bit_cast<std::uint64_t>(x);
}

/// Null/Collision streams keep a protocol alive indefinitely (a Single
/// would elect it); `null_weight` in [0, 1] sets the Null fraction.
[[nodiscard]] std::vector<ChannelState> alive_stream(std::uint64_t seed,
                                                     std::size_t len,
                                                     double null_weight) {
  Rng rng(seed);
  std::vector<ChannelState> stream;
  stream.reserve(len);
  for (std::size_t i = 0; i < len; ++i) {
    stream.push_back(rng.bernoulli(null_weight) ? ChannelState::kNull
                                                : ChannelState::kCollision);
  }
  return stream;
}

TEST(KernelEquivalence, LeskMatchesClassOnRandomStreams) {
  for (const double eps : {1.0, 0.5, 0.25, 0.1, 1.0 / 3.0}) {
    for (const std::uint64_t seed : {1ULL, 2ULL, 3ULL}) {
      const LeskParams params{eps, 0.0};
      Lesk cls(params);
      LeskKernel kern(params);
      for (const ChannelState s : alive_stream(seed, 4096, 0.45)) {
        ASSERT_EQ(bits(cls.transmit_probability()),
                  bits(transmit_probability(kern.broadcast_u())));
        ASSERT_EQ(bits(cls.u()), bits(kern.u));
        cls.observe(s);
        kern.step(s);
        ASSERT_EQ(cls.elected(), kern.done());
      }
      cls.observe(ChannelState::kSingle);
      kern.step(ChannelState::kSingle);
      EXPECT_TRUE(cls.elected());
      EXPECT_TRUE(kern.done());
    }
  }
}

TEST(KernelEquivalence, LeskMatchesClassFromWarmStart) {
  const LeskParams params{0.5, 7.25};
  Lesk cls(params);
  LeskKernel kern(params);
  for (const ChannelState s : alive_stream(11, 512, 0.7)) {
    ASSERT_EQ(bits(cls.u()), bits(kern.u));
    cls.observe(s);
    kern.step(s);
  }
}

TEST(KernelEquivalence, LeskNullFloorAtZeroIsExact) {
  // u = 1.0 - 1.0 hits the max(u - 1, 0) floor exactly; the kernel must
  // produce the identical double (and never a -0.0 surprise).
  const LeskParams params{0.5, 1.0};
  Lesk cls(params);
  LeskKernel kern(params);
  cls.observe(ChannelState::kNull);
  kern.step(ChannelState::kNull);
  EXPECT_EQ(bits(cls.u()), bits(kern.u));
  cls.observe(ChannelState::kNull);  // already at the floor
  kern.step(ChannelState::kNull);
  EXPECT_EQ(bits(cls.u()), bits(kern.u));
}

TEST(KernelEquivalence, EstimationMatchesClassThroughRounds) {
  for (const std::int64_t L : {1LL, 2LL, 3LL}) {
    for (const std::uint64_t seed : {5ULL, 6ULL}) {
      Estimation cls(L);
      EstimationKernel kern(L);
      for (const ChannelState s : alive_stream(seed, 600, 0.3)) {
        if (cls.completed()) break;
        ASSERT_EQ(bits(cls.transmit_probability()),
                  bits(transmit_probability(kern.broadcast_u())));
        ASSERT_EQ(cls.round(), kern.round);
        cls.observe(s);
        kern.step(s);
        ASSERT_EQ(cls.completed(), kern.completed);
        ASSERT_EQ(cls.elected(), kern.elected);
      }
      EXPECT_EQ(cls.completed(), kern.completed);
      if (cls.completed()) {
        EXPECT_EQ(cls.result(), kern.round);
      }
    }
  }
}

TEST(KernelEquivalence, EstimationElectsOnSingle) {
  Estimation cls(2);
  EstimationKernel kern(2);
  cls.observe(ChannelState::kSingle);
  kern.step(ChannelState::kSingle);
  EXPECT_TRUE(cls.elected());
  EXPECT_TRUE(kern.done());
}

TEST(KernelEquivalence, LesuMatchesClassAcrossPhasesAndSubexecutions) {
  // An all-Null opening completes Estimation quickly; long
  // Null/Collision tails then walk through many (i, j) sub-executions.
  for (const double null_weight : {0.9, 0.5, 0.2}) {
    for (const std::uint64_t seed : {21ULL, 22ULL}) {
      const LesuParams params{};  // defaults: c = 6, L = 2, max_i = 60
      Lesu cls(params);
      LesuKernel kern(params);
      std::size_t subexec_changes = 0;
      std::int64_t last_j = 0;
      for (const ChannelState s : alive_stream(seed, 60000, null_weight)) {
        ASSERT_EQ(bits(cls.transmit_probability()),
                  bits(transmit_probability(kern.broadcast_u())));
        ASSERT_EQ(bits(cls.estimate()), bits(kern.estimate()));
        cls.observe(s);
        kern.step(s);
        ASSERT_EQ(cls.phase() == Lesu::Phase::kLesk, kern.lesk_phase);
        ASSERT_EQ(cls.elected(), kern.done());
        ASSERT_EQ(cls.i(), kern.i);
        ASSERT_EQ(cls.j(), kern.j);
        ASSERT_EQ(bits(cls.t0()), bits(kern.t0));
        ASSERT_EQ(bits(cls.current_eps()), bits(kern.current_eps));
        if (kern.lesk_phase && kern.j != last_j) {
          ++subexec_changes;
          last_j = kern.j;
        }
      }
      // The stream must actually exercise the schedule machinery.
      EXPECT_TRUE(kern.lesk_phase);
      EXPECT_GE(subexec_changes, 2u);
    }
  }
}

TEST(KernelEquivalence, PlainUniformMatchesClass) {
  for (const double u : {0.0, 1.0, 10.5}) {
    const PlainUniformParams params{u};
    PlainUniform cls(params);
    UniformKernel kern(params);
    for (const ChannelState s : alive_stream(31, 64, 0.5)) {
      ASSERT_EQ(bits(cls.transmit_probability()),
                bits(transmit_probability(kern.broadcast_u())));
      cls.observe(s);
      kern.step(s);
      ASSERT_FALSE(kern.done());
    }
    cls.observe(ChannelState::kSingle);
    kern.step(ChannelState::kSingle);
    EXPECT_TRUE(cls.elected());
    EXPECT_TRUE(kern.done());
  }
}

// --- batch_kernel_spec probing -------------------------------------

TEST(BatchKernelSpec, RecognizesFreshKernelizableProtocols) {
  const Lesk lesk(LeskParams{0.25, 0.0});
  const auto lesk_spec = batch_kernel_spec(lesk);
  ASSERT_TRUE(lesk_spec.has_value());
  ASSERT_TRUE(std::holds_alternative<LeskParams>(*lesk_spec));
  EXPECT_EQ(std::get<LeskParams>(*lesk_spec).eps, 0.25);

  const Lesu lesu(LesuParams{});
  const auto lesu_spec = batch_kernel_spec(lesu);
  ASSERT_TRUE(lesu_spec.has_value());
  EXPECT_TRUE(std::holds_alternative<LesuParams>(*lesu_spec));

  const PlainUniform uni(PlainUniformParams{3.0});
  const auto uni_spec = batch_kernel_spec(uni);
  ASSERT_TRUE(uni_spec.has_value());
  EXPECT_TRUE(std::holds_alternative<PlainUniformParams>(*uni_spec));

  const SymmetricLesk sym;
  const auto sym_spec = batch_kernel_spec(sym);
  ASSERT_TRUE(sym_spec.has_value());
  EXPECT_TRUE(std::holds_alternative<SymmetricLeskParams>(*sym_spec));
}

TEST(BatchKernelSpec, RejectsWarmStartedInstances) {
  // Kernels always start fresh from params; an instance whose state has
  // already moved must fall back to the virtual path.
  Lesk warm(LeskParams{0.5, 0.0});
  warm.observe(ChannelState::kCollision);
  EXPECT_FALSE(batch_kernel_spec(warm).has_value());

  Lesu warm_lesu(LesuParams{});
  warm_lesu.observe(ChannelState::kNull);
  EXPECT_FALSE(batch_kernel_spec(warm_lesu).has_value());

  SymmetricLesk warm_sym;
  warm_sym.observe(ChannelState::kCollision);
  EXPECT_FALSE(batch_kernel_spec(warm_sym).has_value());
}

TEST(BatchKernelSpec, RejectsProtocolsWithoutKernels) {
  const Estimation est(2);
  EXPECT_FALSE(batch_kernel_spec(est).has_value());
}

}  // namespace
}  // namespace jamelect
