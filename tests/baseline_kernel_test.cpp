// Baseline kernels vs their virtual twins.
//
// baselines/baseline_kernels.hpp (Willard, symmetric LESK, Nakano–Olariu,
// no-CD sweep)
// and baselines/arss_kernel.hpp (ARSS) promise bit-for-bit twins of the
// virtual baseline classes so the batch engines can run the evaluation
// baselines devirtualized. This suite locks each pair together at two
// levels: direct lockstep stepping (identical observation sequences,
// state compared after every step) and end-to-end Monte-Carlo
// bit-identity (batched runs reproduce the sequential reference outcome
// for outcome, also after the estimate has diverged past
// SlotProbCache::kZeroU), plus the reason-labeled fallback counters the
// batch routers emit.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "baselines/arss.hpp"
#include "baselines/arss_kernel.hpp"
#include "baselines/baseline_kernels.hpp"
#include "baselines/lesk_symmetric.hpp"
#include "baselines/nakano_olariu.hpp"
#include "baselines/nocd_election.hpp"
#include "baselines/willard.hpp"
#include "channel/channel.hpp"
#include "channel/trace.hpp"
#include "obs/metrics.hpp"
#include "obs/observer.hpp"
#include "protocols/lesk.hpp"
#include "protocols/uniform_station.hpp"
#include "sim/montecarlo.hpp"
#include "support/rng.hpp"
#include "support/slot_prob_cache.hpp"
#include "support/wide_rng.hpp"

namespace jamelect {
namespace {

// ---------- lockstep stepping twins ----------

/// Drives kernel and virtual protocol through the same channel-state
/// sequence and compares estimate/elected after every step. The first
/// `quiet_steps` draw only Null/Collision so the pre-election state
/// machine (Willard's three phases, the no-CD epoch roll-over) gets
/// exercised before a Single absorbs both twins; stepping continues
/// past the election to confirm the absorbing state.
template <typename Kernel, typename Protocol>
void expect_stepping_twin(const typename Kernel::Params& params,
                          std::uint64_t seed, int quiet_steps, int steps) {
  Kernel kernel(params);
  Protocol proto(params);
  Rng rng(seed);
  for (int step = 0; step < steps; ++step) {
    ASSERT_EQ(kernel.estimate(), proto.estimate()) << "step " << step;
    ASSERT_EQ(kernel.done(), proto.elected()) << "step " << step;
    ASSERT_EQ(kernel.broadcast_u(), proto.estimate()) << "step " << step;
    const double d = rng.uniform();
    ChannelState state;
    if (step < quiet_steps) {
      state = d < 0.5 ? ChannelState::kNull : ChannelState::kCollision;
    } else {
      state = d < 0.45 ? ChannelState::kNull
                       : (d < 0.9 ? ChannelState::kCollision
                                  : ChannelState::kSingle);
    }
    kernel.step(state);
    proto.observe(state);
  }
  ASSERT_EQ(kernel.estimate(), proto.estimate());
  ASSERT_EQ(kernel.done(), proto.elected());
}

TEST(BaselineKernels, WillardKernelStepsWithVirtualTwin) {
  for (std::uint64_t seed = 1; seed <= 8; ++seed) {
    expect_stepping_twin<kernels::WillardKernel, Willard>(WillardParams{}, seed,
                                                          200, 400);
  }
}

TEST(BaselineKernels, SymmetricLeskKernelStepsWithVirtualTwin) {
  for (std::uint64_t seed = 1; seed <= 8; ++seed) {
    expect_stepping_twin<kernels::SymmetricLeskKernel, SymmetricLesk>(
        SymmetricLeskParams{}, seed, 200, 400);
  }
  // A long jam: the walk climbs far past the saturated region and back.
  kernels::SymmetricLeskKernel kernel(SymmetricLeskParams{});
  SymmetricLesk proto;
  for (int step = 0; step < 3000; ++step) {
    const ChannelState state =
        step < 2000 ? ChannelState::kCollision : ChannelState::kNull;
    kernel.step(state);
    proto.observe(state);
    ASSERT_EQ(kernel.broadcast_u(), proto.estimate()) << "step " << step;
  }
  EXPECT_EQ(kernel.inc, 1.0);
}

TEST(BaselineKernels, NakanoOlariuKernelStepsWithVirtualTwin) {
  for (std::uint64_t seed = 1; seed <= 8; ++seed) {
    expect_stepping_twin<kernels::NakanoOlariuKernel, NakanoOlariu>(
        NakanoOlariuParams{}, seed, 200, 400);
  }
}

TEST(BaselineKernels, NoCdKernelStepsWithVirtualTwin) {
  for (std::int64_t reps : {1, 3, 4}) {
    // Long quiet prefix: enough not-Single steps to roll several epochs
    // (epoch e spans reps * 2^e slots) and hit the u reset.
    expect_stepping_twin<kernels::NoCdKernel, NoCdElection>(
        NoCdElectionParams{reps}, 0x90d + static_cast<std::uint64_t>(reps),
        600, 800);
  }
}

TEST(BaselineKernels, ArssKernelStepsWithVirtualStation) {
  // Election mode (done on the first Single) and plain-MAC mode (runs
  // forever, exercising the threshold escape hatch over many rounds).
  for (const bool elect : {true, false}) {
    ArssParams params;
    params.gamma = arss_gamma(64, 16);
    params.elect_on_single = elect;
    ArssStation station(params);
    kernels::ArssKernel kernel(params);
    Rng rng(elect ? 0xa12f5ULL : 0xa12f6ULL);
    const int steps = elect ? 400 : 2000;
    for (int slot = 0; slot < steps; ++slot) {
      ASSERT_EQ(kernel.transmit_probability(),
                station.transmit_probability(slot))
          << "slot " << slot;
      const double d = rng.uniform();
      const ChannelState state =
          d < 0.4 ? ChannelState::kNull
                  : (d < 0.8 ? ChannelState::kCollision : ChannelState::kSingle);
      const bool tx = rng.bernoulli(0.3);
      const Observation obs = observe_slot(state, tx, CdMode::kStrong);
      station.feedback(slot, tx, obs);
      kernel.feedback(tx, obs);
      ASSERT_EQ(kernel.p, station.p()) << "slot " << slot;
      ASSERT_EQ(kernel.threshold, station.threshold()) << "slot " << slot;
      ASSERT_EQ(kernel.done, station.done()) << "slot " << slot;
      ASSERT_EQ(kernel.leader, station.is_leader()) << "slot " << slot;
    }
  }
}

// ---------- end-to-end Monte-Carlo bit-identity ----------

void expect_outcome_eq(const TrialOutcome& a, const TrialOutcome& b,
                       const std::string& what, std::size_t trial) {
  ASSERT_EQ(a.elected, b.elected) << what << " trial " << trial;
  ASSERT_EQ(a.slots, b.slots) << what << " trial " << trial;
  ASSERT_EQ(a.jams, b.jams) << what << " trial " << trial;
  ASSERT_EQ(a.nulls, b.nulls) << what << " trial " << trial;
  ASSERT_EQ(a.singles, b.singles) << what << " trial " << trial;
  ASSERT_EQ(a.collisions, b.collisions) << what << " trial " << trial;
  ASSERT_EQ(a.transmissions, b.transmissions) << what << " trial " << trial;
  ASSERT_EQ(a.all_done, b.all_done) << what << " trial " << trial;
  ASSERT_EQ(a.unique_leader, b.unique_leader) << what << " trial " << trial;
  ASSERT_EQ(a.leader, b.leader) << what << " trial " << trial;
}

struct BaselineCase {
  const char* name;
  UniformProtocolFactory factory;
};

[[nodiscard]] std::vector<BaselineCase> baseline_factories() {
  return {
      {"willard", [] { return std::make_unique<Willard>(); }},
      {"symmetric_lesk", [] { return std::make_unique<SymmetricLesk>(); }},
      {"nakano_olariu", [] { return std::make_unique<NakanoOlariu>(); }},
      {"nocd",
       [] { return std::make_unique<NoCdElection>(NoCdElectionParams{3}); }},
  };
}

TEST(BaselineKernels, AggregateBatchMatchesSequentialPerBaseline) {
  // Each baseline factory, batched through its kernel (kAuto goes wide)
  // vs the sequential per-trial reference — under a lane-invariant
  // policy (shared-wide engine) and an adaptive one (per-lane SoA
  // engine); trials not a multiple of batch, so the tail chunk runs.
  std::vector<AdversarySpec> policies;
  {
    AdversarySpec periodic;
    periodic.policy = "periodic";
    periodic.T = 32;
    periodic.eps = 0.5;
    policies.push_back(periodic);
  }
  {
    AdversarySpec forcer;
    forcer.policy = "collision_forcer";
    forcer.T = 48;
    forcer.eps = 0.375;
    forcer.collision_threshold = 0.6;
    policies.push_back(forcer);
  }
  for (const BaselineCase& c : baseline_factories()) {
    for (const AdversarySpec& adv : policies) {
      McConfig seq;
      seq.trials = 11;
      seq.seed = 0xba5eULL;
      seq.max_slots = 20000;
      seq.parallel = false;
      seq.keep_outcomes = true;
      McConfig batched = seq;
      batched.batch = 4;
      const McResult ref = run_aggregate_mc(c.factory, adv, 64, seq);
      const McResult bat = run_aggregate_mc(c.factory, adv, 64, batched);
      ASSERT_EQ(ref.outcomes.size(), bat.outcomes.size());
      for (std::size_t t = 0; t < ref.outcomes.size(); ++t) {
        expect_outcome_eq(ref.outcomes[t], bat.outcomes[t],
                          std::string(c.name) + "/" + adv.policy, t);
      }
    }
  }
}

TEST(BaselineKernels, BaselinesTakeTheBatchPathWithoutFallback) {
  if constexpr (!obs::kObsCompiledIn) {
    GTEST_SKIP() << "JAMELECT_OBS compiled out";
  }
  auto& reg = obs::MetricsRegistry::global();
  const bool was_enabled = reg.enabled();
  reg.reset();
  reg.set_enabled(true);
  AdversarySpec forcer;
  forcer.policy = "collision_forcer";
  forcer.T = 48;
  forcer.eps = 0.375;
  McConfig cfg;
  cfg.trials = 8;
  cfg.seed = 7;
  cfg.max_slots = 20000;
  cfg.parallel = false;
  cfg.batch = 4;
  for (const BaselineCase& c : baseline_factories()) {
    (void)run_aggregate_mc(c.factory, forcer, 64, cfg);
  }
  const auto snap = reg.aggregate();
  reg.set_enabled(was_enabled);
  ASSERT_TRUE(snap.counters.count("mc.batch_fallbacks"));
  EXPECT_EQ(snap.counters.at("mc.batch_fallbacks"), 0);
  EXPECT_EQ(snap.counters.at("mc.batch_fallback.protocol"), 0);
  EXPECT_GT(snap.counters.at("mc.batch_wide_slots"), 0);
}

// ---------- diverged estimates: u past SlotProbCache::kZeroU ----------

struct DivergedCase {
  const char* name;
  UniformProtocolFactory factory;
  AdversarySpec adversary;
};

[[nodiscard]] AdversarySpec saturating(std::int64_t T, double eps) {
  AdversarySpec spec;
  spec.policy = "saturating";
  spec.T = T;
  spec.eps = eps;
  return spec;
}

/// E12's failing arms (eps = 1/4) and LESK under a T = 2^16 jam (E3):
/// each walks u past kZeroU, where the batch engines answer slots from
/// the cache's fixed zero-probability entry.
[[nodiscard]] std::vector<DivergedCase> diverged_cases() {
  return {
      {"symmetric_lesk", [] { return std::make_unique<SymmetricLesk>(); },
       saturating(64, 0.25)},
      {"willard", [] { return std::make_unique<Willard>(); },
       saturating(64, 0.25)},
      {"lesk_T65536",
       [] { return std::make_unique<Lesk>(LeskParams{0.5, 0.0}); },
       saturating(std::int64_t{1} << 16, 0.5)},
  };
}

void expect_outcomes_eq(const McResult& ref, const McResult& got,
                        const std::string& what) {
  ASSERT_EQ(ref.outcomes.size(), got.outcomes.size()) << what;
  for (std::size_t t = 0; t < ref.outcomes.size(); ++t) {
    expect_outcome_eq(ref.outcomes[t], got.outcomes[t], what, t);
  }
}

TEST(BaselineKernels, DivergedEstimatesStayBitIdenticalPastZeroProbability) {
  // Batched vs sequential per trial, strong-CD and the weak-CD hybrid,
  // on every wide backend. AES-CTR has no sequential twin, so its
  // reference is the scalar-lane batch path.
  constexpr std::uint64_t kN = 1024;
  std::vector<WideIsa> isas{WideIsa::kScalar4};
  if (wide_avx2_supported()) isas.push_back(WideIsa::kAvx2);
  for (const DivergedCase& c : diverged_cases()) {
    McConfig seq;
    seq.trials = 6;
    seq.seed = 0xe12ULL;
    seq.max_slots = std::int64_t{1} << 17;
    seq.parallel = false;
    seq.keep_outcomes = true;

    // The case must really reach the saturated region.
    Trace trace;
    (void)replay_aggregate_trial(c.factory, c.adversary, kN, seq, 0, nullptr,
                                 &trace);
    double peak = 0.0;
    for (const SlotRecord& rec : trace.records()) {
      peak = std::max(peak, rec.estimate);
    }
    ASSERT_GE(peak, SlotProbCache::kZeroU) << c.name;

    const McResult ref_agg = run_aggregate_mc(c.factory, c.adversary, kN, seq);
    const McResult ref_hyb = run_hybrid_mc(c.factory, c.adversary, kN, seq);
    McConfig bat = seq;
    bat.batch = 4;
    McConfig aes = bat;
    aes.rng_backend = RngBackend::kAesCtr;
    McConfig aes_scalar = aes;
    aes_scalar.batch_lanes = BatchLaneMode::kScalarLanes;
    const McResult aes_agg =
        run_aggregate_mc(c.factory, c.adversary, kN, aes_scalar);
    const McResult aes_hyb =
        run_hybrid_mc(c.factory, c.adversary, kN, aes_scalar);
    for (const WideIsa isa : isas) {
      set_wide_isa_for_testing(isa);
      const std::string what =
          std::string(c.name) + (isa == WideIsa::kAvx2 ? "/avx2" : "/scalar4");
      expect_outcomes_eq(ref_agg,
                         run_aggregate_mc(c.factory, c.adversary, kN, bat),
                         what + "/aggregate/xoshiro");
      expect_outcomes_eq(ref_hyb, run_hybrid_mc(c.factory, c.adversary, kN, bat),
                         what + "/hybrid/xoshiro");
      expect_outcomes_eq(aes_agg,
                         run_aggregate_mc(c.factory, c.adversary, kN, aes),
                         what + "/aggregate/aes_ctr");
      expect_outcomes_eq(aes_hyb, run_hybrid_mc(c.factory, c.adversary, kN, aes),
                         what + "/hybrid/aes_ctr");
    }
    reset_wide_isa_for_testing();
  }
}

TEST(BaselineKernels, StationBatchMatchesSequentialAcrossStopRules) {
  // ARSS through the devirtualized station chunks vs the sequential
  // SlotEngine: both stop rules, jamming off/invariant/adaptive, tail
  // chunk exercised. (ARSS is strong-CD only: its feedback contract
  // rejects the weak-CD kNoSingle observation.)
  const std::uint64_t n = 24;
  const auto factory = [&](StationId) -> StationProtocolPtr {
    ArssParams params;
    params.gamma = arss_gamma(n, 16);
    return std::make_unique<ArssStation>(params);
  };
  std::vector<AdversarySpec> policies;
  policies.emplace_back();  // "none"
  {
    AdversarySpec sat;
    sat.policy = "saturating";
    sat.T = 32;
    sat.eps = 0.5;
    policies.push_back(sat);
  }
  {
    AdversarySpec bern;
    bern.policy = "bernoulli";
    bern.T = 32;
    bern.eps = 0.5;
    bern.q = 0.3;
    policies.push_back(bern);
  }
  for (const StopRule stop : {StopRule::kAllDone, StopRule::kFirstSingle}) {
    for (const AdversarySpec& adv : policies) {
      const EngineConfig engine{CdMode::kStrong, stop, 30000};
      McConfig seq;
      seq.trials = 9;
      seq.seed = 0xa155ULL;
      seq.max_slots = engine.max_slots;
      seq.parallel = false;
      seq.keep_outcomes = true;
      McConfig batched = seq;
      batched.batch = 4;
      const McResult ref = run_station_mc(factory, adv, n, engine, seq);
      const McResult bat = run_station_mc(factory, adv, n, engine, batched);
      const std::string what =
          adv.policy + (stop == StopRule::kAllDone ? "/all_done"
                                                   : "/first_single");
      ASSERT_EQ(ref.outcomes.size(), bat.outcomes.size());
      for (std::size_t t = 0; t < ref.outcomes.size(); ++t) {
        expect_outcome_eq(ref.outcomes[t], bat.outcomes[t], what, t);
      }
    }
  }
}

// ---------- reason-labeled fallback counters ----------

TEST(BaselineKernels, StationFallbackReasonsAreLabeled) {
  if constexpr (!obs::kObsCompiledIn) {
    GTEST_SKIP() << "JAMELECT_OBS compiled out";
  }
  auto& reg = obs::MetricsRegistry::global();
  const bool was_enabled = reg.enabled();
  reg.reset();
  reg.set_enabled(true);

  const std::uint64_t n = 8;
  const auto arss_factory = [&](StationId) -> StationProtocolPtr {
    ArssParams params;
    params.gamma = arss_gamma(n, 16);
    return std::make_unique<ArssStation>(params);
  };
  AdversarySpec none;
  McConfig cfg;
  cfg.trials = 3;
  cfg.seed = 5;
  cfg.max_slots = 20000;
  cfg.parallel = false;
  cfg.batch = 2;

  // Observer attached: the batch path cannot replay per-slot telemetry,
  // so the whole run falls back once, labeled .observer.
  obs::VectorSink sink;
  obs::RunObserver observer(sink);
  (void)run_station_mc(arss_factory, none, n,
                       {CdMode::kStrong, StopRule::kAllDone, 20000, &observer},
                       cfg);

  // Non-kernelizable station protocol: probe fails, labeled .protocol.
  (void)run_station_mc(
      [](StationId) -> StationProtocolPtr {
        return std::make_unique<UniformStationAdapter>(
            std::make_unique<Lesk>(LeskParams{0.5, 0.0}));
      },
      none, n, {CdMode::kStrong, StopRule::kAllDone, 20000}, cfg);

  // Kernelizable run: no new fallback, station chunks counted; an
  // AES-CTR request is honoured as a backend fallback (the station path
  // only speaks xoshiro) while keeping the batch win.
  (void)run_station_mc(arss_factory, none, n,
                       {CdMode::kStrong, StopRule::kAllDone, 20000}, cfg);
  McConfig aes = cfg;
  aes.rng_backend = RngBackend::kAesCtr;
  (void)run_station_mc(arss_factory, none, n,
                       {CdMode::kStrong, StopRule::kAllDone, 20000}, aes);

  const auto snap = reg.aggregate();
  reg.set_enabled(was_enabled);
  ASSERT_TRUE(snap.counters.count("mc.batch_fallback.observer"));
  ASSERT_TRUE(snap.counters.count("mc.batch_fallback.protocol"));
  ASSERT_TRUE(snap.counters.count("mc.batch_fallback.adversary"));
  EXPECT_EQ(snap.counters.at("mc.batch_fallback.observer"), 1);
  EXPECT_EQ(snap.counters.at("mc.batch_fallback.protocol"), 1);
  // Every built-in adversary policy has a batch engine; the .adversary
  // label is a registered tombstone that must stay at zero.
  EXPECT_EQ(snap.counters.at("mc.batch_fallback.adversary"), 0);
  EXPECT_EQ(snap.counters.at("mc.batch_fallbacks"), 2);
  EXPECT_GT(snap.counters.at("engine.batch.station_chunks"), 0);
  EXPECT_GE(snap.counters.at("mc.rng_backend_fallbacks"), 1);
}

}  // namespace
}  // namespace jamelect
