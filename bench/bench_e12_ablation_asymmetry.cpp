// E12 — design ablation (§2's intuition): the asymmetric eps/8
// Collision increment is what defeats a majority-jamming adversary.
// Three arms under a (T, 1-eps) saturating adversary with eps < 1/2:
//   * LESK            — elects (success_rate ~ 1);
//   * symmetric-LESK  — the estimate diverges, election times out;
//   * Willard         — classic estimation, same failure mode.
// All three run on the batched kernel path (McConfig::batch). Once an
// arm's estimate passes SlotProbCache::kZeroU its slots cost a compare.
// `final_estimate` shows the divergence directly: the mean estimate u
// entering the last slot of the first few trials, read from traced
// sequential replays (bit-identical to the batched trials).
#include "bench_common.hpp"

#include <algorithm>

#include "baselines/lesk_symmetric.hpp"
#include "baselines/willard.hpp"
#include "channel/trace.hpp"

namespace jamelect::bench {
namespace {

constexpr std::uint64_t kN = 1024;
constexpr std::int64_t kMaxSlots = 1 << 17;
constexpr std::size_t kReplays = 4;

void run_arm(benchmark::State& state, const UniformProtocolFactory& factory) {
  const double eps = static_cast<double>(state.range(0)) / 1000.0;
  AdversarySpec spec = adversary("saturating", 64, eps);
  spec.protocol_eps = eps;
  McConfig cfg = mc(0xE12, kMaxSlots);
  cfg.batch = 64;
  McResult res;
  for (auto _ : state) res = run_aggregate_mc(factory, spec, kN, cfg);

  const std::size_t replays = std::min(kReplays, cfg.trials);
  double final_u = 0;
  for (std::size_t k = 0; k < replays; ++k) {
    Trace trace;
    (void)replay_aggregate_trial(factory, spec, kN, cfg, k, nullptr, &trace);
    final_u += trace.records().back().estimate;
  }
  state.counters["eps_milli"] = eps * 1000;
  state.counters["success_rate"] = res.success.rate;
  state.counters["slots_mean"] = res.slots.mean;
  state.counters["final_estimate"] = final_u / static_cast<double>(replays);
  state.counters["log2n"] = std::log2(static_cast<double>(kN));
}

// LESK needs an eps parameter; the arm uses a conservative fixed 0.25
// (running with eps_hat <= eps keeps Theorem 2.6 valid).
void E12_Lesk(benchmark::State& state) { run_arm(state, lesk_factory(0.25)); }
void E12_SymmetricLesk(benchmark::State& state) {
  run_arm(state, [] { return std::make_unique<SymmetricLesk>(); });
}
void E12_Willard(benchmark::State& state) {
  run_arm(state, [] { return std::make_unique<Willard>(); });
}

BENCHMARK(E12_Lesk)->Arg(250)->Arg(400)->Iterations(1)->Unit(benchmark::kMillisecond);
BENCHMARK(E12_SymmetricLesk)->Arg(250)->Arg(400)->Iterations(1)->Unit(benchmark::kMillisecond);
BENCHMARK(E12_Willard)->Arg(250)->Arg(400)->Iterations(1)->Unit(benchmark::kMillisecond);

}  // namespace
}  // namespace jamelect::bench

JAMELECT_BENCH_MAIN();
