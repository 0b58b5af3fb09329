// Workload `engines`: the five kernel paths, single-threaded
// (McConfig::parallel = false, no pool, no service), batch = 64.
//
// On a shared VM a single busy thread drifts between a fast phase and
// one ~40% slower, so a per-run median moves with the phase mix. The
// fastest of many short reps does not: each metric is the best rep's
// slots/s, with reps interleaved round-robin across the jobs after one
// warm-up pass, so every job samples the same phases.
#include <cmath>
#include <string>
#include <vector>

#include "common.hpp"
#include "jobs.hpp"

namespace perfbench {
namespace {

using namespace jamelect;

struct Job {
  Path path;
  std::uint64_t n;
  std::size_t trials;  ///< sized so one rep takes ~10-30 ms
};

constexpr Job kJobs[] = {
    {Path::kWide, 1u << 20, 8192},   {Path::kAdaptive, 1u << 20, 4096},
    {Path::kLesu, 1u << 20, 2048},   {Path::kHybrid, 1u << 20, 512},
    {Path::kCohort, 1u << 10, 2048},
};

McConfig job_config(const Job& job, std::uint64_t seed) {
  McConfig cfg;
  cfg.trials = job.trials;
  cfg.seed = seed;
  cfg.max_slots = kMaxSlots;
  cfg.parallel = false;
  cfg.batch = 64;
  return cfg;
}

bool same_summary(const McResult& a, const McResult& b) {
  return a.trials == b.trials && a.successes == b.successes &&
         a.slots.mean == b.slots.mean && a.slots.max == b.slots.max &&
         a.jams.mean == b.jams.mean &&
         a.energy_per_station.mean == b.energy_per_station.mean;
}

/// Checks of one rep: every trial elects, and the adversary-budget
/// property jams <= (1 - eps) * max(slots, T), on the per-run extremes
/// (each trial's jams are bounded by its own slots <= the max).
bool rep_ok(const McResult& r, std::size_t trials) {
  const double cap = (1.0 - kEps) * std::max(r.slots.max, double(kT));
  return r.trials == trials && r.successes == trials &&
         r.jams.max <= cap + 1e-9;
}

bool same_outcome(const TrialOutcome& a, const TrialOutcome& b) {
  return a.elected == b.elected && a.slots == b.slots && a.jams == b.jams &&
         a.nulls == b.nulls && a.singles == b.singles &&
         a.collisions == b.collisions && a.transmissions == b.transmissions &&
         a.all_done == b.all_done && a.unique_leader == b.unique_leader &&
         a.leader == b.leader;
}

/// Untimed: trial-by-trial identity of the batched path with the
/// sequential engine (batch = 0) on a prefix of the job's trials, and
/// the per-trial jam budget on that prefix.
bool prefix_matches_sequential(const Job& job, std::uint64_t seed) {
  McConfig cfg = job_config(job, seed);
  cfg.trials = 64;
  cfg.keep_outcomes = true;
  const McResult batched = run_path(job.path, job.n, cfg);
  cfg.batch = 0;
  const McResult seq = run_path(job.path, job.n, cfg);
  if (batched.outcomes.size() != 64 || seq.outcomes.size() != 64) return false;
  for (std::size_t k = 0; k < 64; ++k) {
    const TrialOutcome& o = batched.outcomes[k];
    if (!same_outcome(o, seq.outcomes[k])) return false;
    const double cap =
        (1.0 - kEps) * static_cast<double>(std::max<std::int64_t>(o.slots, kT));
    if (static_cast<double>(o.jams) > cap + 1e-9) return false;
  }
  return true;
}

/// Untimed: the cohort engine and the aggregate engine simulate the same
/// strong-CD LESK process, so their mean slots-to-elect at n = 2^10 must
/// agree within a two-sample bound (5 standard errors).
bool cohort_agrees_with_aggregate(const McResult& cohort, std::uint64_t seed) {
  McConfig cfg = job_config(kJobs[4], seed);
  const McResult agg = run_path(Path::kWide, kJobs[4].n, cfg);
  const double se =
      std::sqrt(cohort.slots.stddev * cohort.slots.stddev /
                    static_cast<double>(cohort.slots.count) +
                agg.slots.stddev * agg.slots.stddev /
                    static_cast<double>(agg.slots.count));
  return std::abs(cohort.slots.mean - agg.slots.mean) <= 5.0 * se;
}

}  // namespace

bool run_engines(const Options& opt, Result& result) {
  constexpr std::size_t kCount = std::size(kJobs);
  std::vector<std::uint64_t> seeds(kCount);
  std::vector<McResult> first(kCount);
  // Set-up: warm-up passes over the five jobs fill caches and fault pages
  // in, and give the results every rep must reproduce.
  constexpr int kWarmupPasses = 4;
  for (int pass = 0; pass < kWarmupPasses; ++pass) {
    for (std::size_t j = 0; j < kCount; ++j) {
      seeds[j] = mix_seed(opt.seed, j + 1);
      first[j] = run_path(kJobs[j].path, kJobs[j].n,
                          job_config(kJobs[j], seeds[j]));
    }
  }
  result.put("setup_s", setup_seconds(), "s", 1);

  std::vector<double> best(kCount, 1e300);
  std::vector<std::uint64_t> slots(kCount);
  std::size_t rounds = 0;
  const auto start = Clock::now();
  do {
    for (std::size_t j = 0; j < kCount; ++j) {
      const Job& job = kJobs[j];
      const McConfig cfg = job_config(job, seeds[j]);
      const auto t0 = Clock::now();
      const McResult r = run_path(job.path, job.n, cfg);
      const double dt = seconds_since(t0);
      best[j] = std::min(best[j], dt);
      slots[j] = total_slots(r);
      result.check(rep_ok(r, job.trials) && same_summary(r, first[j]),
                   std::string("engines rep ") + path_name(job.path));
    }
    ++rounds;
  } while (seconds_since(start) < opt.seconds);

  double round_s = 0.0;
  result.round_slots = 0;
  for (std::size_t j = 0; j < kCount; ++j) {
    result.put(std::string(path_name(kJobs[j].path)) + "_slots_per_s",
               static_cast<double>(slots[j]) / best[j], "slots/s", rounds);
    round_s += best[j];
    result.round_slots += slots[j];
  }
  result.put("round_s", round_s, "s", rounds);

  for (std::size_t j = 0; j < kCount; ++j) {
    result.check(prefix_matches_sequential(kJobs[j], seeds[j]),
                 std::string("bit identity vs sequential: ") +
                     path_name(kJobs[j].path));
  }
  result.check(cohort_agrees_with_aggregate(first[4], mix_seed(opt.seed, 99)),
               "cohort vs aggregate mean slots at n = 2^10");
  return true;
}

}  // namespace perfbench
