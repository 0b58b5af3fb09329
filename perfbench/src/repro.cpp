// Workload `repro`: a fixed suite of the paper's claims (E1-E4, E7, E8,
// E10, E12 of EXPERIMENTS.md) at a fixed number of trials per point, run
// through the public McConfig drivers on a ThreadPool of nproc - 1
// workers (the calling thread participates, so nproc threads are busy).
//
// With every core busy the per-round figures are steady, so each metric
// is a median over rounds: round_s of the suite's wall time, and
// <path>_slots_per_s of the slots / wall of the points on that path.
//
// Trial counts are sized so that every point is mostly compute, not
// pool wake-ups, which jitter with the VM's load.
//
// Each round runs the whole suite on the same inputs and then checks
// every claim with thresholds computed here from the paper's statements;
// nothing is taken from analysis/theory.hpp.
#include <algorithm>
#include <atomic>
#include <cmath>
#include <string>
#include <thread>
#include <vector>

#include "baselines/arss.hpp"
#include "baselines/lesk_symmetric.hpp"
#include "baselines/willard.hpp"
#include "channel/channel.hpp"
#include "common.hpp"
#include "jobs.hpp"
#include "protocols/estimation.hpp"
#include "support/math.hpp"
#include "support/thread_pool.hpp"

namespace perfbench {
namespace {

using namespace jamelect;

/// Theorem 2.6's sufficient slot count for LESK with success probability
/// >= 1 - 1/n^beta: t > (16 / 5 eps) (a^2 ln(3 n^beta) / (2 ln a)
/// + a log2 n + 1), a = 8 / eps, and at least T.
double thm26_budget(double n, double eps, double beta, double T) {
  const double a = 8.0 / eps;
  const double t = 16.0 / (5.0 * eps) *
                   (a * a * std::log(3.0 * std::pow(n, beta)) /
                        (2.0 * std::log(a)) +
                    a * std::log2(n) + 1.0);
  return std::max(T, t);
}

enum class Kind { kAggregate, kHybrid, kCohort, kArss, kEstimation };
enum class Proto { kLesk, kLesu, kSymmetric, kWillard };

struct Point {
  std::string claim;  ///< which claim the point feeds
  Kind kind = Kind::kAggregate;
  Proto proto = Proto::kLesk;
  std::string policy = "saturating";
  double eps = kEps;
  std::int64_t T = kT;
  std::uint64_t n = 1024;
  std::size_t trials = 256;
  std::int64_t max_slots = kMaxSlots;
  int path = -1;  ///< index into kPaths, or -1: not one of the five
};

struct Outcome {
  std::size_t trials = 0, successes = 0;
  double mean = 0.0, stddev = 0.0;
  std::uint64_t slots = 0;
  std::size_t completed = 0, in_range = 0;  ///< Estimation points only
};

std::vector<Point> suite() {
  std::vector<Point> s;
  auto add = [&s](Point p) { s.push_back(std::move(p)); };
  auto path_of = [](Kind k, Proto pr, const std::string& policy) {
    if (pr == Proto::kSymmetric || pr == Proto::kWillard) return -1;
    if (k == Kind::kHybrid) return 3;
    if (k == Kind::kCohort) return 4;
    if (k != Kind::kAggregate) return -1;
    if (pr == Proto::kLesu) return 2;
    return policy == "single_denial" || policy == "collision_forcer" ||
                   policy == "bernoulli"
               ? 1
               : 0;
  };
  // E1: slots / log2 n flat in n, under three adversaries.
  for (const char* pol : {"none", "saturating", "single_denial"}) {
    for (int lg : {6, 10, 14, 20}) {
      add({"E1", Kind::kAggregate, Proto::kLesk, pol, kEps, kT, 1ull << lg,
           2048});
    }
  }
  // Cohort engine at the E1 sizes it serves.
  for (int lg : {6, 10}) {
    add({"E1c", Kind::kCohort, Proto::kLesk, "saturating", kEps, kT,
         1ull << lg, 2048});
  }
  // E2: eps sweep.
  for (double eps : {0.8, 0.5, 0.3, 0.2, 0.1}) {
    add({"E2", Kind::kAggregate, Proto::kLesk, "saturating", eps, kT, 4096,
         1024});
  }
  // E3: T-dominated regime.
  for (int lg : {10, 13, 16}) {
    add({"E3", Kind::kAggregate, Proto::kLesk, "saturating", kEps,
         std::int64_t{1} << lg, 1024, 256, 1 << 20});
  }
  // E4: Estimation(2) accuracy.
  for (int lg : {7, 14, 22}) {
    for (int lt : {0, 8, 12}) {
      add({"E4", Kind::kEstimation, Proto::kLesk,
           lt == 0 ? "none" : "saturating", kEps, std::int64_t{1} << lt,
           1ull << lg, 64, 1 << 24});
    }
  }
  // E7: weak-CD (Notification hybrid) over strong-CD.
  for (int lg : {4, 8, 14}) {
    add({"E7s", Kind::kAggregate, Proto::kLesk, "saturating", kEps, kT,
         1ull << lg, 1024});
    add({"E7w", Kind::kHybrid, Proto::kLesk, "saturating", kEps, kT,
         1ull << lg, 1024});
  }
  // E8: LESU and the ARSS per-station baseline.
  for (int lg : {6, 10}) {
    add({"E8u", Kind::kAggregate, Proto::kLesu, "saturating", kEps, kT,
         1ull << lg, 1024});
    add({"E8a", Kind::kArss, Proto::kLesk, "saturating", kEps, kT,
         1ull << lg, lg == 6 ? 32u : 16u});
  }
  // E10: the w.h.p. bound at n = 2^14, budget = Theorem 2.6's t.
  {
    const double n = 1 << 14;
    add({"E10", Kind::kAggregate, Proto::kLesk, "saturating", kEps, kT,
         1u << 14, 1024,
         static_cast<std::int64_t>(std::ceil(thm26_budget(n, kEps, 1, kT)))});
  }
  // E12: the asymmetric step is the point (eps = 1/4, to 2^17 slots).
  for (Proto pr : {Proto::kLesk, Proto::kSymmetric, Proto::kWillard}) {
    add({"E12", Kind::kAggregate, pr, "saturating", 0.25, kT, 1024, 128});
  }
  for (Point& p : s) p.path = path_of(p.kind, p.proto, p.policy);
  return s;
}

UniformProtocolFactory factory(const Point& p) {
  const double eps = p.eps;
  switch (p.proto) {
    case Proto::kLesu: return [] { return std::make_unique<Lesu>(); };
    case Proto::kSymmetric:
      return [] { return std::make_unique<SymmetricLesk>(); };
    case Proto::kWillard: return [] { return std::make_unique<Willard>(); };
    default: return [eps] { return std::make_unique<Lesk>(eps); };
  }
}

/// One Estimation(2) run to completion (or a stray Single).
void estimation_trial(const Point& p, Rng rng, Outcome& out,
                      std::atomic<std::uint64_t>& slots) {
  Estimation est(2);
  AdversarySpec spec;
  spec.policy = p.policy;
  spec.T = p.T;
  spec.eps = p.eps;
  spec.n = p.n;
  auto adv = make_adversary(spec, rng.child(1));
  Rng sim = rng.child(2);
  std::int64_t t = 0;
  while (!est.completed() && !est.elected() && t < p.max_slots) {
    const bool jam = adv->step();
    const auto probs = slot_probabilities(p.n, est.transmit_probability());
    const double r = sim.uniform();
    const std::uint64_t cnt =
        r < probs.null ? 0 : (r < probs.null + probs.single ? 1 : 2);
    const ChannelState st = resolve_slot(cnt, jam);
    est.observe(st);
    adv->observe({t, cnt, jam, st});
    ++t;
  }
  slots.fetch_add(static_cast<std::uint64_t>(t), std::memory_order_relaxed);
  if (!est.completed()) return;
  const double loglogn = std::log2(std::log2(static_cast<double>(p.n)));
  const double lo = loglogn - 1.0;
  const double hi =
      std::max(loglogn, std::log2(static_cast<double>(p.T))) + 1.0;
  const auto res = static_cast<double>(est.result());
  // Each trial owns its Outcome slot in the caller's vector.
  out.completed = 1;
  out.in_range = res >= lo && res <= hi ? 1 : 0;
}

Outcome run_point(const Point& p, std::uint64_t seed, ThreadPool& pool) {
  Outcome o;
  o.trials = p.trials;
  if (p.kind == Kind::kEstimation) {
    std::vector<Outcome> per(p.trials);
    std::atomic<std::uint64_t> slots{0};
    const Rng base(seed);
    pool.parallel_for(p.trials, [&](std::size_t k) {
      estimation_trial(p, base.child(k), per[k], slots);
    });
    for (const Outcome& t : per) {
      o.completed += t.completed;
      o.in_range += t.in_range;
    }
    o.slots = slots.load();
    o.mean = static_cast<double>(o.slots) / static_cast<double>(p.trials);
    return o;
  }
  McConfig cfg;
  cfg.trials = p.trials;
  cfg.seed = seed;
  cfg.max_slots = p.max_slots;
  cfg.parallel = true;
  cfg.pool = &pool;
  cfg.batch = p.kind == Kind::kArss ? 4 : 64;
  AdversarySpec adv;
  adv.policy = p.policy;
  adv.T = p.T;
  adv.eps = p.eps;
  adv.n = p.n;
  adv.protocol_eps = p.eps;
  const EngineConfig engine{CdMode::kStrong, StopRule::kAllDone, p.max_slots};
  McResult r;
  switch (p.kind) {
    case Kind::kHybrid: r = run_hybrid_mc(factory(p), adv, p.n, cfg); break;
    case Kind::kCohort: {
      const auto f = factory(p);
      r = run_cohort_mc(
          [f] { return std::make_unique<UniformStationAdapter>(f()); }, adv,
          p.n, engine, cfg);
      break;
    }
    case Kind::kArss: {
      ArssParams params;
      params.gamma = arss_gamma(p.n, p.T);
      r = run_station_mc(
          [params](StationId) -> StationProtocolPtr {
            return std::make_unique<ArssStation>(params);
          },
          adv, p.n, engine, cfg);
      break;
    }
    default: r = run_aggregate_mc(factory(p), adv, p.n, cfg); break;
  }
  o.successes = r.successes;
  o.mean = r.slots.mean;
  o.stddev = r.slots.stddev;
  o.slots = total_slots(r);
  return o;
}

/// Outcomes of the points feeding claim `claim`, in suite order.
std::vector<const Outcome*> of(const std::vector<Point>& s,
                               const std::vector<Outcome>& o,
                               const std::string& claim) {
  std::vector<const Outcome*> v;
  for (std::size_t i = 0; i < s.size(); ++i) {
    if (s[i].claim == claim) v.push_back(&o[i]);
  }
  return v;
}

double max_over_min(const std::vector<double>& v) {
  const auto [lo, hi] = std::minmax_element(v.begin(), v.end());
  return *hi / *lo;
}

/// Checks every claim on one round's outcomes.
void check_claims(const std::vector<Point>& s, const std::vector<Outcome>& o,
                  Result& result) {
  // Thm 2.6: slots / log2 n flat across n = 2^6..2^20, per adversary.
  {
    const auto e1 = of(s, o, "E1");
    bool ok = true;
    for (std::size_t a = 0; a < 3; ++a) {
      std::vector<double> ratio;
      for (std::size_t i = 0; i < 4; ++i) {
        const int lg = i == 0 ? 6 : i == 1 ? 10 : i == 2 ? 14 : 20;
        ratio.push_back(e1[a * 4 + i]->mean / lg);
        ok = ok && e1[a * 4 + i]->successes == e1[a * 4 + i]->trials;
      }
      ok = ok && max_over_min(ratio) <= 1.6;
    }
    result.check(ok, "E1: slots/log2 n flat across n (Thm 2.6)");
  }
  // Thm 2.6 shape in eps: slots grow as eps shrinks, under the bound.
  {
    const auto e2 = of(s, o, "E2");
    const double eps[] = {0.8, 0.5, 0.3, 0.2, 0.1};
    bool ok = true;
    for (std::size_t i = 0; i < e2.size(); ++i) {
      ok = ok && e2[i]->mean <= thm26_budget(4096, eps[i], 1, kT);
      if (i > 0) ok = ok && e2[i]->mean > e2[i - 1]->mean;
    }
    result.check(ok, "E2: slots grow as eps falls, within Thm 2.6's t");
  }
  // Thm 2.6, T-dominated: slots / T flat for T = 2^10..2^16.
  {
    const auto e3 = of(s, o, "E3");
    std::vector<double> ratio;
    const double T[] = {1 << 10, 1 << 13, 1 << 16};
    for (std::size_t i = 0; i < e3.size(); ++i) {
      ratio.push_back(e3[i]->mean / T[i]);
    }
    result.check(max_over_min(ratio) <= 1.25 && ratio.back() <= 1.0,
                 "E3: slots/T flat once T dominates");
  }
  // Lemma 2.8 (n >= 115): a run that completes returns i in
  // [loglog n - 1, max(loglog n, log T) + 1] except with probability
  // <= 2/n^2. Over the claim's 3 x 64 runs at each n = 2^7, 2^14, 2^22
  // that is <= 0.0235 expected misses, so P(>= 4 misses) <= 0.0235^4/4!
  // = 1.3e-8.
  {
    // Unjammed runs at small n often elect through a stray Single before
    // Estimation completes; the lemma speaks of the runs that complete.
    std::size_t completed = 0, missed = 0;
    for (const Outcome* p : of(s, o, "E4")) {
      completed += p->completed;
      missed += p->completed - p->in_range;
    }
    result.check(completed > 0 && missed <= 3,
                 "E4: Estimation in Lemma 2.8's range");
  }
  // Lemma 3.1: weak-CD / strong-CD slot ratio bounded, not growing in n.
  {
    const auto st = of(s, o, "E7s");
    const auto wk = of(s, o, "E7w");
    std::vector<double> ratio;
    bool ok = true;
    for (std::size_t i = 0; i < st.size(); ++i) {
      ratio.push_back(wk[i]->mean / st[i]->mean);
      ok = ok && wk[i]->successes == wk[i]->trials && ratio.back() <= 16.0;
    }
    result.check(ok && max_over_min(ratio) <= 2.0,
                 "E7: weak/strong ratio bounded (Lemma 3.1)");
  }
  // Section 1.3: LESK beats ARSS at n = 2^10.
  {
    const auto e1 = of(s, o, "E1");
    const auto arss = of(s, o, "E8a");
    const auto lesu = of(s, o, "E8u");
    result.check(e1[4 + 1]->mean < arss[1]->mean &&
                     lesu[1]->successes == lesu[1]->trials,
                 "E8: LESK faster than ARSS at n = 2^10");
  }
  // Thm 2.6 w.h.p.: at most 1/n failures within t(n); with 1024 trials
  // at n = 2^14 the expected count is <= 0.0625, so allow 2.
  {
    const Outcome* p = of(s, o, "E10").front();
    result.check(p->trials - p->successes <= 2,
                 "E10: failures within Thm 2.6's t(n) at n = 2^14");
  }
  // Section 2: at eps = 1/4 LESK elects, symmetric LESK and Willard fail.
  {
    const auto e12 = of(s, o, "E12");
    const auto success_rate = [](const Outcome* p) {
      return static_cast<double>(p->successes) / static_cast<double>(p->trials);
    };
    result.check(e12[0]->successes == e12[0]->trials &&
                     success_rate(e12[1]) <= 0.05 &&
                     success_rate(e12[2]) <= 0.05,
                 "E12: LESK elects, SymmetricLesk and Willard fail");
  }
  // Cohort and aggregate engines agree at n = 2^10 (5 standard errors).
  {
    const Outcome* c = of(s, o, "E1c")[1];
    const Outcome* a = of(s, o, "E1")[4 + 1];
    const double se = std::sqrt(c->stddev * c->stddev / double(c->trials) +
                                a->stddev * a->stddev / double(a->trials));
    result.check(std::abs(c->mean - a->mean) <= 5.0 * se,
                 "E1c: cohort engine agrees with aggregate");
  }
}

}  // namespace

bool run_repro(const Options& opt, Result& result) {
  const std::vector<Point> s = suite();
  const std::size_t nproc =
      std::max<std::size_t>(1, std::thread::hardware_concurrency());
  ThreadPool pool(nproc - 1 > 0 ? nproc - 1 : 1);
  std::vector<std::uint64_t> seeds(s.size());
  for (std::size_t i = 0; i < s.size(); ++i) seeds[i] = mix_seed(opt.seed, i);
  // Warm-up pass (part of set-up): starts the pool's threads, fills their
  // caches, and gives the reference every timed round must reproduce.
  std::vector<Outcome> first(s.size());
  for (std::size_t i = 0; i < s.size(); ++i) {
    first[i] = run_point(s[i], seeds[i], pool);
    result.round_slots += first[i].slots;
  }
  result.put("setup_s", setup_seconds(), "s", 1);

  std::vector<double> round_s;
  std::vector<std::vector<double>> path_rate(kPaths.size());
  const auto start = Clock::now();
  do {
    std::vector<Outcome> out(s.size());
    std::vector<double> path_slots(kPaths.size()), path_wall(kPaths.size());
    const auto t_round = Clock::now();
    for (std::size_t i = 0; i < s.size(); ++i) {
      const auto t0 = Clock::now();
      out[i] = run_point(s[i], seeds[i], pool);
      if (s[i].path >= 0) {
        const auto pi = static_cast<std::size_t>(s[i].path);
        path_wall[pi] += seconds_since(t0);
        path_slots[pi] += static_cast<double>(out[i].slots);
      }
    }
    round_s.push_back(seconds_since(t_round));
    for (std::size_t pi = 0; pi < kPaths.size(); ++pi) {
      path_rate[pi].push_back(path_slots[pi] / path_wall[pi]);
    }
    check_claims(s, out, result);
    bool same = true;
    for (std::size_t i = 0; i < s.size(); ++i) {
      same = same && out[i].slots == first[i].slots &&
             out[i].successes == first[i].successes &&
             out[i].in_range == first[i].in_range;
    }
    result.check(same, "repro: round reproduces the warm-up pass exactly");
  } while (seconds_since(start) < opt.seconds);

  for (std::size_t pi = 0; pi < kPaths.size(); ++pi) {
    result.put(std::string(path_name(kPaths[pi])) + "_slots_per_s",
               median(path_rate[pi]), "slots/s", path_rate[pi].size());
  }
  result.put("round_s", median(round_s), "s", round_s.size());
  return true;
}

}  // namespace perfbench
