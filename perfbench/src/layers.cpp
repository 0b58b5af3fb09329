// Traced run (--trace 1): per-layer metrics, taken by timing calls into
// each module's public functions from here -- support (RNG, caches,
// pool, stats), sim (the chunk runners the drivers call, the sequential
// and station engines), service (parse, key, cache, serialize, run_sweep,
// and the daemon's echoed phase timings). It is a process of its own:
// end-to-end runs carry no instrumentation.
#include <algorithm>
#include <atomic>
#include <memory>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "baselines/arss.hpp"
#include "baselines/lesk_symmetric.hpp"
#include "common.hpp"
#include "jobs.hpp"
#include "service/json.hpp"
#include "service/result_cache.hpp"
#include "service/sweep_request.hpp"
#include "service/sweep_runner.hpp"
#include "sim/batch.hpp"
#include "sim/cohort_batch.hpp"
#include "support/binomial_cache.hpp"
#include "support/slot_prob_cache.hpp"
#include "support/stats.hpp"
#include "support/thread_pool.hpp"
#include "support/wide_rng.hpp"

namespace perfbench {
namespace {

using namespace jamelect;

/// Best wall time of `reps` calls of f, in seconds.
template <class F>
double best_of(int reps, F&& f) {
  double best = 1e300;
  for (int i = 0; i < reps; ++i) {
    const auto t0 = Clock::now();
    f();
    best = std::min(best, seconds_since(t0));
  }
  return best;
}

/// Median wall time of `reps` calls of f, in microseconds.
template <class F>
double median_us(int reps, F&& f) {
  std::vector<double> t;
  for (int i = 0; i < reps; ++i) {
    const auto t0 = Clock::now();
    f();
    t.push_back(seconds_since(t0) * 1e6);
  }
  return median(t);
}

volatile double g_sink = 0.0;  // keeps measured results alive

void support_layer(Result& r) {
  {
    constexpr std::size_t kLanes = 64, kSteps = 20000;
    WideXoshiro w(kLanes);
    for (std::size_t l = 0; l < kLanes; ++l) w.seed_lane(l, l + 1);
    std::vector<double> out(w.padded_lanes());
    const double t = best_of(5, [&] {
      for (std::size_t i = 0; i < kSteps; ++i) {
        w.uniform_groups(kLanes / kWideLanes, out.data());
      }
      g_sink = g_sink + out[0];
    });
    r.put("support.wide_rng.ns_per_draw", t * 1e9 / (kLanes * kSteps), "ns",
          5);
  }
  // LESK's estimate moves on the lattice of eps/8 steps.
  std::vector<double> us;
  Rng rng(7);
  for (int i = 0; i < 200000; ++i) {
    us.push_back(static_cast<double>(rng.below(320)) * (kEps / 8.0));
  }
  {
    SlotProbCache cache(1u << 20);
    cache.set_lattice_step(kEps / 8.0);
    const double t = best_of(5, [&] {
      double acc = 0.0;
      for (double u : us) acc += cache.lookup(u).c_null;
      g_sink = g_sink + acc;
    });
    r.put("support.slot_prob_cache.ns_per_lookup",
          t * 1e9 / static_cast<double>(us.size()), "ns", 5);
    r.put("support.slot_prob_cache.misses",
          static_cast<double>(cache.misses()), "count", 1);
  }
  {
    BinomialSamplerCache cache;
    cache.set_lattice_step(kEps / 8.0);
    Rng draw(11);
    const double t = best_of(5, [&] {
      std::uint64_t acc = 0;
      for (double u : us) acc += binomial_plan_draw(cache.plan(1024, u), draw);
      g_sink = g_sink + static_cast<double>(acc);
    });
    r.put("support.binomial_cache.ns_per_sample",
          t * 1e9 / static_cast<double>(us.size()), "ns", 5);
    r.put("support.binomial_cache.plans", static_cast<double>(cache.misses()),
          "count", 1);
  }
  {
    struct Waits final : PoolTaskObserver {
      std::atomic<std::int64_t> idle{0}, caller{0};
      void on_task_start(std::size_t) noexcept override {}
      void on_task_end(std::size_t) noexcept override {}
      void on_worker_idle(std::size_t, std::int64_t ns) noexcept override {
        idle += ns;
      }
      void on_caller_wait(std::int64_t ns) noexcept override { caller += ns; }
    } waits;
    const std::size_t nproc =
        std::max<std::size_t>(2, std::thread::hardware_concurrency());
    ThreadPool pool(nproc - 1);
    std::atomic<std::uint64_t> hits{0};
    constexpr int kDispatches = 2000;
    const double t = best_of(3, [&] {
      for (int i = 0; i < kDispatches; ++i) {
        pool.parallel_for(pool.size() + 1, [&](std::size_t) { ++hits; });
      }
    });
    r.put("support.thread_pool.us_per_dispatch", t * 1e6 / kDispatches, "us",
          3);
    // Waiting across eight back-to-back pool-parallel Monte-Carlo jobs:
    // workers idle while the caller runs each job's serial part. The
    // pool times a wait only if the observer was attached when it began,
    // hence the empty dispatch first.
    pool.set_task_observer(&waits);
    pool.parallel_for(pool.size() + 1, [](std::size_t) {});
    waits.idle = 0;
    waits.caller = 0;
    McConfig cfg;
    cfg.trials = 2048;
    cfg.max_slots = kMaxSlots;
    cfg.batch = 64;
    cfg.pool = &pool;
    for (std::uint64_t job = 0; job < 8; ++job) {
      cfg.seed = 5 + job;
      g_sink = g_sink + run_path(Path::kWide, 1u << 20, cfg).slots.mean;
    }
    pool.set_task_observer(nullptr);
    r.put("support.thread_pool.idle_ms", static_cast<double>(waits.idle) / 1e6,
          "ms", 1);
    r.put("support.thread_pool.caller_wait_ms",
          static_cast<double>(waits.caller) / 1e6, "ms", 1);
  }
  {
    std::vector<double> samples(1u << 16);
    for (double& x : samples) x = static_cast<double>(rng.below(1000));
    const double t = best_of(5, [&] {
      g_sink = g_sink + summarize(samples).median;
    });
    r.put("support.stats.summarize_ms", t * 1e3, "ms", 5);
  }
}

/// Slots of the given outcomes.
std::uint64_t slots_of(const std::vector<TrialOutcome>& out) {
  std::uint64_t s = 0;
  for (const TrialOutcome& o : out) s += static_cast<std::uint64_t>(o.slots);
  return s;
}

/// Runs `trials` trials of path p directly through its chunk runner, in
/// 64-trial chunks as the driver does; returns the slots simulated.
std::uint64_t chunks(Path p, std::uint64_t n, std::size_t trials,
                     std::uint64_t seed, std::vector<TrialOutcome>& out) {
  const AdversarySpec adv = path_adversary(p, n);
  const Rng base(seed);
  out.assign(trials, TrialOutcome{});
  for (std::size_t first = 0; first < trials; first += 64) {
    const std::size_t count = std::min<std::size_t>(64, trials - first);
    if (p == Path::kCohort) {
      CohortBatchConfig cfg;
      cfg.n = n;
      cfg.max_slots = kMaxSlots;
      run_cohort_batch_trials(LeskParams{kEps, 0.0}, adv, cfg, base, first,
                              count, out.data() + first);
      continue;
    }
    BatchConfig cfg;
    cfg.n = n;
    cfg.max_slots = kMaxSlots;
    const BatchKernelSpec spec = p == Path::kLesu
                                     ? BatchKernelSpec{LesuParams{}}
                                     : BatchKernelSpec{LeskParams{kEps, 0.0}};
    if (p == Path::kHybrid) {
      run_batch_hybrid_trials(spec, adv, cfg, base, first, count,
                              out.data() + first);
    } else {
      run_batch_aggregate_trials(spec, adv, cfg, base, first, count,
                                 out.data() + first);
    }
  }
  return slots_of(out);
}

void sim_layer(Result& r) {
  std::vector<TrialOutcome> out;
  for (Path p : kPaths) {
    const std::string name = std::string("sim.") + path_name(p);
    const std::uint64_t n = p == Path::kCohort ? 1u << 10 : 1u << 20;
    std::uint64_t slots = 0;
    const double t =
        best_of(5, [&] { slots = chunks(p, n, 2048, 3, out); });
    r.put(name + ".ns_per_slot", t * 1e9 / static_cast<double>(slots), "ns",
          5);
  }
  {
    McConfig cfg;
    cfg.trials = 8192;
    cfg.seed = 3;
    cfg.max_slots = kMaxSlots;
    cfg.parallel = false;
    cfg.batch = 64;
    const double driver = best_of(9, [&] {
      g_sink = g_sink + run_path(Path::kWide, 1u << 20, cfg).slots.mean;
    });
    const double direct =
        best_of(9, [&] { chunks(Path::kWide, 1u << 20, 8192, 3, out); });
    r.put("sim.driver.overhead_ms", (driver - direct) * 1e3, "ms", 9);
  }
  {
    // SymmetricLesk has no kernel: the sequential engine runs it.
    AdversarySpec adv;
    adv.policy = "saturating";
    adv.eps = 0.25;
    adv.n = 1024;
    McConfig cfg;
    cfg.trials = 8;
    cfg.seed = 3;
    cfg.max_slots = kMaxSlots;
    cfg.parallel = false;
    cfg.batch = 64;
    McResult res;
    const double t = best_of(3, [&] {
      res = run_aggregate_mc([] { return std::make_unique<SymmetricLesk>(); },
                             adv, 1024, cfg);
    });
    r.put("sim.sequential.ns_per_slot",
          t * 1e9 / static_cast<double>(total_slots(res)), "ns", 3);
  }
  {
    AdversarySpec adv;
    adv.policy = "saturating";
    adv.n = 256;
    ArssParams params;
    params.gamma = arss_gamma(256, kT);
    McConfig cfg;
    cfg.trials = 8;
    cfg.seed = 3;
    cfg.max_slots = kMaxSlots;
    cfg.parallel = false;
    cfg.batch = 4;
    McResult res;
    const double t = best_of(3, [&] {
      res = run_station_mc(
          [params](StationId) -> StationProtocolPtr {
            return std::make_unique<ArssStation>(params);
          },
          adv, 256,
          EngineConfig{CdMode::kStrong, StopRule::kAllDone, kMaxSlots}, cfg);
    });
    r.put("sim.station.ns_per_slot",
          t * 1e9 / static_cast<double>(total_slots(res)), "ns", 3);
  }
  {
    const std::size_t nproc =
        std::max<std::size_t>(2, std::thread::hardware_concurrency());
    ThreadPool pool(nproc - 1);
    McConfig cfg;
    cfg.trials = 16384;
    cfg.seed = 9;
    cfg.max_slots = kMaxSlots;
    cfg.batch = 64;
    cfg.parallel = false;
    const auto job = [&] { (void)run_path(Path::kWide, 1u << 20, cfg); };
    const double one = best_of(3, job);
    cfg.parallel = true;
    cfg.pool = &pool;
    const double all = best_of(3, job);
    r.put("sim.repro.speedup_vs_1_thread", one / all, "x", 3);
  }
}

void service_layer(const Options& opt, Result& r) {
  using namespace jamelect::service;
  const std::string line =
      "{\"protocol\":\"lesk\",\"engine\":\"aggregate\",\"n\":65536,"
      "\"eps\":0.5,\"adversary\":\"periodic\",\"T\":64,\"trials\":1024,"
      "\"seed\":12345,\"max_slots\":131072,\"batch\":64}";
  const SweepLimits limits;
  std::optional<SweepRequest> parsed;
  r.put("service.parse_us", median_us(2000, [&] {
          const auto doc = Json::parse(line);
          parsed = doc ? SweepRequest::from_json(*doc, limits, nullptr)
                       : std::nullopt;
        }),
        "us", 2000);
  r.check(parsed.has_value(), "service: the request line parses");
  if (!parsed) return;
  const SweepRequest& req = *parsed;
  std::string key;
  r.put("service.cache_key_us", median_us(2000, [&] { key = req.cache_key(); }),
        "us", 2000);
  RunnerConfig runner;
  runner.mc_parallel = false;
  McResult res;
  {
    r.put("service.run_sweep_ms",
          best_of(5, [&] { res = run_sweep(req, runner); }) * 1e3, "ms", 5);
  }
  std::string result;
  r.put("service.serialize_us",
        median_us(2000, [&] { result = mc_result_to_json(res).dump(); }), "us",
        2000);
  ResultCache cache("");
  const std::string canonical = req.to_json().dump();
  std::vector<std::string> keys;
  for (int i = 0; i < 2000; ++i) keys.push_back(key + std::to_string(i));
  std::size_t next = 0;
  r.put("service.cache_store_us", median_us(2000, [&] {
          cache.store(keys[next++], canonical, result);
        }),
        "us", 2000);
  next = 0;
  r.put("service.cache_lookup_us", median_us(2000, [&] {
          const auto hit = cache.lookup(keys[next++]);
          g_sink = g_sink + static_cast<double>(hit ? hit->size() : 0);
        }),
        "us", 2000);

  // The daemon's phases, transport and latency tails, from a short run
  // of the service workload.
  Options svc = opt;
  svc.seconds = 2.0;
  Result daemon;
  if (run_service(svc, daemon)) {
    for (const auto& [name, m] : daemon.metrics) {
      if (name.rfind("service.", 0) == 0) r.metrics[name] = m;
    }
  }
  r.attempted += daemon.attempted;
  r.failed += daemon.failed;
}

}  // namespace

bool run_layers(const Options& opt, Result& result) {
  support_layer(result);
  sim_layer(result);
  service_layer(opt, result);

  // One second of the workload, for the slots one round simulates.
  Options one = opt;
  one.seconds = 1.0;
  Result round;
  if (!run_workload(one, round)) return false;
  result.attempted += round.attempted;
  result.failed += round.failed;
  result.put("sim.slots_total", static_cast<double>(round.round_slots),
             "count", 1);
  return true;
}

}  // namespace perfbench
