// jamelect_perfbench: runs one benchmark workload against the installed
// jamelect library (and, for `service`, the installed jamelectd), checks
// its outputs, and prints one line per metric followed by the JSON
// result line. Normally launched by perfbench/run.py.
#include <cstdio>
#include <cstdlib>
#include <iostream>
#include <string>

#include "common.hpp"

namespace perfbench {

namespace {
// Taken during static initialization, before main: the process's start.
const Clock::time_point g_process_start = Clock::now();
}  // namespace

double setup_seconds() { return seconds_since(g_process_start); }

void Result::check(bool ok, const std::string& what) {
  ++attempted;
  if (!ok) {
    ++failed;
    std::cerr << "perfbench: check failed: " << what << "\n";
  }
}

std::uint64_t mix_seed(std::uint64_t seed, std::uint64_t a,
                       std::uint64_t b) {
  // splitmix64 finalizer over the three inputs.
  std::uint64_t z = seed ^ (a * 0x9e3779b97f4a7c15ULL) ^
                    (b * 0xc2b2ae3d27d4eb4fULL);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return (z ^ (z >> 31)) | 1;
}

bool run_workload(const Options& opt, Result& result) {
  if (opt.workload == "engines") return run_engines(opt, result);
  if (opt.workload == "repro") return run_repro(opt, result);
  if (opt.workload == "service") return run_service(opt, result);
  std::cerr << "perfbench: unknown workload " << opt.workload << "\n";
  return false;
}

namespace {

// The metric names BENCHMARK.json declares, per mode. Every run prints
// exactly these.
const char* const kEndToEnd[] = {
    "setup_s",          "wide_slots_per_s",  "adaptive_slots_per_s",
    "lesu_slots_per_s", "hybrid_slots_per_s", "cohort_slots_per_s",
    "round_s",
};

const char* const kPerLayer[] = {
    "support.wide_rng.ns_per_draw",
    "support.slot_prob_cache.ns_per_lookup",
    "support.slot_prob_cache.misses",
    "support.binomial_cache.ns_per_sample",
    "support.binomial_cache.plans",
    "support.thread_pool.us_per_dispatch",
    "support.thread_pool.idle_ms",
    "support.thread_pool.caller_wait_ms",
    "support.stats.summarize_ms",
    "sim.wide.ns_per_slot",
    "sim.adaptive.ns_per_slot",
    "sim.lesu.ns_per_slot",
    "sim.hybrid.ns_per_slot",
    "sim.cohort.ns_per_slot",
    "sim.driver.overhead_ms",
    "sim.sequential.ns_per_slot",
    "sim.station.ns_per_slot",
    "sim.repro.speedup_vs_1_thread",
    "sim.slots_total",
    "service.parse_us",
    "service.cache_key_us",
    "service.cache_lookup_us",
    "service.cache_store_us",
    "service.serialize_us",
    "service.run_sweep_ms",
    "service.daemon.admission_us",
    "service.daemon.cache_probe_us",
    "service.daemon.queue_us",
    "service.daemon.compute_us",
    "service.daemon.serialize_us",
    "service.transport_us",
    "service.warm_p50_us",
    "service.warm_p99_us",
    "service.cold_p50_ms",
    "service.cold_p99_ms",
    "service.mixed_rps",
    "service.setup_ms",
};

bool parse_args(int argc, char** argv, Options& opt) {
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const std::string val = argv[i + 1];
    if (key == "--workload") {
      opt.workload = val;
    } else if (key == "--seed") {
      opt.seed = std::strtoull(val.c_str(), nullptr, 10);
    } else if (key == "--seconds") {
      opt.seconds = std::strtod(val.c_str(), nullptr);
    } else if (key == "--trace") {
      opt.trace = val == "1";
    } else if (key == "--bin-dir") {
      opt.bin_dir = val;
    } else if (key == "--work-dir") {
      opt.work_dir = val;
    } else {
      std::cerr << "perfbench: unknown option " << key << "\n";
      return false;
    }
  }
  return !opt.workload.empty() && !opt.work_dir.empty();
}

std::string fmt(double v) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  Options opt;
  if (!parse_args(argc, argv, opt)) {
    std::cerr << "usage: jamelect_perfbench --workload W --seed N --seconds S"
                 " --trace 0|1 --bin-dir DIR --work-dir DIR\n";
    return 2;
  }
  Result result;
  const bool ok =
      opt.trace ? run_layers(opt, result) : run_workload(opt, result);
  if (!ok || result.attempted == 0) {
    std::cerr << "perfbench: workload " << opt.workload << " did not run\n";
    return 1;
  }

  std::string json = "{\"correct\": " +
                     std::string(result.failed == 0 ? "true" : "false") +
                     ", \"attempted\": " + std::to_string(result.attempted) +
                     ", \"failed\": " + std::to_string(result.failed) +
                     ", \"metrics\": {";
  bool first = true;
  auto emit = [&](const char* name) {
    const auto it = result.metrics.find(name);
    if (it == result.metrics.end()) {
      std::cerr << "perfbench: metric " << name << " missing\n";
      return false;
    }
    const Metric& m = it->second;
    std::cout << name << " = " << fmt(m.value) << " " << m.unit
              << "  (samples " << m.samples << ")\n";
    json += std::string(first ? "" : ", ") + "\"" + name +
            "\": {\"value\": " + fmt(m.value) + ", \"unit\": \"" + m.unit +
            "\"}";
    first = false;
    return true;
  };
  bool complete = true;
  if (opt.trace) {
    for (const char* name : kPerLayer) complete = emit(name) && complete;
  } else {
    for (const char* name : kEndToEnd) complete = emit(name) && complete;
  }
  if (!complete) return 1;
  std::cout << "attempted = " << result.attempted
            << "  failed = " << result.failed << "\n";
  std::cout << json << "}}" << std::endl;
  return 0;
}
