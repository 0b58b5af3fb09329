// Shared plumbing of the benchmark driver: run options, the result
// record every workload fills, and timing helpers.
#pragma once

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string bin_dir;      ///< where jamelectd is installed
  std::string work_dir;     ///< scratch space inside the checkout
};

/// Wall seconds since this process started: its cold set-up time up to
/// the call.
double setup_seconds();

struct Metric {
  double value = 0.0;
  std::string unit;
  std::size_t samples = 0;  ///< observations behind the value
};

/// What a workload reports. `attempted` counts operations (reps,
/// claims, requests); `failed` those whose correctness check failed.
struct Result {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  /// Channel slots one round of the workload simulates.
  std::uint64_t round_slots = 0;
  std::map<std::string, Metric> metrics;

  void put(const std::string& name, double value, const std::string& unit,
           std::size_t samples) {
    metrics[name] = Metric{value, unit, samples};
  }
  /// Records one operation; prints `what` to stderr when it failed.
  void check(bool ok, const std::string& what);
};

/// Mixes a workload seed with small indices into an input seed.
std::uint64_t mix_seed(std::uint64_t seed, std::uint64_t a,
                       std::uint64_t b = 0);

inline double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t m = v.size() / 2;
  return v.size() % 2 ? v[m] : 0.5 * (v[m - 1] + v[m]);
}

/// Mean; used where samples are whole microseconds and a median of them
/// would read 0.
inline double mean(const std::vector<double>& v) {
  double sum = 0.0;
  for (double x : v) sum += x;
  return v.empty() ? 0.0 : sum / static_cast<double>(v.size());
}

/// Nearest-rank quantile, q in [0, 1].
inline double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  auto idx = static_cast<std::size_t>(q * static_cast<double>(v.size()));
  return v[std::min(idx, v.size() - 1)];
}

// Workloads. Each fills `result` with every end-to-end metric (and some
// per-layer ones) and returns false only when it could not run at all.
bool run_engines(const Options& opt, Result& result);
bool run_repro(const Options& opt, Result& result);
bool run_service(const Options& opt, Result& result);

/// Runs workload `opt.workload`; false if it is unknown or did not run.
bool run_workload(const Options& opt, Result& result);

/// Traced run: per-layer metrics of every module, plus a short run of
/// `opt.workload` for its slot count.
bool run_layers(const Options& opt, Result& result);

}  // namespace perfbench
