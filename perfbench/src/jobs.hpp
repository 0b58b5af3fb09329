// The five engine paths the benchmark measures, as fixed Monte-Carlo
// jobs. `engines` runs them at n = 2^20 (cohort: 2^10) through the
// public run_*_mc drivers; `repro` and `service` attribute their own
// work to the same five paths.
#pragma once

#include <array>
#include <cmath>
#include <cstdint>
#include <memory>
#include <string>

#include "protocols/lesk.hpp"
#include "protocols/lesu.hpp"
#include "protocols/uniform_station.hpp"
#include "sim/adversary_spec.hpp"
#include "sim/montecarlo.hpp"

namespace perfbench {

enum class Path { kWide, kAdaptive, kLesu, kHybrid, kCohort };
inline constexpr std::array<Path, 5> kPaths = {
    Path::kWide, Path::kAdaptive, Path::kLesu, Path::kHybrid, Path::kCohort};

inline const char* path_name(Path p) {
  switch (p) {
    case Path::kWide: return "wide";
    case Path::kAdaptive: return "adaptive";
    case Path::kLesu: return "lesu";
    case Path::kHybrid: return "hybrid";
    case Path::kCohort: return "cohort";
  }
  return "?";
}

inline constexpr double kEps = 0.5;
inline constexpr std::int64_t kT = 64;
inline constexpr std::int64_t kMaxSlots = 1 << 17;

/// The jammer each path runs against: lane-invariant periodic for the
/// shared-jam-bit paths, adaptive collision_forcer for LaneAdversaryBank,
/// bernoulli for LESU.
inline jamelect::AdversarySpec path_adversary(Path p, std::uint64_t n) {
  jamelect::AdversarySpec spec;
  spec.policy = p == Path::kAdaptive ? "collision_forcer"
                : p == Path::kLesu   ? "bernoulli"
                                     : "periodic";
  spec.T = kT;
  spec.eps = kEps;
  spec.n = n;
  return spec;
}

inline jamelect::UniformProtocolFactory path_protocol(Path p) {
  if (p == Path::kLesu) {
    return [] { return std::make_unique<jamelect::Lesu>(); };
  }
  return [] { return std::make_unique<jamelect::Lesk>(kEps); };
}

/// Runs `cfg.trials` trials of path `p` at network size n through the
/// driver a user would call.
inline jamelect::McResult run_path(Path p, std::uint64_t n,
                                   const jamelect::McConfig& cfg) {
  using namespace jamelect;
  const AdversarySpec adv = path_adversary(p, n);
  const UniformProtocolFactory proto = path_protocol(p);
  switch (p) {
    case Path::kHybrid: return run_hybrid_mc(proto, adv, n, cfg);
    case Path::kCohort:
      return run_cohort_mc(
          [proto] { return std::make_unique<UniformStationAdapter>(proto()); },
          adv, n, EngineConfig{CdMode::kStrong, StopRule::kAllDone,
                               cfg.max_slots},
          cfg);
    default: return run_aggregate_mc(proto, adv, n, cfg);
  }
}

/// Total slots simulated by a run (mean x count is exact up to rounding).
inline std::uint64_t total_slots(const jamelect::McResult& r) {
  return static_cast<std::uint64_t>(
      std::llround(r.slots.mean * static_cast<double>(r.slots.count)));
}

}  // namespace perfbench
