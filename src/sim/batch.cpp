#include "sim/batch.hpp"

#include <algorithm>
#include <memory>
#include <optional>
#include <type_traits>
#include <utility>
#include <vector>

#include "baselines/baseline_kernels.hpp"
#include "channel/channel.hpp"
#include "obs/metrics.hpp"
#include "obs/prof.hpp"
#include "protocols/interval_partition.hpp"
#include "protocols/kernels.hpp"
#include "sim/batch_wide.hpp"
#include "sim/lane_adversary.hpp"
#include "support/ctr_rng.hpp"
#include "support/expects.hpp"
#include "support/math.hpp"
#include "support/slot_prob_cache.hpp"
#include "support/wide_rng.hpp"

namespace jamelect {

namespace {

/// Params -> kernel type map for std::visit dispatch.
template <class Params>
struct KernelFor;
template <>
struct KernelFor<PlainUniformParams> {
  using type = kernels::UniformKernel;
};
template <>
struct KernelFor<LeskParams> {
  using type = kernels::LeskKernel;
};
template <>
struct KernelFor<LesuParams> {
  using type = kernels::LesuKernel;
};
template <>
struct KernelFor<WillardParams> {
  using type = kernels::WillardKernel;
};
template <>
struct KernelFor<SymmetricLeskParams> {
  using type = kernels::SymmetricLeskKernel;
};
template <>
struct KernelFor<NakanoOlariuParams> {
  using type = kernels::NakanoOlariuKernel;
};
template <>
struct KernelFor<NoCdElectionParams> {
  using type = kernels::NoCdKernel;
};

[[nodiscard]] std::uint64_t category(double r, const SlotProbCache::Entry& e) {
  if (r < e.c_null) return 0;
  if (r < e.c_single) return 1;
  return 2;
}

void record_state(TrialOutcome& o, ChannelState state) {
  switch (state) {
    case ChannelState::kNull: ++o.nulls; break;
    case ChannelState::kSingle: ++o.singles; break;
    case ChannelState::kCollision: ++o.collisions; break;
  }
}

/// Policies whose jam schedule is a deterministic function of (slot,
/// own budget) alone — no rng draws, no observe() feedback — produce
/// the identical bit sequence in every lane, so one adversary instance
/// can serve the whole chunk with a single step() per slot. The
/// adaptive built-ins (bernoulli, single_denial, collision_forcer)
/// stay per-lane but still run wide through LaneAdversaryBank; every
/// built-in policy therefore has a wide engine, and scalar lanes
/// remain reachable only by explicit request (kScalarLanes) or for
/// out-of-tree policies routed through the sequential fallback.
[[nodiscard]] bool lane_invariant_policy(const AdversarySpec& spec) {
  return spec.policy == "none" || spec.policy == "saturating" ||
         spec.policy == "periodic" || spec.policy == "pulse" ||
         spec.policy == "interval_buster";
}

/// Per-thread reusable chunk state for the multi-core orchestrator.
///
/// SlotProbCache entries are pure functions of (n, u) — protocol- and
/// trial-independent — so a warm cache from one chunk answers the next
/// chunk's lookups without redoing the exp/log chains, and reuse can
/// never change a result. Each worker thread owns one workspace
/// (thread_local), so chunks sharded across the ThreadPool touch no
/// shared mutable state: bit-identity across thread counts is
/// structural, and TSAN has nothing to watch here. A small LRU of
/// caches keyed by n covers sweeps that interleave station counts
/// (the hybrid engine uses n and n - 1 in one chunk).
///
/// Counter discipline: caches outlive chunks, so the engine rollup
/// must emit per-chunk DELTAS of the cache counters, not totals —
/// emit_cache_counters() tracks the last-emitted watermark per cache.
class BatchWorkspace {
 public:
  SlotProbCache& cache(std::uint64_t n) {
    for (std::size_t i = 0; i < entries_.size(); ++i) {
      if (entries_[i]->cache.n() == n) {
        if (i != 0) {
          std::rotate(entries_.begin(),
                      entries_.begin() + static_cast<std::ptrdiff_t>(i),
                      entries_.begin() + static_cast<std::ptrdiff_t>(i) + 1);
        }
        JAMELECT_OBS_COUNT("mc.parallel_cache_reuse", 1);
        return entries_.front()->cache;
      }
    }
    if (entries_.size() >= kMaxCaches) entries_.pop_back();
    entries_.insert(entries_.begin(), std::make_unique<Entry>(n));
    return entries_.front()->cache;
  }

  /// Emits the SlotProbCache effectiveness rollup accrued since the
  /// previous call (hits = lookups - misses; dense_hits is the subset
  /// of hits answered by the lattice index instead of a hash probe).
  void emit_cache_counters() {
    for (auto& e : entries_) {
      const std::uint64_t lookups = e->cache.lookups();
      const std::uint64_t misses = e->cache.misses();
      const std::uint64_t dense = e->cache.dense_hits();
      JAMELECT_OBS_COUNT(
          "engine.batch.cache_lookups",
          static_cast<std::int64_t>(lookups - e->lookups_seen));
      JAMELECT_OBS_COUNT(
          "engine.batch.cache_hits",
          static_cast<std::int64_t>((lookups - misses) -
                                    (e->lookups_seen - e->misses_seen)));
      JAMELECT_OBS_COUNT("engine.batch.cache_dense_hits",
                         static_cast<std::int64_t>(dense - e->dense_seen));
      JAMELECT_OBS_COUNT("engine.batch.cache_misses",
                         static_cast<std::int64_t>(misses - e->misses_seen));
      // Per-thread mirror for the profiler: the scaling report needs
      // hit-rate VARIANCE across workers, which the process-wide
      // registry rollup above cannot reconstruct.
      obs::prof_count(obs::ProfCounter::kCacheLookups,
                      static_cast<std::int64_t>(lookups - e->lookups_seen));
      obs::prof_count(obs::ProfCounter::kCacheHits,
                      static_cast<std::int64_t>((lookups - misses) -
                                                (e->lookups_seen -
                                                 e->misses_seen)));
      e->lookups_seen = lookups;
      e->misses_seen = misses;
      e->dense_seen = dense;
    }
  }

 private:
  struct Entry {
    explicit Entry(std::uint64_t n) : cache(n) {}
    SlotProbCache cache;
    std::uint64_t lookups_seen = 0;
    std::uint64_t misses_seen = 0;
    std::uint64_t dense_seen = 0;
  };
  static constexpr std::size_t kMaxCaches = 8;
  std::vector<std::unique_ptr<Entry>> entries_;
};

[[nodiscard]] BatchWorkspace& local_batch_workspace() {
  thread_local BatchWorkspace workspace;
  return workspace;
}

/// Strong-CD aggregate lanes: the SoA mirror of run_aggregate
/// (sim/aggregate.cpp), one uniform() per slot + one below(n) on
/// election per lane, additions in the same per-lane order.
///
/// `make_rng(trial)` builds the simulation-draw generator for an
/// absolute trial index: Rng (xoshiro child chains) or AesCtrRng
/// (counter streams) — both expose the identical uniform / bernoulli /
/// below façade, so the engine body is backend-agnostic.
template <class Kernel, class MakeRng>
void aggregate_lanes(const typename Kernel::Params& params,
                     const AdversarySpec& spec, const BatchConfig& config,
                     const Rng& base, std::size_t first, std::size_t count,
                     TrialOutcome* out, const MakeRng& make_rng) {
  JAMELECT_EXPECTS(config.n >= 1);
  JAMELECT_EXPECTS(config.max_slots >= 1);
  using LaneRng = std::decay_t<decltype(make_rng(std::size_t{0}))>;
  const std::uint64_t n = config.n;
  const double nd = static_cast<double>(n);
  BatchWorkspace& workspace = local_batch_workspace();
  SlotProbCache& cache = workspace.cache(n);

  std::vector<Kernel> kernels(count, Kernel(params));
  std::vector<LaneRng> rngs;
  rngs.reserve(count);
  // Deterministic policies share one adversary across all lanes (its rng
  // child stream exists but is never drawn from, so lane 0's seed is as
  // good as any); adaptive policies get one instance per lane.
  const bool shared_adv = lane_invariant_policy(spec);
  std::unique_ptr<BoundedAdversary> adv_shared;
  std::vector<std::unique_ptr<BoundedAdversary>> advs;
  if (shared_adv) {
    adv_shared = make_adversary(spec, base.child(first).child(0xad50));
  } else {
    advs.resize(count);
  }
  std::vector<std::uint32_t> lane_trial(count);
  std::vector<TrialOutcome> acc(count);
  for (std::size_t k = 0; k < count; ++k) {
    if (!shared_adv) {
      advs[k] = make_adversary(spec, base.child(first + k).child(0xad50));
    }
    rngs.push_back(make_rng(first + k));
    lane_trial[k] = static_cast<std::uint32_t>(k);
  }

  std::size_t active = count;
  std::int64_t slots_total = 0;
  // Scalar path: the per-lane slot body fuses RNG draw, classification,
  // cache lookup, and kernel step — too hot to time individually, so the
  // whole loop is attributed to `classify` (the wide engines break the
  // phases out; this path exists for lane-variant adversaries).
  obs::PhaseAccumulator prof;
  prof.start();
  for (Slot slot = 0; slot < config.max_slots && active > 0; ++slot) {
    slots_total += static_cast<std::int64_t>(active);
    const bool jam_all = shared_adv && adv_shared->step();
    for (std::size_t lane = 0; lane < active;) {
      Kernel& kern = kernels[lane];
      const SlotProbCache::Entry& e = cache.lookup(kern.broadcast_u());
      const bool jammed = shared_adv ? jam_all : advs[lane]->step();
      const std::uint64_t cnt = category(rngs[lane].uniform(), e);
      const ChannelState state = resolve_slot(cnt, jammed);

      TrialOutcome& o = acc[lane];
      ++o.slots;
      o.transmissions += nd * e.p;
      if (jammed) ++o.jams;
      record_state(o, state);

      kern.step(state);
      if (!shared_adv) advs[lane]->observe({slot, cnt, jammed, state});

      if (kern.done()) {
        JAMELECT_ENSURES(state == ChannelState::kSingle);
        o.elected = true;
        o.all_done = true;
        o.unique_leader = true;
        o.leader = rngs[lane].below(n);
        out[lane_trial[lane]] = o;
        --active;
        if (lane != active) {
          kernels[lane] = kernels[active];
          rngs[lane] = rngs[active];
          if (!shared_adv) advs[lane] = std::move(advs[active]);
          lane_trial[lane] = lane_trial[active];
          acc[lane] = acc[active];
        }
      } else {
        ++lane;
      }
    }
  }
  prof.stop(obs::Phase::kClassify);
  // Right-censored lanes: budget exhausted without election.
  for (std::size_t lane = 0; lane < active; ++lane) {
    out[lane_trial[lane]] = acc[lane];
  }
  JAMELECT_OBS_COUNT("engine.batch.aggregate_chunks", 1);
  JAMELECT_OBS_COUNT("engine.batch.slots", slots_total);
  JAMELECT_OBS_COUNT("mc.batch_scalar_slots", slots_total);
  workspace.emit_cache_counters();
}

/// A kernel slot that may be unoccupied — the batch mirror of the
/// UniformProtocolPtr null/reset dance in run_hybrid_notification.
template <class Kernel>
struct MaybeKernel {
  Kernel kernel;
  bool valid = false;
};

/// The P1..P4 phase machine of run_hybrid_notification, shared by the
/// scalar and wide hybrid lane engines.
enum class HybridPhase : std::uint8_t { kP1, kP2, kP3, kP4, kDone };

/// Weak-CD hybrid Notification lanes: the SoA mirror of
/// run_hybrid_notification (sim/hybrid.cpp). classify_slot is shared
/// across lanes (lockstep keeps every active lane at the same slot);
/// each lane runs the P1..P4 phase machine with kernels standing in
/// for the shared/l/s protocol instances.
template <class Kernel, class MakeRng>
void hybrid_lanes(const typename Kernel::Params& params,
                  const AdversarySpec& spec, const BatchConfig& config,
                  const Rng& base, std::size_t first, std::size_t count,
                  TrialOutcome* out, const MakeRng& make_rng) {
  JAMELECT_EXPECTS(config.n >= 3);
  JAMELECT_EXPECTS(config.max_slots >= 1);
  using LaneRng = std::decay_t<decltype(make_rng(std::size_t{0}))>;
  const std::uint64_t n = config.n;
  const double nd = static_cast<double>(n);
  const double nm1d = static_cast<double>(n - 1);
  BatchWorkspace& workspace = local_batch_workspace();
  SlotProbCache& cache_n = workspace.cache(n);
  SlotProbCache& cache_nm1 = workspace.cache(n - 1);

  std::vector<HybridPhase> phases(count, HybridPhase::kP1);
  std::vector<MaybeKernel<Kernel>> shared(count, {Kernel(params), false});
  std::vector<MaybeKernel<Kernel>> l_a(count, {Kernel(params), false});
  std::vector<MaybeKernel<Kernel>> s_a(count, {Kernel(params), false});
  std::vector<LaneRng> rngs;
  rngs.reserve(count);
  const bool shared_adv = lane_invariant_policy(spec);
  std::unique_ptr<BoundedAdversary> adv_shared;
  std::vector<std::unique_ptr<BoundedAdversary>> advs;
  if (shared_adv) {
    adv_shared = make_adversary(spec, base.child(first).child(0xad50));
  } else {
    advs.resize(count);
  }
  std::vector<std::uint32_t> lane_trial(count);
  std::vector<TrialOutcome> acc(count);
  for (std::size_t k = 0; k < count; ++k) {
    if (!shared_adv) {
      advs[k] = make_adversary(spec, base.child(first + k).child(0xad50));
    }
    rngs.push_back(make_rng(first + k));
    lane_trial[k] = static_cast<std::uint32_t>(k);
  }

  std::size_t active = count;
  std::int64_t slots_total = 0;
  // Scalar path: coarse attribution — the whole phase-machine loop runs
  // as `classify` (see aggregate_lanes; the wide engines split phases).
  obs::PhaseAccumulator prof;
  prof.start();
  for (Slot slot = 0; slot < config.max_slots && active > 0; ++slot) {
    const IntervalPosition pos = classify_slot(slot);
    slots_total += static_cast<std::int64_t>(active);
    const bool jam_all = shared_adv && adv_shared->step();
    for (std::size_t lane = 0; lane < active;) {
      const HybridPhase phase = phases[lane];
      LaneRng& rng = rngs[lane];
      const bool jammed = shared_adv ? jam_all : advs[lane]->step();

      std::uint64_t cnt = 0;
      double expected_tx = 0.0;

      if (pos.set != IntervalSet::kPadding) {
        switch (phase) {
          case HybridPhase::kP1:
            if (pos.set == IntervalSet::kC1) {
              if (pos.interval_start() || !shared[lane].valid) {
                shared[lane] = {Kernel(params), true};
              }
              const SlotProbCache::Entry& e =
                  cache_n.lookup(shared[lane].kernel.broadcast_u());
              expected_tx = nd * e.p;
              cnt = category(rng.uniform(), e);
            }
            break;
          case HybridPhase::kP2:
            if (pos.set == IntervalSet::kC1) {
              if (pos.interval_start() || !l_a[lane].valid) {
                l_a[lane] = {Kernel(params), true};
              }
              const double p =
                  transmit_probability(l_a[lane].kernel.broadcast_u());
              expected_tx = p;
              cnt = rng.bernoulli(p) ? 1 : 0;
            } else if (pos.set == IntervalSet::kC2) {
              if (pos.interval_start() || !shared[lane].valid) {
                shared[lane] = {Kernel(params), true};
              }
              const SlotProbCache::Entry& e =
                  cache_nm1.lookup(shared[lane].kernel.broadcast_u());
              expected_tx = nm1d * e.p;
              cnt = category(rng.uniform(), e);
            }
            break;
          case HybridPhase::kP3:
            if (pos.set == IntervalSet::kC1) {
              cnt = n - 2;  // all of R confirms; n >= 3 so cnt >= 1
              expected_tx = static_cast<double>(n - 2);
            } else if (pos.set == IntervalSet::kC2) {
              if (pos.interval_start() || !s_a[lane].valid) {
                s_a[lane] = {Kernel(params), true};
              }
              const double p =
                  transmit_probability(s_a[lane].kernel.broadcast_u());
              expected_tx = p;
              cnt = rng.bernoulli(p) ? 1 : 0;
            } else {  // C3: l announces
              cnt = 1;
              expected_tx = 1.0;
            }
            break;
          case HybridPhase::kP4:
            if (pos.set == IntervalSet::kC3) {
              cnt = 1;  // l keeps announcing until released
              expected_tx = 1.0;
            }
            break;
          case HybridPhase::kDone:
            break;
        }
      }

      const ChannelState state = resolve_slot(cnt, jammed);

      TrialOutcome& o = acc[lane];
      ++o.slots;
      o.transmissions += expected_tx;
      if (jammed) ++o.jams;
      record_state(o, state);
      if (!shared_adv) advs[lane]->observe({slot, cnt, jammed, state});

      if (pos.set != IntervalSet::kPadding) {
        switch (phase) {
          case HybridPhase::kP1:
            if (pos.set == IntervalSet::kC1) {
              if (state == ChannelState::kSingle) {
                l_a[lane] = {shared[lane].kernel, true};
                l_a[lane].kernel.step(ChannelState::kCollision);
                shared[lane].valid = false;
                phases[lane] = HybridPhase::kP2;
              } else {
                shared[lane].kernel.step(state);
              }
            }
            break;
          case HybridPhase::kP2:
            if (pos.set == IntervalSet::kC1) {
              if (l_a[lane].valid) {
                l_a[lane].kernel.step(cnt >= 1 ? ChannelState::kCollision
                                               : state);
              }
            } else if (pos.set == IntervalSet::kC2) {
              if (state == ChannelState::kSingle) {
                s_a[lane] = {shared[lane].kernel, true};
                s_a[lane].kernel.step(ChannelState::kCollision);
                shared[lane].valid = false;
                l_a[lane].valid = false;
                phases[lane] = HybridPhase::kP3;
              } else if (shared[lane].valid) {
                shared[lane].kernel.step(state);
              }
            }
            break;
          case HybridPhase::kP3:
            if (pos.set == IntervalSet::kC2) {
              if (s_a[lane].valid) {
                s_a[lane].kernel.step(cnt >= 1 ? ChannelState::kCollision
                                               : state);
              }
            } else if (pos.set == IntervalSet::kC3) {
              if (state == ChannelState::kSingle) {
                s_a[lane].valid = false;
                phases[lane] = HybridPhase::kP4;
              }
            }
            break;
          case HybridPhase::kP4:
            if (pos.set == IntervalSet::kC1 &&
                state == ChannelState::kNull) {
              phases[lane] = HybridPhase::kDone;
            }
            break;
          case HybridPhase::kDone:
            break;
        }
      }

      if (phases[lane] == HybridPhase::kDone) {
        o.elected = true;
        o.all_done = true;
        o.unique_leader = true;
        o.leader = rng.below(n);
        out[lane_trial[lane]] = o;
        --active;
        if (lane != active) {
          phases[lane] = phases[active];
          shared[lane] = shared[active];
          l_a[lane] = l_a[active];
          s_a[lane] = s_a[active];
          rngs[lane] = rngs[active];
          if (!shared_adv) advs[lane] = std::move(advs[active]);
          lane_trial[lane] = lane_trial[active];
          acc[lane] = acc[active];
        }
      } else {
        ++lane;
      }
    }
  }
  prof.stop(obs::Phase::kClassify);
  for (std::size_t lane = 0; lane < active; ++lane) {
    out[lane_trial[lane]] = acc[lane];
  }
  JAMELECT_OBS_COUNT("engine.batch.hybrid_chunks", 1);
  JAMELECT_OBS_COUNT("engine.batch.slots", slots_total);
  JAMELECT_OBS_COUNT("mc.batch_scalar_slots", slots_total);
  workspace.emit_cache_counters();
}

/// SIMD-wide strong-CD aggregate lanes: same per-lane draw sequence
/// and double arithmetic as aggregate_lanes, but every slot advances
/// all lanes through one fused primitive (sim/batch_wide.hpp) — a
/// vector xoshiro step, branch-free classification against cached
/// thresholds, and masked accumulator updates. Requires a
/// lane-invariant adversary (one shared jam bit per slot). Retirement
/// is a post-sweep compaction pass instead of the scalar mid-loop
/// swap-remove; the two are equivalent because lanes are mutually
/// independent within a slot (the only shared state, the adversary,
/// steps once per slot either way).
///
/// Per-lane nulls/singles/transmissions live in SoA accumulators;
/// slots and jams are chunk-shared scalars (lockstep + shared jam bit
/// make them identical across live lanes), and collisions fall out as
/// slots - nulls - singles. Pad lanes (count or active not a multiple
/// of kWideLanes) carry valid-but-ignored state: they advance with
/// their group and are never finalized.
template <class Kernel>
void aggregate_lanes_wide(const typename Kernel::Params& params,
                          const AdversarySpec& spec, const BatchConfig& config,
                          const Rng& base, std::size_t first, std::size_t count,
                          TrialOutcome* out) {
  JAMELECT_EXPECTS(config.n >= 1);
  JAMELECT_EXPECTS(config.max_slots >= 1);
  JAMELECT_EXPECTS(lane_invariant_policy(spec));
  constexpr bool kIsUniform = std::is_same_v<Kernel, kernels::UniformKernel>;
  constexpr bool kIsLesk = kernels::kLeskWalk<Kernel>;
  // Everything that is neither a fixed exponent nor a LESK lattice walk
  // (LESU and the baseline kernels) steps scalar off the vector-
  // classified states; the only contract is that done() flips exactly
  // on a clean Single (retirement keys on the classified state).
  constexpr bool kIsGeneric = !kIsUniform && !kIsLesk;

  const std::uint64_t n = config.n;
  BatchWorkspace& workspace = local_batch_workspace();
  SlotProbCache& cache = workspace.cache(n);
  double lesk_inc = 0.0;
  if constexpr (kIsLesk) {
    lesk_inc = Kernel(params).inc;
    // LESK's u moves on the {-1, +inc} lattice with 1.0 an (almost
    // always exact) multiple of inc, so steady-state lookups hit the
    // dense index.
    cache.set_lattice_step(lesk_inc);
  }

  const wide::SlotOps& ops = wide::slot_ops(active_wide_isa());
  WideXoshiro rng(count);
  const std::size_t padded = rng.padded_lanes();

  std::vector<double> c_null(padded), c_single(padded), exp_tx(padded);
  std::vector<double> transmissions(padded, 0.0);
  std::vector<std::int64_t> nulls(padded, 0), singles(padded, 0);
  std::vector<std::int64_t> states(padded, 0);
  std::vector<std::uint32_t> lane_trial(count);
  std::vector<double> us;      // non-Uniform: per-lane broadcast exponent
  std::vector<Kernel> kerns;   // generic kernels: full state per lane
  if constexpr (!kIsUniform) {
    us.assign(padded, Kernel(params).broadcast_u());
  }
  if constexpr (kIsGeneric) kerns.assign(count, Kernel(params));

  auto adv = make_adversary(spec, base.child(first).child(0xad50));
  for (std::size_t k = 0; k < count; ++k) {
    // Lane k's sim stream: the exact seed derivation of the scalar
    // path — base.child(first + k).child(0x51e0).
    rng.seed_lane(k, base.child(first + k).child(0x51e0).seed());
    lane_trial[k] = static_cast<std::uint32_t>(k);
  }

  if constexpr (kIsUniform) {
    // One u forever: fill the thresholds once, never refresh.
    const SlotProbCache::Entry e = cache.lookup(Kernel(params).broadcast_u());
    std::fill(c_null.begin(), c_null.end(), e.c_null);
    std::fill(c_single.begin(), c_single.end(), e.c_single);
    std::fill(exp_tx.begin(), exp_tx.end(), e.exp_tx);
  } else {
    cache.lookup_lanes(us.data(), padded, c_null.data(), c_single.data(),
                       exp_tx.data());
  }

  const wide::LaneBlock block{rng.plane(0),     rng.plane(1),
                              rng.plane(2),     rng.plane(3),
                              c_null.data(),    c_single.data(),
                              exp_tx.data(),    transmissions.data(),
                              nulls.data(),     singles.data(),
                              states.data()};

  std::size_t active = count;
  std::int64_t slots_done = 0;  // == every live lane's slot count
  std::int64_t jams_done = 0;   // shared jam bit: identical per lane
  std::int64_t slots_total = 0;

  const auto finalize = [&](std::size_t lane, bool elected) {
    TrialOutcome o;
    o.slots = slots_done;
    o.jams = jams_done;
    o.nulls = nulls[lane];
    o.singles = singles[lane];
    o.collisions = slots_done - nulls[lane] - singles[lane];
    o.transmissions = transmissions[lane];
    if (elected) {
      o.elected = true;
      o.all_done = true;
      o.unique_leader = true;
      o.leader = rng.below_lane(lane, n);
    }
    out[lane_trial[lane]] = o;
  };

  // Phase attribution (batched locally, one flush per chunk): the
  // fused slot primitives are `classify` (they include the RNG
  // advance — draw and classification are one pass on this path),
  // threshold refreshes are `cache_lookup`, and LESU stepping plus
  // retirement compaction are `lattice_update`. Off = one dead branch
  // per section; never touches the draw sequence.
  obs::PhaseAccumulator prof;

  for (Slot slot = 0; slot < config.max_slots && active > 0; ++slot) {
    slots_total += static_cast<std::int64_t>(active);
    ++slots_done;
    const std::size_t groups = (active + kWideLanes - 1) / kWideLanes;
    const std::size_t span = groups * kWideLanes;
    const bool jammed = adv->step();

    if (jammed) {
      // Every lane sees Collision regardless of its draw: advance the
      // streams (the scalar path draws and discards), accumulate
      // expected transmissions, fold the Collision into the kernels.
      // No lane can retire, so no compaction pass.
      ++jams_done;
      prof.start();
      if constexpr (kIsLesk) {
        ops.jammed_slot_lesk(block, us.data(), lesk_inc, groups);
        prof.stop(obs::Phase::kClassify);
        cache.lookup_lanes(us.data(), span, c_null.data(), c_single.data(),
                           exp_tx.data());
        prof.stop(obs::Phase::kCacheLookup);
      } else if constexpr (kIsGeneric) {
        ops.jammed_slot(block, groups);
        prof.stop(obs::Phase::kClassify);
        for (std::size_t lane = 0; lane < active; ++lane) {
          kerns[lane].step(ChannelState::kCollision);
          us[lane] = kerns[lane].broadcast_u();
        }
        prof.stop(obs::Phase::kLatticeUpdate);
        cache.lookup_lanes(us.data(), span, c_null.data(), c_single.data(),
                           exp_tx.data());
        prof.stop(obs::Phase::kCacheLookup);
      } else {
        ops.jammed_slot(block, groups);
        prof.stop(obs::Phase::kClassify);
      }
      continue;
    }

    prof.start();
    bool any_single;
    if constexpr (kIsLesk) {
      any_single = ops.clean_slot_lesk(block, us.data(), lesk_inc, groups);
    } else {
      any_single = ops.clean_slot(block, groups);
    }
    prof.stop(obs::Phase::kClassify);
    if constexpr (kIsGeneric) {
      // Generic kernels (LESU's phase machine, the baselines' search /
      // sweep automata) are not lattice walks — run them scalar per
      // lane off the vector-classified states.
      for (std::size_t lane = 0; lane < active; ++lane) {
        kerns[lane].step(static_cast<ChannelState>(states[lane]));
      }
      prof.stop(obs::Phase::kLatticeUpdate);
    }

    if (any_single) {
      // Every kernel on this path elects exactly on a clean Single, so
      // the classified state alone decides retirement. Re-examine a
      // moved lane before advancing (it may have elected this slot too).
      for (std::size_t lane = 0; lane < active;) {
        if (states[lane] != 1) {
          ++lane;
          continue;
        }
        finalize(lane, true);
        --active;
        if (lane != active) {
          rng.move_lane(lane, active);
          transmissions[lane] = transmissions[active];
          nulls[lane] = nulls[active];
          singles[lane] = singles[active];
          states[lane] = states[active];
          lane_trial[lane] = lane_trial[active];
          if constexpr (!kIsUniform) us[lane] = us[active];
          if constexpr (kIsGeneric) kerns[lane] = kerns[active];
        }
      }
      prof.stop(obs::Phase::kLatticeUpdate);
    }

    if constexpr (!kIsUniform) {
      if (active > 0) {
        if constexpr (kIsGeneric) {
          for (std::size_t lane = 0; lane < active; ++lane) {
            us[lane] = kerns[lane].broadcast_u();
          }
        }
        const std::size_t g2 = (active + kWideLanes - 1) / kWideLanes;
        cache.lookup_lanes(us.data(), g2 * kWideLanes, c_null.data(),
                           c_single.data(), exp_tx.data());
        prof.stop(obs::Phase::kCacheLookup);
      }
    }
  }
  // Right-censored lanes: budget exhausted without election.
  for (std::size_t lane = 0; lane < active; ++lane) finalize(lane, false);
  JAMELECT_OBS_COUNT("engine.batch.aggregate_chunks", 1);
  JAMELECT_OBS_COUNT("engine.batch.slots", slots_total);
  JAMELECT_OBS_COUNT("mc.batch_wide_slots", slots_total);
  workspace.emit_cache_counters();
}

/// SIMD-wide strong-CD aggregate lanes on the AES-CTR backend: the
/// same orchestration as aggregate_lanes_wide, with the fused xoshiro
/// slot primitives replaced by a batched counter advance
/// (WideAesCtr::uniform_groups) plus portable classify/accumulate
/// loops, and jammed slots reduced to pure counter increments
/// (skip_groups) — a discarded CTR draw needs no cipher work. Lane k
/// is stream `first + k` from counter 0, so results are chunk- and
/// thread-invariant by construction and bit-identical to the scalar
/// AesCtrRng path (same draws, same arithmetic, same order).
template <class Kernel>
void aggregate_lanes_wide_ctr(const typename Kernel::Params& params,
                              const AdversarySpec& spec,
                              const BatchConfig& config, const Rng& base,
                              std::size_t first, std::size_t count,
                              TrialOutcome* out) {
  JAMELECT_EXPECTS(config.n >= 1);
  JAMELECT_EXPECTS(config.max_slots >= 1);
  JAMELECT_EXPECTS(lane_invariant_policy(spec));
  constexpr bool kIsUniform = std::is_same_v<Kernel, kernels::UniformKernel>;
  constexpr bool kIsLesk = kernels::kLeskWalk<Kernel>;
  constexpr bool kIsGeneric = !kIsUniform && !kIsLesk;

  const std::uint64_t n = config.n;
  BatchWorkspace& workspace = local_batch_workspace();
  SlotProbCache& cache = workspace.cache(n);
  double lesk_inc = 0.0;
  if constexpr (kIsLesk) {
    lesk_inc = Kernel(params).inc;
    cache.set_lattice_step(lesk_inc);
  }

  WideAesCtr rng(make_aes_key(base.seed()), count);
  const std::size_t padded = rng.padded_lanes();

  std::vector<double> c_null(padded), c_single(padded), exp_tx(padded);
  std::vector<double> r(padded, 0.0);
  std::vector<double> transmissions(padded, 0.0);
  std::vector<std::int64_t> nulls(padded, 0), singles(padded, 0);
  std::vector<std::int64_t> states(padded, 0);
  std::vector<std::uint32_t> lane_trial(count);
  std::vector<double> us;
  std::vector<Kernel> kerns;
  if constexpr (!kIsUniform) {
    us.assign(padded, Kernel(params).broadcast_u());
  }
  if constexpr (kIsGeneric) kerns.assign(count, Kernel(params));

  auto adv = make_adversary(spec, base.child(first).child(0xad50));
  for (std::size_t k = 0; k < count; ++k) {
    // Lane k's sim stream IS trial first + k: the O(1) counter keying.
    rng.seed_lane(k, static_cast<std::uint64_t>(first + k));
    lane_trial[k] = static_cast<std::uint32_t>(k);
  }

  if constexpr (kIsUniform) {
    const SlotProbCache::Entry e = cache.lookup(Kernel(params).broadcast_u());
    std::fill(c_null.begin(), c_null.end(), e.c_null);
    std::fill(c_single.begin(), c_single.end(), e.c_single);
    std::fill(exp_tx.begin(), exp_tx.end(), e.exp_tx);
  } else {
    cache.lookup_lanes(us.data(), padded, c_null.data(), c_single.data(),
                       exp_tx.data());
  }

  std::size_t active = count;
  std::int64_t slots_done = 0;
  std::int64_t jams_done = 0;
  std::int64_t slots_total = 0;

  const auto finalize = [&](std::size_t lane, bool elected) {
    TrialOutcome o;
    o.slots = slots_done;
    o.jams = jams_done;
    o.nulls = nulls[lane];
    o.singles = singles[lane];
    o.collisions = slots_done - nulls[lane] - singles[lane];
    o.transmissions = transmissions[lane];
    if (elected) {
      o.elected = true;
      o.all_done = true;
      o.unique_leader = true;
      o.leader = rng.below_lane(lane, n);
    }
    out[lane_trial[lane]] = o;
  };

  // This path separates the RNG advance from classification (unlike
  // the fused xoshiro kernels), so `rng` gets its own phase; the
  // classify/accumulate loop (including its inline LESK u updates) is
  // `classify`, threshold refreshes are `cache_lookup`, and LESU
  // stepping / retirement compaction are `lattice_update`.
  obs::PhaseAccumulator prof;

  for (Slot slot = 0; slot < config.max_slots && active > 0; ++slot) {
    slots_total += static_cast<std::int64_t>(active);
    ++slots_done;
    const std::size_t groups = (active + kWideLanes - 1) / kWideLanes;
    const std::size_t span = groups * kWideLanes;
    const bool jammed = adv->step();

    if (jammed) {
      // Every lane sees Collision regardless of its draw: a CTR draw
      // that would be discarded is just a counter bump (the scalar
      // path draws and discards — same stream positions either way).
      ++jams_done;
      prof.start();
      rng.skip_groups(groups);
      prof.stop(obs::Phase::kRng);
      for (std::size_t k = 0; k < span; ++k) transmissions[k] += exp_tx[k];
      if constexpr (kIsLesk) {
        for (std::size_t k = 0; k < span; ++k) us[k] += lesk_inc;
        prof.stop(obs::Phase::kLatticeUpdate);
        cache.lookup_lanes(us.data(), span, c_null.data(), c_single.data(),
                           exp_tx.data());
        prof.stop(obs::Phase::kCacheLookup);
      } else if constexpr (kIsGeneric) {
        for (std::size_t lane = 0; lane < active; ++lane) {
          kerns[lane].step(ChannelState::kCollision);
          us[lane] = kerns[lane].broadcast_u();
        }
        prof.stop(obs::Phase::kLatticeUpdate);
        cache.lookup_lanes(us.data(), span, c_null.data(), c_single.data(),
                           exp_tx.data());
        prof.stop(obs::Phase::kCacheLookup);
      }
      continue;
    }

    // Clean slot: one batched counter advance, then a branch-free
    // classify/accumulate loop (the portable mirror of the fused
    // xoshiro slot primitives — same thresholds, same arithmetic).
    prof.start();
    rng.uniform_groups(groups, r.data());
    prof.stop(obs::Phase::kRng);
    bool any_single = false;
    for (std::size_t k = 0; k < span; ++k) {
      const double rv = r[k];
      const bool lt0 = rv < c_null[k];
      const bool lt1 = rv < c_single[k];
      states[k] = lt0 ? 0 : (lt1 ? 1 : 2);
      nulls[k] += lt0 ? 1 : 0;
      singles[k] += (lt1 && !lt0) ? 1 : 0;
      transmissions[k] += exp_tx[k];
      any_single = any_single || (lt1 && !lt0);
      if constexpr (kIsLesk) {
        // LeskKernel::step, expression-for-expression: Null decrements
        // (floored at 0), Collision adds inc, Single leaves u alone.
        if (lt0) {
          us[k] = std::max(us[k] - 1.0, 0.0);
        } else if (!lt1) {
          us[k] += lesk_inc;
        }
      }
    }
    prof.stop(obs::Phase::kClassify);
    if constexpr (kIsGeneric) {
      for (std::size_t lane = 0; lane < active; ++lane) {
        kerns[lane].step(static_cast<ChannelState>(states[lane]));
      }
      prof.stop(obs::Phase::kLatticeUpdate);
    }

    if (any_single) {
      for (std::size_t lane = 0; lane < active;) {
        if (states[lane] != 1) {
          ++lane;
          continue;
        }
        finalize(lane, true);
        --active;
        if (lane != active) {
          rng.move_lane(lane, active);
          transmissions[lane] = transmissions[active];
          nulls[lane] = nulls[active];
          singles[lane] = singles[active];
          states[lane] = states[active];
          lane_trial[lane] = lane_trial[active];
          if constexpr (!kIsUniform) us[lane] = us[active];
          if constexpr (kIsGeneric) kerns[lane] = kerns[active];
        }
      }
      prof.stop(obs::Phase::kLatticeUpdate);
    }

    if constexpr (!kIsUniform) {
      if (active > 0) {
        if constexpr (kIsGeneric) {
          for (std::size_t lane = 0; lane < active; ++lane) {
            us[lane] = kerns[lane].broadcast_u();
          }
        }
        const std::size_t g2 = (active + kWideLanes - 1) / kWideLanes;
        cache.lookup_lanes(us.data(), g2 * kWideLanes, c_null.data(),
                           c_single.data(), exp_tx.data());
        prof.stop(obs::Phase::kCacheLookup);
      }
    }
  }
  for (std::size_t lane = 0; lane < active; ++lane) finalize(lane, false);
  JAMELECT_OBS_COUNT("engine.batch.aggregate_chunks", 1);
  JAMELECT_OBS_COUNT("engine.batch.slots", slots_total);
  JAMELECT_OBS_COUNT("mc.batch_wide_slots", slots_total);
  workspace.emit_cache_counters();
}

/// SIMD-wide strong-CD aggregate lanes under an ADAPTIVE (lane-variant)
/// adversary: the wide twin of aggregate_lanes' per-lane-adversary
/// branch. The adversary runs as SoA columns in a LaneAdversaryBank —
/// per-lane budget recurrence, per-lane policy state, per-lane policy
/// RNG — so bernoulli / single_denial / collision_forcer no longer
/// force the chunk onto scalar lanes. The simulation draw happens for
/// EVERY live lane every slot (the scalar path draws and discards under
/// a jam — with per-lane jam bits there is nothing to skip), then a
/// portable branch-free loop folds the per-lane jam bit into the
/// classified state. Generic kernels step scalar off the states, as in
/// the shared-adversary engines.
///
/// Per-lane jams live in their own SoA column (the jam bit varies per
/// lane); slots stay a chunk-shared scalar (lockstep). Templated on the
/// wide generator exactly like hybrid_lanes_wide: WideXoshiro (lane k
/// seeded from the child-chain stream) or WideAesCtr (lane k IS counter
/// stream first + k).
template <class Kernel, class WideRng>
void aggregate_lanes_wide_adaptive(const typename Kernel::Params& params,
                                   const AdversarySpec& spec,
                                   const BatchConfig& config, const Rng& base,
                                   std::size_t first, std::size_t count,
                                   TrialOutcome* out) {
  JAMELECT_EXPECTS(config.n >= 1);
  JAMELECT_EXPECTS(config.max_slots >= 1);
  JAMELECT_EXPECTS(LaneAdversaryBank::supports(spec));
  constexpr bool kCtr = std::is_same_v<WideRng, WideAesCtr>;
  constexpr bool kIsUniform = std::is_same_v<Kernel, kernels::UniformKernel>;

  const std::uint64_t n = config.n;
  BatchWorkspace& workspace = local_batch_workspace();
  SlotProbCache& cache = workspace.cache(n);
  if constexpr (kernels::kLeskWalk<Kernel>) {
    cache.set_lattice_step(Kernel(params).inc);
  }

  auto make_wide = [&] {
    if constexpr (kCtr) {
      return WideAesCtr(make_aes_key(base.seed()), count);
    } else {
      return WideXoshiro(count);
    }
  };
  WideRng rng = make_wide();
  const std::size_t padded = rng.padded_lanes();

  std::vector<Kernel> kerns(count, Kernel(params));
  std::vector<double> c_null(padded), c_single(padded), exp_tx(padded);
  std::vector<double> r(padded, 0.0);
  std::vector<double> us(padded, Kernel(params).broadcast_u());
  std::vector<double> transmissions(padded, 0.0);
  std::vector<std::int64_t> nulls(padded, 0), singles(padded, 0);
  std::vector<std::int64_t> jams(padded, 0);
  std::vector<std::int64_t> states(padded, 0);
  std::vector<std::uint8_t> jam(padded, 0);
  std::vector<std::uint32_t> lane_trial(count);

  LaneAdversaryBank bank(spec, base, first, count);
  for (std::size_t k = 0; k < count; ++k) {
    if constexpr (kCtr) {
      rng.seed_lane(k, static_cast<std::uint64_t>(first + k));
    } else {
      rng.seed_lane(k, base.child(first + k).child(0x51e0).seed());
    }
    lane_trial[k] = static_cast<std::uint32_t>(k);
  }

  cache.lookup_lanes(us.data(), padded, c_null.data(), c_single.data(),
                     exp_tx.data());

  std::size_t active = count;
  std::int64_t slots_done = 0;  // == every live lane's slot count
  std::int64_t slots_total = 0;

  const auto finalize = [&](std::size_t lane, bool elected) {
    TrialOutcome o;
    o.slots = slots_done;
    o.jams = jams[lane];
    o.nulls = nulls[lane];
    o.singles = singles[lane];
    o.collisions = slots_done - nulls[lane] - singles[lane];
    o.transmissions = transmissions[lane];
    if (elected) {
      o.elected = true;
      o.all_done = true;
      o.unique_leader = true;
      o.leader = rng.below_lane(lane, n);
    }
    out[lane_trial[lane]] = o;
  };

  // Phase attribution: the bank's budget sweep + policy desires are
  // `classify` (they are the adversary's slot arithmetic), the wide
  // uniform advance is `rng`, the jam-merged classification loop is
  // `classify`, kernel stepping and retirement compaction are
  // `lattice_update`, threshold refreshes are `cache_lookup`.
  obs::PhaseAccumulator prof;

  for (Slot slot = 0; slot < config.max_slots && active > 0; ++slot) {
    slots_total += static_cast<std::int64_t>(active);
    ++slots_done;
    const std::size_t groups = (active + kWideLanes - 1) / kWideLanes;
    const std::size_t span = groups * kWideLanes;

    prof.start();
    bank.step(jam.data(), active);
    prof.stop(obs::Phase::kClassify);

    // Every live lane draws every slot — the scalar path's uniform()
    // happens unconditionally too, jammed or not.
    rng.uniform_groups(groups, r.data());
    prof.stop(obs::Phase::kRng);

    for (std::size_t k = 0; k < span; ++k) {
      const double rv = r[k];
      const bool lt0 = rv < c_null[k];
      const bool lt1 = rv < c_single[k];
      const bool jk = jam[k] != 0;
      const std::int64_t s = jk ? 2 : (lt0 ? 0 : (lt1 ? 1 : 2));
      states[k] = s;
      nulls[k] += s == 0 ? 1 : 0;
      singles[k] += s == 1 ? 1 : 0;
      jams[k] += jk ? 1 : 0;
      transmissions[k] += exp_tx[k];
    }
    prof.stop(obs::Phase::kClassify);

    bool any_done = false;
    for (std::size_t lane = 0; lane < active; ++lane) {
      kerns[lane].step(static_cast<ChannelState>(states[lane]));
      any_done = any_done || kerns[lane].done();
    }
    prof.stop(obs::Phase::kLatticeUpdate);

    bank.observe(states.data(), active);
    prof.stop(obs::Phase::kClassify);

    if (any_done) {
      for (std::size_t lane = 0; lane < active;) {
        if (!kerns[lane].done()) {
          ++lane;
          continue;
        }
        JAMELECT_ENSURES(states[lane] == 1);
        finalize(lane, true);
        --active;
        if (lane != active) {
          rng.move_lane(lane, active);
          bank.move_lane(lane, active);
          kerns[lane] = kerns[active];
          transmissions[lane] = transmissions[active];
          nulls[lane] = nulls[active];
          singles[lane] = singles[active];
          jams[lane] = jams[active];
          states[lane] = states[active];
          lane_trial[lane] = lane_trial[active];
          us[lane] = us[active];
        }
      }
      prof.stop(obs::Phase::kLatticeUpdate);
    }

    if constexpr (!kIsUniform) {
      if (active > 0) {
        for (std::size_t lane = 0; lane < active; ++lane) {
          us[lane] = kerns[lane].broadcast_u();
        }
        const std::size_t g2 = (active + kWideLanes - 1) / kWideLanes;
        cache.lookup_lanes(us.data(), g2 * kWideLanes, c_null.data(),
                           c_single.data(), exp_tx.data());
        prof.stop(obs::Phase::kCacheLookup);
      }
    }
  }
  for (std::size_t lane = 0; lane < active; ++lane) finalize(lane, false);
  JAMELECT_OBS_COUNT("engine.batch.aggregate_chunks", 1);
  JAMELECT_OBS_COUNT("engine.batch.slots", slots_total);
  JAMELECT_OBS_COUNT("mc.batch_wide_slots", slots_total);
  workspace.emit_cache_counters();
}

/// What a hybrid lane wants from the rng this slot (pass A result).
enum class DrawKind : std::uint8_t { kNone = 0, kCategory, kBernoulli };

/// SIMD-wide weak-CD hybrid Notification lanes. The P1..P4 phase
/// machine stays scalar (per-slot work varies per lane), but the slot
/// is split into three passes so the rng advance — the hot, uniform
/// part — happens wide: pass A records each lane's draw request (the
/// first switch of hybrid_lanes with draws replaced by requests),
/// pass B advances every drawing lane in one masked wide step, pass C
/// consumes the draws and runs the post-state transitions. Lanes make
/// at most one draw per slot, so per-lane draw order — and hence bit
/// identity with hybrid_lanes — is preserved exactly.
///
/// Templated on the wide generator: WideXoshiro (lane k seeded from
/// the child-chain stream) or WideAesCtr (lane k IS counter stream
/// first + k). Both expose the same seed_lane / uniform_masked /
/// below_lane / move_lane façade, so only construction and seeding
/// differ.
///
/// Adversaries come in two flavors: lane-invariant policies share one
/// jam bit per slot, and the adaptive built-ins run as per-lane SoA
/// columns in a LaneAdversaryBank (sim/lane_adversary.hpp) — per-lane
/// jam bits, observed states fed back after every slot (padding
/// included, matching the scalar engine's per-slot observe()).
template <class Kernel, class WideRng>
void hybrid_lanes_wide(const typename Kernel::Params& params,
                       const AdversarySpec& spec, const BatchConfig& config,
                       const Rng& base, std::size_t first, std::size_t count,
                       TrialOutcome* out) {
  JAMELECT_EXPECTS(config.n >= 3);
  JAMELECT_EXPECTS(config.max_slots >= 1);
  JAMELECT_EXPECTS(lane_invariant_policy(spec) ||
                   LaneAdversaryBank::supports(spec));
  constexpr bool kCtr = std::is_same_v<WideRng, WideAesCtr>;
  const std::uint64_t n = config.n;
  BatchWorkspace& workspace = local_batch_workspace();
  SlotProbCache& cache_n = workspace.cache(n);
  SlotProbCache& cache_nm1 = workspace.cache(n - 1);
  if constexpr (kernels::kLeskWalk<Kernel>) {
    const double inc = Kernel(params).inc;
    cache_n.set_lattice_step(inc);
    cache_nm1.set_lattice_step(inc);
  }

  auto make_wide = [&] {
    if constexpr (kCtr) {
      return WideAesCtr(make_aes_key(base.seed()), count);
    } else {
      return WideXoshiro(count);
    }
  };
  WideRng rng = make_wide();
  const std::size_t padded = rng.padded_lanes();

  std::vector<HybridPhase> phases(count, HybridPhase::kP1);
  std::vector<MaybeKernel<Kernel>> shared(count, {Kernel(params), false});
  std::vector<MaybeKernel<Kernel>> l_a(count, {Kernel(params), false});
  std::vector<MaybeKernel<Kernel>> s_a(count, {Kernel(params), false});
  std::vector<std::uint32_t> lane_trial(count);
  std::vector<TrialOutcome> acc(count);

  // Per-slot scratch, SoA so pass B is one wide masked advance.
  std::vector<DrawKind> draw(count, DrawKind::kNone);
  std::vector<std::uint64_t> fixed_cnt(count, 0);
  std::vector<double> thr0(count, 0.0), thr1(count, 0.0), slot_tx(count, 0.0);
  std::vector<std::uint8_t> mask(padded, 0);
  std::vector<double> r(padded, 0.0);

  const bool shared_adv = lane_invariant_policy(spec);
  std::unique_ptr<BoundedAdversary> adv;
  std::optional<LaneAdversaryBank> bank;
  std::vector<std::uint8_t> jam;          // per-lane jam bits (bank only)
  std::vector<std::int64_t> lane_states;  // per-lane states for observe()
  if (shared_adv) {
    adv = make_adversary(spec, base.child(first).child(0xad50));
  } else {
    bank.emplace(spec, base, first, count);
    jam.assign(count, 0);
    lane_states.assign(count, 0);
  }
  for (std::size_t k = 0; k < count; ++k) {
    if constexpr (kCtr) {
      rng.seed_lane(k, static_cast<std::uint64_t>(first + k));
    } else {
      rng.seed_lane(k, base.child(first + k).child(0x51e0).seed());
    }
    lane_trial[k] = static_cast<std::uint32_t>(k);
  }

  std::size_t active = count;
  std::int64_t slots_total = 0;
  // Phase attribution (stitched, one clock read per boundary): pass A
  // (kernel u reads + slot-prob cache probes) -> cache_lookup, pass B
  // (the wide masked uniform advance) -> rng, pass C (draw consumption,
  // outcome accounting, phase transitions) -> classify, retirement
  // compaction -> lattice_update.
  obs::PhaseAccumulator prof;
  for (Slot slot = 0; slot < config.max_slots && active > 0; ++slot) {
    const IntervalPosition pos = classify_slot(slot);
    slots_total += static_cast<std::int64_t>(active);
    const bool jam_all = shared_adv && adv->step();
    if (!shared_adv) bank->step(jam.data(), active);

    if (pos.set == IntervalSet::kPadding) {
      // Nobody draws or acts in padding: the slot is a Null (or a
      // jammed Collision) for every lane, and no phase can complete
      // (every transition keys on C1..C3), so no retirement check.
      // Adaptive adversaries still observe the padding slots — the
      // scalar engine feeds them every slot too.
      prof.start();
      for (std::size_t lane = 0; lane < active; ++lane) {
        const bool jl = shared_adv ? jam_all : jam[lane] != 0;
        const ChannelState state = resolve_slot(0, jl);
        TrialOutcome& o = acc[lane];
        ++o.slots;
        if (jl) ++o.jams;
        record_state(o, state);
        if (!shared_adv) {
          lane_states[lane] = static_cast<std::int64_t>(state);
        }
      }
      if (!shared_adv) bank->observe(lane_states.data(), active);
      prof.stop(obs::Phase::kClassify);
      continue;
    }

    // Pass A: record each lane's draw request for this slot.
    prof.start();
    for (std::size_t lane = 0; lane < active; ++lane) {
      DrawKind d = DrawKind::kNone;
      std::uint64_t fc = 0;
      double t0 = 0.0;
      double t1 = 0.0;
      double ex = 0.0;
      switch (phases[lane]) {
        case HybridPhase::kP1:
          if (pos.set == IntervalSet::kC1) {
            if (pos.interval_start() || !shared[lane].valid) {
              shared[lane] = {Kernel(params), true};
            }
            const SlotProbCache::Entry& e =
                cache_n.lookup(shared[lane].kernel.broadcast_u());
            ex = e.exp_tx;
            d = DrawKind::kCategory;
            t0 = e.c_null;
            t1 = e.c_single;
          }
          break;
        case HybridPhase::kP2:
          if (pos.set == IntervalSet::kC1) {
            if (pos.interval_start() || !l_a[lane].valid) {
              l_a[lane] = {Kernel(params), true};
            }
            const double p =
                transmit_probability(l_a[lane].kernel.broadcast_u());
            ex = p;
            // Rng::bernoulli consumes a draw only for p in (0, 1);
            // the degenerate cases have a fixed result.
            if (p <= 0.0) {
              fc = 0;
            } else if (p >= 1.0) {
              fc = 1;
            } else {
              d = DrawKind::kBernoulli;
              t0 = p;
            }
          } else if (pos.set == IntervalSet::kC2) {
            if (pos.interval_start() || !shared[lane].valid) {
              shared[lane] = {Kernel(params), true};
            }
            const SlotProbCache::Entry& e =
                cache_nm1.lookup(shared[lane].kernel.broadcast_u());
            ex = e.exp_tx;
            d = DrawKind::kCategory;
            t0 = e.c_null;
            t1 = e.c_single;
          }
          break;
        case HybridPhase::kP3:
          if (pos.set == IntervalSet::kC1) {
            fc = n - 2;  // all of R confirms; n >= 3 so fc >= 1
            ex = static_cast<double>(n - 2);
          } else if (pos.set == IntervalSet::kC2) {
            if (pos.interval_start() || !s_a[lane].valid) {
              s_a[lane] = {Kernel(params), true};
            }
            const double p =
                transmit_probability(s_a[lane].kernel.broadcast_u());
            ex = p;
            if (p <= 0.0) {
              fc = 0;
            } else if (p >= 1.0) {
              fc = 1;
            } else {
              d = DrawKind::kBernoulli;
              t0 = p;
            }
          } else {  // C3: l announces
            fc = 1;
            ex = 1.0;
          }
          break;
        case HybridPhase::kP4:
          if (pos.set == IntervalSet::kC3) {
            fc = 1;  // l keeps announcing until released
            ex = 1.0;
          }
          break;
        case HybridPhase::kDone:
          break;  // unreachable: done lanes retire the slot they finish
      }
      draw[lane] = d;
      mask[lane] = d == DrawKind::kNone ? 0 : 1;
      fixed_cnt[lane] = fc;
      thr0[lane] = t0;
      thr1[lane] = t1;
      slot_tx[lane] = ex;
    }
    const std::size_t groups = (active + kWideLanes - 1) / kWideLanes;
    for (std::size_t lane = active; lane < groups * kWideLanes; ++lane) {
      mask[lane] = 0;  // pad lanes must not advance
    }
    prof.stop(obs::Phase::kCacheLookup);

    // Pass B: one wide advance covering every lane that draws.
    rng.uniform_masked(groups, mask.data(), r.data());
    prof.stop(obs::Phase::kRng);

    // Pass C: consume the draws — classification, outcome accounting,
    // and the post-state transitions of hybrid_lanes.
    for (std::size_t lane = 0; lane < active; ++lane) {
      std::uint64_t cnt = fixed_cnt[lane];
      if (draw[lane] == DrawKind::kCategory) {
        cnt = r[lane] < thr0[lane] ? 0 : (r[lane] < thr1[lane] ? 1 : 2);
      } else if (draw[lane] == DrawKind::kBernoulli) {
        cnt = r[lane] < thr0[lane] ? 1 : 0;
      }
      const bool jammed = shared_adv ? jam_all : jam[lane] != 0;
      const ChannelState state = resolve_slot(cnt, jammed);

      TrialOutcome& o = acc[lane];
      ++o.slots;
      o.transmissions += slot_tx[lane];
      if (jammed) ++o.jams;
      record_state(o, state);
      if (!shared_adv) lane_states[lane] = static_cast<std::int64_t>(state);

      switch (phases[lane]) {
        case HybridPhase::kP1:
          if (pos.set == IntervalSet::kC1) {
            if (state == ChannelState::kSingle) {
              l_a[lane] = {shared[lane].kernel, true};
              l_a[lane].kernel.step(ChannelState::kCollision);
              shared[lane].valid = false;
              phases[lane] = HybridPhase::kP2;
            } else {
              shared[lane].kernel.step(state);
            }
          }
          break;
        case HybridPhase::kP2:
          if (pos.set == IntervalSet::kC1) {
            if (l_a[lane].valid) {
              l_a[lane].kernel.step(cnt >= 1 ? ChannelState::kCollision
                                             : state);
            }
          } else if (pos.set == IntervalSet::kC2) {
            if (state == ChannelState::kSingle) {
              s_a[lane] = {shared[lane].kernel, true};
              s_a[lane].kernel.step(ChannelState::kCollision);
              shared[lane].valid = false;
              l_a[lane].valid = false;
              phases[lane] = HybridPhase::kP3;
            } else if (shared[lane].valid) {
              shared[lane].kernel.step(state);
            }
          }
          break;
        case HybridPhase::kP3:
          if (pos.set == IntervalSet::kC2) {
            if (s_a[lane].valid) {
              s_a[lane].kernel.step(cnt >= 1 ? ChannelState::kCollision
                                             : state);
            }
          } else if (pos.set == IntervalSet::kC3) {
            if (state == ChannelState::kSingle) {
              s_a[lane].valid = false;
              phases[lane] = HybridPhase::kP4;
            }
          }
          break;
        case HybridPhase::kP4:
          if (pos.set == IntervalSet::kC1 && state == ChannelState::kNull) {
            phases[lane] = HybridPhase::kDone;
          }
          break;
        case HybridPhase::kDone:
          break;
      }
    }
    if (!shared_adv) bank->observe(lane_states.data(), active);

    prof.stop(obs::Phase::kClassify);

    // Retirement + compaction after the full sweep (equivalent to the
    // scalar mid-loop swap-remove; lanes are independent in-slot).
    // jam/lane_states need no copy: both are rewritten for every live
    // lane at the top of the next slot before any read.
    for (std::size_t lane = 0; lane < active;) {
      if (phases[lane] != HybridPhase::kDone) {
        ++lane;
        continue;
      }
      TrialOutcome& o = acc[lane];
      o.elected = true;
      o.all_done = true;
      o.unique_leader = true;
      o.leader = rng.below_lane(lane, n);
      out[lane_trial[lane]] = o;
      --active;
      if (lane != active) {
        phases[lane] = phases[active];
        shared[lane] = shared[active];
        l_a[lane] = l_a[active];
        s_a[lane] = s_a[active];
        rng.move_lane(lane, active);
        if (!shared_adv) bank->move_lane(lane, active);
        lane_trial[lane] = lane_trial[active];
        acc[lane] = acc[active];
      }
    }
    prof.stop(obs::Phase::kLatticeUpdate);
  }
  for (std::size_t lane = 0; lane < active; ++lane) {
    out[lane_trial[lane]] = acc[lane];
  }
  JAMELECT_OBS_COUNT("engine.batch.hybrid_chunks", 1);
  JAMELECT_OBS_COUNT("engine.batch.slots", slots_total);
  JAMELECT_OBS_COUNT("mc.batch_wide_slots", slots_total);
  workspace.emit_cache_counters();
}

/// Which lane-stepping engine a chunk resolves to once BatchLaneMode
/// meets the adversary policy.
enum class LanePath : std::uint8_t {
  kScalar,        ///< one Rng + one virtual adversary per lane
  kSharedWide,    ///< SIMD-wide, one shared jam bit (lane-invariant)
  kAdaptiveWide,  ///< SIMD-wide, per-lane SoA bank (adaptive built-ins)
};

/// Resolves BatchLaneMode against the adversary policy: kAuto goes
/// wide whenever the policy has a wide engine — shared jam bit for the
/// lane-invariant set, LaneAdversaryBank for the adaptive built-ins —
/// and scalar otherwise; kWide insists (and contract-checks) on one of
/// the wide engines existing.
[[nodiscard]] LanePath lane_path(BatchLaneMode mode,
                                 const AdversarySpec& spec) {
  switch (mode) {
    case BatchLaneMode::kAuto:
      if (lane_invariant_policy(spec)) return LanePath::kSharedWide;
      if (LaneAdversaryBank::supports(spec)) return LanePath::kAdaptiveWide;
      return LanePath::kScalar;
    case BatchLaneMode::kWide:
      JAMELECT_EXPECTS(lane_invariant_policy(spec) ||
                       LaneAdversaryBank::supports(spec));
      return lane_invariant_policy(spec) ? LanePath::kSharedWide
                                         : LanePath::kAdaptiveWide;
    case BatchLaneMode::kScalarLanes:
      return LanePath::kScalar;
  }
  return LanePath::kScalar;
}

/// Simulation-draw factory for the scalar lane engines: trial k's
/// xoshiro stream, by the exact child-chain derivation of the
/// sequential path.
[[nodiscard]] auto xoshiro_make_rng(const Rng& base) {
  return [&base](std::size_t trial) {
    return base.child(trial).child(0x51e0);
  };
}

/// Same, on the counter backend: trial k IS stream k under the
/// run-wide key (two SplitMix64 words of the seed, expanded once and
/// shared by every chunk).
[[nodiscard]] auto aes_make_rng(const AesKey& key) {
  return [&key](std::size_t trial) {
    return AesCtrRng(key, static_cast<std::uint64_t>(trial));
  };
}

}  // namespace

const char* rng_backend_name(RngBackend backend) noexcept {
  switch (backend) {
    case RngBackend::kXoshiro: return "xoshiro";
    case RngBackend::kAesCtr: return "aes_ctr";
  }
  return "unknown";
}

std::optional<BatchKernelSpec> batch_kernel_spec(
    const UniformProtocol& prototype) {
  // A kernel always starts fresh from its params, so a recognized type
  // only qualifies if the probed instance is still in its constructed
  // state (state_equals against a pristine twin).
  if (const auto* p = dynamic_cast<const PlainUniform*>(&prototype)) {
    if (PlainUniform(p->params()).state_equals(prototype)) {
      return BatchKernelSpec{p->params()};
    }
    return std::nullopt;
  }
  if (const auto* p = dynamic_cast<const Lesk*>(&prototype)) {
    if (Lesk(p->params()).state_equals(prototype)) {
      return BatchKernelSpec{p->params()};
    }
    return std::nullopt;
  }
  if (const auto* p = dynamic_cast<const Lesu*>(&prototype)) {
    if (Lesu(p->params()).state_equals(prototype)) {
      return BatchKernelSpec{p->params()};
    }
    return std::nullopt;
  }
  if (const auto* p = dynamic_cast<const Willard*>(&prototype)) {
    if (Willard(p->params()).state_equals(prototype)) {
      return BatchKernelSpec{p->params()};
    }
    return std::nullopt;
  }
  if (const auto* p = dynamic_cast<const SymmetricLesk*>(&prototype)) {
    if (SymmetricLesk(p->params()).state_equals(prototype)) {
      return BatchKernelSpec{p->params()};
    }
    return std::nullopt;
  }
  if (const auto* p = dynamic_cast<const NakanoOlariu*>(&prototype)) {
    if (NakanoOlariu(p->params()).state_equals(prototype)) {
      return BatchKernelSpec{p->params()};
    }
    return std::nullopt;
  }
  if (const auto* p = dynamic_cast<const NoCdElection*>(&prototype)) {
    if (NoCdElection(p->params()).state_equals(prototype)) {
      return BatchKernelSpec{p->params()};
    }
    return std::nullopt;
  }
  return std::nullopt;
}

void run_batch_aggregate_trials(const BatchKernelSpec& spec,
                                const AdversarySpec& adversary,
                                const BatchConfig& config, const Rng& base,
                                std::size_t first, std::size_t count,
                                TrialOutcome* out) {
  JAMELECT_EXPECTS(out != nullptr || count == 0);
  if (count == 0) return;
  AdversarySpec adv = adversary;
  adv.n = config.n;
  std::visit(
      [&](const auto& params) {
        using Kernel = typename KernelFor<
            std::decay_t<decltype(params)>>::type;
        const LanePath path = lane_path(config.lanes, adv);
        if (config.rng == RngBackend::kAesCtr) {
          switch (path) {
            case LanePath::kSharedWide:
              aggregate_lanes_wide_ctr<Kernel>(params, adv, config, base,
                                               first, count, out);
              break;
            case LanePath::kAdaptiveWide:
              aggregate_lanes_wide_adaptive<Kernel, WideAesCtr>(
                  params, adv, config, base, first, count, out);
              break;
            case LanePath::kScalar: {
              const AesKey key = make_aes_key(base.seed());
              aggregate_lanes<Kernel>(params, adv, config, base, first, count,
                                      out, aes_make_rng(key));
              break;
            }
          }
        } else {
          switch (path) {
            case LanePath::kSharedWide:
              aggregate_lanes_wide<Kernel>(params, adv, config, base, first,
                                           count, out);
              break;
            case LanePath::kAdaptiveWide:
              aggregate_lanes_wide_adaptive<Kernel, WideXoshiro>(
                  params, adv, config, base, first, count, out);
              break;
            case LanePath::kScalar:
              aggregate_lanes<Kernel>(params, adv, config, base, first, count,
                                      out, xoshiro_make_rng(base));
              break;
          }
        }
      },
      spec);
}

void run_batch_hybrid_trials(const BatchKernelSpec& spec,
                             const AdversarySpec& adversary,
                             const BatchConfig& config, const Rng& base,
                             std::size_t first, std::size_t count,
                             TrialOutcome* out) {
  JAMELECT_EXPECTS(out != nullptr || count == 0);
  if (count == 0) return;
  AdversarySpec adv = adversary;
  adv.n = config.n;
  std::visit(
      [&](const auto& params) {
        using Kernel = typename KernelFor<
            std::decay_t<decltype(params)>>::type;
        // hybrid_lanes_wide hosts both wide adversary flavors (shared
        // jam bit and LaneAdversaryBank) behind one template.
        const bool wide = lane_path(config.lanes, adv) != LanePath::kScalar;
        if (config.rng == RngBackend::kAesCtr) {
          if (wide) {
            hybrid_lanes_wide<Kernel, WideAesCtr>(params, adv, config, base,
                                                  first, count, out);
          } else {
            const AesKey key = make_aes_key(base.seed());
            hybrid_lanes<Kernel>(params, adv, config, base, first, count, out,
                                 aes_make_rng(key));
          }
        } else if (wide) {
          hybrid_lanes_wide<Kernel, WideXoshiro>(params, adv, config, base,
                                                 first, count, out);
        } else {
          hybrid_lanes<Kernel>(params, adv, config, base, first, count, out,
                               xoshiro_make_rng(base));
        }
      },
      spec);
}

}  // namespace jamelect
