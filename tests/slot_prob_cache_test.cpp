// SlotProbCache must be a transparent memo of the uncached call chain:
// lookup(u) returns the exact doubles of transmit_probability(u) +
// slot_probabilities(n, p), for any u, across growth and collisions.
#include "support/slot_prob_cache.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstdint>
#include <limits>
#include <vector>

#include "support/math.hpp"
#include "support/rng.hpp"
#include "support/wide_rng.hpp"

namespace jamelect {
namespace {

[[nodiscard]] std::uint64_t bits(double x) {
  return std::bit_cast<std::uint64_t>(x);
}

void expect_entry_exact(SlotProbCache& cache, double u) {
  const SlotProbCache::Entry& e = cache.lookup(u);
  const double p = transmit_probability(u);
  const SlotProbabilities probs = slot_probabilities(cache.n(), p);
  ASSERT_EQ(bits(e.p), bits(p)) << "u = " << u;
  ASSERT_EQ(bits(e.c_null), bits(probs.null)) << "u = " << u;
  ASSERT_EQ(bits(e.c_single), bits(probs.null + probs.single)) << "u = " << u;
  ASSERT_EQ(bits(e.exp_tx), bits(static_cast<double>(cache.n()) * p))
      << "u = " << u;
}

TEST(SlotProbCache, MatchesUncachedPathOnLeskLattice) {
  // The u values LESK actually visits: multiples of eps/8 minus whole
  // steps, floored at 0.
  for (const std::uint64_t n : {1ULL, 2ULL, 37ULL, 1ULL << 20}) {
    SlotProbCache cache(n);
    const double inc = 1.0 / (8.0 / 0.5);
    double u = 0.0;
    Rng rng(7);
    for (int step = 0; step < 2000; ++step) {
      expect_entry_exact(cache, u);
      u = rng.bernoulli(0.5) ? std::max(u - 1.0, 0.0) : u + inc;
    }
  }
}

TEST(SlotProbCache, RepeatLookupsHitTheCache) {
  SlotProbCache cache(1024);
  for (int round = 0; round < 3; ++round) {
    for (int k = 0; k < 50; ++k) {
      (void)cache.lookup(static_cast<double>(k) * 0.0625);
    }
  }
  EXPECT_EQ(cache.misses(), 50u);  // only the first round inserted
  EXPECT_EQ(cache.size(), 50u);
}

TEST(SlotProbCache, SurvivesGrowth) {
  SlotProbCache cache(255, /*initial_capacity=*/8);
  std::vector<double> us;
  Rng rng(13);
  for (int k = 0; k < 500; ++k) us.push_back(rng.uniform() * 64.0);
  for (const double u : us) expect_entry_exact(cache, u);
  // Everything inserted before growth must still be found afterwards.
  const std::uint64_t misses = cache.misses();
  for (const double u : us) expect_entry_exact(cache, u);
  EXPECT_EQ(cache.misses(), misses);
}

TEST(SlotProbCache, HandlesExtremeExponents) {
  SlotProbCache cache(1ULL << 20);
  expect_entry_exact(cache, 0.0);     // p = 1
  expect_entry_exact(cache, 1e-300);  // p just below 1
  expect_entry_exact(cache, 1075.0);  // 2^-u underflows to 0
  expect_entry_exact(cache, 1e300);   // far past underflow
}

TEST(SlotProbCache, SignedZeroGetsItsOwnEntryWithEqualPayload) {
  // -0.0 has a distinct bit pattern; if a protocol ever produced it,
  // the cache must not confuse it with the empty sentinel and must
  // return the same probabilities as +0.0 (transmit_probability treats
  // them identically).
  SlotProbCache cache(64);
  const SlotProbCache::Entry e_pos = cache.lookup(0.0);
  const double neg_zero = std::bit_cast<double>(0x8000000000000000ULL);
  const SlotProbCache::Entry e_neg = cache.lookup(neg_zero);
  EXPECT_EQ(bits(e_pos.p), bits(e_neg.p));
  EXPECT_EQ(bits(e_pos.c_null), bits(e_neg.c_null));
  EXPECT_EQ(bits(e_pos.c_single), bits(e_neg.c_single));
  EXPECT_EQ(cache.misses(), 2u);  // distinct keys, two inserts
}

TEST(SlotProbCache, RejectsZeroStations) {
  EXPECT_THROW(SlotProbCache cache(0), ContractViolation);
}

TEST(SlotProbCache, LatticeIndexAnswersRepeatLookupsWithoutProbing) {
  // With the LESK lattice registered, the second pass over the same u
  // values must be answered entirely by the dense index.
  SlotProbCache cache(1024);
  const double inc = 1.0 / (8.0 / 0.5);
  cache.set_lattice_step(inc);
  std::vector<double> us;
  double u = 6.0;
  Rng rng(11);
  for (int step = 0; step < 400; ++step) {
    us.push_back(u);
    u = rng.bernoulli(0.5) ? std::max(u - 1.0, 0.0) : u + inc;
  }
  for (const double v : us) expect_entry_exact(cache, v);
  const std::uint64_t misses = cache.misses();
  const std::uint64_t dense_before = cache.dense_hits();
  const std::uint64_t lookups_before = cache.lookups();
  for (const double v : us) expect_entry_exact(cache, v);
  EXPECT_EQ(cache.misses(), misses);  // nothing re-inserted
  EXPECT_EQ(cache.dense_hits() - dense_before,
            cache.lookups() - lookups_before);
}

TEST(SlotProbCache, LatticeIndexIsTransparentForOffLatticeKeys) {
  // u values that don't sit on the registered lattice (or fall outside
  // the dense range) must still resolve exactly via the hash path.
  SlotProbCache cache(255);
  cache.set_lattice_step(0.0625);
  Rng rng(29);
  for (int k = 0; k < 300; ++k) {
    expect_entry_exact(cache, rng.uniform() * 80.0);  // off-lattice
  }
  expect_entry_exact(cache, 1e9);     // far outside dense range
  expect_entry_exact(cache, 1e-300);  // rounds to slot 0 but wrong key
}

TEST(SlotProbCache, LookupLanesMatchesScalarLookups) {
  SlotProbCache cache(512);
  cache.set_lattice_step(0.125);
  const double us[6] = {0.0, 0.125, 9.0, 9.125, 0.125, 4.5};
  double c_null[6], c_single[6], exp_tx[6];
  cache.lookup_lanes(us, 6, c_null, c_single, exp_tx);
  SlotProbCache twin(512);
  for (int k = 0; k < 6; ++k) {
    const SlotProbCache::Entry e = twin.lookup(us[k]);
    ASSERT_EQ(bits(c_null[k]), bits(e.c_null)) << "lane " << k;
    ASSERT_EQ(bits(c_single[k]), bits(e.c_single)) << "lane " << k;
    ASSERT_EQ(bits(exp_tx[k]), bits(e.exp_tx)) << "lane " << k;
  }
}

TEST(SlotProbCache, LookupLanesIdenticalAcrossBackends) {
  // The AVX2 gather path must be invisible: bit-identical entries and
  // identical counter deltas versus the portable per-lane loop, for
  // lane sets mixing dense hits, off-lattice values, out-of-range
  // exponents, dense-bucket collisions, and a non-multiple-of-4 count.
  std::vector<WideIsa> isas{WideIsa::kScalar4};
  if (wide_avx2_supported()) isas.push_back(WideIsa::kAvx2);

  const std::vector<double> us = {0.0, 0.125,  0.25,  6.0, 6.125, 0.125, 3.7,
                                  1e9, 128.75, 0.375, 1e-300, 9.0, 0.5};

  struct Observed {
    std::vector<std::uint64_t> entry_bits;
    std::uint64_t lookups, misses, dense;
  };
  std::vector<Observed> per_isa;
  for (const WideIsa isa : isas) {
    set_wide_isa_for_testing(isa);
    SlotProbCache cache(1024);
    cache.set_lattice_step(0.125);
    std::vector<double> c_null(us.size()), c_single(us.size()), ex(us.size());
    // Two passes: the first is miss-heavy and installs the dense
    // entries, the second exercises the all-hit gather groups.
    for (int pass = 0; pass < 2; ++pass) {
      cache.lookup_lanes(us.data(), us.size(), c_null.data(), c_single.data(),
                         ex.data());
    }
    Observed o{{}, cache.lookups(), cache.misses(), cache.dense_hits()};
    for (std::size_t k = 0; k < us.size(); ++k) {
      o.entry_bits.push_back(bits(c_null[k]));
      o.entry_bits.push_back(bits(c_single[k]));
      o.entry_bits.push_back(bits(ex[k]));
      // Ground truth: the uncached call chain, to the last bit.
      const double p = transmit_probability(us[k]);
      const SlotProbabilities probs = slot_probabilities(cache.n(), p);
      EXPECT_EQ(bits(c_null[k]), bits(probs.null)) << "lane " << k;
      EXPECT_EQ(bits(c_single[k]), bits(probs.null + probs.single))
          << "lane " << k;
      EXPECT_EQ(bits(ex[k]), bits(static_cast<double>(cache.n()) * p))
          << "lane " << k;
    }
    per_isa.push_back(std::move(o));
  }
  reset_wide_isa_for_testing();
  for (std::size_t i = 1; i < per_isa.size(); ++i) {
    EXPECT_EQ(per_isa[i].entry_bits, per_isa[0].entry_bits);
    EXPECT_EQ(per_isa[i].lookups, per_isa[0].lookups);
    EXPECT_EQ(per_isa[i].misses, per_isa[0].misses);
    EXPECT_EQ(per_isa[i].dense, per_isa[0].dense);
  }
}

// ---------- saturated region (u >= kZeroU) ----------

TEST(SlotProbCache, SaturatedRegionMatchesUncachedChainBitForBit) {
  // Both sides of the underflow point and deep into the saturated
  // region: the fixed entry must be exactly what the chain computes.
  constexpr double kZ = SlotProbCache::kZeroU;
  const double us[] = {1074.0, 1075.0, kZ - 0.5, kZ, 4096.0, 65537.25, 1e9,
                       std::numeric_limits<double>::infinity()};
  for (const std::uint64_t n : {1ULL, 1024ULL, 1ULL << 20}) {
    for (const bool lattice : {false, true}) {
      SlotProbCache cache(n);
      if (lattice) cache.set_lattice_step(1.0);
      for (const double u : us) expect_entry_exact(cache, u);
      for (const double u : us) expect_entry_exact(cache, u);  // warm
    }
  }
}

TEST(SlotProbCache, SaturatedLookupIsAHitNeitherMissNorDenseHit) {
  for (const bool lattice : {false, true}) {
    SlotProbCache cache(1024);
    if (lattice) cache.set_lattice_step(1.0);
    for (const double u : {SlotProbCache::kZeroU, 5000.0, 1e9}) {
      (void)cache.lookup(u);
    }
    EXPECT_EQ(cache.lookups(), 3u);
    EXPECT_EQ(cache.misses(), 0u);
    EXPECT_EQ(cache.dense_hits(), 0u);
    EXPECT_EQ(cache.size(), 0u);  // nothing was inserted
  }
}

TEST(SlotProbCache, DenseLatticeMustLieBelowTheSaturatedRegion) {
  SlotProbCache cache(64);
  EXPECT_NO_THROW(cache.set_lattice_step(1.0));
  EXPECT_THROW(cache.set_lattice_step(2.0), ContractViolation);
}

TEST(SlotProbCache, LookupLanesSaturatedGroupsMatchPerLaneLookups) {
  // Lane groups of four: all saturated, saturated mixed with dense
  // hits, with hash-path u beyond the dense range, and a ragged tail.
  // Every backend must give per-lane lookup()'s entries and counters.
  std::vector<WideIsa> isas{WideIsa::kScalar4};
  if (wide_avx2_supported()) isas.push_back(WideIsa::kAvx2);
  const double inf = std::numeric_limits<double>::infinity();
  const std::vector<double> us = {
      2000.0, 1e9,    SlotProbCache::kZeroU, inf,     // all saturated
      3.0,    4096.0, 7.0,                   1e6,     // dense + saturated
      1050.0, 1200.0, 1080.5,                65537.0, // hash + saturated
      5000.0, 6000.0, 7000.0,                8000.0,  // all saturated
      1100.0, 3.0};                                   // ragged tail
  for (const WideIsa isa : isas) {
    set_wide_isa_for_testing(isa);
    SlotProbCache cache(1024);
    SlotProbCache twin(1024);
    cache.set_lattice_step(1.0);
    twin.set_lattice_step(1.0);
    std::vector<double> c_null(us.size()), c_single(us.size()), ex(us.size());
    for (int pass = 0; pass < 2; ++pass) {
      cache.lookup_lanes(us.data(), us.size(), c_null.data(), c_single.data(),
                         ex.data());
      for (std::size_t k = 0; k < us.size(); ++k) {
        const SlotProbCache::Entry& e = twin.lookup(us[k]);
        ASSERT_EQ(bits(c_null[k]), bits(e.c_null)) << "lane " << k;
        ASSERT_EQ(bits(c_single[k]), bits(e.c_single)) << "lane " << k;
        ASSERT_EQ(bits(ex[k]), bits(e.exp_tx)) << "lane " << k;
      }
    }
    EXPECT_EQ(cache.lookups(), twin.lookups());
    EXPECT_EQ(cache.misses(), twin.misses());
    EXPECT_EQ(cache.dense_hits(), twin.dense_hits());
  }
  reset_wide_isa_for_testing();
}

TEST(SlotProbCache, CountsLookupsHitsAndMisses) {
  SlotProbCache cache(64);
  (void)cache.lookup(1.0);
  (void)cache.lookup(1.0);
  (void)cache.lookup(2.0);
  EXPECT_EQ(cache.lookups(), 3u);
  EXPECT_EQ(cache.misses(), 2u);
  EXPECT_EQ(cache.dense_hits(), 0u);  // no lattice registered
}

}  // namespace
}  // namespace jamelect
