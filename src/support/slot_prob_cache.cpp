#include "support/slot_prob_cache.hpp"

#include <utility>

#include "support/wide_rng.hpp"

namespace jamelect {

SlotProbCache::SlotProbCache(std::uint64_t n, std::size_t initial_capacity) : n_(n) {
  JAMELECT_EXPECTS(n >= 1);
  // The saturated region is exact only if 2^-u has underflowed to 0 by
  // kZeroU; exp2 is monotone, so every larger u rounds to 0 as well.
  JAMELECT_ENSURES(transmit_probability(kZeroU) == 0.0);
  zero_ = make_entry(kZeroU);
  std::size_t cap = 8;
  while (cap < initial_capacity) cap <<= 1;
  mask_ = cap - 1;
  slots_.assign(cap, Slot{kEmpty, {}});
}

void SlotProbCache::lookup_lanes(const double* us, std::size_t count,
                                 double* c_null, double* c_single,
                                 double* exp_tx) {
#if defined(JAMELECT_WIDE_AVX2)
  // With a lattice declared, each lane resolves to a fixed-stride
  // DenseSlot, so the whole batch reduces to gathers. Pure dispatch:
  // entries and counters are identical either way, and the same
  // JAMELECT_FORCE_SCALAR override that pins the wide engines to the
  // portable backend pins this loop scalar too.
  if (!dense_.empty() && active_wide_isa() == WideIsa::kAvx2) {
    lookup_lanes_avx2(us, count, c_null, c_single, exp_tx);
    return;
  }
#endif
  for (std::size_t k = 0; k < count; ++k) {
    const Entry& e = lookup(us[k]);
    c_null[k] = e.c_null;
    c_single[k] = e.c_single;
    exp_tx[k] = e.exp_tx;
  }
}

void SlotProbCache::set_lattice_step(double step) {
  JAMELECT_EXPECTS(step > 0.0);
  JAMELECT_EXPECTS(step * static_cast<double>(kDenseCapacity) <= kZeroU);
  // Re-declaring the step the lattice already uses keeps the dense
  // index warm: long-lived caches (the per-thread BatchWorkspace) see
  // one set_lattice_step per chunk, and clearing it each time would
  // throw away exactly the entries the next chunk re-asks for.
  // Entries are pure functions of (n, u), so staying warm cannot
  // change a lookup result. A genuinely different step still rebuilds.
  const double inv = 1.0 / step;
  if (inv == inv_step_ && !dense_.empty()) return;
  inv_step_ = inv;
  dense_.assign(kDenseCapacity, DenseSlot{kEmpty, {}});
}

SlotProbCache::Entry SlotProbCache::make_entry(double u) const {
  // Same call chain as the sequential aggregate engine — the cached
  // entry is bit-identical to what run_aggregate computes per slot
  // (exp_tx reproduces the engine's `double(n) * p` product exactly).
  const double p = transmit_probability(u);
  const SlotProbabilities probs = slot_probabilities(n_, p);
  return Entry{p, probs.null, probs.null + probs.single,
               static_cast<double>(n_) * p};
}

const SlotProbCache::Entry& SlotProbCache::insert_slow(double u, std::uint64_t key) {
  JAMELECT_EXPECTS(key != kEmpty);  // u is never NaN on the hot path
  ++misses_;
  if (size_ + 1 > (mask_ + 1) - (mask_ + 1) / 4) grow();

  const Entry entry = make_entry(u);

  std::size_t idx = hash(key) & mask_;
  while (slots_[idx].key != kEmpty) idx = (idx + 1) & mask_;
  slots_[idx] = Slot{key, entry};
  ++size_;
  return slots_[idx].entry;
}

void SlotProbCache::grow() {
  std::vector<Slot> old = std::move(slots_);
  const std::size_t cap = (mask_ + 1) * 2;
  mask_ = cap - 1;
  slots_.assign(cap, Slot{kEmpty, {}});
  for (const Slot& s : old) {
    if (s.key == kEmpty) continue;
    std::size_t idx = hash(s.key) & mask_;
    while (slots_[idx].key != kEmpty) idx = (idx + 1) & mask_;
    slots_[idx] = s;
  }
}

}  // namespace jamelect
