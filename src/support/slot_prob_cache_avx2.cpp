// AVX2 backend for SlotProbCache::lookup_lanes.
//
// The dense lattice index maps u to bucket round(u * inv_step), a
// packed 5-word DenseSlot {key, p, c_null, c_single, exp_tx} per
// bucket. A 4-lane group therefore costs: one vector multiply + round
// to bucket indices, one 64-bit gather for the stored keys, one
// compare against the query bit patterns, and — on an all-hit group —
// three double gathers for the threshold words. Any lane out of dense
// range or missing its key demotes the whole group to the scalar
// lookup() path, which resolves via the hash map AND installs the
// entry, so the next visit of the same u gathers. An all-saturated
// group (u >= kZeroU, never in dense range) costs one vector compare
// and three stores of the zero-probability entry. Counter deltas are
// identical to the scalar loop: an all-hit group is 4 lookups + 4
// dense hits, an all-saturated group 4 lookups; a demoted group
// counts through lookup() exactly as the portable path would.
#if !defined(__AVX2__)
#error "slot_prob_cache_avx2.cpp must be compiled with -mavx2"
#endif

#include <immintrin.h>

#include <cstddef>
#include <cstdint>

#include "support/slot_prob_cache.hpp"

namespace jamelect {

void SlotProbCache::lookup_lanes_avx2(const double* us, std::size_t count,
                                      double* c_null, double* c_single,
                                      double* exp_tx) {
  static_assert(sizeof(DenseSlot) == 5 * sizeof(std::uint64_t),
                "gather indexing assumes a packed 5-word DenseSlot");
  static_assert(offsetof(DenseSlot, entry) == sizeof(std::uint64_t));
  static_assert(offsetof(Entry, c_null) == 1 * sizeof(double));
  static_assert(offsetof(Entry, c_single) == 2 * sizeof(double));
  static_assert(offsetof(Entry, exp_tx) == 3 * sizeof(double));
  constexpr std::size_t kGroup = 4;

  // dense_ never reallocates after set_lattice_step, so these stay
  // valid across the scalar fallbacks below (which may install).
  const auto* words = reinterpret_cast<const long long*>(dense_.data());
  const auto* doubles = reinterpret_cast<const double*>(dense_.data());
  const __m256d inv_step = _mm256_set1_pd(inv_step_);
  const __m256d half = _mm256_set1_pd(0.5);
  const __m256d zero = _mm256_setzero_pd();
  const __m256d cap_d = _mm256_set1_pd(static_cast<double>(kDenseCapacity));
  const __m128i cap_i = _mm_set1_epi32(static_cast<int>(kDenseCapacity));
  const __m128i stride = _mm_set1_epi32(5);  // words per DenseSlot
  const __m256d zero_u = _mm256_set1_pd(kZeroU);
  const __m256d sat_c_null = _mm256_set1_pd(zero_.c_null);
  const __m256d sat_c_single = _mm256_set1_pd(zero_.c_single);
  const __m256d sat_exp_tx = _mm256_set1_pd(zero_.exp_tx);
  // All-lanes masks for the gathers: GCC's unmasked gather intrinsics
  // expand through a self-initialized "undefined" vector that trips
  // -Werror=uninitialized, so we spell the mask explicitly.
  const __m256i all = _mm256_set1_epi64x(-1);
  const __m256d alld = _mm256_castsi256_pd(all);
  const auto gather_pd = [&](const __m128i& idx) {
    return _mm256_mask_i32gather_pd(zero, doubles, idx, alld, 8);
  };

  const auto scalar_lanes = [&](std::size_t lo, std::size_t hi) {
    for (std::size_t k = lo; k < hi; ++k) {
      const Entry& e = lookup(us[k]);
      c_null[k] = e.c_null;
      c_single[k] = e.c_single;
      exp_tx[k] = e.exp_tx;
    }
  };

  std::size_t k = 0;
  for (; k + kGroup <= count; k += kGroup) {
    const __m256d u = _mm256_loadu_pd(us + k);
    const __m256d qd = _mm256_mul_pd(u, inv_step);
    // Range guards mirror lookup(): qd in [0, capacity) before
    // rounding, and q < capacity after (the +0.5 can round up to
    // exactly kDenseCapacity). Truncation of qd + 0.5 is the scalar
    // path's static_cast<size_t>(qd + 0.5) for non-negative qd.
    const __m256d in_range = _mm256_and_pd(
        _mm256_cmp_pd(qd, zero, _CMP_GE_OQ), _mm256_cmp_pd(qd, cap_d, _CMP_LT_OQ));
    if (_mm256_movemask_pd(in_range) != 0xf) {
      if (_mm256_movemask_pd(_mm256_cmp_pd(u, zero_u, _CMP_GE_OQ)) == 0xf) {
        lookups_ += kGroup;
        _mm256_storeu_pd(c_null + k, sat_c_null);
        _mm256_storeu_pd(c_single + k, sat_c_single);
        _mm256_storeu_pd(exp_tx + k, sat_exp_tx);
      } else {
        scalar_lanes(k, k + kGroup);
      }
      continue;
    }
    const __m128i q = _mm256_cvttpd_epi32(_mm256_add_pd(qd, half));
    if (_mm_movemask_epi8(_mm_cmplt_epi32(q, cap_i)) != 0xffff) {
      scalar_lanes(k, k + kGroup);
      continue;
    }
    const __m128i widx = _mm_mullo_epi32(q, stride);
    const __m256i keys =
        _mm256_mask_i32gather_epi64(_mm256_setzero_si256(), words, widx, all, 8);
    const __m256i eq = _mm256_cmpeq_epi64(keys, _mm256_castpd_si256(u));
    if (_mm256_movemask_pd(_mm256_castsi256_pd(eq)) != 0xf) {
      scalar_lanes(k, k + kGroup);
      continue;
    }
    lookups_ += kGroup;
    dense_hits_ += kGroup;
    _mm256_storeu_pd(c_null + k, gather_pd(_mm_add_epi32(widx, _mm_set1_epi32(2))));
    _mm256_storeu_pd(c_single + k,
                     gather_pd(_mm_add_epi32(widx, _mm_set1_epi32(3))));
    _mm256_storeu_pd(exp_tx + k, gather_pd(_mm_add_epi32(widx, _mm_set1_epi32(4))));
  }
  scalar_lanes(k, count);
}

}  // namespace jamelect
