// POD kernels for the evaluation baselines (protocols/kernels.hpp holds
// the paper-protocol kernels; these live here because baselines link
// against protocols, not the other way round).
//
// Same contract as the paper kernels: each struct is the flat,
// trivially-copyable twin of one virtual baseline class, stepping
// bit-for-bit through the identical observe() transitions so the batch
// and wide Monte-Carlo engines can run Willard, symmetric LESK,
// Nakano–Olariu and the no-CD sweep without virtual dispatch. The
// virtual classes remain the generic path and the equivalence oracle
// (tests/baseline_kernel_test.cpp locks each pair together).
#pragma once

#include <algorithm>
#include <cstdint>
#include <type_traits>

#include "baselines/lesk_symmetric.hpp"
#include "baselines/nakano_olariu.hpp"
#include "baselines/nocd_election.hpp"
#include "baselines/willard.hpp"
#include "channel/types.hpp"
#include "protocols/kernels.hpp"
#include "support/expects.hpp"

namespace jamelect::kernels {

/// Twin of Willard: doubling probe, binary search on u, then the
/// symmetric +-1 polish walk; elect on Single.
struct WillardKernel {
  using Params = WillardParams;

  std::uint8_t phase;  ///< Willard::Phase: 0 doubling, 1 search, 2 polish
  double u;
  double lo;
  double hi;
  bool elected;

  explicit WillardKernel(const Params&)
      : phase(0), u(2.0), lo(0.0), hi(0.0), elected(false) {}

  [[nodiscard]] double broadcast_u() const noexcept { return u; }
  [[nodiscard]] double estimate() const noexcept { return u; }
  [[nodiscard]] bool done() const noexcept { return elected; }

  void step(ChannelState state) noexcept {
    if (elected) return;
    if (state == ChannelState::kSingle) {
      elected = true;
      return;
    }
    switch (phase) {
      case 0:  // doubling probe
        if (state == ChannelState::kNull) {
          lo = std::max(0.0, u / 2.0);
          hi = u;
          phase = 1;
          u = (lo + hi) / 2.0;
        } else {
          u *= 2.0;
          if (u > 4096.0) {
            phase = 2;
            u = 4096.0;
          }
        }
        break;
      case 1:  // binary search
        if (state == ChannelState::kNull) {
          hi = u;
        } else {
          lo = u;
        }
        if (hi - lo <= 1.0) {
          phase = 2;
          u = hi;
        } else {
          u = (lo + hi) / 2.0;
        }
        break;
      default:  // polish walk
        if (state == ChannelState::kNull) {
          u = std::max(0.0, u - 1.0);
        } else {
          u += 1.0;
        }
        break;
    }
  }
};

/// Twin of SymmetricLesk: LESK's walk with a Collision increment of
/// exactly 1.0 (-1 floored at 0 on Null, +1 on Collision, elect on
/// Single). Only the constructor is its own, so kLeskWalk routes it
/// onto LESK's fused lattice ops.
struct SymmetricLeskKernel : LeskKernel {
  using Params = SymmetricLeskParams;

  explicit SymmetricLeskKernel(const Params&) : LeskKernel(1.0, 0.0) {}
};

/// Twin of NakanoOlariu: linear sweep to the first Null, then the
/// symmetric +-1 walk (floored at 1); elect on Single.
struct NakanoOlariuKernel {
  using Params = NakanoOlariuParams;

  bool sweeping;
  double u;
  bool elected;

  explicit NakanoOlariuKernel(const Params&)
      : sweeping(true), u(1.0), elected(false) {}

  [[nodiscard]] double broadcast_u() const noexcept { return u; }
  [[nodiscard]] double estimate() const noexcept { return u; }
  [[nodiscard]] bool done() const noexcept { return elected; }

  void step(ChannelState state) noexcept {
    if (elected) return;
    switch (state) {
      case ChannelState::kSingle:
        elected = true;
        break;
      case ChannelState::kNull:
        if (sweeping) {
          sweeping = false;
        } else {
          u = std::max(1.0, u - 1.0);
        }
        break;
      case ChannelState::kCollision:
        u += 1.0;
        break;
    }
  }
};

/// Twin of NoCdElection: repeated epoch-capped exponent sweep; only
/// Single vs not-Single is consumed (Null and Collision take the same
/// branch, faithful to the no-CD model even under a strong-CD engine).
struct NoCdKernel {
  using Params = NoCdElectionParams;

  std::int64_t repetitions;
  std::int64_t epoch;
  std::int64_t u;
  std::int64_t reps_left;
  bool elected;

  explicit NoCdKernel(const Params& params)
      : repetitions(params.repetitions),
        epoch(1),
        u(1),
        reps_left(params.repetitions),
        elected(false) {
    JAMELECT_EXPECTS(params.repetitions >= 1);
  }

  [[nodiscard]] double broadcast_u() const noexcept {
    return static_cast<double>(u);
  }
  [[nodiscard]] double estimate() const noexcept {
    return static_cast<double>(u);
  }
  [[nodiscard]] bool done() const noexcept { return elected; }

  void step(ChannelState state) noexcept {
    if (elected) return;
    if (state == ChannelState::kSingle) {
      elected = true;
      return;
    }
    if (--reps_left > 0) return;
    reps_left = repetitions;
    ++u;
    const std::int64_t epoch_cap = std::int64_t{1}
                                   << std::min<std::int64_t>(epoch, 40);
    if (u > epoch_cap) {
      ++epoch;
      u = 1;
    }
  }
};

static_assert(std::is_trivially_copyable_v<WillardKernel>);
static_assert(std::is_trivially_copyable_v<SymmetricLeskKernel>);
static_assert(std::is_trivially_copyable_v<NakanoOlariuKernel>);
static_assert(std::is_trivially_copyable_v<NoCdKernel>);

}  // namespace jamelect::kernels
