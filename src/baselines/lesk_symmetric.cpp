#include "baselines/lesk_symmetric.hpp"

#include <algorithm>

#include "support/math.hpp"

namespace jamelect {

double SymmetricLesk::transmit_probability() {
  if (elected_) return 0.0;
  return jamelect::transmit_probability(u_);
}

void SymmetricLesk::observe(ChannelState state) {
  if (elected_) return;
  switch (state) {
    case ChannelState::kNull:
      u_ = std::max(u_ - 1.0, 0.0);  // Lesk's floor, expression for expression
      break;
    case ChannelState::kCollision:
      u_ += 1.0;
      break;
    case ChannelState::kSingle:
      elected_ = true;
      break;
  }
}

}  // namespace jamelect
