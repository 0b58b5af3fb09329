// Ablation: LESK with a SYMMETRIC estimator update (+1 on Collision
// instead of +eps/8).
//
// The paper's §2 intuition: an adversary with eps < 1/2 can fabricate
// Collisions in more than half of all slots, so with symmetric steps it
// forces the estimate u to diverge to +infinity and the election never
// completes. The asymmetric eps/8 increment makes one genuine Null
// "neutralize" ~8/eps fabricated Collisions. This class is the control
// arm for bench E12, which shows exactly that divergence.
#pragma once

#include <cstdint>
#include <string>

#include "protocols/uniform.hpp"
#include "support/state_hash.hpp"

namespace jamelect {

/// SymmetricLesk has no tunables; the empty params type keys the batch
/// kernel registry (sim/batch.hpp, baselines/baseline_kernels.hpp).
struct SymmetricLeskParams {};

class SymmetricLesk final : public UniformProtocol {
 public:
  SymmetricLesk() = default;
  explicit SymmetricLesk(SymmetricLeskParams) {}

  [[nodiscard]] double transmit_probability() override;
  void observe(ChannelState state) override;
  [[nodiscard]] bool elected() const override { return elected_; }
  [[nodiscard]] std::string name() const override { return "LESK-symmetric"; }
  [[nodiscard]] UniformProtocolPtr clone() const override {
    return std::make_unique<SymmetricLesk>(*this);
  }
  [[nodiscard]] double estimate() const override { return u_; }

  [[nodiscard]] double u() const noexcept { return u_; }

  [[nodiscard]] SymmetricLeskParams params() const noexcept { return {}; }
  [[nodiscard]] std::uint64_t state_hash() const override {
    return StateHash{}.add(u_).add(elected_).value();
  }
  [[nodiscard]] bool state_equals(const UniformProtocol& other) const override {
    const auto* o = dynamic_cast<const SymmetricLesk*>(&other);
    return o != nullptr && u_ == o->u_ && elected_ == o->elected_;
  }

 private:
  double u_ = 0.0;
  bool elected_ = false;
};

}  // namespace jamelect
