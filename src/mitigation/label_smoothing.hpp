// Label smoothing technique (§III-B1).
//
// Representative implementation: *label relaxation* (Lienen & Hüllermeier,
// AAAI'21 [16]), the technique marked with an asterisk in Table I.  The
// classical fixed-alpha smoothing of Szegedy et al. is also available for
// ablation (set `use_relaxation = false`).
#pragma once

#include "mitigation/technique.hpp"

namespace tdfm::mitigation {

class LabelSmoothingTechnique final : public Technique {
 public:
  explicit LabelSmoothingTechnique(float alpha = 0.1F, bool use_relaxation = true)
      : alpha_(alpha), use_relaxation_(use_relaxation) {}

  [[nodiscard]] std::string name() const override { return "LS"; }
  [[nodiscard]] std::unique_ptr<Classifier> fit(const FitContext& ctx) override;

  [[nodiscard]] float alpha() const { return alpha_; }

 private:
  float alpha_;
  bool use_relaxation_;
};

}  // namespace tdfm::mitigation
