#include "nn/loss.hpp"

#include <gtest/gtest.h>

#include <cmath>

#include "../test_util.hpp"
#include "tensor/tensor_ops.hpp"

namespace tdfm::nn {
namespace {

using test::random_tensor;

Tensor logits_3x4(Rng& rng) { return random_tensor(Shape{3, 4}, rng, -2.0F, 2.0F); }

/// Finite-difference check of a loss's gradient.
void check_loss_gradient(Loss& loss, const Tensor& logits, const Tensor& targets,
                         float eps = 1e-2F, float tol = 2e-3F) {
  Tensor z = logits;
  Tensor grad;
  (void)loss.compute(z, targets, grad);
  for (std::size_t i = 0; i < z.numel(); ++i) {
    const float original = z[i];
    Tensor scratch;
    z[i] = original + eps;
    const double up = loss.compute(z, targets, scratch);
    z[i] = original - eps;
    const double down = loss.compute(z, targets, scratch);
    z[i] = original;
    const double numeric = (up - down) / (2.0 * eps);
    EXPECT_NEAR(grad[i], numeric, tol + 0.05 * std::fabs(numeric))
        << loss.name() << " grad mismatch at " << i;
  }
}

TEST(OneHot, EncodesAndValidates) {
  const std::vector<int> labels{0, 2, 1};
  const Tensor t = one_hot(labels, 3);
  EXPECT_EQ(t.shape(), (Shape{3, 3}));
  EXPECT_EQ(t.at(0, 0), 1.0F);
  EXPECT_EQ(t.at(1, 2), 1.0F);
  EXPECT_EQ(t.at(2, 1), 1.0F);
  EXPECT_DOUBLE_EQ(sum(t), 3.0);
  const std::vector<int> bad{3};
  EXPECT_THROW((void)one_hot(bad, 3), InvariantError);
}

TEST(CrossEntropy, UniformLogitsGiveLogK) {
  CrossEntropyLoss ce;
  const Tensor logits(Shape{2, 4});  // all zeros -> uniform softmax
  const std::vector<int> labels{1, 3};
  Tensor grad;
  const double l = ce.compute(logits, one_hot(labels, 4), grad);
  EXPECT_NEAR(l, std::log(4.0), 1e-5);
}

TEST(CrossEntropy, PerfectPredictionNearZeroLoss) {
  CrossEntropyLoss ce;
  Tensor logits(Shape{1, 3});
  logits[0] = 20.0F;
  Tensor grad;
  const double l = ce.compute(logits, one_hot(std::vector<int>{0}, 3), grad);
  EXPECT_LT(l, 1e-4);
}

TEST(CrossEntropy, GradientMatchesFiniteDifference) {
  Rng rng(200);
  CrossEntropyLoss ce;
  check_loss_gradient(ce, logits_3x4(rng), one_hot(std::vector<int>{0, 1, 3}, 4));
}

TEST(CrossEntropy, SoftTargetsGradientIsPMinusT) {
  CrossEntropyLoss ce;
  Tensor logits(Shape{1, 3});
  Tensor targets(Shape{1, 3});
  targets[0] = 0.2F;
  targets[1] = 0.5F;
  targets[2] = 0.3F;
  Tensor grad;
  (void)ce.compute(logits, targets, grad);
  // Uniform softmax = 1/3 each; batch of 1.
  EXPECT_NEAR(grad[0], 1.0F / 3 - 0.2F, 1e-5F);
  EXPECT_NEAR(grad[1], 1.0F / 3 - 0.5F, 1e-5F);
}

TEST(CrossEntropy, ShapeMismatchThrows) {
  CrossEntropyLoss ce;
  Tensor grad;
  EXPECT_THROW(
      (void)ce.compute(Tensor(Shape{2, 3}), Tensor(Shape{2, 4}), grad),
      InvariantError);
}

TEST(SmoothedCE, EquivalentToManualSmoothing) {
  Rng rng(201);
  const Tensor logits = logits_3x4(rng);
  const std::vector<int> labels{0, 2, 3};
  const Tensor hard = one_hot(labels, 4);
  SmoothedCrossEntropyLoss ls(0.2F);
  Tensor g1;
  const double l1 = ls.compute(logits, hard, g1);
  // Manual: q = 0.8 * t + 0.05.
  Tensor q = scale(hard, 0.8F);
  for (auto& v : q.flat()) v += 0.05F;
  CrossEntropyLoss ce;
  Tensor g2;
  const double l2 = ce.compute(logits, q, g2);
  EXPECT_NEAR(l1, l2, 1e-6);
  for (std::size_t i = 0; i < g1.numel(); ++i) EXPECT_NEAR(g1[i], g2[i], 1e-6F);
}

TEST(SmoothedCE, RejectsBadAlpha) {
  EXPECT_THROW(SmoothedCrossEntropyLoss(-0.1F), InvariantError);
  EXPECT_THROW(SmoothedCrossEntropyLoss(1.0F), InvariantError);
}

TEST(LabelRelaxation, ZeroLossInsideCredalSet) {
  LabelRelaxationLoss lr(0.2F);
  Tensor logits(Shape{1, 3});
  logits[0] = 10.0F;  // softmax ~ [1, 0, 0]; p_y > 1 - alpha
  Tensor grad;
  const double l = lr.compute(logits, one_hot(std::vector<int>{0}, 3), grad);
  EXPECT_EQ(l, 0.0);
  for (std::size_t i = 0; i < grad.numel(); ++i) EXPECT_EQ(grad[i], 0.0F);
}

TEST(LabelRelaxation, PositiveLossOutsideCredalSet) {
  LabelRelaxationLoss lr(0.1F);
  Tensor logits(Shape{1, 3});  // uniform: p_y = 1/3 < 0.9
  Tensor grad;
  const double l = lr.compute(logits, one_hot(std::vector<int>{0}, 3), grad);
  EXPECT_GT(l, 0.0);
  EXPECT_LT(grad[0], 0.0F);  // pull the labelled class up
}

TEST(LabelRelaxation, LowerLossThanCEOnConfidentCorrect) {
  // Relaxation should never penalise confident-enough correct predictions,
  // unlike CE which keeps pushing.
  LabelRelaxationLoss lr(0.1F);
  CrossEntropyLoss ce;
  Tensor logits(Shape{1, 3});
  logits[0] = 4.0F;  // p0 ~ 0.96
  const Tensor t = one_hot(std::vector<int>{0}, 3);
  Tensor g;
  EXPECT_LT(lr.compute(logits, t, g), ce.compute(logits, t, g) + 1e-9);
}

TEST(NCE, BoundedAndGradientCorrect) {
  Rng rng(202);
  NCELoss nce;
  const Tensor logits = logits_3x4(rng);
  const Tensor targets = one_hot(std::vector<int>{1, 0, 2}, 4);
  Tensor grad;
  const double l = nce.compute(logits, targets, grad);
  // NCE is normalised into (0, 1) per sample.
  EXPECT_GT(l, 0.0);
  EXPECT_LT(l, 1.0);
  check_loss_gradient(nce, logits, targets, 1e-2F, 3e-3F);
}

TEST(RCE, ClosedFormForOneHotTargets) {
  // For one-hot targets, RCE = -A * (1 - p_y) with A = log-zero clamp (-4).
  RCELoss rce(-4.0F);
  Rng rng(203);
  const Tensor logits = logits_3x4(rng);
  const std::vector<int> labels{2, 0, 1};
  Tensor grad;
  const double l = rce.compute(logits, one_hot(labels, 4), grad);
  const Tensor probs = softmax_rows(logits);
  double expected = 0.0;
  for (std::size_t b = 0; b < 3; ++b) {
    expected += 4.0 * (1.0 - probs.at(b, static_cast<std::size_t>(labels[b])));
  }
  EXPECT_NEAR(l, expected / 3.0, 1e-5);
}

TEST(RCE, GradientMatchesFiniteDifference) {
  Rng rng(204);
  RCELoss rce;
  check_loss_gradient(rce, logits_3x4(rng), one_hot(std::vector<int>{0, 3, 1}, 4),
                      1e-2F, 4e-3F);
}

TEST(APL, IsWeightedSumOfParts) {
  Rng rng(205);
  const Tensor logits = logits_3x4(rng);
  const Tensor targets = one_hot(std::vector<int>{1, 2, 0}, 4);
  NCELoss nce;
  RCELoss rce;
  APLLoss apl(2.0F, 0.5F);
  Tensor gn, gr, ga;
  const double ln = nce.compute(logits, targets, gn);
  const double lr = rce.compute(logits, targets, gr);
  const double la = apl.compute(logits, targets, ga);
  EXPECT_NEAR(la, 2.0 * ln + 0.5 * lr, 1e-6);
  for (std::size_t i = 0; i < ga.numel(); ++i) {
    EXPECT_NEAR(ga[i], 2.0F * gn[i] + 0.5F * gr[i], 1e-6F);
  }
}

TEST(APL, RejectsDegenerateWeights) {
  EXPECT_THROW(APLLoss(-1.0F, 1.0F), InvariantError);
  EXPECT_THROW(APLLoss(0.0F, 0.0F), InvariantError);
}

TEST(Distillation, AlphaZeroEqualsPlainCE) {
  Rng rng(206);
  const Tensor logits = logits_3x4(rng);
  const Tensor hard = one_hot(std::vector<int>{0, 1, 2}, 4);
  const Tensor teacher = softmax_rows(logits_3x4(rng), 4.0F);
  DistillationLoss kd(0.0F, 4.0F);
  CrossEntropyLoss ce;
  Tensor g1, g2;
  EXPECT_NEAR(kd.compute(logits, hard, teacher, g1), ce.compute(logits, hard, g2),
              1e-6);
  for (std::size_t i = 0; i < g1.numel(); ++i) EXPECT_NEAR(g1[i], g2[i], 1e-6F);
}

TEST(Distillation, MatchingTeacherGivesSmallSoftGradient) {
  // When the student already equals the teacher, the soft term's gradient
  // vanishes and only the hard term remains.
  Tensor logits(Shape{1, 3});
  logits[0] = 1.0F;
  logits[1] = 0.5F;
  const Tensor teacher = softmax_rows(logits, 2.0F);
  DistillationLoss kd(1.0F, 2.0F);  // all weight on soft term
  Tensor grad;
  (void)kd.compute(logits, one_hot(std::vector<int>{0}, 3), teacher, grad);
  for (std::size_t i = 0; i < grad.numel(); ++i) EXPECT_NEAR(grad[i], 0.0F, 1e-5F);
}

TEST(Distillation, GradientMatchesFiniteDifference) {
  Rng rng(207);
  const Tensor hard = one_hot(std::vector<int>{2, 0, 1}, 4);
  const Tensor teacher = softmax_rows(logits_3x4(rng), 3.0F);
  DistillationLoss kd(0.7F, 3.0F);
  Tensor z = logits_3x4(rng);
  Tensor grad;
  (void)kd.compute(z, hard, teacher, grad);
  for (std::size_t i = 0; i < z.numel(); ++i) {
    const float original = z[i];
    Tensor scratch;
    z[i] = original + 1e-2F;
    const double up = kd.compute(z, hard, teacher, scratch);
    z[i] = original - 1e-2F;
    const double down = kd.compute(z, hard, teacher, scratch);
    z[i] = original;
    EXPECT_NEAR(grad[i], (up - down) / 2e-2, 4e-3);
  }
}

TEST(Distillation, RejectsBadHyperparameters) {
  EXPECT_THROW(DistillationLoss(1.5F, 2.0F), InvariantError);
  EXPECT_THROW(DistillationLoss(0.5F, 0.5F), InvariantError);
}

class NoiseRobustnessTest : public ::testing::TestWithParam<double> {};

// Property from Ghosh et al. [47] / Ma et al. [18]: symmetric losses change
// less than CE when labels flip.  We check the *loss surface* property that
// motivated APL: total loss over all K possible labels is (nearly) constant
// for RCE, but not for CE.
TEST_P(NoiseRobustnessTest, RCESymmetryProperty) {
  Rng rng(static_cast<std::uint64_t>(GetParam() * 1000));
  Tensor logits(Shape{1, 4});
  uniform_init(logits, -static_cast<float>(GetParam()),
               static_cast<float>(GetParam()), rng);
  RCELoss rce;
  CrossEntropyLoss ce;
  double rce_total = 0.0;
  double ce_min = 1e18, ce_max = -1e18;
  for (int label = 0; label < 4; ++label) {
    Tensor grad;
    const Tensor t = one_hot(std::vector<int>{label}, 4);
    rce_total += rce.compute(logits, t, grad);
    const double c = ce.compute(logits, t, grad);
    ce_min = std::min(ce_min, c);
    ce_max = std::max(ce_max, c);
  }
  // Sum over labels of RCE = -A * (K - 1) exactly: constant 4 * 3 = 12.
  EXPECT_NEAR(rce_total, 12.0, 1e-4);
  // CE has no such symmetry for non-uniform logits.
  if (GetParam() > 0.5) {
    EXPECT_GT(ce_max - ce_min, 0.1);
  }
}

INSTANTIATE_TEST_SUITE_P(LogitScales, NoiseRobustnessTest,
                         ::testing::Values(0.1, 1.0, 2.0, 4.0));

}  // namespace
}  // namespace tdfm::nn
