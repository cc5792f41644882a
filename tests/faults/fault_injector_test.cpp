#include "faults/fault_injector.hpp"

#include <gtest/gtest.h>

#include <cmath>

#include "data/synthetic.hpp"

namespace tdfm::faults {
namespace {

data::Dataset make_clean(std::size_t n = 100, std::size_t classes = 5) {
  data::Dataset ds;
  ds.name = "clean";
  ds.num_classes = classes;
  ds.images = Tensor(Shape{n, 1, 2, 2});
  ds.labels.resize(n);
  for (std::size_t i = 0; i < n; ++i) {
    ds.labels[i] = static_cast<int>(i % classes);
    ds.images[i * 4] = static_cast<float>(i);  // origin marker
  }
  return ds;
}

TEST(FaultInjector, MislabellingChangesExactCount) {
  const auto clean = make_clean();
  Rng rng(1);
  InjectionReport report;
  const auto faulty =
      inject(clean, FaultSpec{FaultType::kMislabelling, 30.0}, rng, &report);
  EXPECT_EQ(report.mislabelled, 30U);
  EXPECT_EQ(faulty.size(), clean.size());
  std::size_t changed = 0;
  for (std::size_t i = 0; i < clean.size(); ++i) {
    if (faulty.labels[i] != clean.labels[i]) ++changed;
  }
  EXPECT_EQ(changed, 30U);  // every victim gets a *different* label
}

TEST(FaultInjector, MislabelledLabelsStayInRange) {
  const auto clean = make_clean(200, 3);
  Rng rng(2);
  const auto faulty =
      inject(clean, FaultSpec{FaultType::kMislabelling, 50.0}, rng);
  faulty.validate();
}

TEST(FaultInjector, MislabellingNeverAssignsSameLabel) {
  // Property over many draws: a victim's new label is never its old one.
  const auto clean = make_clean(50, 2);
  for (std::uint64_t seed = 0; seed < 20; ++seed) {
    Rng rng(seed);
    const auto faulty =
        inject(clean, FaultSpec{FaultType::kMislabelling, 100.0}, rng);
    for (std::size_t i = 0; i < clean.size(); ++i) {
      ASSERT_NE(faulty.labels[i], clean.labels[i]);
    }
  }
}

TEST(FaultInjector, RepetitionAppendsCopies) {
  const auto clean = make_clean();
  Rng rng(3);
  InjectionReport report;
  const auto faulty =
      inject(clean, FaultSpec{FaultType::kRepetition, 20.0}, rng, &report);
  EXPECT_EQ(report.repeated, 20U);
  EXPECT_EQ(faulty.size(), 120U);
  // Every appended sample must be an exact copy of an original.
  for (std::size_t i = 100; i < 120; ++i) {
    const auto origin = static_cast<std::size_t>(faulty.images[i * 4]);
    EXPECT_LT(origin, 100U);
    EXPECT_EQ(faulty.labels[i], clean.labels[origin]);
  }
}

TEST(FaultInjector, RemovalDeletesExactCount) {
  const auto clean = make_clean();
  Rng rng(4);
  InjectionReport report;
  const auto faulty =
      inject(clean, FaultSpec{FaultType::kRemoval, 30.0}, rng, &report);
  EXPECT_EQ(report.removed, 30U);
  EXPECT_EQ(faulty.size(), 70U);
  // Survivors keep their original image/label pairing.
  for (std::size_t i = 0; i < faulty.size(); ++i) {
    const auto origin = static_cast<std::size_t>(faulty.images[i * 4]);
    EXPECT_EQ(faulty.labels[i], clean.labels[origin]);
  }
}

TEST(FaultInjector, RemovalOfEverythingThrows) {
  const auto clean = make_clean(10);
  Rng rng(5);
  EXPECT_THROW((void)inject(clean, FaultSpec{FaultType::kRemoval, 100.0}, rng),
               InvariantError);
}

TEST(FaultInjector, ZeroPercentIsNoOp) {
  const auto clean = make_clean();
  for (const auto type :
       {FaultType::kMislabelling, FaultType::kRepetition, FaultType::kRemoval}) {
    Rng rng(6);
    const auto faulty = inject(clean, FaultSpec{type, 0.0}, rng);
    EXPECT_EQ(faulty.size(), clean.size());
    EXPECT_EQ(faulty.labels, clean.labels);
  }
}

TEST(FaultInjector, PercentOutOfRangeThrows) {
  const auto clean = make_clean();
  Rng rng(7);
  EXPECT_THROW(
      (void)inject(clean, FaultSpec{FaultType::kMislabelling, 101.0}, rng),
      InvariantError);
  EXPECT_THROW(
      (void)inject(clean, FaultSpec{FaultType::kMislabelling, -1.0}, rng),
      InvariantError);
}

TEST(FaultInjector, InputDatasetIsNeverModified) {
  const auto clean = make_clean();
  const auto labels_before = clean.labels;
  Rng rng(8);
  (void)inject(clean, FaultSpec{FaultType::kMislabelling, 50.0}, rng);
  EXPECT_EQ(clean.labels, labels_before);
  EXPECT_EQ(clean.size(), 100U);
}

TEST(FaultInjector, DeterministicGivenSameRngState) {
  const auto clean = make_clean();
  Rng a(9);
  Rng b(9);
  const auto fa = inject(clean, FaultSpec{FaultType::kMislabelling, 40.0}, a);
  const auto fb = inject(clean, FaultSpec{FaultType::kMislabelling, 40.0}, b);
  EXPECT_EQ(fa.labels, fb.labels);
}

TEST(FaultInjector, CombinedFaultsApplyInOrder) {
  const auto clean = make_clean();
  Rng rng(10);
  const std::vector<FaultSpec> campaign{
      FaultSpec{FaultType::kMislabelling, 20.0},
      FaultSpec{FaultType::kRemoval, 10.0},
  };
  InjectionReport report;
  const auto faulty = inject(clean, campaign, rng, &report);
  EXPECT_EQ(report.mislabelled, 20U);
  EXPECT_EQ(report.removed, 10U);
  EXPECT_EQ(faulty.size(), 90U);
  EXPECT_EQ(report.original_size, 100U);
  EXPECT_EQ(report.resulting_size, 90U);
}

TEST(FaultInjector, RepetitionThenRemovalUsesCurrentSize) {
  const auto clean = make_clean();
  Rng rng(11);
  const std::vector<FaultSpec> campaign{
      FaultSpec{FaultType::kRepetition, 50.0},  // 100 -> 150
      FaultSpec{FaultType::kRemoval, 10.0},     // 150 -> 135
  };
  const auto faulty = inject(clean, campaign, rng);
  EXPECT_EQ(faulty.size(), 135U);
}

TEST(FaultInjector, NameRoundTrip) {
  for (const auto type :
       {FaultType::kMislabelling, FaultType::kRepetition, FaultType::kRemoval}) {
    EXPECT_EQ(fault_from_name(fault_name(type)), type);
  }
  EXPECT_THROW((void)fault_from_name("bitflip"), ConfigError);
}

TEST(FaultSpecTest, ToStringFormat) {
  EXPECT_EQ((FaultSpec{FaultType::kMislabelling, 30.0}).to_string(),
            "mislabelling@30%");
  EXPECT_EQ((FaultSpec{FaultType::kRemoval, 10.0}).to_string(), "removal@10%");
}

TEST(FaultSpecTest, ToStringKeepsFractionalPercentages) {
  // Regression: the label used to round to the nearest integer, so sweep
  // points like 12.5% and 13% collided in reports and CSV keys.
  EXPECT_EQ((FaultSpec{FaultType::kMislabelling, 12.5}).to_string(),
            "mislabelling@12.5%");
  EXPECT_EQ((FaultSpec{FaultType::kRepetition, 0.1}).to_string(),
            "repetition@0.1%");
  // Whole numbers stay unpadded.
  EXPECT_EQ((FaultSpec{FaultType::kRemoval, 5.0}).to_string(), "removal@5%");
}

TEST(FaultInjector, StandardSweepIsTenThirtyFifty) {
  const auto sweep = standard_sweep(FaultType::kRemoval);
  ASSERT_EQ(sweep.size(), 3U);
  EXPECT_EQ(sweep[0][0].percent, 10.0);
  EXPECT_EQ(sweep[1][0].percent, 30.0);
  EXPECT_EQ(sweep[2][0].percent, 50.0);
  for (const auto& level : sweep) {
    ASSERT_EQ(level.size(), 1U);
    EXPECT_EQ(level[0].type, FaultType::kRemoval);
  }
}

class MislabelRateTest : public ::testing::TestWithParam<double> {};

TEST_P(MislabelRateTest, AffectedCountMatchesRate) {
  const auto clean = make_clean(200, 4);
  Rng rng(static_cast<std::uint64_t>(GetParam()));
  InjectionReport report;
  (void)inject(clean, FaultSpec{FaultType::kMislabelling, GetParam()}, rng,
               &report);
  EXPECT_EQ(report.mislabelled,
            static_cast<std::size_t>(std::llround(200.0 * GetParam() / 100.0)));
}

INSTANTIATE_TEST_SUITE_P(Rates, MislabelRateTest,
                         ::testing::Values(5.0, 10.0, 25.0, 30.0, 50.0, 75.0));

}  // namespace
}  // namespace tdfm::faults
