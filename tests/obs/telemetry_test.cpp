// Training telemetry: the Trainer emits one EpochRecord per epoch with
// monotone cumulative wall-time, and the JSONL sink writes one valid JSON
// object per line (epoch/cell records plus the exit-time registry scrape).
#include <gtest/gtest.h>

#include <fstream>
#include <string>
#include <vector>

#include "../test_util.hpp"
#include "json_check.hpp"
#include "nn/activation.hpp"
#include "nn/dense.hpp"
#include "nn/loss.hpp"
#include "nn/network.hpp"
#include "nn/trainer.hpp"
#include "obs/metrics.hpp"
#include "obs/telemetry.hpp"

namespace tdfm::obs {
namespace {

using test::random_tensor;

TEST(Telemetry, TrainerEmitsOneRecordPerEpochWithMonotoneTime) {
  std::vector<EpochRecord> records;
  set_epoch_observer([&records](const EpochRecord& r) { records.push_back(r); });
  ASSERT_TRUE(telemetry_enabled());

  Rng rng(400);
  auto body = std::make_unique<nn::Sequential>();
  body->emplace<nn::Dense>(4, 8, rng);
  body->emplace<nn::ReLU>();
  body->emplace<nn::Dense>(8, 3, rng);
  nn::Network net("toy", std::move(body), Shape{4}, 3);

  const std::size_t n = 48;
  const Tensor images = random_tensor(Shape{n, 4}, rng);
  std::vector<int> labels(n);
  for (std::size_t i = 0; i < n; ++i) labels[i] = static_cast<int>(i % 3);
  const Tensor targets = nn::one_hot(labels, 3);
  nn::CrossEntropyLoss ce;

  nn::TrainOptions opts;
  opts.epochs = 4;
  opts.batch_size = 16;
  opts.auto_tune = false;
  nn::Trainer trainer(opts);
  Rng fit_rng(401);
  trainer.fit(net, images,
              [&](const Tensor& logits, std::span<const std::size_t> idx,
                  Tensor& grad) {
                return ce.compute(logits, nn::Trainer::gather(targets, idx), grad);
              },
              fit_rng);
  set_epoch_observer({});
  EXPECT_FALSE(telemetry_enabled());

  ASSERT_EQ(records.size(), 4U);
  for (std::size_t i = 0; i < records.size(); ++i) {
    const EpochRecord& r = records[i];
    EXPECT_EQ(r.net, "toy");
    EXPECT_EQ(r.epoch, i + 1);
    EXPECT_EQ(r.epochs, 4U);
    EXPECT_GT(r.lr, 0.0);
    EXPECT_GE(r.wall_seconds, 0.0);
    EXPECT_GT(r.samples_per_second, 0.0);
    // Cumulative wall-time is strictly monotone across epochs.
    if (i > 0) {
      EXPECT_GT(r.total_seconds, records[i - 1].total_seconds);
    }
    EXPECT_GE(r.total_seconds, r.wall_seconds);
  }
  // Learning rate decays per epoch (default lr_decay < 1).
  EXPECT_LT(records.back().lr, records.front().lr);
}

TEST(Telemetry, JsonlSinkWritesOneValidObjectPerLine) {
  const std::string path = ::testing::TempDir() + "tdfm_telemetry_test.jsonl";
  set_metrics_output(path);
  ASSERT_TRUE(telemetry_enabled());
  ASSERT_TRUE(metrics_enabled());  // --metrics implies the registry is live

  EpochRecord er;
  er.net = "toy \"net\"";
  er.epoch = 1;
  er.epochs = 2;
  er.loss = 0.5;
  er.lr = 0.05;
  er.wall_seconds = 0.25;
  er.total_seconds = 0.25;
  er.samples_per_second = 192.0;
  emit_epoch(er);

  CellRecord cr;
  cr.model = "ConvNet";
  cr.fault_level = "mislabelling(30%)";
  cr.technique = "LS";
  cr.trial = 1;
  cr.train_seconds = 1.5;
  cr.infer_seconds = 0.1;
  cr.accuracy = 0.82;
  cr.ad = 0.04;
  emit_cell(cr);

  Counter c = Registry::global().counter("test.telemetry_counter");
  c.add(3);
  Histogram h = Registry::global().histogram("test.telemetry_hist", {1.0, 10.0});
  h.observe(0.5);
  h.observe(42.0);
  Registry::global().gauge("test.telemetry_gauge").set(0.1);
  flush_metrics();
  set_metrics_output("");  // close so the file is complete on disk

  std::ifstream in(path);
  ASSERT_TRUE(in.good());
  std::vector<std::string> lines;
  for (std::string line; std::getline(in, line);) {
    if (!line.empty()) lines.push_back(line);
  }
  ASSERT_GE(lines.size(), 4U);  // epoch + cell + at least the two test metrics

  bool saw_epoch = false;
  bool saw_cell = false;
  bool saw_counter = false;
  bool saw_hist = false;
  bool saw_gauge = false;
  for (const std::string& line : lines) {
    EXPECT_TRUE(test::json_valid(line)) << line;
    if (line.find("\"type\":\"epoch\"") != std::string::npos &&
        line.find("toy \\\"net\\\"") != std::string::npos) {
      saw_epoch = true;
      EXPECT_NE(line.find("\"total_s\":0.25"), std::string::npos) << line;
    }
    if (line.find("\"type\":\"cell\"") != std::string::npos) {
      saw_cell = true;
      EXPECT_NE(line.find("\"technique\":\"LS\""), std::string::npos) << line;
      EXPECT_NE(line.find("\"trial\":1"), std::string::npos) << line;
    }
    if (line.find("\"name\":\"test.telemetry_counter\"") != std::string::npos) {
      saw_counter = true;
      EXPECT_NE(line.find("\"type\":\"counter\""), std::string::npos) << line;
    }
    if (line.find("\"name\":\"test.telemetry_hist\"") != std::string::npos) {
      saw_hist = true;
      EXPECT_NE(line.find("\"bucket_counts\":[1,0,1]"), std::string::npos) << line;
    }
    if (line.find("\"name\":\"test.telemetry_gauge\"") != std::string::npos) {
      // Every digit, as in snapshots: 0.1 reads back as the same double.
      saw_gauge = true;
      EXPECT_NE(line.find("\"value\":0.10000000000000001}"), std::string::npos) << line;
    }
  }
  EXPECT_TRUE(saw_epoch);
  EXPECT_TRUE(saw_cell);
  EXPECT_TRUE(saw_counter);
  EXPECT_TRUE(saw_hist);
  EXPECT_TRUE(saw_gauge);
}

}  // namespace
}  // namespace tdfm::obs
