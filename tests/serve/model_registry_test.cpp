// ModelRegistry: checkpoint-driven instantiation (v2 self-describing, v1
// with explicit arch), metadata mismatch rejection, version bumping, and
// replica consistency across slots, batch-norm running statistics included.
#include "serve/model_registry.hpp"

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>

#include "data/synthetic.hpp"
#include "nn/checkpoint.hpp"
#include "nn/trainer.hpp"

namespace tdfm::serve {
namespace {

struct TempFile {
  std::string path;
  explicit TempFile(const char* name)
      : path(std::string(::testing::TempDir()) + name) {}
  ~TempFile() { std::remove(path.c_str()); }
};

models::ModelConfig small_config() {
  models::ModelConfig c;
  c.in_channels = 3;
  c.image_size = 16;
  c.num_classes = 5;
  c.width = 2;
  return c;
}

Tensor test_batch(std::size_t n, std::uint64_t seed = 7) {
  Rng rng(seed);
  Tensor batch{Shape{n, 3, 16, 16}};
  for (float& v : batch.flat()) v = rng.uniform(-1.0F, 1.0F);
  return batch;
}

TEST(ModelRegistry, LoadsSelfDescribingV2Checkpoint) {
  const models::ModelConfig config = small_config();
  Rng rng(11);
  auto fitted = models::build_model(models::Arch::kConvNet, config, rng);
  const TempFile file("registry_v2.ckpt");
  nn::save_checkpoint(*fitted, file.path,
                      models::checkpoint_meta(models::Arch::kConvNet, config));

  ModelRegistry registry(/*replica_slots=*/2);
  // No out-of-band configuration: the header names the architecture.
  EXPECT_EQ(registry.load("m", file.path), 1U);
  auto model = registry.current("m");
  ASSERT_NE(model, nullptr);
  EXPECT_EQ(model->version(), 1U);
  EXPECT_EQ(model->num_members(), 1U);
  EXPECT_EQ(model->num_classes(), 5U);

  // Every replica slot predicts exactly what the fitted network predicts.
  const Tensor batch = test_batch(6);
  const std::vector<int> want = nn::predict_batch(*fitted, batch);
  EXPECT_EQ(model->predict(batch, 0), want);
  EXPECT_EQ(model->predict(batch, 1), want);
}

TEST(ModelRegistry, ServesBatchNormModelsWithTheirRunningStatistics) {
  // Every replica is a weight copy, so a batch-norm member must carry its
  // running statistics into each slot, and so must a checkpoint load.
  const models::ModelConfig config = small_config();
  Rng rng(13);
  auto fitted = models::build_model(models::Arch::kResNet18, config, rng);
  for (int b = 0; b < 5; ++b) {
    Tensor x = test_batch(8, 100 + b);
    for (float& v : x.flat()) v = 3.0F * v + 2.0F;
    (void)fitted->logits(x, /*training=*/true);
  }
  const Tensor batch = test_batch(16);
  const std::vector<int> want = nn::predict_batch(*fitted, batch);
  // The same parameters with freshly built statistics predict other classes
  // for this batch, so a replica that lost them fails the checks below.
  std::vector<float> parameters;
  for (const nn::Parameter* p : fitted->parameters()) {
    parameters.insert(parameters.end(), p->value.flat().begin(), p->value.flat().end());
  }
  Rng fresh_rng(14);
  auto stale = models::build_model(models::Arch::kResNet18, config, fresh_rng);
  stale->load_weights(parameters);
  EXPECT_NE(nn::predict_batch(*stale, batch), want);
  const TempFile file("registry_bn.ckpt");
  nn::save_checkpoint(*fitted, file.path,
                      models::checkpoint_meta(models::Arch::kResNet18, config));

  ModelRegistry registry(/*replica_slots=*/2);
  std::vector<MemberInit> members;
  members.push_back({models::make_factory(models::Arch::kResNet18, config), std::move(fitted)});
  registry.install("installed", std::move(members));
  registry.load("loaded", file.path);
  for (const char* name : {"installed", "loaded"}) {
    auto model = registry.current(name);
    ASSERT_NE(model, nullptr);
    EXPECT_EQ(model->predict(batch, 0), want) << name;
    EXPECT_EQ(model->predict(batch, 1), want) << name;
  }
}

TEST(ModelRegistry, V3QuantizeFlagAutoQuantizesOnLoad) {
  const models::ModelConfig config = small_config();
  Rng rng(12);
  auto fitted = models::build_model(models::Arch::kConvNet, config, rng);
  const TempFile file("registry_v3.ckpt");
  nn::CheckpointMeta meta =
      models::checkpoint_meta(models::Arch::kConvNet, config);
  meta.quantize = true;  // the checkpoint says "deploy me in q8_0 form"
  nn::save_checkpoint(*fitted, file.path, meta);

  ModelRegistry registry(/*replica_slots=*/2);
  // No quantize argument: the self-describing header alone must trigger it.
  EXPECT_EQ(registry.load("m", file.path), 1U);
  auto model = registry.current("m");
  ASSERT_NE(model, nullptr);
  EXPECT_TRUE(model->quantized());

  // The replicas serve the *quantized* predictions: identical across slots,
  // and matching a locally quantized copy of the same weights.
  auto twin = models::build_model(models::Arch::kConvNet, config, rng);
  twin->copy_weights_from(*fitted);
  twin->quantize_for_inference();
  const Tensor batch = test_batch(6);
  const std::vector<int> want = nn::predict_batch(*twin, batch);
  EXPECT_EQ(model->predict(batch, 0), want);
  EXPECT_EQ(model->predict(batch, 1), want);
}

TEST(ModelRegistry, V1CheckpointNeedsExplicitArch) {
  const models::ModelConfig config = small_config();
  Rng rng(12);
  auto fitted = models::build_model(models::Arch::kConvNet, config, rng);
  const TempFile file("registry_v1.ckpt");
  nn::save_checkpoint(*fitted, file.path);  // count-only v1

  ModelRegistry registry;
  EXPECT_THROW((void)registry.load("m", file.path), Error);  // no metadata
  EXPECT_EQ(registry.load("m", file.path, models::Arch::kConvNet, config), 1U);
  auto model = registry.current("m");
  ASSERT_NE(model, nullptr);
  const Tensor batch = test_batch(3);
  EXPECT_EQ(model->predict(batch, 0), nn::predict_batch(*fitted, batch));
}

TEST(ModelRegistry, TamperedArchMetadataRejected) {
  const models::ModelConfig config = small_config();
  Rng rng(13);
  auto fitted = models::build_model(models::Arch::kConvNet, config, rng);
  const TempFile file("registry_tampered.ckpt");
  // Claim the weights belong to VGG11: the registry builds a VGG11 and the
  // stored scalar count no longer matches its structure.
  nn::CheckpointMeta meta = models::checkpoint_meta(models::Arch::kConvNet, config);
  meta.arch = "VGG11";
  nn::save_checkpoint(*fitted, file.path, meta);

  ModelRegistry registry;
  EXPECT_THROW((void)registry.load("m", file.path), Error);
  EXPECT_EQ(registry.current("m"), nullptr);
}

TEST(ModelRegistry, UnknownArchNameRejected) {
  const models::ModelConfig config = small_config();
  Rng rng(14);
  auto fitted = models::build_model(models::Arch::kConvNet, config, rng);
  const TempFile file("registry_unknown.ckpt");
  nn::CheckpointMeta meta = models::checkpoint_meta(models::Arch::kConvNet, config);
  meta.arch = "NotANetwork";
  nn::save_checkpoint(*fitted, file.path, meta);
  ModelRegistry registry;
  EXPECT_THROW((void)registry.load("m", file.path), Error);
}

TEST(ModelRegistry, HotSwapBumpsVersionAndKeepsOldSnapshotAlive) {
  const models::ModelConfig config = small_config();
  Rng rng(15);
  auto v1_net = models::build_model(models::Arch::kConvNet, config, rng);
  auto v2_net = models::build_model(models::Arch::kConvNet, config, rng);
  const TempFile file("registry_swap.ckpt");
  const nn::CheckpointMeta meta =
      models::checkpoint_meta(models::Arch::kConvNet, config);

  ModelRegistry registry;
  nn::save_checkpoint(*v1_net, file.path, meta);
  EXPECT_EQ(registry.load("m", file.path), 1U);
  auto old_snapshot = registry.current("m");

  nn::save_checkpoint(*v2_net, file.path, meta);
  EXPECT_EQ(registry.load("m", file.path), 2U);
  auto new_snapshot = registry.current("m");
  ASSERT_NE(new_snapshot, nullptr);
  EXPECT_EQ(new_snapshot->version(), 2U);

  // An in-flight batch holding the old version still serves the old weights.
  ASSERT_NE(old_snapshot, nullptr);
  EXPECT_EQ(old_snapshot->version(), 1U);
  const Tensor batch = test_batch(4);
  EXPECT_EQ(old_snapshot->predict(batch, 0), nn::predict_batch(*v1_net, batch));
  EXPECT_EQ(new_snapshot->predict(batch, 0), nn::predict_batch(*v2_net, batch));
}

TEST(ModelRegistry, EnsembleCheckpointsServeAsOneLogicalModel) {
  const models::ModelConfig config = small_config();
  Rng rng(16);
  auto a = models::build_model(models::Arch::kConvNet, config, rng);
  auto b = models::build_model(models::Arch::kDeconvNet, config, rng);
  const TempFile fa("registry_ens_a.ckpt");
  const TempFile fb("registry_ens_b.ckpt");
  nn::save_checkpoint(*a, fa.path,
                      models::checkpoint_meta(models::Arch::kConvNet, config));
  nn::save_checkpoint(*b, fb.path,
                      models::checkpoint_meta(models::Arch::kDeconvNet, config));

  ModelRegistry registry;
  EXPECT_EQ(registry.load_ensemble("ens", {fa.path, fb.path}), 1U);
  auto model = registry.current("ens");
  ASSERT_NE(model, nullptr);
  EXPECT_EQ(model->num_members(), 2U);
  const Tensor batch = test_batch(4);
  const std::vector<int> preds = model->predict(batch, 0);
  EXPECT_EQ(preds.size(), 4U);
  for (const int p : preds) {
    EXPECT_GE(p, 0);
    EXPECT_LT(p, 5);
  }
}

TEST(ModelRegistry, HandleBeforeLoadSeesLaterVersions) {
  ModelRegistry registry;
  ModelRegistry::Handle handle = registry.handle("late");
  EXPECT_EQ(handle.snapshot(), nullptr);
  EXPECT_TRUE(registry.names().empty());  // empty entries are not listed

  const models::ModelConfig config = small_config();
  Rng rng(17);
  auto fitted = models::build_model(models::Arch::kConvNet, config, rng);
  const TempFile file("registry_late.ckpt");
  nn::save_checkpoint(*fitted, file.path,
                      models::checkpoint_meta(models::Arch::kConvNet, config));
  (void)registry.load("late", file.path);
  ASSERT_NE(handle.snapshot(), nullptr);
  EXPECT_EQ(handle.snapshot()->version(), 1U);
  EXPECT_EQ(registry.names(), std::vector<std::string>{"late"});
}

}  // namespace
}  // namespace tdfm::serve
