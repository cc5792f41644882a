// ModelRegistry: checkpoint-driven instantiation (v2 self-describing, v1
// with explicit arch), metadata mismatch rejection, version bumping, served
// networks that predict as the fitted ones (batch-norm running statistics
// included), and ensembles that vote as mitigation::EnsembleClassifier.
#include "serve/model_registry.hpp"

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>

#include "data/synthetic.hpp"
#include "mitigation/ensemble.hpp"
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

  ModelRegistry registry;
  // No out-of-band configuration: the header names the architecture.
  EXPECT_EQ(registry.load("m", file.path), 1U);
  auto model = registry.current("m");
  ASSERT_NE(model, nullptr);
  EXPECT_EQ(model->version(), 1U);
  EXPECT_EQ(model->num_members(), 1U);
  EXPECT_EQ(model->num_classes(), 5U);

  // The served network predicts exactly what the fitted network predicts.
  const Tensor batch = test_batch(6);
  EXPECT_EQ(model->predict(batch), nn::predict_batch(*fitted, batch));
}

TEST(ModelRegistry, ServesBatchNormModelsWithTheirRunningStatistics) {
  // The served network is a weight copy, so a batch-norm member must carry
  // its running statistics into it, and so must a checkpoint load.
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
  // for this batch, so a served copy that lost them fails the checks below.
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

  ModelRegistry registry;
  std::vector<MemberInit> members;
  members.push_back({models::make_factory(models::Arch::kResNet18, config), std::move(fitted)});
  registry.install("installed", std::move(members));
  registry.load("loaded", file.path);
  for (const char* name : {"installed", "loaded"}) {
    auto model = registry.current(name);
    ASSERT_NE(model, nullptr);
    EXPECT_EQ(model->predict(batch), want) << name;
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

  ModelRegistry registry;
  // No quantize argument: the self-describing header alone must trigger it.
  EXPECT_EQ(registry.load("m", file.path), 1U);
  auto model = registry.current("m");
  ASSERT_NE(model, nullptr);
  EXPECT_TRUE(model->quantized());

  // The served network gives the *quantized* predictions: those of a locally
  // quantized copy of the same weights.
  auto twin = models::build_model(models::Arch::kConvNet, config, rng);
  twin->copy_weights_from(*fitted);
  twin->quantize_for_inference();
  const Tensor batch = test_batch(6);
  EXPECT_EQ(model->predict(batch), nn::predict_batch(*twin, batch));
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
  EXPECT_EQ(model->predict(batch), nn::predict_batch(*fitted, batch));
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
  EXPECT_EQ(old_snapshot->predict(batch), nn::predict_batch(*v1_net, batch));
  EXPECT_EQ(new_snapshot->predict(batch), nn::predict_batch(*v2_net, batch));
}

TEST(ModelRegistry, EnsembleCheckpointsServeAsOneLogicalModel) {
  // Three members, so votes split 2:1 and 1:1:1; the served ensemble must
  // answer exactly what mitigation::EnsembleClassifier answers over the
  // same networks.
  const models::ModelConfig config = small_config();
  Rng rng(16);
  const models::Arch archs[] = {models::Arch::kConvNet, models::Arch::kDeconvNet,
                                models::Arch::kMobileNet};
  const TempFile files[] = {TempFile("registry_ens_a.ckpt"),
                            TempFile("registry_ens_b.ckpt"),
                            TempFile("registry_ens_c.ckpt")};
  std::vector<std::unique_ptr<nn::Network>> members;
  std::vector<std::string> paths;
  for (std::size_t m = 0; m < 3; ++m) {
    members.push_back(models::build_model(archs[m], config, rng));
    nn::save_checkpoint(*members.back(), files[m].path,
                        models::checkpoint_meta(archs[m], config));
    paths.push_back(files[m].path);
  }
  mitigation::EnsembleClassifier offline(std::move(members));

  ModelRegistry registry;
  EXPECT_EQ(registry.load_ensemble("ens", paths), 1U);
  auto model = registry.current("ens");
  ASSERT_NE(model, nullptr);
  EXPECT_EQ(model->num_members(), 3U);
  const Tensor batch = test_batch(32);
  EXPECT_EQ(model->predict(batch), offline.predict(batch));
}

TEST(ModelRegistry, EnsembleMembersMustShareTheSampleShape) {
  // A 3-channel and a 1-channel member cannot answer one request, so the
  // version is refused at load instead of failing at its first request.
  models::ModelConfig gray = small_config();
  gray.in_channels = 1;
  Rng rng(18);
  auto color_net = models::build_model(models::Arch::kConvNet, small_config(), rng);
  auto gray_net = models::build_model(models::Arch::kConvNet, gray, rng);
  const TempFile fc("registry_shape_color.ckpt");
  const TempFile fg("registry_shape_gray.ckpt");
  nn::save_checkpoint(*color_net, fc.path,
                      models::checkpoint_meta(models::Arch::kConvNet, small_config()));
  nn::save_checkpoint(*gray_net, fg.path, models::checkpoint_meta(models::Arch::kConvNet, gray));

  ModelRegistry registry;
  EXPECT_THROW((void)registry.load_ensemble("ens", {fc.path, fg.path}), ShapeError);
  EXPECT_EQ(registry.current("ens"), nullptr);
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
