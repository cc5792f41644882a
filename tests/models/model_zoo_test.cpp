#include "models/model_zoo.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <string_view>
#include <utility>

#include "core/varint.hpp"
#include "tensor/init.hpp"

namespace tdfm::models {
namespace {

ModelConfig tiny_config(std::size_t classes = 5, std::size_t channels = 3) {
  ModelConfig c;
  c.in_channels = channels;
  c.image_size = 16;
  c.num_classes = classes;
  c.width = 4;  // keep the tests fast
  return c;
}

class AllArchitectures : public ::testing::TestWithParam<Arch> {};

TEST_P(AllArchitectures, DepthMatchesTableIII) {
  Rng rng(1);
  const auto net = build_model(GetParam(), tiny_config(), rng);
  EXPECT_EQ(net->weight_layer_count(), expected_weight_layers(GetParam()));
}

TEST_P(AllArchitectures, ForwardProducesLogitsPerClass) {
  Rng rng(2);
  const auto cfg = tiny_config(7);
  auto net = build_model(GetParam(), cfg, rng);
  Tensor batch(Shape{3, cfg.in_channels, 16, 16});
  uniform_init(batch, 0.0F, 1.0F, rng);
  const Tensor logits = net->logits(batch, /*training=*/false);
  EXPECT_EQ(logits.shape(), (Shape{3, 7}));
  for (const float v : logits.flat()) ASSERT_TRUE(std::isfinite(v));
}

TEST_P(AllArchitectures, TrainingForwardBackwardRuns) {
  Rng rng(3);
  const auto cfg = tiny_config(4);
  auto net = build_model(GetParam(), cfg, rng);
  Tensor batch(Shape{4, cfg.in_channels, 16, 16});
  uniform_init(batch, 0.0F, 1.0F, rng);
  const Tensor logits = net->logits(batch, /*training=*/true);
  Tensor grad(logits.shape());
  uniform_init(grad, -0.1F, 0.1F, rng);
  net->zero_grad();
  net->backward(grad);
  // Every parameter must have received some gradient signal.
  std::size_t touched = 0;
  for (auto* p : net->parameters()) {
    for (const float g : p->grad.flat()) {
      if (g != 0.0F) {
        ++touched;
        break;
      }
    }
  }
  EXPECT_GT(touched, net->parameters().size() / 2);
}

TEST_P(AllArchitectures, SingleChannelInputSupported) {
  // Pneumonia-sim is single-channel; every model must accept it.
  Rng rng(4);
  const auto cfg = tiny_config(2, /*channels=*/1);
  auto net = build_model(GetParam(), cfg, rng);
  Tensor batch(Shape{2, 1, 16, 16});
  uniform_init(batch, 0.0F, 1.0F, rng);
  EXPECT_EQ(net->logits(batch, false).shape(), (Shape{2, 2}));
}

TEST_P(AllArchitectures, RejectsBatchesOfAnotherSampleShape) {
  // The network records the [C, H, W] it was built for, and names any other
  // batch shape before a layer sees it.
  Rng rng(6);
  auto net = build_model(GetParam(), tiny_config(2, /*channels=*/1), rng);
  EXPECT_EQ(net->sample_shape(), (Shape{1, 16, 16}));
  for (const Shape& shape : {Shape{2, 3, 16, 16}, Shape{2, 1, 8, 8}, Shape{1, 16, 16}}) {
    EXPECT_THROW((void)net->logits(Tensor(shape), false), ShapeError) << shape.to_string();
  }
}

TEST_P(AllArchitectures, IndependentInitsDiffer) {
  Rng rng(5);
  auto a = build_model(GetParam(), tiny_config(), rng);
  auto b = build_model(GetParam(), tiny_config(), rng);
  EXPECT_NE(a->save_weights(), b->save_weights());
}

TEST_P(AllArchitectures, NameRoundTrip) {
  EXPECT_EQ(arch_from_name(arch_name(GetParam())), GetParam());
}

INSTANTIATE_TEST_SUITE_P(Zoo, AllArchitectures,
                         ::testing::ValuesIn(all_architectures()),
                         [](const auto& info) {
                           return std::string(arch_name(info.param));
                         });

TEST(ModelZoo, SevenArchitectures) { EXPECT_EQ(all_architectures().size(), 7U); }

TEST(ModelZoo, ShallowClassification) {
  EXPECT_TRUE(is_shallow(Arch::kConvNet));
  EXPECT_TRUE(is_shallow(Arch::kDeconvNet));
  EXPECT_FALSE(is_shallow(Arch::kResNet50));
  EXPECT_FALSE(is_shallow(Arch::kVGG16));
}

TEST(ModelZoo, UnknownNameThrows) {
  EXPECT_THROW((void)arch_from_name("AlexNet"), ConfigError);
}

TEST(ModelZoo, RejectsNonSixteenImages) {
  ModelConfig c = tiny_config();
  c.image_size = 32;
  Rng rng(6);
  EXPECT_THROW((void)build_model(Arch::kConvNet, c, rng), InvariantError);
}

TEST(ModelZoo, DepthOrderingMatchesPaper) {
  // Table III: ResNet50 is the deepest, ConvNet/DeconvNet the shallowest.
  EXPECT_GT(expected_weight_layers(Arch::kResNet50),
            expected_weight_layers(Arch::kMobileNet));
  EXPECT_GT(expected_weight_layers(Arch::kMobileNet),
            expected_weight_layers(Arch::kResNet18));
  EXPECT_GT(expected_weight_layers(Arch::kResNet18),
            expected_weight_layers(Arch::kVGG16));
  EXPECT_GT(expected_weight_layers(Arch::kVGG16),
            expected_weight_layers(Arch::kVGG11));
  EXPECT_GT(expected_weight_layers(Arch::kVGG11),
            expected_weight_layers(Arch::kConvNet));
}

TEST(ModelZoo, ConfigFromDatasetSpec) {
  data::SyntheticSpec spec;
  spec.kind = data::DatasetKind::kPneumoniaSim;
  const ModelConfig c = ModelConfig::for_dataset(spec, 6);
  EXPECT_EQ(c.in_channels, 1U);
  EXPECT_EQ(c.num_classes, 2U);
  EXPECT_EQ(c.width, 6U);
}

TEST(ModelZoo, FactoryProducesFreshInstances) {
  const auto factory = make_factory(Arch::kConvNet, tiny_config());
  Rng rng(7);
  auto a = factory(rng);
  auto b = factory(rng);
  EXPECT_NE(a->save_weights(), b->save_weights());
  EXPECT_EQ(a->parameter_count(), b->parameter_count());
}

TEST(ModelZoo, TunedOptionsRespectAutoTuneFlag) {
  nn::TrainOptions base;
  base.lr = 0.123F;
  base.auto_tune = false;
  const auto same = tuned_options(Arch::kVGG16, base);
  EXPECT_EQ(same.lr, 0.123F);
  base.auto_tune = true;
  const auto tuned = tuned_options(Arch::kVGG16, base);
  EXPECT_TRUE(tuned.use_adam);
  const auto resnet = tuned_options(Arch::kResNet50, base);
  EXPECT_FALSE(resnet.use_adam);
  // Epochs and batch size are user-controlled and must pass through.
  base.epochs = 77;
  EXPECT_EQ(tuned_options(Arch::kConvNet, base).epochs, 77U);
}

TEST(ModelZoo, ParameterCountGrowsWithWidth) {
  Rng rng(8);
  ModelConfig narrow = tiny_config();
  narrow.width = 4;
  ModelConfig wide = tiny_config();
  wide.width = 8;
  auto a = build_model(Arch::kResNet18, narrow, rng);
  auto b = build_model(Arch::kResNet18, wide, rng);
  EXPECT_GT(b->parameter_count(), 2 * a->parameter_count());
}

TEST(ModelZoo, SavedWeightsMatchPinnedCheckpointLayout) {
  // FNV-1a 64 of save_weights() -- the checkpoint payload -- of a freshly
  // built width-8 network, so a checkpoint written by an earlier build loads
  // into the same weights: the zoo draws its initial weights in the same
  // order and lists parameters and state in the same order.  Pinned for the
  // FMA-contraction build the digests were recorded on, as the Train pins.
#if !defined(__FMA__)
  GTEST_SKIP() << "digests are pinned for the FMA-contraction build only";
#endif
  const std::pair<Arch, std::uint64_t> pinned[] = {
      {Arch::kConvNet, 0xbd9dc48e4b1a34edULL},  {Arch::kDeconvNet, 0x3b62aa0daea8679eULL},
      {Arch::kVGG11, 0x2e76d4e943941a31ULL},    {Arch::kVGG16, 0xd47b2c15b6ed74f4ULL},
      {Arch::kResNet18, 0xf7be72a367d4648dULL}, {Arch::kResNet50, 0xfb8b408739f18536ULL},
      {Arch::kMobileNet, 0xd1f8f1e152e284c8ULL},
  };
  ModelConfig cfg;
  cfg.width = 8;
  for (const auto& [arch, want] : pinned) {
    Rng rng(62);
    const std::vector<float> weights = build_model(arch, cfg, rng)->save_weights();
    const std::uint64_t digest = core::fnv1a64(std::string_view(
        reinterpret_cast<const char*>(weights.data()), weights.size() * sizeof(float)));
    EXPECT_EQ(digest, want) << arch_name(arch) << std::hex << " digest 0x" << digest;
  }
}

}  // namespace
}  // namespace tdfm::models
