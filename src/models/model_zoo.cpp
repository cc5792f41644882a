#include "models/model_zoo.hpp"

#include "nn/blocks.hpp"
#include "nn/dense.hpp"
#include "nn/dropout.hpp"
#include "nn/flatten.hpp"
#include "nn/pooling.hpp"

namespace tdfm::models {

using nn::AvgPool2D;
using nn::BatchNorm2D;
using nn::BottleneckBlock;
using nn::Conv2D;
using nn::Dense;
using nn::Dropout;
using nn::Flatten;
using nn::GlobalAvgPool;
using nn::MaxPool2D;
using nn::ReLU;
using nn::ResidualBasicBlock;
using nn::SeparableConvBlock;
using nn::Sequential;

const char* arch_name(Arch arch) {
  switch (arch) {
    case Arch::kConvNet: return "ConvNet";
    case Arch::kDeconvNet: return "DeconvNet";
    case Arch::kVGG11: return "VGG11";
    case Arch::kVGG16: return "VGG16";
    case Arch::kResNet18: return "ResNet18";
    case Arch::kResNet50: return "ResNet50";
    case Arch::kMobileNet: return "MobileNet";
  }
  return "unknown";
}

Arch arch_from_name(std::string_view name) {
  for (const Arch arch : all_architectures()) {
    if (name == arch_name(arch)) return arch;
  }
  throw ConfigError("unknown architecture: " + std::string(name));
}

std::vector<Arch> all_architectures() {
  return {Arch::kConvNet,  Arch::kDeconvNet, Arch::kVGG11,    Arch::kVGG16,
          Arch::kResNet18, Arch::kResNet50,  Arch::kMobileNet};
}

bool is_shallow(Arch arch) {
  return arch == Arch::kConvNet || arch == Arch::kDeconvNet;
}

ModelConfig ModelConfig::for_dataset(const data::SyntheticSpec& spec,
                                     std::size_t width) {
  ModelConfig c;
  c.in_channels = spec.channels();
  c.image_size = spec.image_size;
  c.num_classes = spec.num_classes();
  c.width = width;
  return c;
}

std::size_t expected_weight_layers(Arch arch) {
  switch (arch) {
    case Arch::kConvNet: return 6;    // 3 conv + 3 FC
    case Arch::kDeconvNet: return 6;  // 4 conv + 2 FC
    case Arch::kVGG11: return 11;     // 8 conv + 3 FC
    case Arch::kVGG16: return 16;     // 13 conv + 3 FC
    case Arch::kResNet18: return 18;  // 17 conv + 1 FC
    case Arch::kResNet50: return 50;  // 49 conv + 1 FC
    case Arch::kMobileNet: return 28; // 27 conv + 1 FC
  }
  return 0;
}

nn::CheckpointMeta checkpoint_meta(Arch arch, const ModelConfig& config) {
  nn::CheckpointMeta meta;
  meta.arch = arch_name(arch);
  meta.width = static_cast<std::uint32_t>(config.width);
  meta.in_channels = static_cast<std::uint32_t>(config.in_channels);
  meta.image_size = static_cast<std::uint32_t>(config.image_size);
  meta.num_classes = static_cast<std::uint32_t>(config.num_classes);
  return meta;
}

ModelConfig config_from_meta(const nn::CheckpointMeta& meta) {
  ModelConfig c;
  c.width = meta.width;
  c.in_channels = meta.in_channels;
  c.image_size = meta.image_size;
  c.num_classes = meta.num_classes;
  return c;
}

std::unique_ptr<nn::Network> build_from_meta(const nn::CheckpointMeta& meta, Rng& rng) {
  return build_model(arch_from_name(meta.arch), config_from_meta(meta), rng);
}

namespace {

void check_config(const ModelConfig& c) {
  TDFM_CHECK(c.image_size == 16, "model zoo is built for 16x16 inputs");
  TDFM_CHECK(c.width >= 2, "width multiplier too small");
  TDFM_CHECK(c.num_classes >= 2, "need at least two classes");
}

// ConvNet: 3 conv + 3 FC + max pooling (moderate depth).  Every Conv2D runs
// the ReLU that follows it fused (Conv2D's fuse_relu).
std::unique_ptr<Sequential> convnet_body(const ModelConfig& c, Rng& rng) {
  const std::size_t w = c.width;
  constexpr bool kReLU = true;
  auto body = std::make_unique<Sequential>();
  body->emplace<Conv2D>(c.in_channels, w, 16, 16, 3, 1, 1, rng, kReLU);
  body->emplace<Conv2D>(w, 2 * w, 16, 16, 3, 1, 1, rng, kReLU);
  body->emplace<MaxPool2D>(2);  // -> 8x8
  body->emplace<Conv2D>(2 * w, 2 * w, 8, 8, 3, 1, 1, rng, kReLU);
  body->emplace<MaxPool2D>(2);  // -> 4x4
  body->emplace<Flatten>();
  body->emplace<Dense>(2 * w * 16, 8 * w, rng);
  body->emplace<ReLU>();
  body->emplace<Dense>(8 * w, 4 * w, rng);
  body->emplace<ReLU>();
  body->emplace<Dense>(4 * w, c.num_classes, rng);
  return body;
}

// DeconvNet: 4 conv + 2 FC with 0.5 dropout (moderate depth), each Conv2D
// with its ReLU fused.
std::unique_ptr<Sequential> deconvnet_body(const ModelConfig& c, Rng& rng) {
  const std::size_t w = c.width;
  constexpr bool kReLU = true;
  auto body = std::make_unique<Sequential>();
  body->emplace<Conv2D>(c.in_channels, w, 16, 16, 3, 1, 1, rng, kReLU);
  body->emplace<Conv2D>(w, w, 16, 16, 3, 1, 1, rng, kReLU);
  body->emplace<MaxPool2D>(2);  // -> 8x8
  body->emplace<Conv2D>(w, 2 * w, 8, 8, 3, 1, 1, rng, kReLU);
  body->emplace<Conv2D>(2 * w, 2 * w, 8, 8, 3, 1, 1, rng, kReLU);
  body->emplace<MaxPool2D>(2);  // -> 4x4
  body->emplace<Flatten>();
  body->emplace<Dense>(2 * w * 16, 6 * w, rng);
  body->emplace<ReLU>();
  body->emplace<Dropout>(0.5F, rng);
  body->emplace<Dense>(6 * w, c.num_classes, rng);
  return body;
}

void vgg_block(Sequential& body, std::size_t convs, std::size_t in_c,
               std::size_t out_c, std::size_t hw, bool pool, Rng& rng) {
  for (std::size_t i = 0; i < convs; ++i) {
    body.emplace<Conv2D>(i == 0 ? in_c : out_c, out_c, hw, hw, 3, 1, 1, rng);
    body.emplace<BatchNorm2D>(out_c, /*fuse_relu=*/true);
  }
  if (pool) body.emplace<MaxPool2D>(2);
}

// VGG11: conv blocks (1,1,2,2,2) + 3 FC.
std::unique_ptr<Sequential> vgg11_body(const ModelConfig& c, Rng& rng) {
  const std::size_t w = c.width;
  auto body = std::make_unique<Sequential>();
  vgg_block(*body, 1, c.in_channels, w, 16, true, rng);   // -> 8
  vgg_block(*body, 1, w, 2 * w, 8, true, rng);            // -> 4
  vgg_block(*body, 2, 2 * w, 4 * w, 4, true, rng);        // -> 2
  vgg_block(*body, 2, 4 * w, 8 * w, 2, true, rng);        // -> 1
  vgg_block(*body, 2, 8 * w, 8 * w, 1, false, rng);
  body->emplace<Flatten>();
  body->emplace<Dense>(8 * w, 8 * w, rng);
  body->emplace<ReLU>();
  body->emplace<Dense>(8 * w, 8 * w, rng);
  body->emplace<ReLU>();
  body->emplace<Dense>(8 * w, c.num_classes, rng);
  return body;
}

// VGG16: conv blocks (2,2,3,3,3) + 3 FC — 13 conv as in Table III.
std::unique_ptr<Sequential> vgg16_body(const ModelConfig& c, Rng& rng) {
  const std::size_t w = c.width;
  auto body = std::make_unique<Sequential>();
  vgg_block(*body, 2, c.in_channels, w, 16, true, rng);   // -> 8
  vgg_block(*body, 2, w, 2 * w, 8, true, rng);            // -> 4
  vgg_block(*body, 3, 2 * w, 4 * w, 4, true, rng);        // -> 2
  vgg_block(*body, 3, 4 * w, 8 * w, 2, true, rng);        // -> 1
  vgg_block(*body, 3, 8 * w, 8 * w, 1, false, rng);
  body->emplace<Flatten>();
  body->emplace<Dense>(8 * w, 8 * w, rng);
  body->emplace<ReLU>();
  body->emplace<Dense>(8 * w, 8 * w, rng);
  body->emplace<ReLU>();
  body->emplace<Dense>(8 * w, c.num_classes, rng);
  return body;
}

// ResNet18: stem + 8 basic blocks (2 per stage) + GAP + FC = 17 conv + 1 FC.
std::unique_ptr<Sequential> resnet18_body(const ModelConfig& c, Rng& rng) {
  const std::size_t w = c.width;
  auto body = std::make_unique<Sequential>();
  body->emplace<Conv2D>(c.in_channels, w, 16, 16, 3, 1, 1, rng);
  body->emplace<BatchNorm2D>(w, /*fuse_relu=*/true);
  body->emplace<ResidualBasicBlock>(w, w, 16, 16, 1, rng);
  body->emplace<ResidualBasicBlock>(w, w, 16, 16, 1, rng);
  body->emplace<ResidualBasicBlock>(w, 2 * w, 16, 16, 2, rng);   // -> 8
  body->emplace<ResidualBasicBlock>(2 * w, 2 * w, 8, 8, 1, rng);
  body->emplace<ResidualBasicBlock>(2 * w, 4 * w, 8, 8, 2, rng); // -> 4
  body->emplace<ResidualBasicBlock>(4 * w, 4 * w, 4, 4, 1, rng);
  body->emplace<ResidualBasicBlock>(4 * w, 8 * w, 4, 4, 2, rng); // -> 2
  body->emplace<ResidualBasicBlock>(8 * w, 8 * w, 2, 2, 1, rng);
  body->emplace<GlobalAvgPool>();
  body->emplace<Dense>(8 * w, c.num_classes, rng);
  return body;
}

// ResNet50: stem + 16 bottleneck blocks (3, 4, 6, 3) + GAP + FC
//         = 1 + 48 conv + 1 FC.
std::unique_ptr<Sequential> resnet50_body(const ModelConfig& c, Rng& rng) {
  const std::size_t w = c.width;
  auto body = std::make_unique<Sequential>();
  body->emplace<Conv2D>(c.in_channels, w, 16, 16, 3, 1, 1, rng);
  body->emplace<BatchNorm2D>(w, /*fuse_relu=*/true);
  // Stage 1: 3 blocks, mid w, out 2w, 16x16.
  body->emplace<BottleneckBlock>(w, w, 2 * w, 16, 16, 1, rng);
  body->emplace<BottleneckBlock>(2 * w, w, 2 * w, 16, 16, 1, rng);
  body->emplace<BottleneckBlock>(2 * w, w, 2 * w, 16, 16, 1, rng);
  // Stage 2: 4 blocks, mid 2w, out 4w, first strided -> 8x8.
  body->emplace<BottleneckBlock>(2 * w, 2 * w, 4 * w, 16, 16, 2, rng);
  body->emplace<BottleneckBlock>(4 * w, 2 * w, 4 * w, 8, 8, 1, rng);
  body->emplace<BottleneckBlock>(4 * w, 2 * w, 4 * w, 8, 8, 1, rng);
  body->emplace<BottleneckBlock>(4 * w, 2 * w, 4 * w, 8, 8, 1, rng);
  // Stage 3: 6 blocks, mid 4w, out 8w, first strided -> 4x4.
  body->emplace<BottleneckBlock>(4 * w, 4 * w, 8 * w, 8, 8, 2, rng);
  for (int i = 0; i < 5; ++i) {
    body->emplace<BottleneckBlock>(8 * w, 4 * w, 8 * w, 4, 4, 1, rng);
  }
  // Stage 4: 3 blocks, mid 8w, out 16w, first strided -> 2x2.
  body->emplace<BottleneckBlock>(8 * w, 8 * w, 16 * w, 4, 4, 2, rng);
  body->emplace<BottleneckBlock>(16 * w, 8 * w, 16 * w, 2, 2, 1, rng);
  body->emplace<BottleneckBlock>(16 * w, 8 * w, 16 * w, 2, 2, 1, rng);
  body->emplace<GlobalAvgPool>();
  body->emplace<Dense>(16 * w, c.num_classes, rng);
  return body;
}

// MobileNet: stem + 13 depthwise-separable blocks + GAP + FC
//          = 1 + 26 conv + 1 FC.
std::unique_ptr<Sequential> mobilenet_body(const ModelConfig& c, Rng& rng) {
  const std::size_t w = c.width;
  auto body = std::make_unique<Sequential>();
  body->emplace<Conv2D>(c.in_channels, w, 16, 16, 3, 1, 1, rng);
  body->emplace<BatchNorm2D>(w, /*fuse_relu=*/true);
  body->emplace<SeparableConvBlock>(w, 2 * w, 16, 16, 1, rng);
  body->emplace<SeparableConvBlock>(2 * w, 2 * w, 16, 16, 2, rng);  // -> 8
  body->emplace<SeparableConvBlock>(2 * w, 4 * w, 8, 8, 1, rng);
  body->emplace<SeparableConvBlock>(4 * w, 4 * w, 8, 8, 2, rng);    // -> 4
  body->emplace<SeparableConvBlock>(4 * w, 8 * w, 4, 4, 1, rng);
  for (int i = 0; i < 6; ++i) {
    body->emplace<SeparableConvBlock>(8 * w, 8 * w, 4, 4, 1, rng);
  }
  body->emplace<SeparableConvBlock>(8 * w, 16 * w, 4, 4, 2, rng);   // -> 2
  body->emplace<SeparableConvBlock>(16 * w, 16 * w, 2, 2, 1, rng);
  body->emplace<GlobalAvgPool>();
  body->emplace<Dense>(16 * w, c.num_classes, rng);
  return body;
}

}  // namespace

std::unique_ptr<nn::Network> build_model(Arch arch, const ModelConfig& config,
                                         Rng& rng) {
  check_config(config);
  std::unique_ptr<Sequential> body;
  switch (arch) {
    case Arch::kConvNet: body = convnet_body(config, rng); break;
    case Arch::kDeconvNet: body = deconvnet_body(config, rng); break;
    case Arch::kVGG11: body = vgg11_body(config, rng); break;
    case Arch::kVGG16: body = vgg16_body(config, rng); break;
    case Arch::kResNet18: body = resnet18_body(config, rng); break;
    case Arch::kResNet50: body = resnet50_body(config, rng); break;
    case Arch::kMobileNet: body = mobilenet_body(config, rng); break;
  }
  auto net = std::make_unique<nn::Network>(
      arch_name(arch), std::move(body),
      Shape{config.in_channels, config.image_size, config.image_size}, config.num_classes);
  TDFM_CHECK(net->weight_layer_count() == expected_weight_layers(arch),
             "architecture depth does not match Table III");
  return net;
}

nn::NetworkFactory make_factory(Arch arch, ModelConfig config) {
  return [arch, config](Rng& rng) { return build_model(arch, config, rng); };
}

nn::TrainOptions tuned_options(Arch arch, nn::TrainOptions base) {
  if (!base.auto_tune) return base;
  switch (arch) {
    case Arch::kConvNet:
    case Arch::kDeconvNet:
    case Arch::kVGG11:
    case Arch::kVGG16:
      base.use_adam = true;
      base.lr = 0.0025F;
      break;
    case Arch::kResNet18:
    case Arch::kResNet50:
    case Arch::kMobileNet:
      base.use_adam = false;
      base.lr = 0.05F;
      break;
  }
  return base;
}

}  // namespace tdfm::models
