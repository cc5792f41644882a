// q8_0 quantization: numeric bounds, the non-finite rule, the quantized
// network path (pinned logits at every kernel table), and the serving-layer
// integration (quantized replicas answer like a locally quantized network,
// bit for bit).
#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>
#include <cstring>
#include <limits>
#include <string_view>
#include <vector>

#include "checker.hpp"
#include "core/error.hpp"
#include "core/rng.hpp"
#include "core/varint.hpp"
#include "kernels/kernels.hpp"
#include "kernels/quant.hpp"
#include "models/model_zoo.hpp"
#include "nn/checkpoint.hpp"
#include "serve/model_registry.hpp"
#include "study/presets.hpp"
#include "study/spec.hpp"
#include "tensor/tensor.hpp"

namespace tdfm {
namespace {

std::vector<float> random_values(std::size_t n, Rng& rng) {
  std::vector<float> v(n);
  for (auto& x : v) x = rng.normal();
  return v;
}

TEST(Quant, RoundTripErrorIsHalfStepPerBlock) {
  const std::size_t rows = 3, cols = 70;  // 3 blocks/row, 6-wide tail
  Rng rng(3);
  const auto src = random_values(rows * cols, rng);
  const kernels::Q8Matrix q = kernels::quantize_rows_q8(src.data(), rows, cols);
  ASSERT_EQ(q.rows, rows);
  ASSERT_EQ(q.cols, cols);
  ASSERT_EQ(q.blocks_per_row, 3u);
  std::vector<float> back(rows * cols);
  kernels::dequantize_rows_q8(q, back.data());
  for (std::size_t r = 0; r < rows; ++r) {
    for (std::size_t blk = 0; blk * kernels::kQ8Block < cols; ++blk) {
      const std::size_t lo = blk * kernels::kQ8Block;
      const std::size_t hi = std::min(cols, lo + kernels::kQ8Block);
      float amax = 0.0F;
      for (std::size_t t = lo; t < hi; ++t) {
        amax = std::max(amax, std::fabs(src[r * cols + t]));
      }
      // Round-to-nearest against a step of amax/127: at most half a step.
      const float bound = amax / 127.0F * 0.5F + 1e-6F;
      for (std::size_t t = lo; t < hi; ++t) {
        EXPECT_NEAR(src[r * cols + t], back[r * cols + t], bound)
            << "row " << r << " col " << t;
      }
    }
  }
}

TEST(Quant, TailBlocksArePaddedWithZeros) {
  const std::size_t cols = 33;  // one full block + a 1-element tail block
  Rng rng(4);
  const auto src = random_values(cols, rng);
  const kernels::Q8Matrix q = kernels::quantize_rows_q8(src.data(), 1, cols);
  ASSERT_EQ(q.blocks_per_row, 2u);
  for (std::size_t t = 33; t < 64; ++t) {
    EXPECT_EQ(q.data.data()[t], 0) << "pad element " << t;
  }
}

TEST(Quant, ZeroBlockQuantizesToZero) {
  std::vector<float> src(kernels::kQ8Block, 0.0F);
  const kernels::Q8Matrix q =
      kernels::quantize_rows_q8(src.data(), 1, kernels::kQ8Block);
  EXPECT_EQ(q.scales.data()[0], 0.0F);
  for (std::size_t t = 0; t < kernels::kQ8Block; ++t) {
    EXPECT_EQ(q.data.data()[t], 0);
  }
}

TEST(Quant, NonFiniteRuleIsTheSameAtEveryTable) {
  // kernels/quant.hpp: NaN never raises amax and gets code -127; an Inf
  // element makes the scale +Inf, its own code -127 and every finite code
  // in the block 0.
  constexpr float kNaN = std::numeric_limits<float>::quiet_NaN();
  constexpr float kInf = std::numeric_limits<float>::infinity();
  std::vector<float> src(3 * kernels::kQ8Block, 0.25F);
  src[0] = kNaN;  // block 0: amax 2 from src[1]
  src[1] = 2.0F;
  src[2] = -1.0F;  // -63.5 after scaling: half away from zero is -64
  src[32] = kInf;  // block 1: +Inf and -Inf among finite values
  src[33] = -kInf;
  src[34] = -3.0F;
  for (std::size_t t = 64; t < 96; ++t) src[t] = kNaN;  // block 2: all NaN
  for (const kernels::KernelKind kind : kernels::supported_kernels()) {
    const std::string what = kernels::kernel_name(kind);
    std::vector<std::int8_t> q(src.size());
    std::vector<float> scales(3);
    kernels::kernel_table(kind).quantize_q8(src.data(), 1, src.size(), q.data(),
                                            scales.data());
    EXPECT_EQ(scales[0], 2.0F / 127.0F) << what;
    EXPECT_EQ(q[0], -127) << what;
    EXPECT_EQ(q[1], 127) << what;
    EXPECT_EQ(q[2], -64) << what;
    EXPECT_EQ(q[3], 16) << what;  // 0.25 * 63.5 = 15.875
    EXPECT_EQ(scales[1], kInf) << what;
    EXPECT_EQ(q[32], -127) << what;
    EXPECT_EQ(q[33], -127) << what;
    for (std::size_t t = 34; t < 64; ++t) EXPECT_EQ(q[t], 0) << what << " " << t;
    EXPECT_EQ(scales[2], 0.0F) << what;  // NaN never raised amax above 0
    for (std::size_t t = 64; t < 96; ++t) EXPECT_EQ(q[t], -127) << what << " " << t;
  }
}

/// Builds a random batch of images matching the model config.
Tensor random_batch(const models::ModelConfig& cfg, std::size_t batch,
                    Rng& rng) {
  Tensor t{Shape{batch, cfg.in_channels, cfg.image_size, cfg.image_size}};
  for (std::size_t i = 0; i < t.numel(); ++i) t.data()[i] = rng.normal();
  return t;
}

TEST(Quant, QuantizedNetworkLogitsStayClose) {
  models::ModelConfig cfg;
  cfg.width = 4;
  Rng rng(21);
  auto net = models::build_model(models::Arch::kConvNet, cfg, rng);
  Rng data_rng(22);
  const Tensor batch = random_batch(cfg, 4, data_rng);

  const Tensor fp32 = net->logits(batch, /*training=*/false);
  net->quantize_for_inference();
  EXPECT_TRUE(net->quantized());
  const Tensor q8 = net->logits(batch, /*training=*/false);

  ASSERT_EQ(fp32.numel(), q8.numel());
  double num = 0.0, den = 0.0;
  for (std::size_t i = 0; i < fp32.numel(); ++i) {
    const double d = double(q8.data()[i]) - double(fp32.data()[i]);
    num += d * d;
    den += double(fp32.data()[i]) * double(fp32.data()[i]);
  }
  // Relative L2 error of the logits: int8 weights and activations keep a
  // couple of decimal digits; 5% is far above normal, far below breakage.
  EXPECT_LT(std::sqrt(num / (den + 1e-12)), 0.05);
}

TEST(Quant, QuantizedLogitsMatchPinnedDigestsAtEveryTable) {
  // FNV-1a 64 of the q8 logits of every model-zoo arch (width 4, 18 images,
  // so small planes run several image groups), recorded before the
  // vectorized quantizer, the blocked q8 kernel and the grouped quantized
  // conv.  Only MobileNet differs by table: its depthwise layers stay fp32
  // (fake-quant), and those kernels round per table.  BatchNorm's fp32
  // arithmetic contracts into FMA in an -march=native build on an FMA host,
  // where the digests were recorded; elsewhere only the BatchNorm-free
  // archs are pinned.
#if defined(__FMA__)
  constexpr bool kPinBatchNormArchs = true;
#else
  constexpr bool kPinBatchNormArchs = false;
#endif
  struct Pinned {
    models::Arch arch;
    bool batchnorm;
    std::uint64_t digest;       ///< scalar
    std::uint64_t avx2_digest;
  };
  const Pinned pinned[] = {
      {models::Arch::kConvNet, false, 0x044649f19d6f1743ULL, 0x044649f19d6f1743ULL},
      {models::Arch::kDeconvNet, false, 0x6523ff01d8b06afdULL, 0x6523ff01d8b06afdULL},
      {models::Arch::kVGG11, true, 0xc20da45c9dfea854ULL, 0xc20da45c9dfea854ULL},
      {models::Arch::kVGG16, true, 0x504f3523025f45e9ULL, 0x504f3523025f45e9ULL},
      {models::Arch::kResNet18, true, 0x374b306ab27f7a2bULL, 0x374b306ab27f7a2bULL},
      {models::Arch::kResNet50, true, 0x00e54d4ac594a7afULL, 0x00e54d4ac594a7afULL},
      {models::Arch::kMobileNet, true, 0x50845ecf0505223dULL, 0xbd928651c6fa5884ULL},
  };
  kernels_test::KernelGuard guard;
  const auto archs = models::all_architectures();
  ASSERT_EQ(archs.size(), std::size(pinned));
  for (std::size_t a = 0; a < archs.size(); ++a) {
    ASSERT_EQ(archs[a], pinned[a].arch);
    if (pinned[a].batchnorm && !kPinBatchNormArchs) continue;
    models::ModelConfig cfg;
    cfg.width = 4;
    Rng rng(700 + a);
    auto net = models::build_model(archs[a], cfg, rng);
    net->quantize_for_inference();
    Rng data_rng(800 + a);
    const Tensor batch = random_batch(cfg, 18, data_rng);
    for (const kernels::KernelKind kind : kernels::supported_kernels()) {
      kernels::set_active_kernel(kind);
      const Tensor logits = net->logits(batch, /*training=*/false);
      const std::uint64_t digest = core::fnv1a64(std::string_view(
          reinterpret_cast<const char*>(logits.data()), logits.numel() * sizeof(float)));
      EXPECT_EQ(digest, kind == kernels::KernelKind::kAvx2 ? pinned[a].avx2_digest
                                                           : pinned[a].digest)
          << models::arch_name(archs[a]) << " at " << kernels::kernel_name(kind);
    }
  }
}

TEST(Quant, QuantizedNetworkRefusesBackward) {
  models::ModelConfig cfg;
  cfg.width = 4;
  Rng rng(23);
  auto net = models::build_model(models::Arch::kConvNet, cfg, rng);
  net->quantize_for_inference();
  Rng data_rng(24);
  const Tensor batch = random_batch(cfg, 2, data_rng);
  (void)net->logits(batch, /*training=*/false);
  Tensor grad{Shape{std::size_t{2}, cfg.num_classes}};
  EXPECT_THROW(net->backward(grad), InvariantError);
}

TEST(Quant, ServedQuantizedReplicaMatchesLocalQuantization) {
  models::ModelConfig cfg;
  cfg.width = 4;
  Rng rng(31);
  auto net = models::build_model(models::Arch::kConvNet, cfg, rng);
  const std::string path = ::testing::TempDir() + "quant_test_ckpt.bin";
  nn::save_checkpoint(*net, path,
                      models::checkpoint_meta(models::Arch::kConvNet, cfg));

  serve::ModelRegistry registry(1);
  registry.load("m", path, /*quantize=*/true);
  const std::shared_ptr<serve::ServedModel> served = registry.current("m");
  ASSERT_NE(served, nullptr);
  EXPECT_TRUE(served->quantized());

  Rng data_rng(32);
  const Tensor batch = random_batch(cfg, 6, data_rng);
  const std::vector<int> served_preds = served->predict(batch, 0);

  // Local ground truth: same checkpoint, quantized in-process.  q8 forward
  // is bit-deterministic, so predictions must agree exactly.
  Rng rng2(99);  // weights are overwritten by the checkpoint load
  auto local = models::build_model(models::Arch::kConvNet, cfg, rng2);
  nn::load_checkpoint(*local, path);
  local->quantize_for_inference();
  const Tensor logits = local->logits(batch, /*training=*/false);
  ASSERT_EQ(served_preds.size(), batch.dim(0));
  for (std::size_t b = 0; b < batch.dim(0); ++b) {
    int best = 0;
    for (std::size_t c = 1; c < cfg.num_classes; ++c) {
      if (logits.data()[b * cfg.num_classes + c] >
          logits.data()[b * cfg.num_classes + best]) {
        best = static_cast<int>(c);
      }
    }
    EXPECT_EQ(served_preds[b], best) << "sample " << b;
  }
  std::remove(path.c_str());
}

TEST(Quant, MeasureQuantizedChangesCellIdentity) {
  // Quantized predictions are part of a cell's computed bits, so flipping
  // measure_quantized must move the cell to a new identity — old fp32
  // journals stay valid, quantized runs never collide with them.
  study::StudySpec spec = study::preset_spec("smoke");
  study::Cell cell;  // first cell of the grid
  const std::string fp32_id = study::cell_id(spec, cell);
  spec.measure_quantized = true;
  const std::string q8_id = study::cell_id(spec, cell);
  EXPECT_NE(fp32_id, q8_id);
  EXPECT_NE(study::cell_canonical(spec, cell)
                .find("|quantized=1"),
            std::string::npos);
}

}  // namespace
}  // namespace tdfm
