#include <gtest/gtest.h>

#include <cstdint>
#include <string>

#include "../kernels/checker.hpp"
#include "../test_util.hpp"
#include "core/varint.hpp"
#include "kernels/kernels.hpp"
#include "models/model_zoo.hpp"
#include "nn/activation.hpp"
#include "nn/dense.hpp"
#include "nn/loss.hpp"
#include "nn/network.hpp"
#include "nn/optimizer.hpp"
#include "nn/trainer.hpp"

namespace tdfm::nn {
namespace {

using test::random_tensor;

Parameter make_param(float value, float grad) {
  Parameter p(Shape{1});
  p.value[0] = value;
  p.grad[0] = grad;
  return p;
}

TEST(SGD, PlainStepDescendsGradient) {
  Parameter p = make_param(1.0F, 0.5F);
  SGD opt(0.1F, /*momentum=*/0.0F);
  opt.step({&p});
  EXPECT_NEAR(p.value[0], 1.0F - 0.1F * 0.5F, 1e-6F);
}

TEST(SGD, MomentumAccumulates) {
  Parameter p = make_param(0.0F, 1.0F);
  SGD opt(1.0F, 0.5F);
  opt.step({&p});  // v = 1, w = -1
  EXPECT_NEAR(p.value[0], -1.0F, 1e-6F);
  opt.step({&p});  // v = 0.5 + 1 = 1.5, w = -2.5
  EXPECT_NEAR(p.value[0], -2.5F, 1e-6F);
}

TEST(SGD, WeightDecayShrinksWeights) {
  Parameter p = make_param(2.0F, 0.0F);
  SGD opt(0.1F, 0.0F, /*weight_decay=*/0.5F);
  opt.step({&p});
  EXPECT_NEAR(p.value[0], 2.0F - 0.1F * 0.5F * 2.0F, 1e-6F);
}

TEST(SGD, RejectsBadHyperparameters) {
  EXPECT_THROW(SGD(0.0F), InvariantError);
  EXPECT_THROW(SGD(0.1F, 1.0F), InvariantError);
}

TEST(Adam, FirstStepIsSignedLr) {
  // With bias correction, the first Adam step is ~lr * sign(grad).
  Parameter p = make_param(1.0F, 0.3F);
  Adam opt(0.01F);
  opt.step({&p});
  EXPECT_NEAR(p.value[0], 1.0F - 0.01F, 1e-4F);
}

TEST(Adam, ConvergesOnQuadratic) {
  // Minimise f(w) = (w - 3)^2 by feeding grad = 2(w - 3).
  Parameter p = make_param(0.0F, 0.0F);
  Adam opt(0.1F);
  for (int i = 0; i < 300; ++i) {
    p.grad[0] = 2.0F * (p.value[0] - 3.0F);
    opt.step({&p});
  }
  EXPECT_NEAR(p.value[0], 3.0F, 0.05F);
}

TEST(SGDVsAdam, BothReduceSimpleLoss) {
  for (const bool use_adam : {false, true}) {
    Rng rng(400);
    auto body = std::make_unique<Sequential>();
    body->emplace<Dense>(4, 8, rng);
    body->emplace<ReLU>();
    body->emplace<Dense>(8, 3, rng);
    Network net("toy", std::move(body), Shape{4}, 3);

    // Linearly separable toy data: class = argmax of first 3 inputs.
    const std::size_t n = 48;
    Tensor images(Shape{n, 4});
    std::vector<int> labels(n);
    for (std::size_t i = 0; i < n; ++i) {
      for (std::size_t j = 0; j < 4; ++j) images.at(i, j) = rng.uniform(0.0F, 1.0F);
      labels[i] = static_cast<int>(argmax(std::span<const float>(
          images.data() + i * 4, 3)));
    }
    const Tensor targets = one_hot(labels, 3);
    CrossEntropyLoss ce;
    TrainOptions opts;
    opts.epochs = 30;
    opts.batch_size = 16;
    opts.use_adam = use_adam;
    opts.lr = use_adam ? 0.01F : 0.2F;
    opts.lr_decay = 1.0F;  // decay now reaches Adam too; hold lr constant here
    Trainer trainer(opts);
    Rng fit_rng(42);
    const double final_loss = trainer.fit(
        net, images,
        [&](const Tensor& logits, std::span<const std::size_t> idx, Tensor& grad) {
          return ce.compute(logits, Trainer::gather(targets, idx), grad);
        },
        fit_rng);
    EXPECT_LT(final_loss, 0.35) << (use_adam ? "adam" : "sgd");
  }
}

TEST(Trainer, EpochLossWeightsPartialBatchBySampleCount) {
  // 5 samples at batch_size 4 -> one full batch plus a 1-sample remainder.
  // The loss callback returns the batch size, so the sample-weighted epoch
  // mean is (4*4 + 1*1)/5 = 3.4.  A plain mean over batches would report
  // (4 + 1)/2 = 2.5, overweighting the partial batch 4x.
  Rng rng(410);
  auto body = std::make_unique<Sequential>();
  body->emplace<Dense>(2, 2, rng);
  Network net("toy", std::move(body), Shape{2}, 2);
  const Tensor images = random_tensor(Shape{5, 2}, rng);
  TrainOptions opts;
  opts.epochs = 1;
  opts.batch_size = 4;
  opts.shuffle = false;
  Trainer trainer(opts);
  Rng fit_rng(1);
  const double epoch_loss = trainer.fit(
      net, images,
      [&](const Tensor& logits, std::span<const std::size_t> idx, Tensor& grad) {
        grad = Tensor(logits.shape());  // zero gradient: weights stay put
        return static_cast<double>(idx.size());
      },
      fit_rng);
  EXPECT_NEAR(epoch_loss, 3.4, 1e-12);
}

TEST(Trainer, AdamHonoursLrDecay) {
  // With lr_decay = 0 the learning rate hits zero after epoch one, so a
  // 2-epoch Adam run must end exactly where the 1-epoch run ends.  Before
  // the fix the decay was silently dropped on the Adam path and epoch two
  // kept moving the weights.
  const auto train = [](std::size_t epochs, float lr_decay) {
    Rng rng(411);
    auto body = std::make_unique<Sequential>();
    body->emplace<Dense>(3, 4, rng);
    body->emplace<ReLU>();
    body->emplace<Dense>(4, 2, rng);
    Network net("toy", std::move(body), Shape{3}, 2);
    Rng data_rng(5);
    const Tensor images = random_tensor(Shape{12, 3}, data_rng);
    const Tensor targets = one_hot(std::vector<int>(12, 1), 2);
    CrossEntropyLoss ce;
    TrainOptions opts;
    opts.epochs = epochs;
    opts.batch_size = 4;
    opts.use_adam = true;
    opts.lr = 0.05F;
    opts.lr_decay = lr_decay;
    opts.shuffle = false;
    Trainer trainer(opts);
    Rng fit_rng(6);
    trainer.fit(
        net, images,
        [&](const Tensor& logits, std::span<const std::size_t> idx, Tensor& grad) {
          return ce.compute(logits, Trainer::gather(targets, idx), grad);
        },
        fit_rng);
    return net.save_weights();
  };
  EXPECT_EQ(train(2, 0.0F), train(1, 0.95F));
  // And a real decay factor must change the two-epoch trajectory.
  EXPECT_NE(train(2, 0.5F), train(2, 1.0F));
}

TEST(Trainer, GatherSelectsRows) {
  Tensor images(Shape{3, 2});
  for (std::size_t i = 0; i < 6; ++i) images[i] = static_cast<float>(i);
  const std::vector<std::size_t> idx{2, 0};
  const Tensor batch = Trainer::gather(images, idx);
  EXPECT_EQ(batch.shape(), (Shape{2, 2}));
  EXPECT_EQ(batch.at(0, 0), 4.0F);
  EXPECT_EQ(batch.at(1, 0), 0.0F);
}

TEST(Trainer, GatherOutOfRangeThrows) {
  const Tensor images(Shape{2, 2});
  const std::vector<std::size_t> idx{5};
  EXPECT_THROW((void)Trainer::gather(images, idx), InvariantError);
}

TEST(Trainer, EpochHookRunsEveryEpoch) {
  Rng rng(401);
  auto body = std::make_unique<Sequential>();
  body->emplace<Dense>(2, 2, rng);
  Network net("toy", std::move(body), Shape{2}, 2);
  const Tensor images = random_tensor(Shape{8, 2}, rng);
  const Tensor targets = one_hot(std::vector<int>(8, 0), 2);
  CrossEntropyLoss ce;
  TrainOptions opts;
  opts.epochs = 5;
  Trainer trainer(opts);
  std::size_t calls = 0;
  Rng fit_rng(1);
  trainer.fit(
      net, images,
      [&](const Tensor& logits, std::span<const std::size_t> idx, Tensor& grad) {
        return ce.compute(logits, Trainer::gather(targets, idx), grad);
      },
      fit_rng, [&](std::size_t epoch, Network&) {
        EXPECT_EQ(epoch, calls);
        ++calls;
      });
  EXPECT_EQ(calls, 5U);
}

TEST(Trainer, DeterministicGivenSameSeeds) {
  const auto run = [] {
    Rng rng(402);
    auto body = std::make_unique<Sequential>();
    body->emplace<Dense>(3, 4, rng);
    body->emplace<ReLU>();
    body->emplace<Dense>(4, 2, rng);
    Network net("toy", std::move(body), Shape{3}, 2);
    Rng data_rng(7);
    const Tensor images = test::random_tensor(Shape{16, 3}, data_rng);
    const Tensor targets = one_hot(std::vector<int>(16, 1), 2);
    CrossEntropyLoss ce;
    TrainOptions opts;
    opts.epochs = 4;
    Trainer trainer(opts);
    Rng fit_rng(9);
    trainer.fit(
        net, images,
        [&](const Tensor& logits, std::span<const std::size_t> idx, Tensor& grad) {
          return ce.compute(logits, Trainer::gather(targets, idx), grad);
        },
        fit_rng);
    return net.save_weights();
  };
  EXPECT_EQ(run(), run());
}

TEST(Train, ConvNetWeightsMatchPinnedDigestsAtEveryTable) {
  // FNV-1a 64 of a width-8 network after 2 epochs (the zoo's tuned
  // optimiser) on 64 fixed images.  Every decision log and report digest is
  // only compared run against run, so this is what fails when a training
  // kernel drifts by one ulp.
  //  - ConvNet and DeconvNet (Conv2D then ReLU, max pooling, dropout in
  //    DeconvNet) hash their parameters and then the eval-mode logits of the
  //    64 images; recorded before the fused Conv2D->ReLU epilogue, the
  //    L1-blocked avx2 nt, the gather col2im and the branch-free max pooling.
  //    ConvNet's first values hashed its parameters alone (recorded before
  //    the register-blocked avx2 tn kernel and the block-copy im2col/col2im);
  //    they were re-recorded, on the same code, when its logits joined the
  //    hash.
  //  - MobileNet (depthwise, BatchNorm2D then ReLU, 4-px planes) and VGG11
  //    (BatchNorm2D on 1-px planes, no depthwise) hash their parameters and
  //    then the eval-mode logits of the 64 images, so the running statistics
  //    are pinned too; recorded before the channel-lane depthwise kernels
  //    and BatchNorm2D passes.
  //  - ResNet18 and ResNet50 (identity and projection skips, the skip sum
  //    and its gradient) hash their parameters and then the eval-mode
  //    logits; recorded before the basic and bottleneck blocks became one
  //    residual layer.
  // The trainer, the optimisers and the layers' own fp32 loops contract into
  // FMA in an -march=native build on an FMA host, where the digests were
  // recorded; elsewhere nothing is pinned.
#if !defined(__FMA__)
  GTEST_SKIP() << "digests are pinned for the FMA-contraction build only";
#endif
  struct Pinned {
    models::Arch arch;
    kernels::KernelKind kind;
    std::uint64_t digest;
  };
  using models::Arch;
  using kernels::KernelKind;
  const Pinned pinned[] = {
      {Arch::kConvNet, KernelKind::kScalar, 0x1d24bfc967a7ef25ULL},
      {Arch::kConvNet, KernelKind::kAvx2, 0xb97d98185d5117a7ULL},
      {Arch::kDeconvNet, KernelKind::kScalar, 0x3d95dfc684df7bf3ULL},
      {Arch::kDeconvNet, KernelKind::kAvx2, 0x656560f04a1715b8ULL},
      {Arch::kMobileNet, KernelKind::kScalar, 0x7dce786d4df2c26cULL},
      {Arch::kMobileNet, KernelKind::kAvx2, 0x459ec801e7139bf5ULL},
      {Arch::kVGG11, KernelKind::kScalar, 0x4d3866d1d016f51eULL},
      {Arch::kVGG11, KernelKind::kAvx2, 0x737773f89cf7da68ULL},
      {Arch::kResNet18, KernelKind::kScalar, 0xa8fbba9eabebd41fULL},
      {Arch::kResNet18, KernelKind::kAvx2, 0xc36726023dfecc3dULL},
      {Arch::kResNet50, KernelKind::kScalar, 0x173c33c35d05572dULL},
      {Arch::kResNet50, KernelKind::kAvx2, 0x075227af8eabd685ULL},
  };
  kernels_test::KernelGuard guard;
  models::ModelConfig cfg;
  cfg.width = 8;
  Rng data_rng(61);
  const std::size_t n = 64;
  const Tensor images = test::random_tensor(
      Shape{n, cfg.in_channels, cfg.image_size, cfg.image_size}, data_rng);
  std::vector<int> labels(n);
  for (std::size_t i = 0; i < n; ++i) labels[i] = static_cast<int>(i % cfg.num_classes);
  const Tensor targets = one_hot(labels, cfg.num_classes);
  for (const Pinned& p : pinned) {
    if (!kernels::kernel_supported(p.kind)) continue;
    kernels::set_active_kernel(p.kind);
    Rng rng(62);
    auto net = models::build_model(p.arch, cfg, rng);
    TrainOptions opts;
    opts.epochs = 2;
    Trainer trainer(models::tuned_options(p.arch, opts));
    CrossEntropyLoss ce;
    Rng fit_rng(63);
    trainer.fit(
        *net, images,
        [&](const Tensor& logits, std::span<const std::size_t> idx, Tensor& grad) {
          return ce.compute(logits, Trainer::gather(targets, idx), grad);
        },
        fit_rng);
    std::string bytes;
    for (const Parameter* param : net->parameters()) {
      bytes.append(reinterpret_cast<const char*>(param->value.data()),
                   param->value.numel() * sizeof(float));
    }
    const Tensor logits = net->logits(images, /*training=*/false);
    bytes.append(reinterpret_cast<const char*>(logits.data()),
                 logits.numel() * sizeof(float));
    const std::uint64_t digest = core::fnv1a64(bytes);
    EXPECT_EQ(digest, p.digest) << models::arch_name(p.arch) << " "
                                << kernels::kernel_name(p.kind) << std::hex
                                << " digest 0x" << digest;
  }
}

TEST(Network, SaveLoadRoundTrip) {
  Rng rng(403);
  auto make = [&](Rng& r) {
    auto body = std::make_unique<Sequential>();
    body->emplace<Dense>(3, 4, r);
    body->emplace<Dense>(4, 2, r);
    return std::make_unique<Network>("toy", std::move(body), Shape{3}, 2);
  };
  auto a = make(rng);
  auto b = make(rng);  // different init
  const auto weights = a->save_weights();
  b->load_weights(weights);
  EXPECT_EQ(b->save_weights(), weights);
  // Wrong-size blob rejected.
  std::vector<float> tiny(3, 0.0F);
  EXPECT_THROW(b->load_weights(tiny), InvariantError);
}

TEST(Network, CopyWeightsRequiresSameStructure) {
  Rng rng(404);
  auto body1 = std::make_unique<Sequential>();
  body1->emplace<Dense>(3, 2, rng);
  Network a("a", std::move(body1), Shape{3}, 2);
  auto body2 = std::make_unique<Sequential>();
  body2->emplace<Dense>(4, 2, rng);
  Network b("b", std::move(body2), Shape{4}, 2);
  EXPECT_THROW(a.copy_weights_from(b), InvariantError);
}

TEST(Network, PredictClassesMatchesArgmax) {
  Rng rng(405);
  auto body = std::make_unique<Sequential>();
  body->emplace<Dense>(2, 3, rng);
  Network net("toy", std::move(body), Shape{2}, 3);
  const Tensor images = random_tensor(Shape{10, 2}, rng);
  const auto preds = predict_classes(net, images, /*batch_size=*/3);
  const Tensor logits = net.logits(images, false);
  for (std::size_t i = 0; i < 10; ++i) {
    EXPECT_EQ(preds[i], static_cast<int>(argmax(logits.row(i))));
  }
}

TEST(Network, PredictProbabilitiesRowsSumToOne) {
  Rng rng(406);
  auto body = std::make_unique<Sequential>();
  body->emplace<Dense>(2, 4, rng);
  Network net("toy", std::move(body), Shape{2}, 4);
  const Tensor images = random_tensor(Shape{7, 2}, rng);
  const Tensor probs = predict_probabilities(net, images, 2.0F, 3);
  EXPECT_EQ(probs.shape(), (Shape{7, 4}));
  for (std::size_t i = 0; i < 7; ++i) {
    double s = 0.0;
    for (const float v : probs.row(i)) s += v;
    EXPECT_NEAR(s, 1.0, 1e-5);
  }
}

}  // namespace
}  // namespace tdfm::nn
