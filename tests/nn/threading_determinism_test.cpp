// Bit-for-bit determinism across thread counts.
//
// The thread pool's contract (core/thread_pool.hpp) is that parallelism may
// change only wall-clock, never results: GEMM partitions rows without
// changing per-row arithmetic, convolution reduces per-group gradient slices
// in fixed group order (depthwise: per channel, in image order), and the
// ensemble forks its RNG streams serially before training members
// concurrently.  These tests pin that contract by
// comparing exact floats between a 1-thread and a 4-thread run (the pool is
// deliberately oversubscribed relative to small CI machines — determinism
// must hold regardless of physical cores).
#include <gtest/gtest.h>

#include <cstring>
#include <thread>
#include <vector>

#include "core/thread_pool.hpp"
#include "data/synthetic.hpp"
#include "metrics/metrics.hpp"
#include "mitigation/ensemble.hpp"
#include "models/model_zoo.hpp"
#include "nn/conv2d.hpp"
#include "nn/loss.hpp"
#include "nn/trainer.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "tensor/gemm.hpp"
#include "tensor/init.hpp"

namespace tdfm {
namespace {

// Restores the global pool on scope exit so test order doesn't matter.
struct PoolGuard {
  std::size_t previous = core::ThreadPool::global_threads();
  ~PoolGuard() { core::ThreadPool::set_global_threads(previous); }
};

TEST(ThreadingDeterminism, GemmKernelsAreThreadCountInvariant) {
  PoolGuard guard;
  const std::size_t m = 37;
  const std::size_t n = 29;
  const std::size_t k = 41;
  Rng rng(3);
  std::vector<float> a(m * k);
  std::vector<float> b(k * n);
  for (auto& x : a) x = rng.normal();
  for (auto& x : b) x = rng.normal();

  const auto run_all = [&] {
    std::vector<float> nn_out(m * n);
    std::vector<float> nt_out(m * k);   // B as [k x n] -> A[m x n] * B^T
    std::vector<float> tn_out(k * n);   // A as [m x k] -> A^T * B'[m x n]
    gemm_nn(m, n, k, a.data(), b.data(), nn_out.data());
    gemm_nt(m, k, n, nn_out.data(), b.data(), nt_out.data());
    gemm_tn(k, n, m, a.data(), nn_out.data(), tn_out.data());
    nn_out.insert(nn_out.end(), nt_out.begin(), nt_out.end());
    nn_out.insert(nn_out.end(), tn_out.begin(), tn_out.end());
    return nn_out;
  };

  core::ThreadPool::set_global_threads(1);
  const auto serial = run_all();
  for (const std::size_t threads : {std::size_t{2}, std::size_t{4}}) {
    core::ThreadPool::set_global_threads(threads);
    EXPECT_EQ(run_all(), serial) << threads << " threads";
  }
}

// Forward output, input gradient and parameter gradients of one
// forward/backward pass, concatenated (the gradient fed back is the output).
std::vector<float> forward_backward(nn::Layer& layer, const Tensor& x) {
  const Tensor y = layer.forward(x, true);
  const Tensor gx = layer.backward(y);
  std::vector<float> all(y.flat().begin(), y.flat().end());
  all.insert(all.end(), gx.flat().begin(), gx.flat().end());
  for (auto* p : layer.parameters()) {
    all.insert(all.end(), p->grad.flat().begin(), p->grad.flat().end());
  }
  return all;
}

// Builds a fresh layer with make(rng) and runs it on a [batch, c, h, w]
// input at 1 and at 4 threads.
template <typename MakeLayer>
void expect_layer_thread_invariant(Shape input_shape, std::uint64_t seed,
                                   MakeLayer make) {
  PoolGuard guard;
  const auto run = [&] {
    Rng rng(seed);
    auto layer = make(rng);
    Tensor x(input_shape);
    uniform_init(x, -1.0F, 1.0F, rng);
    return forward_backward(layer, x);
  };
  core::ThreadPool::set_global_threads(1);
  const auto serial = run();
  core::ThreadPool::set_global_threads(4);
  EXPECT_EQ(run(), serial);
}

TEST(ThreadingDeterminism, ConvForwardBackwardIsThreadCountInvariant) {
  // odd batch: uneven chunks at 4 threads
  expect_layer_thread_invariant(Shape{9, 3, 8, 8}, 17, [](Rng& rng) {
    return nn::Conv2D(3, 6, 8, 8, 3, 1, 1, rng);
  });
}

TEST(ThreadingDeterminism, GroupedPointwiseConvIsThreadCountInvariant) {
  // A 4x4 output plane runs in groups of 4 images; batch 9 leaves the last
  // group with one image, and 3 groups split unevenly over 4 threads.
  expect_layer_thread_invariant(Shape{9, 8, 4, 4}, 29, [](Rng& rng) {
    return nn::Conv2D(8, 8, 4, 4, 1, 1, 0, rng);
  });
}

TEST(ThreadingDeterminism, DepthwiseConvIsThreadCountInvariant) {
  expect_layer_thread_invariant(Shape{7, 4, 8, 8}, 19, [](Rng& rng) {
    return nn::DepthwiseConv2D(4, 8, 8, 3, 1, 1, rng);
  });
}

TEST(ThreadingDeterminism, DepthwiseChannelRunsAreThreadCountInvariant) {
  // 20 channels: two full 8-channel runs and a 4-channel tail run, the
  // backward's parallel units, split unevenly over 4 threads.
  expect_layer_thread_invariant(Shape{5, 20, 4, 4}, 37, [](Rng& rng) {
    return nn::DepthwiseConv2D(20, 4, 4, 3, 1, 1, rng);
  });
}

TEST(ThreadingDeterminism, StridedDepthwiseConvIsThreadCountInvariant) {
  // Odd input plane: the stride-2 window leaves the last column unread.
  expect_layer_thread_invariant(Shape{7, 6, 9, 9}, 31, [](Rng& rng) {
    return nn::DepthwiseConv2D(6, 9, 9, 3, 2, 1, rng);
  });
}

// The flag-level guarantee: a model trained with --threads 1 and
// --threads 4 ends with identical weights and identical test accuracy.
// Runs with metrics AND tracing enabled — the obs instrumentation writes
// only to side buffers, so it must not perturb a single bit of training.
void expect_training_thread_invariant(models::Arch arch) {
  PoolGuard guard;
  struct ObsGuard {
    bool metrics = obs::metrics_enabled();
    bool trace = obs::trace_enabled();
    ~ObsGuard() {
      obs::set_metrics_enabled(metrics);
      obs::set_trace_enabled(trace);
      obs::clear_trace_events();
    }
  } obs_guard;
  obs::set_metrics_enabled(true);
  obs::set_trace_enabled(true);
  data::SyntheticSpec spec;
  spec.kind = data::DatasetKind::kGtsrbSim;
  spec.scale = 0.05;
  const auto pair = data::generate(spec);
  models::ModelConfig cfg = models::ModelConfig::for_dataset(spec);
  cfg.width = 4;
  const Tensor targets = nn::one_hot(pair.train.labels, pair.train.num_classes);

  const auto train = [&](std::size_t threads) {
    nn::TrainOptions opts;
    opts.epochs = 2;
    opts.batch_size = 16;
    opts.auto_tune = false;
    opts.threads = threads;  // the --threads flag path through TrainOptions
    Rng build_rng(7);
    auto net = models::build_model(arch, cfg, build_rng);
    nn::CrossEntropyLoss ce;
    nn::Trainer trainer(opts);
    Rng fit_rng(9);
    trainer.fit(*net, pair.train.images,
                [&](const Tensor& logits, std::span<const std::size_t> idx,
                    Tensor& grad) {
                  return ce.compute(logits, nn::Trainer::gather(targets, idx), grad);
                },
                fit_rng);
    const std::vector<int> preds = nn::predict_classes(*net, pair.test.images);
    const double acc = metrics::accuracy(preds, pair.test.labels);
    return std::make_pair(net->save_weights(), acc);
  };

  const auto [weights_1, acc_1] = train(1);
  const auto [weights_4, acc_4] = train(4);
  ASSERT_EQ(weights_1.size(), weights_4.size());
  EXPECT_EQ(weights_1, weights_4);  // exact float equality, no tolerance
  EXPECT_EQ(acc_1, acc_4);
}

TEST(ThreadingDeterminism, TrainedConvNetIsBitIdenticalAcrossThreadCounts) {
  expect_training_thread_invariant(models::Arch::kConvNet);
}

// MobileNet runs every depthwise kernel entry and grouped pointwise convs on
// its 4x4 and 2x2 planes; at width 4 its first depthwise layer and
// BatchNorm2D layers are 4-channel tail runs.  save_weights() includes the
// running statistics.
TEST(ThreadingDeterminism, TrainedMobileNetIsBitIdenticalAcrossThreadCounts) {
  expect_training_thread_invariant(models::Arch::kMobileNet);
}

// One network serves any number of threads: an eval-mode forward writes no
// layer member (nn::Layer::forward), which is what lets every serving worker
// predict through one network per version.  For every zoo architecture,
// fp32 and q8, after one training step has filled every training cache,
// four threads run eval forwards on one network at once; each result must
// be the serial logits bit for bit.  Under -DTDFM_SANITIZE=thread this is
// the race detector for that contract.
TEST(ThreadingDeterminism, ThreadsShareOneNetworkForEvalForwards) {
  const models::ModelConfig cfg{3, 16, 5, 2};
  Rng data_rng(41);
  Tensor train_batch(Shape{4, 3, 16, 16});
  Tensor batch(Shape{3, 3, 16, 16});
  uniform_init(train_batch, -1.0F, 1.0F, data_rng);
  uniform_init(batch, -1.0F, 1.0F, data_rng);
  for (const models::Arch arch : models::all_architectures()) {
    for (const bool q8 : {false, true}) {
      Rng rng(43);
      auto net = models::build_model(arch, cfg, rng);
      const Tensor logits = net->logits(train_batch, /*training=*/true);
      net->backward(logits);
      if (q8) net->quantize_for_inference();
      const Tensor serial = net->logits(batch, /*training=*/false);

      constexpr std::size_t kThreads = 4;
      std::vector<Tensor> results(kThreads);
      std::vector<std::thread> threads;
      for (std::size_t t = 0; t < kThreads; ++t) {
        threads.emplace_back([&, t] {
          const core::ThreadPool::InlineScope inline_scope;
          results[t] = net->logits(batch, /*training=*/false);
        });
      }
      for (auto& thread : threads) thread.join();
      for (std::size_t t = 0; t < kThreads; ++t) {
        ASSERT_EQ(results[t].shape(), serial.shape());
        EXPECT_EQ(0, std::memcmp(results[t].data(), serial.data(),
                                 serial.numel() * sizeof(float)))
            << models::arch_name(arch) << (q8 ? " q8" : " fp32") << " thread " << t;
      }
    }
  }
}

// Ensemble members train concurrently; forked RNG streams and per-member
// models must make the committee's votes independent of the thread count.
TEST(ThreadingDeterminism, EnsemblePredictionsAreThreadCountInvariant) {
  PoolGuard guard;
  data::SyntheticSpec spec;
  spec.kind = data::DatasetKind::kPneumoniaSim;
  const auto pair = data::generate(spec);

  const auto fit_predict = [&](std::size_t threads) {
    core::ThreadPool::set_global_threads(threads);
    mitigation::EnsembleTechnique ens(
        {models::Arch::kConvNet, models::Arch::kConvNet, models::Arch::kConvNet});
    mitigation::FitContext ctx;
    ctx.train = &pair.train;
    ctx.model_config = models::ModelConfig::for_dataset(spec, /*width=*/4);
    ctx.train_opts.epochs = 1;
    ctx.train_opts.batch_size = 16;
    ctx.train_opts.auto_tune = false;
    Rng rng(23);
    ctx.rng = &rng;
    const auto clf = ens.fit(ctx);
    return clf->predict(pair.test.images);
  };

  const auto serial = fit_predict(1);
  EXPECT_EQ(fit_predict(4), serial);
}

}  // namespace
}  // namespace tdfm
