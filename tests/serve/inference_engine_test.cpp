// InferenceEngine end-to-end: correct predictions, micro-batching under
// burst load, admission control, malformed requests, workers sharing one
// zoo network, and the hot-swap-under-load guarantee (no request dropped,
// no request served by a partially-swapped model).  This suite is a primary
// TSan target (ctest -L serve on a TDFM_SANITIZE=thread build).
#include "serve/inference_engine.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <thread>
#include <vector>

#include "core/thread_pool.hpp"
#include "nn/checkpoint.hpp"
#include "nn/dense.hpp"
#include "nn/trainer.hpp"
#include "obs/metrics.hpp"

namespace tdfm::serve {
namespace {

using std::chrono::milliseconds;

constexpr std::size_t kClasses = 10;

/// Tiny Dense-only factory: serving is architecture-agnostic, and a 4->10
/// net keeps every forward microseconds-cheap even under TSan.
nn::NetworkFactory toy_factory() {
  return [](Rng& rng) {
    auto body = std::make_unique<nn::Sequential>();
    body->emplace<nn::Dense>(4, kClasses, rng);
    return std::make_unique<nn::Network>("toy", std::move(body), Shape{4}, kClasses);
  };
}

/// The fitted network of version `v` — rebuilt bit-identically on demand so
/// tests can both install it and precompute its expected predictions.
std::unique_ptr<nn::Network> version_net(std::uint64_t v) {
  Rng rng(1000 + v);
  return toy_factory()(rng);
}

Tensor probe_image() {
  Tensor t{Shape{4}};
  t[0] = 0.3F;
  t[1] = -1.2F;
  t[2] = 0.7F;
  t[3] = 2.0F;
  return t;
}

/// What version v predicts for the probe image.
int expected_class(std::uint64_t v) {
  auto net = version_net(v);
  Tensor batch{Shape{1, 4}};
  for (std::size_t i = 0; i < 4; ++i) batch[i] = probe_image()[i];
  return nn::predict_batch(*net, batch)[0];
}

std::uint64_t install_version(ModelRegistry& registry, const std::string& name,
                              std::uint64_t v) {
  std::vector<MemberInit> members;
  members.push_back(MemberInit{toy_factory(), version_net(v)});
  return registry.install(name, std::move(members));
}

/// A v2 checkpoint of a randomly initialised zoo ConvNet ([3, 16, 16]
/// samples, 5 classes, width 2), removed with the object.
struct ConvNetCheckpoint {
  models::ModelConfig config{3, 16, 5, 2};
  std::unique_ptr<nn::Network> net;
  std::string path;

  explicit ConvNetCheckpoint(const char* name)
      : path(std::string(::testing::TempDir()) + name) {
    Rng rng(21);
    net = models::build_model(models::Arch::kConvNet, config, rng);
    nn::save_checkpoint(*net, path, models::checkpoint_meta(models::Arch::kConvNet, config));
  }
  ~ConvNetCheckpoint() { std::remove(path.c_str()); }
  ConvNetCheckpoint(const ConvNetCheckpoint&) = delete;
  ConvNetCheckpoint& operator=(const ConvNetCheckpoint&) = delete;
};

Tensor random_image(Shape shape, std::uint64_t seed) {
  Rng rng(seed);
  Tensor image(std::move(shape));
  for (float& v : image.flat()) v = rng.uniform(-1.0F, 1.0F);
  return image;
}

/// What `net` predicts for one image on its own (a batch of one).
int offline_class(nn::Network& net, const Tensor& image) {
  std::vector<std::size_t> dims{1};
  dims.insert(dims.end(), image.shape().dims().begin(), image.shape().dims().end());
  Tensor batch{Shape(dims)};
  std::copy(image.flat().begin(), image.flat().end(), batch.flat().begin());
  return nn::predict_batch(net, batch)[0];
}

TEST(InferenceEngine, ServesCorrectPredictions) {
  ModelRegistry registry;
  ASSERT_EQ(install_version(registry, "toy", 1), 1U);
  EngineConfig cfg;
  cfg.workers = 2;
  cfg.batching.max_queue_delay_us = 200;
  InferenceEngine engine(registry, "toy", cfg);

  std::vector<std::future<Response>> futures;
  for (int i = 0; i < 32; ++i) futures.push_back(engine.submit(probe_image()));
  const int want = expected_class(1);
  for (auto& f : futures) {
    const Response r = f.get();
    ASSERT_EQ(r.status, Status::kOk) << status_name(r.status);
    EXPECT_EQ(r.predicted_class, want);
    EXPECT_EQ(r.model_version, 1U);
    EXPECT_GE(r.batch_size, 1U);
    EXPECT_GE(r.compute_us, 0.0);
  }
  const EngineStats stats = engine.stats();
  EXPECT_EQ(stats.submitted, 32U);
  EXPECT_EQ(stats.served, 32U);
  EXPECT_GE(stats.batches, 1U);
}

TEST(InferenceEngine, BurstLoadFormsMicroBatches) {
  ModelRegistry registry;
  install_version(registry, "toy", 1);
  EngineConfig cfg;
  cfg.workers = 1;
  cfg.batching.max_batch_size = 8;
  cfg.batching.max_queue_delay_us = 5000;
  InferenceEngine engine(registry, "toy", cfg);

  std::vector<std::future<Response>> futures;
  for (int i = 0; i < 64; ++i) futures.push_back(engine.submit(probe_image()));
  std::size_t max_batch = 0;
  for (auto& f : futures) {
    const Response r = f.get();
    ASSERT_EQ(r.status, Status::kOk);
    max_batch = std::max(max_batch, r.batch_size);
    EXPECT_LE(r.batch_size, 8U);
  }
  // A 64-request burst against one worker must have coalesced somewhere.
  EXPECT_GT(max_batch, 1U);
  EXPECT_LT(engine.stats().batches, 64U);
}

TEST(InferenceEngine, SingleWorkerCanFanBatchesAcrossThePool) {
  const std::size_t prev_threads = core::ThreadPool::global_threads();
  core::ThreadPool::set_global_threads(2);
  {
    ModelRegistry registry;
    install_version(registry, "toy", 1);
    EngineConfig cfg;
    cfg.workers = 1;
    cfg.use_thread_pool = true;  // intra-batch parallelism mode
    cfg.batching.max_batch_size = 8;
    cfg.batching.max_queue_delay_us = 500;
    InferenceEngine engine(registry, "toy", cfg);
    std::vector<std::future<Response>> futures;
    for (int i = 0; i < 48; ++i) futures.push_back(engine.submit(probe_image()));
    const int want = expected_class(1);
    for (auto& f : futures) {
      const Response r = f.get();
      ASSERT_EQ(r.status, Status::kOk);
      EXPECT_EQ(r.predicted_class, want);  // bit-identical across thread counts
    }
  }
  core::ThreadPool::set_global_threads(prev_threads);
}

TEST(InferenceEngine, PoolModeRequiresSingleWorker) {
  ModelRegistry registry;
  EngineConfig cfg;
  cfg.workers = 2;
  cfg.use_thread_pool = true;
  EXPECT_THROW(InferenceEngine(registry, "toy", cfg), Error);
}

// Several workers predict through one ConvNet per version, fp32 and q8: a
// burst of distinct images must get the classes each image gets offline.
TEST(InferenceEngine, WorkersShareOneZooNetworkAndAnswerOfflineClasses) {
  const ConvNetCheckpoint ckpt("engine_shared_convnet.ckpt");
  for (const bool quantize : {false, true}) {
    Rng rng(1);
    auto offline = models::build_model(models::Arch::kConvNet, ckpt.config, rng);
    offline->copy_weights_from(*ckpt.net);
    if (quantize) offline->quantize_for_inference();
    ModelRegistry registry;
    (void)registry.load("convnet", ckpt.path, quantize);
    EngineConfig cfg;
    cfg.workers = 3;
    cfg.batching.max_batch_size = 4;
    cfg.batching.max_queue_delay_us = 200;
    InferenceEngine engine(registry, "convnet", cfg);

    constexpr std::size_t kRequests = 48;
    std::vector<Tensor> images;
    std::vector<std::future<Response>> futures;
    for (std::size_t i = 0; i < kRequests; ++i) {
      images.push_back(random_image(Shape{3, 16, 16}, 500 + i));
      futures.push_back(engine.submit(images.back()));
    }
    for (std::size_t i = 0; i < kRequests; ++i) {
      const Response r = futures[i].get();
      ASSERT_EQ(r.status, Status::kOk) << status_name(r.status);
      EXPECT_EQ(r.predicted_class, offline_class(*offline, images[i]))
          << "request " << i << (quantize ? " q8" : " fp32");
    }
    EXPECT_EQ(engine.stats().served, kRequests);
  }
}

// A request whose image is not the served version's sample shape is
// answered with kRejectedBadInput; the rest of its micro-batch is served and
// the engine keeps serving.
TEST(InferenceEngine, MalformedRequestsAreRejectedAndTheBatchServed) {
  const ConvNetCheckpoint ckpt("engine_malformed_convnet.ckpt");
  ModelRegistry registry;
  (void)registry.load("convnet", ckpt.path);
  EngineConfig cfg;
  cfg.workers = 2;
  cfg.batching.max_batch_size = 4;               // the four requests below
  cfg.batching.max_queue_delay_us = 60'000'000;  // form one micro-batch
  InferenceEngine engine(registry, "convnet", cfg);

  const Tensor good_a = random_image(Shape{3, 16, 16}, 1);
  const Tensor good_b = random_image(Shape{3, 16, 16}, 2);
  std::vector<std::future<Response>> futures;
  futures.push_back(engine.submit(good_a));
  futures.push_back(engine.submit(random_image(Shape{1, 16, 16}, 3)));  // channels
  futures.push_back(engine.submit(random_image(Shape{3, 256}, 4)));     // rank
  futures.push_back(engine.submit(good_b));
  const Response a = futures[0].get();
  const Response b = futures[3].get();
  EXPECT_EQ(futures[1].get().status, Status::kRejectedBadInput);
  EXPECT_EQ(futures[2].get().status, Status::kRejectedBadInput);
  ASSERT_EQ(a.status, Status::kOk) << status_name(a.status);
  ASSERT_EQ(b.status, Status::kOk) << status_name(b.status);
  EXPECT_EQ(a.predicted_class, offline_class(*ckpt.net, good_a));
  EXPECT_EQ(b.predicted_class, offline_class(*ckpt.net, good_b));
  EXPECT_EQ(a.batch_size, 2U);
  EXPECT_EQ(b.batch_size, 2U);

  // The engine keeps serving; drain() flushes the later request's partial
  // batch.
  std::future<Response> later = engine.submit(good_a);
  engine.drain();
  const Response c = later.get();
  ASSERT_EQ(c.status, Status::kOk) << status_name(c.status);
  EXPECT_EQ(c.predicted_class, a.predicted_class);
  const EngineStats stats = engine.stats();
  EXPECT_EQ(stats.rejected_bad_input, 2U);
  EXPECT_EQ(stats.served, 3U);
}

TEST(InferenceEngine, NoModelLoadedRejectsCleanly) {
  ModelRegistry registry;
  EngineConfig cfg;
  cfg.workers = 1;
  cfg.batching.max_queue_delay_us = 100;
  InferenceEngine engine(registry, "ghost", cfg);
  const Response r = engine.submit(probe_image()).get();
  EXPECT_EQ(r.status, Status::kRejectedNoModel);
  EXPECT_EQ(engine.stats().rejected_no_model, 1U);
}

TEST(InferenceEngine, DefaultDeadlineRejectsStaleRequests) {
  ModelRegistry registry;
  install_version(registry, "toy", 1);
  EngineConfig cfg;
  cfg.workers = 1;
  cfg.default_deadline_us = 1;  // effectively "already late"
  cfg.batching.max_queue_delay_us = 5000;
  InferenceEngine engine(registry, "toy", cfg);
  std::this_thread::sleep_for(milliseconds(1));
  std::vector<std::future<Response>> futures;
  for (int i = 0; i < 4; ++i) futures.push_back(engine.submit(probe_image()));
  std::size_t rejected = 0;
  for (auto& f : futures) {
    if (f.get().status == Status::kRejectedDeadline) ++rejected;
  }
  EXPECT_GT(rejected, 0U);
  EXPECT_EQ(engine.stats().rejected_deadline, rejected);
}

TEST(InferenceEngine, ShutdownResolvesEveryPendingFuture) {
  ModelRegistry registry;
  install_version(registry, "toy", 1);
  EngineConfig cfg;
  cfg.workers = 1;
  cfg.batching.max_queue_delay_us = 60'000'000;
  cfg.batching.max_batch_size = 128;  // never fills: requests sit pending
  cfg.batching.max_queue_depth = 256;
  auto engine = std::make_unique<InferenceEngine>(registry, "toy", cfg);
  std::vector<std::future<Response>> futures;
  for (int i = 0; i < 16; ++i) futures.push_back(engine->submit(probe_image()));
  engine.reset();  // destructor = shutdown + join
  for (auto& f : futures) {
    ASSERT_EQ(f.wait_for(milliseconds(0)), std::future_status::ready);
    const Status s = f.get().status;
    EXPECT_TRUE(s == Status::kOk || s == Status::kRejectedShutdown)
        << status_name(s);
  }
}

// drain() is the graceful counterpart of shutdown(): admission stops, but
// every already-accepted request is *served*.  The queue settings here make
// the distinction observable — the batch never fills and the delay bound is
// effectively infinite, so only drain's flush-immediately rule can get the
// backlog to a worker.  Shutdown under the same settings rejects (see
// ShutdownResolvesEveryPendingFuture, which accepts either status).
TEST(InferenceEngine, DrainServesEveryAcceptedRequest) {
  ModelRegistry registry;
  install_version(registry, "toy", 1);
  EngineConfig cfg;
  cfg.workers = 1;
  cfg.batching.max_queue_delay_us = 60'000'000;
  cfg.batching.max_batch_size = 128;  // never fills: requests sit pending
  cfg.batching.max_queue_depth = 256;
  InferenceEngine engine(registry, "toy", cfg);

  std::vector<std::future<Response>> futures;
  for (int i = 0; i < 16; ++i) futures.push_back(engine.submit(probe_image()));
  engine.drain();

  const int want = expected_class(1);
  for (auto& f : futures) {
    ASSERT_EQ(f.wait_for(milliseconds(0)), std::future_status::ready);
    const Response r = f.get();
    ASSERT_EQ(r.status, Status::kOk) << status_name(r.status);
    EXPECT_EQ(r.predicted_class, want);
  }
  EXPECT_EQ(engine.stats().served, 16U);

  // Once drained the engine behaves like a shut-down one: new submissions
  // are rejected, and both teardown calls stay idempotent.
  EXPECT_EQ(engine.submit(probe_image()).get().status,
            Status::kRejectedShutdown);
  engine.drain();
  engine.shutdown();
}

// The acceptance-criteria test: versions are swapped while clients hammer
// the engine.  Every request must terminate (prediction or explicit
// rejection), and every prediction must match what the *claimed* version
// computes for the probe image — a batch served by a half-swapped model
// would violate that.  Metrics stay enabled so the obs hot path is
// exercised by the same TSan run.
TEST(InferenceEngine, HotSwapUnderLoadDropsNothingAndNeverMixesVersions) {
  const bool metrics_were_enabled = obs::metrics_enabled();
  obs::set_metrics_enabled(true);

  constexpr std::uint64_t kVersions = 6;
  int expected[kVersions + 1] = {};
  for (std::uint64_t v = 1; v <= kVersions; ++v) {
    expected[v] = expected_class(v);
  }

  ModelRegistry registry;
  install_version(registry, "toy", 1);
  EngineConfig cfg;
  cfg.workers = 3;
  cfg.batching.max_batch_size = 8;
  cfg.batching.max_queue_delay_us = 200;
  cfg.batching.max_queue_depth = 4096;
  InferenceEngine engine(registry, "toy", cfg);

  std::thread swapper([&] {
    for (std::uint64_t v = 2; v <= kVersions; ++v) {
      std::this_thread::sleep_for(milliseconds(5));
      EXPECT_EQ(install_version(registry, "toy", v), v);
    }
  });

  constexpr int kClients = 2;
  constexpr int kPerClient = 400;
  std::vector<std::vector<std::future<Response>>> futures(kClients);
  std::vector<std::thread> clients;
  clients.reserve(kClients);
  for (int c = 0; c < kClients; ++c) {
    clients.emplace_back([&, c] {
      futures[c].reserve(kPerClient);
      for (int i = 0; i < kPerClient; ++i) {
        futures[c].push_back(engine.submit(probe_image()));
        if (i % 16 == 0) std::this_thread::sleep_for(std::chrono::microseconds(200));
      }
    });
  }
  for (auto& t : clients) t.join();
  swapper.join();

  std::uint64_t ok = 0;
  std::uint64_t rejected = 0;
  for (auto& client_futures : futures) {
    for (auto& f : client_futures) {
      const Response r = f.get();  // every future terminates
      if (r.status == Status::kOk) {
        ++ok;
        ASSERT_GE(r.model_version, 1U);
        ASSERT_LE(r.model_version, kVersions);
        // A fully-swapped model predicts exactly its version's class.
        EXPECT_EQ(r.predicted_class, expected[r.model_version])
            << "request served by a partially-swapped model (claimed v"
            << r.model_version << ")";
      } else {
        ++rejected;
      }
    }
  }
  EXPECT_EQ(ok + rejected, kClients * kPerClient);  // nothing dropped
  EXPECT_GT(ok, 0U);
  const EngineStats stats = engine.stats();
  EXPECT_EQ(stats.submitted, kClients * kPerClient);
  EXPECT_EQ(stats.served, ok);

  engine.shutdown();
  obs::set_metrics_enabled(metrics_were_enabled);
}

}  // namespace
}  // namespace tdfm::serve
