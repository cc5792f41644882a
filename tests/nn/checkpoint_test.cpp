#include "nn/checkpoint.hpp"

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>

#include <cstring>

#include "../test_util.hpp"
#include "models/model_zoo.hpp"
#include "nn/activation.hpp"
#include "nn/dense.hpp"

namespace tdfm::nn {
namespace {

std::unique_ptr<Network> make_net(Rng& rng) {
  auto body = std::make_unique<Sequential>();
  body->emplace<Dense>(4, 8, rng);
  body->emplace<ReLU>();
  body->emplace<Dense>(8, 3, rng);
  return std::make_unique<Network>("toy", std::move(body), 3);
}

struct TempFile {
  std::string path;
  explicit TempFile(const char* name)
      : path(std::string(::testing::TempDir()) + name) {}
  ~TempFile() { std::remove(path.c_str()); }
};

TEST(Checkpoint, RoundTripRestoresWeights) {
  Rng rng(1);
  auto a = make_net(rng);
  auto b = make_net(rng);  // different random init
  const TempFile file("ckpt_roundtrip.bin");
  save_checkpoint(*a, file.path);
  ASSERT_NE(a->save_weights(), b->save_weights());
  load_checkpoint(*b, file.path);
  EXPECT_EQ(a->save_weights(), b->save_weights());
}

TEST(Checkpoint, MissingFileThrows) {
  Rng rng(2);
  auto net = make_net(rng);
  EXPECT_THROW(load_checkpoint(*net, "/nonexistent/dir/x.bin"), Error);
}

TEST(Checkpoint, BadMagicRejected) {
  Rng rng(3);
  auto net = make_net(rng);
  const TempFile file("ckpt_badmagic.bin");
  std::ofstream(file.path, std::ios::binary) << "definitely not a checkpoint";
  EXPECT_THROW(load_checkpoint(*net, file.path), Error);
}

TEST(Checkpoint, TruncatedFileRejected) {
  Rng rng(4);
  auto net = make_net(rng);
  const TempFile file("ckpt_trunc.bin");
  save_checkpoint(*net, file.path);
  // Chop off the last 16 bytes.
  std::ifstream in(file.path, std::ios::binary);
  std::string blob((std::istreambuf_iterator<char>(in)),
                   std::istreambuf_iterator<char>());
  in.close();
  std::ofstream(file.path, std::ios::binary | std::ios::trunc)
      << blob.substr(0, blob.size() - 16);
  EXPECT_THROW(load_checkpoint(*net, file.path), Error);
}

CheckpointMeta toy_meta() {
  CheckpointMeta meta;
  meta.arch = "Toy";
  meta.width = 1;
  meta.in_channels = 4;
  meta.image_size = 1;
  meta.num_classes = 3;
  return meta;
}

TEST(Checkpoint, V2RoundTripRestoresWeightsAndMeta) {
  Rng rng(6);
  auto a = make_net(rng);
  auto b = make_net(rng);
  const TempFile file("ckpt_v2_roundtrip.bin");
  save_checkpoint(*a, file.path, toy_meta());
  EXPECT_EQ(checkpoint_format_version(file.path), 2U);
  EXPECT_EQ(read_checkpoint_meta(file.path), toy_meta());
  load_checkpoint(*b, file.path);  // same loader handles both formats
  EXPECT_EQ(a->save_weights(), b->save_weights());
}

TEST(Checkpoint, V1FileCarriesNoMeta) {
  Rng rng(7);
  auto net = make_net(rng);
  const TempFile file("ckpt_v1_nometa.bin");
  save_checkpoint(*net, file.path);
  EXPECT_EQ(checkpoint_format_version(file.path), 1U);
  EXPECT_THROW((void)read_checkpoint_meta(file.path), Error);
}

TEST(Checkpoint, EmptyArchNameRejectedAtSave) {
  Rng rng(8);
  auto net = make_net(rng);
  const TempFile file("ckpt_noarch.bin");
  CheckpointMeta meta = toy_meta();
  meta.arch.clear();
  EXPECT_THROW(save_checkpoint(*net, file.path, meta), Error);
}

TEST(Checkpoint, DegenerateGeometryRejectedAtSave) {
  Rng rng(9);
  auto net = make_net(rng);
  const TempFile file("ckpt_badgeom.bin");
  CheckpointMeta meta = toy_meta();
  meta.num_classes = 1;  // a classifier needs at least two classes
  EXPECT_THROW(save_checkpoint(*net, file.path, meta), Error);
}

TEST(Checkpoint, TruncatedV2HeaderRejected) {
  Rng rng(10);
  auto a = make_net(rng);
  const TempFile file("ckpt_v2_trunc.bin");
  save_checkpoint(*a, file.path, toy_meta());
  std::ifstream in(file.path, std::ios::binary);
  std::string blob((std::istreambuf_iterator<char>(in)),
                   std::istreambuf_iterator<char>());
  in.close();
  // Keep the 8-byte magic plus half the arch-name length field.
  std::ofstream(file.path, std::ios::binary | std::ios::trunc)
      << blob.substr(0, 10);
  EXPECT_THROW((void)read_checkpoint_meta(file.path), Error);
  EXPECT_THROW(load_checkpoint(*a, file.path), Error);
}

TEST(Checkpoint, V2WrongScalarCountRejected) {
  Rng rng(11);
  auto a = make_net(rng);
  auto body = std::make_unique<Sequential>();
  body->emplace<Dense>(4, 2, rng);
  Network small("small", std::move(body), 2);
  const TempFile file("ckpt_v2_mismatch.bin");
  save_checkpoint(*a, file.path, toy_meta());
  EXPECT_THROW(load_checkpoint(small, file.path), Error);
}

/// A v2 checkpoint whose weight count is replaced by `count`, keeping
/// `weight_bytes` bytes of weights after it.
std::string forged_count_checkpoint(Network& net, const std::string& path,
                                    std::uint64_t count,
                                    std::size_t weight_bytes) {
  save_checkpoint(net, path, toy_meta());
  std::ifstream in(path, std::ios::binary);
  std::string blob((std::istreambuf_iterator<char>(in)),
                   std::istreambuf_iterator<char>());
  in.close();
  const std::size_t at =
      blob.size() - net.save_weights().size() * sizeof(float) - sizeof(count);
  std::memcpy(blob.data() + at, &count, sizeof(count));
  blob.resize(at + sizeof(count) + weight_bytes);
  std::ofstream(path, std::ios::binary | std::ios::trunc) << blob;
  return blob;
}

// A forged count must fail as a truncated checkpoint before any allocation:
// 2^62 floats exceed vector::max_size() (std::length_error otherwise).
TEST(Checkpoint, ForgedHugeWeightCountRejected) {
  Rng rng(20);
  auto net = make_net(rng);
  const TempFile file("ckpt_forged_huge.bin");
  (void)forged_count_checkpoint(*net, file.path, 1ULL << 62, 64);
  try {
    load_checkpoint(*net, file.path);
    FAIL() << "expected tdfm::Error";
  } catch (const Error& e) {
    EXPECT_NE(std::string(e.what()).find("checkpoint truncated"),
              std::string::npos)
        << e.what();
  }
}

// 2^33 floats fit in a vector but would zero-fill 32 GB for a file of about
// a hundred bytes: the count is checked against the bytes that follow it.
TEST(Checkpoint, ForgedLargeWeightCountRejectedBeforeAllocating) {
  Rng rng(21);
  auto net = make_net(rng);
  const TempFile file("ckpt_forged_large.bin");
  const std::string blob =
      forged_count_checkpoint(*net, file.path, 1ULL << 33, 64);
  EXPECT_LT(blob.size(), 128U);
  try {
    load_checkpoint(*net, file.path);
    FAIL() << "expected tdfm::Error";
  } catch (const Error& e) {
    EXPECT_NE(std::string(e.what()).find("checkpoint truncated"),
              std::string::npos)
        << e.what();
  }
}

TEST(Checkpoint, QuantizeFlagSelectsV3AndRoundTrips) {
  Rng rng(12);
  auto a = make_net(rng);
  auto b = make_net(rng);
  const TempFile file("ckpt_v3_roundtrip.bin");
  CheckpointMeta meta = toy_meta();
  meta.quantize = true;
  save_checkpoint(*a, file.path, meta);
  EXPECT_EQ(checkpoint_format_version(file.path), 3U);
  const CheckpointMeta read = read_checkpoint_meta(file.path);
  EXPECT_TRUE(read.quantize);
  EXPECT_EQ(read.arch, meta.arch);
  // Weights are stored fp32 regardless of the deployment flag: the loader
  // restores them exactly and re-quantizes afterwards if it honours it.
  load_checkpoint(*b, file.path);
  EXPECT_EQ(a->save_weights(), b->save_weights());
}

TEST(Checkpoint, UnquantizedMetaStaysByteIdenticalV2) {
  // The v3 flag word must not leak into checkpoints that do not need it —
  // existing v2 readers and byte-comparison tooling rely on that.
  Rng rng(13);
  auto a = make_net(rng);
  const TempFile v2a("ckpt_v2_stable_a.bin");
  const TempFile v2b("ckpt_v2_stable_b.bin");
  save_checkpoint(*a, v2a.path, toy_meta());
  CheckpointMeta meta = toy_meta();
  meta.quantize = false;  // explicit default
  save_checkpoint(*a, v2b.path, meta);
  EXPECT_EQ(checkpoint_format_version(v2a.path), 2U);
  std::ifstream ina(v2a.path, std::ios::binary);
  std::ifstream inb(v2b.path, std::ios::binary);
  const std::string blob_a((std::istreambuf_iterator<char>(ina)),
                           std::istreambuf_iterator<char>());
  const std::string blob_b((std::istreambuf_iterator<char>(inb)),
                           std::istreambuf_iterator<char>());
  EXPECT_EQ(blob_a, blob_b);
}

TEST(Checkpoint, UnknownV3FlagRejected) {
  Rng rng(14);
  auto a = make_net(rng);
  const TempFile file("ckpt_v3_badflag.bin");
  CheckpointMeta meta = toy_meta();
  meta.quantize = true;
  save_checkpoint(*a, file.path, meta);
  // Flip an undefined flag bit in place — readers must refuse flags they
  // don't know rather than silently mis-deploy.  v3 layout: magic(8) +
  // arch_len(4) + arch("Toy" = 3) + four u32 geometry fields(16), then the
  // flags word.
  std::ifstream in(file.path, std::ios::binary);
  std::string blob((std::istreambuf_iterator<char>(in)),
                   std::istreambuf_iterator<char>());
  in.close();
  const std::size_t flags_pos = 8 + 4 + meta.arch.size() + 16;
  ASSERT_EQ(blob[flags_pos], '\x01');  // kFlagQuantize, little-endian
  blob[flags_pos] = static_cast<char>(0x81);
  std::ofstream(file.path, std::ios::binary | std::ios::trunc) << blob;
  EXPECT_THROW((void)read_checkpoint_meta(file.path), Error);
  EXPECT_THROW(load_checkpoint(*a, file.path), Error);
}

TEST(Checkpoint, WrongArchitectureRejected) {
  Rng rng(5);
  auto a = make_net(rng);
  auto body = std::make_unique<Sequential>();
  body->emplace<Dense>(4, 2, rng);  // structurally different
  Network small("small", std::move(body), 2);
  const TempFile file("ckpt_mismatch.bin");
  save_checkpoint(*a, file.path);
  EXPECT_THROW(load_checkpoint(small, file.path), Error);
}

TEST(Checkpoint, BatchNormStatisticsSurviveCopySaveLoadAndCheckpoint) {
  // A network's eval output reads BatchNorm2D's running statistics, so every
  // weight copy must carry them: before, each copy served mean 0 and
  // variance 1 (eval logits off by up to 0.24 for MobileNet and 9.2 for
  // ResNet18 after five training-mode batches).
  for (const models::Arch arch : {models::Arch::kMobileNet, models::Arch::kResNet18}) {
    models::ModelConfig cfg;
    cfg.width = 4;
    Rng rng(71);
    auto net = models::build_model(arch, cfg, rng);
    for (int b = 0; b < 5; ++b) {
      (void)net->logits(test::random_tensor(Shape{8, 3, 16, 16}, rng, 0.5F, 1.5F),
                        /*training=*/true);
    }
    const Tensor probe = test::random_tensor(Shape{4, 3, 16, 16}, rng, 0.5F, 1.5F);
    const Tensor want = net->logits(probe, false);
    const auto same_logits = [&](Network& other, const char* path) {
      const Tensor got = other.logits(probe, false);
      EXPECT_EQ(0, std::memcmp(got.data(), want.data(), want.numel() * sizeof(float)))
          << models::arch_name(arch) << " " << path;
    };
    const auto fresh = [&] {
      Rng other(72);
      return models::build_model(arch, cfg, other);
    };
    auto copied = fresh();
    copied->copy_weights_from(*net);
    same_logits(*copied, "copy_weights_from");
    auto loaded = fresh();
    loaded->load_weights(net->save_weights());
    same_logits(*loaded, "save_weights/load_weights");
    const TempFile file("bn_state.ckpt");
    save_checkpoint(*net, file.path, models::checkpoint_meta(arch, cfg));
    auto restored = models::build_from_meta(read_checkpoint_meta(file.path), rng);
    load_checkpoint(*restored, file.path);
    same_logits(*restored, "checkpoint");
    const TempFile v1("bn_state_v1.ckpt");
    save_checkpoint(*net, v1.path);
    auto restored_v1 = fresh();
    load_checkpoint(*restored_v1, v1.path);
    same_logits(*restored_v1, "v1 checkpoint");

    // A parameters-only vector, as saved before the statistics were, still
    // loads and leaves the statistics as they are.
    std::vector<float> parameters;
    for (const Parameter* p : net->parameters()) {
      parameters.insert(parameters.end(), p->value.flat().begin(), p->value.flat().end());
    }
    auto legacy = fresh();
    legacy->load_weights(parameters);
    EXPECT_EQ(legacy->state().size(), net->state().size());
    for (Tensor* t : legacy->state()) {
      for (const float v : t->flat()) EXPECT_TRUE(v == 0.0F || v == 1.0F);
    }
  }
}

}  // namespace
}  // namespace tdfm::nn
