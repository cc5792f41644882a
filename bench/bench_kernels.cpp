// bench_kernels: GFLOP/s of every dispatchable GEMM kernel at model-zoo
// shapes, the q8_0 quantized matmul, and the depthwise kernels; and the time
// the conv paths spend staging one image's activations: im2row, then q8_0
// quantization of the patch rows per kernel table (quantized forward), and
// im2col and col2im (fp32 training).
//
// Each (shape, variant, kernel) cell times direct calls into the kernel
// table — single thread, full row range — so the numbers are pure kernel
// throughput with no pool or dispatch overhead.  GEMM shapes are the ones
// the repo's model zoo actually runs: im2col'd 3x3 conv layers at the three
// spatial resolutions, a VGG-width block, the Dense classifier head, a
// square reference point, and 1x1 (pointwise) convs on 4x4 and 2x2 planes
// both per image and as the 64-column image groups Conv2D runs them in.
// The three width-8 conv input gradients (W^T * dY, Conv2D's tn call) and
// one ReLU-masked Dense weight gradient (dY^T * X, Dense's tn call) run the
// tn variant only: the avx2 tn runs its register tile on the dense filter
// rows and its zero-skipping p-outer loop on the masked gradient.  The three
// width-8 conv weight gradients (dY * patches^T, Conv2D's nt call) and
// ConvNet's first Dense forward (X * W^T, Dense's nt call) run the nt
// variant only; the other rows' nt cells reuse the forward's (m, n, k),
// which no training call runs.
// The depthwise rows time the forward, input-gradient and weight-gradient
// entries over one image's channels, a run of 8 per call, at each depthwise
// layer of width-8 MobileNet.  The BatchNorm2D rows time the layer's
// training passes alone, then followed by a ReLU layer, then with that ReLU
// fused, at batch 32 on the width-8 zoo's shapes.  The layer rows time
// whole Conv2D layers, forward and backward at batch 32, per kernel table:
// ConvNet's three (fused ReLU; the stem skips the input gradient, as a
// network's first layer does), which read their patches in place, and
// MobileNet's 64->64 1x1 conv on 4x4 planes, which runs im2col on groups of
// 4 images; against the GEMM rows they show what the layer adds around its
// kernels.  The staging rows use the
// patch matrices of the model zoo's convolutions at width 8 (one image; the
// 1x1 convs and the 3x3 convs on 4x4, 2x2 and 1x1 planes also as the image
// groups Conv2D runs them in); col2im runs per kernel table, since its
// stride-1 path is a table entry.  The headline is the geomean
// AVX2-over-scalar speedup across all fp32 GEMM cells.
//
//   $ ./bench/bench_kernels                      # sweep every supported kernel
//   $ ./bench/bench_kernels --kernel avx2        # one kernel only
//   $ ./bench/bench_kernels --out BENCH_kernels.json
#include <chrono>
#include <cmath>
#include <random>

#include "bench_common.hpp"
#include "kernels/aligned.hpp"
#include "kernels/quant.hpp"
#include "nn/activation.hpp"
#include "nn/batchnorm.hpp"
#include "nn/conv2d.hpp"
#include "tensor/im2col.hpp"

namespace tdfm::bench {
namespace {

using Clock = std::chrono::steady_clock;

constexpr const char* kVariants[] = {"nn", "nt", "tn"};
constexpr int kAllVariants = -1;
constexpr int kNtOnly = 1;
constexpr int kTnOnly = 2;

/// One GEMM problem size.  Tags name the model-zoo site the shape comes
/// from (C[m,n] = A[m,k] * B[k,n] modulo the variant's transposes).
struct ShapeSpec {
  const char* tag;
  std::size_t m, n, k;
  int only = kAllVariants;   ///< a gradient site: that variant's row alone, no q8
  bool relu_masked = false;  ///< A's negative half zeroed, as behind a ReLU
};

constexpr ShapeSpec kShapes[] = {
    {"conv3x3_first", 8, 1024, 27},   // 3->8 conv over 32x32 px, wider than the 16x16 zoo (n = 256)
    {"conv3x3_mid", 16, 256, 72},     // mid conv at 16x16 spatial
    {"conv3x3_deep", 32, 64, 144},    // deep conv at 8x8 spatial
    {"vgg_block", 32, 64, 288},       // VGG-width 3x3 block
    {"dense_head", 64, 10, 512},      // classifier head (batch 64)
    {"square256", 256, 256, 256},     // square reference point
    {"pw64_image", 64, 16, 64},       // 1x1 conv 64->64 on one 4x4 image
    {"pw64_group", 64, 64, 64},       // the same, a group of 4 images
    {"pw128_image", 128, 4, 128},     // 1x1 conv 128->128 on one 2x2 image
    {"pw128_group", 128, 64, 128},    // the same, a group of 16 images
    {"conv3x3_first_dgrad", 27, 256, 8, kTnOnly},   // stem 3->8 at 16x16
    {"conv3x3_mid_dgrad", 72, 256, 16, kTnOnly},    // 8->16 at 16x16
    {"conv3x3_deep_dgrad", 144, 64, 16, kTnOnly},   // 16->16 at 8x8
    {"dense_fc1_wgrad", 64, 256, 32, kTnOnly, true},  // ConvNet 256->64 Dense, batch 32
    {"conv3x3_first_wgrad", 8, 27, 256, kNtOnly},   // stem 3->8 at 16x16
    {"conv3x3_mid_wgrad", 16, 72, 256, kNtOnly},    // 8->16 at 16x16
    {"conv3x3_deep_wgrad", 16, 144, 64, kNtOnly},   // 16->16 at 8x8
    {"dense_fc1_fwd", 32, 64, 256, kNtOnly},        // ConvNet 256->64 Dense, batch 32
};

/// One depthwise layer of width-8 MobileNet (3x3 filters, pad 1).
struct DepthwiseSpec {
  const char* tag;
  std::size_t channels, hw, stride;
};

constexpr DepthwiseSpec kDepthwise[] = {
    {"dw8_16x16_s1", 8, 16, 1},   {"dw16_16x16_s2", 16, 16, 2},
    {"dw16_8x8_s1", 16, 8, 1},    {"dw32_8x8_s2", 32, 8, 2},
    {"dw32_4x4_s1", 32, 4, 1},    {"dw64_4x4_s1", 64, 4, 1},
    {"dw64_4x4_s2", 64, 4, 2},    {"dw128_2x2_s1", 128, 2, 1},
};

constexpr const char* kDepthwiseVariants[] = {"dw_fwd", "dw_dgrad", "dw_wgrad"};

/// One BatchNorm2D shape of width-8 zoo nets: channels x plane at batch 32.
struct BatchNormSpec {
  const char* tag;
  std::size_t channels, hw;
};

/// MobileNet's 8 shapes, which include every shape of ResNet18, ResNet50 and
/// VGG11 but one: VGG11's last two blocks on a 1-px plane.
constexpr BatchNormSpec kBatchNorm[] = {
    {"bn8_16x16", 8, 16},  {"bn16_16x16", 16, 16}, {"bn16_8x8", 16, 8},
    {"bn32_8x8", 32, 8},   {"bn32_4x4", 32, 4},    {"bn64_4x4", 64, 4},
    {"bn64_2x2", 64, 2},   {"bn128_2x2", 128, 2},  {"bn64_1x1", 64, 1},
};
constexpr std::size_t kBatchNormBatch = 32;

/// One Conv2D layer timed whole, forward then backward, at batch 32: the
/// GEMMs with the staging, bias, fused ReLU, dY staging and bias sums
/// around them.
struct LayerSpec {
  const char* tag;
  std::size_t in_c, out_c, hw, kernel, pad;
  bool relu;   ///< ReLU fused, as ConvNet runs its convs
  bool first;  ///< a network's first layer: backward skips the input gradient
};

constexpr LayerSpec kLayers[] = {
    {"convnet_conv1", 3, 8, 16, 3, 1, true, true},     // stem at 16x16, patches in place
    {"convnet_conv2", 8, 16, 16, 3, 1, true, false},   // 16x16, patches in place
    {"convnet_conv3", 16, 16, 8, 3, 1, true, false},   // 8x8, patches in place
    {"mobilenet_pw64", 64, 64, 4, 1, 0, false, false}, // 1x1 on 4x4: im2col, groups of 4
};
constexpr std::size_t kLayerBatch = 32;

/// One quantized Conv2D site of width-8 model-zoo nets: `images` images of
/// a conv's input, unrolled by im2row into [images*out_h*out_w, C*k*k]
/// patch rows that are then q8_0-quantized.
struct StagingSpec {
  const char* tag;
  std::size_t in_c, hw, kernel, stride, pad, images;
};

constexpr StagingSpec kStaging[] = {
    {"conv3x3_first", 3, 16, 3, 1, 1, 1},  // stem 3->8 at 16x16
    {"conv3x3_mid", 8, 16, 3, 1, 1, 1},    // 8->16 at 16x16
    {"conv3x3_deep", 16, 8, 3, 1, 1, 1},   // 16->16 at 8x8
    {"conv3x3_s2", 16, 16, 3, 2, 1, 1},    // strided 16->32, 16x16 -> 8x8
    {"conv3x3_1px", 64, 1, 3, 1, 1, 1},    // VGG's last stage on 1x1 planes
    {"conv3x3_4px_group", 32, 4, 3, 1, 1, 4},   // VGG/ResNet 4x4 stage, a group of 4
    {"conv3x3_2px_group", 64, 2, 3, 1, 1, 16},  // their 2x2 stage, a group of 16
    {"conv3x3_1px_group", 64, 1, 3, 1, 1, 64},  // VGG's 1x1 stage, a group of 64
    {"pw64_image", 64, 4, 1, 1, 0, 1},     // 1x1 conv 64->64 on a 4x4 image
    {"pw64_group", 64, 4, 1, 1, 0, 4},     // the same, a group of 4 images
    {"pw128_image", 128, 2, 1, 1, 0, 1},   // 1x1 conv 128->128 on 2x2
    {"pw128_group", 128, 2, 1, 1, 0, 16},  // the same, a group of 16 images
};

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

void fill_random(float* p, std::size_t n, std::uint64_t seed) {
  std::mt19937 gen(static_cast<std::uint32_t>(seed));
  std::uniform_real_distribution<float> dist(-1.0F, 1.0F);
  for (std::size_t i = 0; i < n; ++i) p[i] = dist(gen);
}

kernels::GemmRowsFn variant_fn(const kernels::KernelTable& table,
                               std::size_t variant) {
  switch (variant) {
    case 0: return table.nn;
    case 1: return table.nt;
    default: return table.tn;
  }
}

/// Times `body` (already warmed up once by the caller): doubles the rep
/// count until one measurement takes >= 10 ms, then reports the best of
/// three runs at that count — the minimum is the least-preempted sample,
/// which matters on shared/single-core hosts.
template <typename Fn>
double time_per_call(Fn&& body) {
  std::size_t reps = 1;
  double elapsed = 0.0;
  while (true) {
    const auto t0 = Clock::now();
    for (std::size_t r = 0; r < reps; ++r) body();
    elapsed = seconds_since(t0);
    if (elapsed >= 0.010 || reps >= (1ULL << 24)) break;
    reps *= 2;
  }
  for (int run = 0; run < 2; ++run) {
    const auto t0 = Clock::now();
    for (std::size_t r = 0; r < reps; ++r) body();
    elapsed = std::min(elapsed, seconds_since(t0));
  }
  return elapsed / static_cast<double>(reps);
}

int run(int argc, char** argv) {
  CliParser cli;
  BenchSettings settings;
  if (!parse_bench_flags(argc, argv, cli, settings, /*default_trials=*/1,
                         /*default_epochs=*/1, /*default_scale=*/1.0,
                         /*default_width=*/8)) {
    return 0;
  }
  // --kernel restricts the sweep; otherwise bench everything the host runs.
  const std::vector<kernels::KernelKind> kinds =
      cli.get_string("kernel").empty()
          ? kernels::supported_kernels()
          : std::vector<kernels::KernelKind>{kernels::active_kernel()};

  print_banner("kernel microbenchmarks: fp32 GEMM variants, q8_0 matmul, depthwise",
               settings);

  BenchJson json("kernels", settings);
  std::vector<std::string> columns = {"shape", "variant", "MFLOP"};
  for (const kernels::KernelKind kind : kinds) {
    columns.push_back(std::string(kernels::kernel_name(kind)) + " GFLOP/s");
  }
  AsciiTable table(columns);

  // Geomean/min speedup accumulators for the fp32 GEMM headline.
  double log_speedup_sum = 0.0;
  double min_speedup = 0.0;
  std::size_t speedup_cells = 0;

  std::size_t shape_idx = 0;
  for (const ShapeSpec& s : kShapes) {
    // One buffer pool per shape, sized for the worst-case operand layout
    // across variants (nn: A[m,k] B[k,n]; nt: B[n,k]; tn: A[k,m]).
    kernels::AlignedBuffer<float> a(s.m * s.k);
    kernels::AlignedBuffer<float> b(s.k * s.n);
    kernels::AlignedBuffer<float> c(s.m * s.n);
    fill_random(a.data(), a.size(), 1000 + shape_idx);
    fill_random(b.data(), b.size(), 2000 + shape_idx);
    if (s.relu_masked) {
      for (std::size_t i = 0; i < a.size(); ++i) a[i] = std::max(a[i], 0.0F);
    }
    const double flops = 2.0 * static_cast<double>(s.m) *
                         static_cast<double>(s.n) * static_cast<double>(s.k);

    for (std::size_t v = 0; v < 3; ++v) {
      if (s.only != kAllVariants && static_cast<int>(v) != s.only) continue;
      std::vector<std::string> row = {s.tag, kVariants[v],
                                      fixed(flops / 1e6, 2)};
      double scalar_gflops = 0.0;
      for (const kernels::KernelKind kind : kinds) {
        const kernels::GemmRowsFn fn =
            variant_fn(kernels::kernel_table(kind), v);
        const auto body = [&] {
          fn(0, s.m, s.m, s.n, s.k, a.data(), b.data(), c.data(),
             /*accumulate=*/false);
        };
        body();  // warm up (page-in, icache)
        const double sec = time_per_call(body);
        const double gflops = flops / sec / 1e9;
        row.push_back(fixed(gflops, 2));
        json.add(std::string(s.tag) + "." + kVariants[v] + "." +
                     kernels::kernel_name(kind) + ".gflops",
                 gflops);
        if (kind == kernels::KernelKind::kScalar) scalar_gflops = gflops;
        if (kind == kernels::KernelKind::kAvx2 && scalar_gflops > 0.0) {
          const double speedup = gflops / scalar_gflops;
          log_speedup_sum += std::log(speedup);
          min_speedup = speedup_cells == 0 ? speedup
                                           : std::min(min_speedup, speedup);
          ++speedup_cells;
        }
      }
      table.add_row(row);
    }

    // q8_0 matmul at the nt layout (the only layout inference uses):
    // C[m,n] from quantized A[m,k] against quantized B[n,k].
    if (s.only == kAllVariants) {
      kernels::Q8Matrix qa = kernels::quantize_rows_q8(a.data(), s.m, s.k);
      kernels::AlignedBuffer<float> bt(s.n * s.k);
      fill_random(bt.data(), bt.size(), 3000 + shape_idx);
      kernels::Q8Matrix qb = kernels::quantize_rows_q8(bt.data(), s.n, s.k);
      std::vector<std::string> row = {s.tag, "q8_nt", fixed(flops / 1e6, 2)};
      for (const kernels::KernelKind kind : kinds) {
        const kernels::GemmQ8RowsFn fn = kernels::kernel_table(kind).q8_nt;
        const auto body = [&] {
          fn(0, s.m, s.n, qa.blocks_per_row, qa.data.data(), qa.scales.data(),
             qb.data.data(), qb.scales.data(), c.data());
        };
        body();
        const double sec = time_per_call(body);
        const double gflops = flops / sec / 1e9;
        row.push_back(fixed(gflops, 2));
        json.add(std::string(s.tag) + ".q8_nt." +
                     kernels::kernel_name(kind) + ".gflops",
                 gflops);
      }
      table.add_row(row);
    }
    ++shape_idx;
  }

  // Depthwise entries: one image's channels per timed call, run by run
  // (kernels::kDwLanes channels through one filter each per call, filters
  // packed once outside the timing), 2*k*k FLOPs per output pixel per pass.
  for (const DepthwiseSpec& d : kDepthwise) {
    const kernels::DwGeometry g{d.hw, d.hw, 3, d.stride, 1};
    const std::size_t plane_in = d.hw * d.hw;
    const std::size_t plane_out = g.out_h() * g.out_w();
    kernels::AlignedBuffer<float> in(d.channels * plane_in);
    kernels::AlignedBuffer<float> grad(d.channels * plane_in);
    kernels::AlignedBuffer<float> out(d.channels * plane_out);
    kernels::AlignedBuffer<float> filter(d.channels * 9);
    kernels::AlignedBuffer<float> dfilter(d.channels * 9);
    std::vector<float> bias(d.channels, 0.5F);
    std::vector<float> dbias(d.channels, 0.0F);
    std::vector<float> scratch(kernels::dw_scratch_floats(g));
    fill_random(in.data(), in.size(), 4000 + shape_idx);
    fill_random(out.data(), out.size(), 5000 + shape_idx);
    fill_random(filter.data(), filter.size(), 6000 + shape_idx);
    const std::size_t lanes = kernels::kDwLanes;
    const std::size_t run_floats = kernels::dw_run_floats(g);
    std::vector<float> packed((d.channels + lanes - 1) / lanes * run_floats);
    kernels::dw_pack_filters(g, d.channels, filter.data(), bias.data(), packed.data());
    const double flops = 2.0 * 9.0 * static_cast<double>(plane_out * d.channels);
    for (std::size_t v = 0; v < 3; ++v) {
      std::vector<std::string> row = {d.tag, kDepthwiseVariants[v],
                                      fixed(flops / 1e6, 3)};
      for (const kernels::KernelKind kind : kinds) {
        const kernels::KernelTable& kt = kernels::kernel_table(kind);
        const auto body = [&] {
          for (std::size_t c = 0; c < d.channels; c += lanes) {
            const std::size_t n = std::min(lanes, d.channels - c);
            const float* run = packed.data() + c / lanes * run_floats;
            if (v == 0) {
              kt.dw_forward(g, n, in.data() + c * plane_in, run,
                            out.data() + c * plane_out, scratch.data());
            } else if (v == 1) {
              kt.dw_input_grad(g, n, out.data() + c * plane_out, run,
                               grad.data() + c * plane_in, scratch.data());
            } else {
              kt.dw_weight_grad(g, n, in.data() + c * plane_in,
                                out.data() + c * plane_out, dfilter.data() + c * 9,
                                dbias.data() + c, scratch.data());
            }
          }
        };
        body();
        const double sec = time_per_call(body);
        const double gflops = flops / sec / 1e9;
        row.push_back(fixed(gflops, 2));
        json.add(std::string(d.tag) + "." + kDepthwiseVariants[v] + "." +
                     kernels::kernel_name(kind) + ".gflops",
                 gflops);
      }
      table.add_row(row);
    }
    ++shape_idx;
  }

  std::cout << table.render() << "\n";

  // BatchNorm2D training passes at width-8 zoo shapes (batch 32, not
  // dispatched): the layer alone, then a ReLU layer after it, and the layer
  // with that ReLU fused, as the model zoo runs it.
  AsciiTable bn_table({"shape", "bn fwd us", "bn bwd us", "bn+relu fwd us",
                       "bn+relu bwd us", "fused fwd us", "fused bwd us"});
  for (const BatchNormSpec& b : kBatchNorm) {
    const Shape shape{kBatchNormBatch, b.channels, b.hw, b.hw};
    Tensor x(shape), dy(shape);
    fill_random(x.data(), x.numel(), 8000 + shape_idx);
    fill_random(dy.data(), dy.numel(), 9000 + shape_idx);
    nn::BatchNorm2D bn(b.channels);
    nn::ReLU relu;
    nn::BatchNorm2D fused(b.channels, /*fuse_relu=*/true);
    const double fwd = 1e6 * time_per_call([&] { (void)bn.forward(x, true); });
    const double bwd = 1e6 * time_per_call([&] { (void)bn.backward(dy); });
    const double pair_fwd =
        1e6 * time_per_call([&] { (void)relu.forward(bn.forward(x, true), true); });
    const double pair_bwd =
        1e6 * time_per_call([&] { (void)bn.backward(relu.backward(dy)); });
    const double fused_fwd = 1e6 * time_per_call([&] { (void)fused.forward(x, true); });
    const double fused_bwd = 1e6 * time_per_call([&] { (void)fused.backward(dy); });
    bn_table.add_row({b.tag, fixed(fwd, 1), fixed(bwd, 1), fixed(pair_fwd, 1),
                      fixed(pair_bwd, 1), fixed(fused_fwd, 1), fixed(fused_bwd, 1)});
    json.add(std::string(b.tag) + ".bn_fwd.us", fwd);
    json.add(std::string(b.tag) + ".bn_bwd.us", bwd);
    json.add(std::string(b.tag) + ".bn_relu_fwd.us", pair_fwd);
    json.add(std::string(b.tag) + ".bn_relu_bwd.us", pair_bwd);
    json.add(std::string(b.tag) + ".bn_fused_fwd.us", fused_fwd);
    json.add(std::string(b.tag) + ".bn_fused_bwd.us", fused_bwd);
    ++shape_idx;
  }
  std::cout << bn_table.render() << "\n";

  // Whole Conv2D layers at batch 32, per kernel table.
  AsciiTable layer_table({"layer", "kernel", "fwd us", "bwd us", "fwd GFLOP/s",
                          "bwd GFLOP/s"});
  const kernels::KernelKind layer_active = kernels::active_kernel();
  for (const LayerSpec& l : kLayers) {
    const ConvGeometry g{l.in_c, l.hw, l.hw, l.kernel, 1, l.pad};
    Tensor x(Shape{kLayerBatch, l.in_c, l.hw, l.hw});
    Tensor dy(Shape{kLayerBatch, l.out_c, g.out_h(), g.out_w()});
    fill_random(x.data(), x.numel(), 10000 + shape_idx);
    fill_random(dy.data(), dy.numel(), 11000 + shape_idx);
    Rng rng(12000 + shape_idx);
    nn::Conv2D conv(l.in_c, l.out_c, l.hw, l.hw, l.kernel, 1, l.pad, rng, l.relu);
    if (l.first) conv.discard_input_grad();
    const double gemm_flops = 2.0 * static_cast<double>(l.out_c * g.patch_rows() *
                                                        g.patch_cols() * kLayerBatch);
    for (const kernels::KernelKind kind : kinds) {
      kernels::set_active_kernel(kind);
      const double fwd = time_per_call([&] { (void)conv.forward(x, true); });
      const double bwd = time_per_call([&] { (void)conv.backward(dy); });
      const double bwd_flops = (l.first ? 1.0 : 2.0) * gemm_flops;
      const std::string key = std::string(l.tag) + ".layer_";
      const char* name = kernels::kernel_name(kind);
      layer_table.add_row({l.tag, name, fixed(1e6 * fwd, 1), fixed(1e6 * bwd, 1),
                           fixed(gemm_flops / fwd / 1e9, 2),
                           fixed(bwd_flops / bwd / 1e9, 2)});
      json.add(key + "fwd." + name + ".us", 1e6 * fwd);
      json.add(key + "bwd." + name + ".us", 1e6 * bwd);
    }
    ++shape_idx;
  }
  kernels::set_active_kernel(layer_active);
  std::cout << layer_table.render() << "\n";


  // Activation staging: of the quantized conv path, im2row and per-table
  // quantization of the patch rows; of the fp32 training path, im2col into
  // the group's patch matrix and col2im back into the images, col2im per
  // table (its stride-1 path is a table entry; im2row and im2col are not
  // dispatched).
  std::vector<std::string> staging_columns = {"conv", "patch rows", "im2row us"};
  for (const kernels::KernelKind kind : kinds) {
    staging_columns.push_back(std::string("quantize ") + kernels::kernel_name(kind) + " us");
  }
  staging_columns.push_back("im2col us");
  for (const kernels::KernelKind kind : kinds) {
    staging_columns.push_back(std::string("col2im ") + kernels::kernel_name(kind) + " us");
  }
  AsciiTable staging(staging_columns);
  for (const StagingSpec& st : kStaging) {
    const ConvGeometry g{st.in_c, st.hw, st.hw, st.kernel, st.stride, st.pad};
    const std::size_t rows = st.images * g.patch_cols();
    const std::size_t cols = g.patch_rows();
    const std::size_t in_size = st.in_c * st.hw * st.hw;
    kernels::AlignedBuffer<float> images(st.images * in_size);
    kernels::AlignedBuffer<float> patches(rows * cols);
    fill_random(images.data(), images.size(), 7000 + shape_idx);
    const auto unroll = [&] {
      for (std::size_t i = 0; i < st.images; ++i) {
        im2row(g, images.data() + i * in_size, patches.data() + i * g.patch_cols() * cols);
      }
    };
    unroll();
    const double im2row_us = 1e6 * time_per_call(unroll);
    json.add(std::string(st.tag) + ".im2row.us", im2row_us);
    std::vector<std::string> row = {st.tag, std::to_string(rows) + "x" + std::to_string(cols),
                                    fixed(im2row_us, 2)};
    const std::size_t blocks = (cols + kernels::kQ8Block - 1) / kernels::kQ8Block;
    kernels::AlignedBuffer<std::int8_t> codes(rows * blocks * kernels::kQ8Block);
    kernels::AlignedBuffer<float> scales(rows * blocks);
    for (const kernels::KernelKind kind : kinds) {
      const kernels::QuantizeQ8Fn fn = kernels::kernel_table(kind).quantize_q8;
      const auto body = [&] { fn(patches.data(), rows, cols, codes.data(), scales.data()); };
      body();
      const double us = 1e6 * time_per_call(body);
      row.push_back(fixed(us, 2));
      json.add(std::string(st.tag) + ".quantize." + kernels::kernel_name(kind) + ".us", us);
    }
    // The same images as Conv2D's fp32 path lays them out: side by side in
    // one [C*k*k, images*out_h*out_w] patch matrix.
    const std::size_t pc = g.patch_cols();
    const std::size_t stride = st.images * pc;
    kernels::AlignedBuffer<float> grads(images.size());
    fill_random(grads.data(), grads.size(), 8000 + shape_idx);
    const auto to_columns = [&] {
      for (std::size_t i = 0; i < st.images; ++i) {
        im2col(g, images.data() + i * in_size, patches.data(), stride, i * pc);
      }
    };
    const auto to_images = [&] {
      for (std::size_t i = 0; i < st.images; ++i) {
        col2im(g, patches.data(), grads.data() + i * in_size, stride, i * pc);
      }
    };
    to_columns();
    const double im2col_us = 1e6 * time_per_call(to_columns);
    row.push_back(fixed(im2col_us, 2));
    json.add(std::string(st.tag) + ".im2col.us", im2col_us);
    const kernels::KernelKind active = kernels::active_kernel();
    for (const kernels::KernelKind kind : kinds) {
      kernels::set_active_kernel(kind);
      to_images();
      const double col2im_us = 1e6 * time_per_call(to_images);
      row.push_back(fixed(col2im_us, 2));
      json.add(std::string(st.tag) + ".col2im." + kernels::kernel_name(kind) + ".us",
               col2im_us);
    }
    kernels::set_active_kernel(active);
    staging.add_row(row);
    ++shape_idx;
  }
  std::cout << staging.render() << "\n";

  if (speedup_cells > 0) {
    const double geomean =
        std::exp(log_speedup_sum / static_cast<double>(speedup_cells));
    std::cout << "fp32 GEMM speedup, avx2 over scalar: geomean "
              << fixed(geomean, 2) << "x, min " << fixed(min_speedup, 2)
              << "x over " << speedup_cells << " (shape, variant) cells\n";
    json.add("speedup.gemm.avx2_over_scalar.geomean", geomean);
    json.add("speedup.gemm.avx2_over_scalar.min", min_speedup);
  }
  json.emit(settings);
  return 0;
}

}  // namespace
}  // namespace tdfm::bench

int main(int argc, char** argv) try {
  return tdfm::bench::run(argc, argv);
} catch (const std::exception& e) {
  std::cerr << "bench_kernels failed: " << e.what() << "\n";
  return 1;
}
