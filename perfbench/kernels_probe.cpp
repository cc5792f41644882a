// Kernel probes of the per-layer run: the GEMM calls a ConvNet (width 8,
// 16x16x3 inputs) makes, timed through the public tensor/kernels entry
// points on seeded random operands.
//
// Operation counts are 2*m*n*k per GEMM.  Bytes are computed from the
// shapes, not measured: every operand read once and the output written once
// (fp32: 4 bytes per element; q8_0: 1 byte per code plus a 4-byte scale per
// 32-element block).  The metric names say "computed" in their unit.
#include <vector>

#include "core/rng.hpp"
#include "kernels/quant.hpp"
#include "tensor/gemm.hpp"
#include "tensor/im2col.hpp"
#include "tensor/qgemm.hpp"
#include "workloads.hpp"

namespace perfbench {
namespace {

using namespace tdfm;

constexpr std::size_t kWidth = 8;
constexpr std::size_t kTrainBatch = 32;

/// The ConvNet's three convolutions (models/model_zoo.cpp) at width 8.
std::vector<ConvGeometry> convnet_convs() {
  const auto conv = [](std::size_t in_c, std::size_t hw) {
    ConvGeometry g;
    g.in_c = in_c;
    g.in_h = g.in_w = hw;
    return g;
  };
  return {conv(3, 16), conv(kWidth, 16), conv(2 * kWidth, 8)};
}
const std::size_t kConvOut[] = {kWidth, 2 * kWidth, 2 * kWidth};

/// The ConvNet's dense layers as (in, out).
std::vector<std::pair<std::size_t, std::size_t>> convnet_dense(std::size_t classes) {
  return {{2 * kWidth * 16, 8 * kWidth}, {8 * kWidth, 4 * kWidth}, {4 * kWidth, classes}};
}

std::vector<float> random_floats(Rng& rng, std::size_t n) {
  std::vector<float> v(n);
  for (float& x : v) x = rng.uniform(-1.0F, 1.0F);
  return v;
}

double gemm_flops(std::size_t m, std::size_t n, std::size_t k) {
  return 2.0 * static_cast<double>(m) * static_cast<double>(n) * static_cast<double>(k);
}

double fp32_bytes(std::size_t m, std::size_t n, std::size_t k) {
  return 4.0 * static_cast<double>(m * k + k * n + m * n);
}

double q8_bytes(std::size_t rows, std::size_t cols) {
  const std::size_t blocks = (cols + kernels::kQ8Block - 1) / kernels::kQ8Block;
  return static_cast<double>(rows * blocks * (kernels::kQ8Block + sizeof(float)));
}

/// A list of calls timed as one pass; returns the median pass time (s).
struct Pass {
  std::vector<std::function<void()>> calls;
  double flops = 0.0;
  double bytes = 0.0;

  [[nodiscard]] double time(std::size_t reps) const {
    for (const auto& c : calls) c();  // warm caches and lazy dispatch
    return median_time(reps, [&] {
      for (const auto& c : calls) c();
    });
  }
};

}  // namespace

void probe_train_gemm(Result& out, std::uint64_t seed, std::size_t classes) {
  Rng rng(seed);
  std::vector<std::vector<float>> buffers;
  const auto buf = [&](std::size_t n) -> float* {
    buffers.push_back(random_floats(rng, n));
    return buffers.back().data();
  };
  buffers.reserve(64);
  Pass pass;
  const auto add = [&](void (*fn)(std::size_t, std::size_t, std::size_t, const float*,
                                  const float*, float*, bool),
                       std::size_t m, std::size_t n, std::size_t k, std::size_t a_size,
                       std::size_t b_size, std::size_t times) {
    const float* a = buf(a_size);
    const float* b = buf(b_size);
    float* c = buf(m * n);
    pass.calls.push_back([=] {
      for (std::size_t i = 0; i < times; ++i) fn(m, n, k, a, b, c, false);
    });
    pass.flops += static_cast<double>(times) * gemm_flops(m, n, k);
    pass.bytes += static_cast<double>(times) * fp32_bytes(m, n, k);
  };
  // Per image and conv layer (nn/conv2d.cpp): forward W*cols, weight
  // gradient dY*cols^T, input gradient W^T*dY.
  const auto convs = convnet_convs();
  for (std::size_t l = 0; l < convs.size(); ++l) {
    const std::size_t oc = kConvOut[l];
    const std::size_t pr = convs[l].patch_rows();
    const std::size_t pc = convs[l].patch_cols();
    add(gemm_nn, oc, pc, pr, oc * pr, pr * pc, kTrainBatch);
    add(gemm_nt, oc, pr, pc, oc * pc, pr * pc, kTrainBatch);
    add(gemm_tn, pr, pc, oc, oc * pr, oc * pc, kTrainBatch);
  }
  // Per batch and dense layer (nn/dense.cpp).
  for (const auto& [in, o] : convnet_dense(classes)) {
    add(gemm_nt, kTrainBatch, o, in, kTrainBatch * in, o * in, 1);
    add(gemm_tn, o, in, kTrainBatch, kTrainBatch * o, kTrainBatch * in, 1);
    add(gemm_nn, kTrainBatch, in, o, kTrainBatch * o, o * in, 1);
  }
  const double s = pass.time(15);
  out.add("kernels.gemm_fp32_gflops.train", pass.flops / s / 1e9, "GFLOP/s");
  out.add("kernels.gemm_fp32_mflop.train", pass.flops / 1e6, "MFLOP_computed");
  out.add("kernels.gemm_fp32_bytes.train", pass.bytes, "B_computed");
}

void probe_b1_fp32(Result& out, std::uint64_t seed, std::size_t classes) {
  Rng rng(seed);
  std::vector<std::vector<float>> buffers;
  buffers.reserve(32);
  const auto buf = [&](std::size_t n) -> float* {
    buffers.push_back(random_floats(rng, n));
    return buffers.back().data();
  };
  Pass pass;
  const auto convs = convnet_convs();
  for (std::size_t l = 0; l < convs.size(); ++l) {
    const std::size_t oc = kConvOut[l];
    const std::size_t pr = convs[l].patch_rows();
    const std::size_t pc = convs[l].patch_cols();
    const float* w = buf(oc * pr);
    const float* cols = buf(pr * pc);
    float* y = buf(oc * pc);
    pass.calls.push_back([=] { gemm_nn(oc, pc, pr, w, cols, y, false); });
    pass.flops += gemm_flops(oc, pc, pr);
    pass.bytes += fp32_bytes(oc, pc, pr);
  }
  for (const auto& [in, o] : convnet_dense(classes)) {
    const float* x = buf(in);
    const float* w = buf(o * in);
    float* y = buf(o);
    pass.calls.push_back([=, in = in, o = o] { gemm_nt(1, o, in, x, w, y, false); });
    pass.flops += gemm_flops(1, o, in);
    pass.bytes += fp32_bytes(1, o, in);
  }
  const double s = pass.time(401);
  out.add("kernels.gemm_fp32_gflops.b1", pass.flops / s / 1e9, "GFLOP/s");
  out.add("kernels.gemm_fp32_mflop.b1", pass.flops / 1e6, "MFLOP_computed");
  out.add("kernels.gemm_fp32_bytes.b1", pass.bytes, "B_computed");
}

void probe_b1_q8(Result& out, std::uint64_t seed, std::size_t classes) {
  Rng rng(seed);
  // One image through the quantized ConvNet path (nn/conv2d.cpp,
  // nn/dense.cpp): im2row, per-row activation quantization, q8 GEMM.
  const auto convs = convnet_convs();
  const auto dense = convnet_dense(classes);
  std::vector<std::vector<float>> images;
  std::vector<std::vector<float>> rows;
  std::vector<kernels::Q8Matrix> qweights;
  qweights.reserve(convs.size() + dense.size());  // the calls keep pointers
  std::vector<kernels::Q8Matrix> qacts(convs.size() + dense.size());
  std::vector<std::vector<float>> outputs;
  Pass im2row_pass;
  Pass quant_pass;
  Pass gemm_pass;
  for (std::size_t l = 0; l < convs.size(); ++l) {
    const ConvGeometry g = convs[l];
    const std::size_t oc = kConvOut[l];
    images.push_back(random_floats(rng, g.in_c * g.in_h * g.in_w));
    rows.push_back(std::vector<float>(g.patch_cols() * g.patch_rows()));
    const auto w = random_floats(rng, oc * g.patch_rows());
    qweights.push_back(kernels::quantize_rows_q8(w.data(), oc, g.patch_rows()));
    outputs.push_back(std::vector<float>(oc * g.patch_cols()));
  }
  for (std::size_t l = 0; l < convs.size(); ++l) {
    const ConvGeometry g = convs[l];
    const float* image = images[l].data();
    float* r = rows[l].data();
    kernels::Q8Matrix* qa = &qacts[l];
    const kernels::Q8Matrix* qw = &qweights[l];
    float* y = outputs[l].data();
    im2row_pass.calls.push_back([=] { im2row(g, image, r); });
    im2row_pass.calls.back()();
    quant_pass.calls.push_back(
        [=] { kernels::quantize_rows_q8(r, g.patch_cols(), g.patch_rows(), *qa); });
    quant_pass.calls.back()();
    gemm_pass.calls.push_back([=] { gemm_q8_nt(*qw, *qa, y); });
    gemm_pass.flops += gemm_flops(kConvOut[l], g.patch_cols(), g.patch_rows());
    gemm_pass.bytes += q8_bytes(kConvOut[l], g.patch_rows()) +
                       q8_bytes(g.patch_cols(), g.patch_rows()) +
                       4.0 * static_cast<double>(kConvOut[l] * g.patch_cols());
  }
  for (std::size_t l = 0; l < dense.size(); ++l) {
    const auto [in, o] = dense[l];
    images.push_back(random_floats(rng, in));
    const auto w = random_floats(rng, o * in);
    qweights.push_back(kernels::quantize_rows_q8(w.data(), o, in));
    outputs.push_back(std::vector<float>(o));
    const float* x = images.back().data();
    kernels::Q8Matrix* qa = &qacts[convs.size() + l];
    const kernels::Q8Matrix* qw = &qweights.back();
    float* y = outputs.back().data();
    quant_pass.calls.push_back([=, in = in] { kernels::quantize_rows_q8(x, 1, in, *qa); });
    quant_pass.calls.back()();
    gemm_pass.calls.push_back([=] { gemm_q8_nt(*qa, *qw, y); });
    gemm_pass.flops += gemm_flops(1, o, in);
    gemm_pass.bytes += q8_bytes(1, in) + q8_bytes(o, in) + 4.0 * static_cast<double>(o);
  }
  const double gemm_s = gemm_pass.time(401);
  out.add("kernels.gemm_q8_gflops.b1", gemm_pass.flops / gemm_s / 1e9, "GFLOP/s");
  out.add("kernels.gemm_q8_mflop.b1", gemm_pass.flops / 1e6, "MFLOP_computed");
  out.add("kernels.gemm_q8_bytes.b1", gemm_pass.bytes, "B_computed");
  out.add("kernels.quantize_rows_us.b1", 1e6 * quant_pass.time(401), "us");
  out.add("tensor.im2row_us.b1", 1e6 * im2row_pass.time(401), "us");
}

}  // namespace perfbench
