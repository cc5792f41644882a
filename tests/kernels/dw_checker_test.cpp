// Depthwise kernels vs the per-plane loops they replaced.
//
// Both tables' channel-run entries must be memcmp-equal to that table's
// parent loops (tests/kernels/dw_parent_loops.cpp): the forward pass,
// the input gradient, and the weight and bias gradients accumulated into
// nonzero values.  The inputs carry +-0, and +-Inf/NaN gradients under zero
// filter taps, which the input gradient must not let leak into neighbours;
// a NaN result matches any NaN (bit_equal_or_nan says why).
// Outputs and scratch start as NaN between guard floats that must survive.
// The forward pass and input gradient must also stay memcmp-equal to the
// im2col path: im2col + the same table's nn kernel (plus bias), and the tn
// kernel + col2im.  The weight and bias gradients reduce in their own shape:
// within the checker's k-scaled tolerance of the nt kernel's dot and of a
// sequential sum, and bit-identical to them at scalar (a sequential sum in
// both).
#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <limits>
#include <string>
#include <vector>

#include "checker.hpp"
#include "core/rng.hpp"
#include "dw_parent_loops.hpp"
#include "kernels/kernels.hpp"
#include "tensor/im2col.hpp"

namespace tdfm {
namespace {

using kernels::KernelKind;

constexpr float kNaN = std::numeric_limits<float>::quiet_NaN();
constexpr float kInf = std::numeric_limits<float>::infinity();
constexpr std::size_t kGuard = 16;
constexpr float kGuardValue = 12345.0F;

/// A buffer with kGuard guard floats on each side of its `n` floats.
struct Guarded {
  explicit Guarded(std::size_t n, float fill = kNaN)
      : storage(n + 2 * kGuard, kGuardValue) {
    std::fill_n(data(), n, fill);
  }
  float* data() { return storage.data() + kGuard; }
  [[nodiscard]] bool guards_intact() const {
    for (std::size_t i = 0; i < kGuard; ++i) {
      if (storage[i] != kGuardValue || storage[storage.size() - 1 - i] != kGuardValue) {
        return false;
      }
    }
    return true;
  }
  std::vector<float> storage;
};

using kernels_test::bit_equal;
using kernels_test::bit_equal_or_nan;

/// Every combination of stride 1/2, pad 0/1 and kernel 1/3/5 over 1x1, 2x2,
/// 4x4, 5x7, 8x8, 9x3, 16x16 and 17x17 planes (the shapes the padding
/// admits), the model zoo's depthwise planes (k3 p1 on 16x16 to 2x2) among
/// them.
std::vector<kernels::DwGeometry> geometries() {
  std::vector<kernels::DwGeometry> cases;
  const std::size_t planes[][2] = {{1, 1}, {2, 2},   {4, 4},   {5, 7},
                                   {8, 8}, {9, 3}, {16, 16}, {17, 17}};
  for (const auto& hw : planes) {
    for (const std::size_t kernel : {1, 3, 5}) {
      for (const std::size_t stride : {1, 2}) {
        for (const std::size_t pad : {0, 1}) {
          if (hw[0] + 2 * pad < kernel || hw[1] + 2 * pad < kernel) continue;
          cases.push_back({hw[0], hw[1], kernel, stride, pad});
        }
      }
    }
  }
  return cases;
}

/// One layer's worth of depthwise operands: `channels` planes of one image.
struct Operands {
  Operands(const kernels::DwGeometry& g, std::size_t channels, Rng& rng)
      : image(channels * g.in_h * g.in_w),
        gout(channels * g.out_h() * g.out_w()),
        filter(channels * g.taps()),
        bias(channels),
        dfilter_seed(channels * g.taps()),
        dbias_seed(channels) {
    for (auto* v : {&image, &gout, &filter, &bias, &dfilter_seed, &dbias_seed}) {
      for (float& x : *v) x = rng.normal();
    }
    const std::size_t plane_in = g.in_h * g.in_w;
    const std::size_t plane_out = g.out_h() * g.out_w();
    const std::size_t taps = g.taps();
    for (std::size_t c = 0; c < channels; ++c) {
      image[c * plane_in] = c % 2 == 0 ? -0.0F : 0.0F;
      gout[c * plane_out + plane_out / 2] = c % 2 == 0 ? 0.0F : -0.0F;
      // Every third channel keeps only its centre tap (+0 and -0 elsewhere)
      // and carries Inf/NaN gradients: a zero tap must add +0, not 0 * Inf.
      if (c % 3 == 1) {
        for (std::size_t t = 0; t < taps; ++t) {
          if (t != taps / 2) filter[c * taps + t] = t % 2 == 0 ? 0.0F : -0.0F;
        }
        gout[c * plane_out] = kNaN;
        gout[c * plane_out + plane_out - 1] = c % 2 == 0 ? kInf : -kInf;
      }
    }
  }
  std::vector<float> image, gout, filter, bias, dfilter_seed, dbias_seed;
};

/// The parent loops of one table, one plane at a time.
struct ParentResults {
  std::vector<float> out, din, dfilter, dbias;
};

ParentResults run_parent(KernelKind kind, const kernels::DwGeometry& g,
                         std::size_t channels, const Operands& ops) {
  const kernels_test::ParentDwPlan plan =
      kernels_test::parent_dw_plan({g.in_h, g.in_w, g.kernel, g.stride, g.pad});
  const bool avx2 = kind == KernelKind::kAvx2;
  const std::size_t plane_in = g.in_h * g.in_w;
  const std::size_t plane_out = g.out_h() * g.out_w();
  const std::size_t taps = g.taps();
  ParentResults r{std::vector<float>(channels * plane_out),
                  std::vector<float>(channels * plane_in), ops.dfilter_seed,
                  ops.dbias_seed};
  std::vector<float> scratch(plan.scratch_floats);
  for (std::size_t c = 0; c < channels; ++c) {
    const float* in = ops.image.data() + c * plane_in;
    const float* gout = ops.gout.data() + c * plane_out;
    const float* filter = ops.filter.data() + c * taps;
    if (avx2) {
      kernels_test::dw_parent_forward_avx2(plan, in, filter, ops.bias[c],
                                           r.out.data() + c * plane_out, scratch.data());
      kernels_test::dw_parent_input_grad_avx2(plan, gout, filter,
                                              r.din.data() + c * plane_in, scratch.data());
      kernels_test::dw_parent_weight_grad_avx2(plan, in, gout, r.dfilter.data() + c * taps,
                                               &r.dbias[c], scratch.data());
    } else {
      kernels_test::dw_parent_forward_scalar(plan, in, filter, ops.bias[c],
                                             r.out.data() + c * plane_out, scratch.data());
      kernels_test::dw_parent_input_grad_scalar(plan, gout, filter,
                                                r.din.data() + c * plane_in, scratch.data());
      kernels_test::dw_parent_weight_grad_scalar(plan, in, gout, r.dfilter.data() + c * taps,
                                                 &r.dbias[c], scratch.data());
    }
  }
  return r;
}

std::string describe(KernelKind kind, const kernels::DwGeometry& g, std::size_t channels) {
  return std::string(kernels::kernel_name(kind)) + " " + std::to_string(channels) + "ch " +
         std::to_string(g.in_h) + "x" + std::to_string(g.in_w) + " k" +
         std::to_string(g.kernel) + " s" + std::to_string(g.stride) + " p" +
         std::to_string(g.pad);
}

TEST(DwChecker, RunsMatchParentLoopsBitForBit) {
  constexpr std::size_t kLanes = kernels::kDwLanes;
  for (const kernels::DwGeometry& g : geometries()) {
    const std::size_t plane_in = g.in_h * g.in_w;
    const std::size_t plane_out = g.out_h() * g.out_w();
    const std::size_t taps = g.taps();
    for (const std::size_t channels : {1, 3, 7, 8, 9, 12, 64}) {
      Rng rng(g.in_h * 131 + g.in_w * 17 + g.kernel * 5 + g.stride * 3 + g.pad +
              channels * 1009);
      const Operands ops(g, channels, rng);
      const std::size_t runs = (channels + kLanes - 1) / kLanes;
      std::vector<float> packed(runs * kernels::dw_run_floats(g));
      kernels::dw_pack_filters(g, channels, ops.filter.data(), ops.bias.data(),
                               packed.data());
      for (const KernelKind kind : kernels::supported_kernels()) {
        const kernels::KernelTable& table = kernels::kernel_table(kind);
        const std::string what = describe(kind, g, channels);
        const ParentResults ref = run_parent(kind, g, channels, ops);
        Guarded out(channels * plane_out), din(channels * plane_in);
        Guarded dfilter(channels * taps), dbias(channels);
        std::copy(ops.dfilter_seed.begin(), ops.dfilter_seed.end(), dfilter.data());
        std::copy(ops.dbias_seed.begin(), ops.dbias_seed.end(), dbias.data());
        Guarded scratch(kernels::dw_scratch_floats(g));
        for (std::size_t r = 0; r < runs; ++r) {
          const std::size_t c = r * kLanes;
          const std::size_t lanes = std::min(kLanes, channels - c);
          const float* run = packed.data() + r * kernels::dw_run_floats(g);
          table.dw_forward(g, lanes, ops.image.data() + c * plane_in, run,
                           out.data() + c * plane_out, scratch.data());
          table.dw_input_grad(g, lanes, ops.gout.data() + c * plane_out, run,
                              din.data() + c * plane_in, scratch.data());
          table.dw_weight_grad(g, lanes, ops.image.data() + c * plane_in,
                               ops.gout.data() + c * plane_out, dfilter.data() + c * taps,
                               dbias.data() + c, scratch.data());
        }
        EXPECT_TRUE(bit_equal_or_nan(out.data(), ref.out.data(), ref.out.size()))
            << "forward, " << what;
        EXPECT_TRUE(bit_equal_or_nan(din.data(), ref.din.data(), ref.din.size()))
            << "input gradient, " << what;
        EXPECT_TRUE(bit_equal_or_nan(dfilter.data(), ref.dfilter.data(), ref.dfilter.size()))
            << "filter gradient, " << what;
        EXPECT_TRUE(bit_equal_or_nan(dbias.data(), ref.dbias.data(), ref.dbias.size()))
            << "bias gradient, " << what;
        for (const Guarded* b : {&out, &din, &dfilter, &dbias, &scratch}) {
          EXPECT_TRUE(b->guards_intact()) << "guard overwritten, " << what;
        }
      }
    }
  }
}

TEST(DwChecker, KernelsMatchIm2colPath) {
  // Finite operands: the im2col path multiplies a zero filter tap by an
  // Inf gradient where the depthwise kernels add +0.
  for (const kernels::DwGeometry& g : geometries()) {
    const ConvGeometry cg{1, g.in_h, g.in_w, g.kernel, g.stride, g.pad};
    const std::size_t pr = cg.patch_rows();
    const std::size_t pc = cg.patch_cols();
    Rng rng(g.in_h * 131 + g.in_w * 17 + g.kernel * 5 + g.stride * 3 + g.pad);
    std::vector<float> image(g.in_h * g.in_w), filter(pr), gout(pc), dfilter_seed(pr);
    for (auto* v : {&image, &filter, &gout, &dfilter_seed}) {
      for (float& x : *v) x = rng.normal();
    }
    const float bias = rng.normal();
    const float dbias_seed = rng.normal();
    std::vector<float> packed(kernels::dw_run_floats(g));
    kernels::dw_pack_filters(g, 1, filter.data(), &bias, packed.data());
    std::vector<float> columns(pr * pc);
    im2col(cg, image.data(), columns.data());
    std::vector<float> scratch(kernels::dw_scratch_floats(g), kNaN);
    for (const KernelKind kind : kernels::supported_kernels()) {
      const kernels::KernelTable& table = kernels::kernel_table(kind);
      const std::string what = describe(kind, g, 1);
      std::vector<float> ref(pc);
      table.nn(0, 1, 1, pc, pr, filter.data(), columns.data(), ref.data(), false);
      for (float& v : ref) v += bias;
      std::vector<float> got(pc, kNaN);
      table.dw_forward(g, 1, image.data(), packed.data(), got.data(), scratch.data());
      EXPECT_TRUE(bit_equal(got.data(), ref.data(), pc)) << "forward, " << what;

      std::vector<float> grad_columns(pr * pc);
      table.tn(0, pr, pr, pc, 1, filter.data(), gout.data(), grad_columns.data(), false);
      std::vector<float> ref_din(g.in_h * g.in_w, 0.0F);
      col2im(cg, grad_columns.data(), ref_din.data());
      std::vector<float> din(ref_din.size(), kNaN);
      table.dw_input_grad(g, 1, gout.data(), packed.data(), din.data(), scratch.data());
      EXPECT_TRUE(bit_equal(din.data(), ref_din.data(), din.size()))
          << "input gradient, " << what;

      std::vector<float> dots(pr);
      table.nt(0, 1, 1, pr, pc, gout.data(), columns.data(), dots.data(), false);
      std::vector<float> ref_dw = dfilter_seed;
      for (std::size_t t = 0; t < pr; ++t) ref_dw[t] += dots[t];
      float sum = 0.0F;
      for (const float v : gout) sum += v;
      const float ref_db = dbias_seed + sum;
      std::vector<float> dw = dfilter_seed;
      float db = dbias_seed;
      table.dw_weight_grad(g, 1, image.data(), gout.data(), dw.data(), &db, scratch.data());
      kernels_test::expect_allclose(dw.data(), ref_dw.data(), pr, pc,
                                    "filter gradient, " + what);
      kernels_test::expect_allclose(&db, &ref_db, 1, pc, "bias gradient, " + what);
      if (kind == KernelKind::kScalar) {
        EXPECT_TRUE(bit_equal(dw.data(), ref_dw.data(), pr)) << "filter gradient, " << what;
        EXPECT_TRUE(bit_equal(&db, &ref_db, 1)) << "bias gradient, " << what;
      }
    }
  }
}

}  // namespace
}  // namespace tdfm
