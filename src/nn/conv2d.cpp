#include "nn/conv2d.hpp"

#include <algorithm>
#include <cstring>
#include <vector>

#include "core/thread_pool.hpp"
#include "kernels/kernels.hpp"
#include "nn/channel_lanes.hpp"
#include "obs/metrics.hpp"
#include "tensor/gemm.hpp"
#include "tensor/init.hpp"
#include "tensor/qgemm.hpp"

namespace tdfm::nn {

// Conv2D: im2col + GEMM over groups of images.  An image's patch matrix has
// one column per output pixel, so on the small planes deep in the model zoo
// (4x4, 2x2, 1x1) a per-image GEMM is a handful of columns wide and the
// weight gradient a dot product of length 16 or less: call overhead, not
// arithmetic.  Such images are therefore batched side by side into one patch
// matrix [C*k*k, G*out_h*out_w] (im2col's row_stride/col_offset layout) with
// G = ceil(64 / plane) images, so every GEMM spans at least 64 columns.
// Planes of 64 px or more keep G = 1, the per-image path: there each patch
// matrix already stays resident in L1/L2 across the three GEMMs that touch
// it, which beats batching the whole batch into one wide, cache-evicting
// GEMM (measured ~25% faster end to end on a single core).  Every nn kernel
// computes an output element the same way wherever its column sits, so the
// grouped forward pass is bit-identical to per-image GEMMs at every kernel
// table.  The gradients may round differently: the weight gradient's dot
// products get longer, and the avx2 tn kernel rounds its tail columns
// (mul, add) unlike its full vectors (FMA).  A quantized Conv2D groups the
// same way, stacking the group's im2row patch rows into one q8 matrix for
// one quantize + one int8 GEMM; q8 outputs depend only on their own weight
// and patch rows, so that grouping is bit-identical at every table too.
// Per-image groups of a stride-1 conv whose output plane is the size of its
// input (2*pad + 1 == k) with output rows of whole 8-pixel blocks, every conv
// of ConvNet and DeconvNet among them, build no patch matrix: tap row
// (c, ky, kx) of output pixel (y, x) is cell (c, y + ky, x + kx) of the
// image's copy with a pad-wide border of +0.0f, so gemm_nn_patches and
// gemm_nt_patches (tensor/gemm.hpp) address it there, and with pad 0 the
// copy is the image itself.  A training forward writes the copies'
// interiors into the cache backward reads (the border is the zero fill of
// the cache's allocation, which later forwards of the same shape reuse), so
// neither pass runs im2col or holds a patch buffer.  The cells are the
// values im2col copies and the 0.0F it writes, and the GEMMs repeat the nn
// and nt chains of their table, so outputs and gradients are the bits of
// im2col + gemm_nn / gemm_nt.  The input gradient keeps gemm_tn + col2im.
// A fused ReLU (ConvNet's and DeconvNet's Conv2D->ReLU pairs) runs in the
// pass that adds the bias to each output plane, fp32 and q8 alike, and its
// backward in the copy that stages each group's dY, so the pair needs no
// tensor of its own: it computes what Conv2D then ReLU computed, bit for bit.
//
// DepthwiseConv2D: the direct sliding-window kernels of the kernel table
// (kernels/kernels.hpp), one image's run of kernels::kDwLanes channels per
// call — no patch matrix at all.  The filters are packed into runs once per
// layer call.
//
// Parallelism (core/thread_pool.hpp) splits the work into fixed units —
// image groups for Conv2D, images (forward) or channel runs (backward) for
// DepthwiseConv2D — whose boundaries depend on the shapes only, never on the
// thread count.  Outputs and input gradients are disjoint per unit.  Conv2D
// weight/bias gradients are a sum over groups: each group's contribution is
// written to its own scratch slice in parallel, then the slices are reduced
// into the parameter gradients serially in group order — the exact addition
// sequence of the single-threaded loop.  Depthwise weight/bias gradients are
// per channel, so the task owning a channel run accumulates its images in
// image order directly.

namespace {
// Units per parallel chunk: aim for a handful of chunks per thread so the
// scheduler can balance uneven progress without drowning in tiny tasks.
std::size_t unit_grain(std::size_t units) {
  const std::size_t threads = core::ThreadPool::global_threads();
  return std::max<std::size_t>(1, units / (threads * 4));
}

// Images per Conv2D GEMM group: enough that one GEMM spans at least 64
// output columns; 1 (the per-image path) for planes of 64 px or more.
constexpr std::size_t kMinGroupColumns = 64;
std::size_t group_images(std::size_t plane) {
  return plane >= kMinGroupColumns ? 1 : (kMinGroupColumns + plane - 1) / plane;
}

// Convolution-level FLOP accounting (the im2col GEMMs also count under
// gemm.flops; conv.flops isolates the convolution layers' share).
void count_conv(std::size_t images, std::size_t flops_per_image) {
  if (!obs::metrics_enabled()) return;
  static obs::Counter conv_images = obs::Registry::global().counter("conv.images");
  static obs::Counter conv_flops = obs::Registry::global().counter("conv.flops");
  conv_images.add(images);
  conv_flops.add(images * flops_per_image);
}

kernels::DwGeometry plane_geometry(const ConvGeometry& g) {
  return {g.in_h, g.in_w, g.kernel, g.stride, g.pad};
}
}  // namespace

Conv2D::Conv2D(std::size_t in_c, std::size_t out_c, std::size_t in_h,
               std::size_t in_w, std::size_t kernel, std::size_t stride,
               std::size_t pad, Rng& rng, bool fuse_relu)
    : geom_{in_c, in_h, in_w, kernel, stride, pad},
      out_c_(out_c),
      relu_(fuse_relu),
      weight_(Shape{out_c, in_c * kernel * kernel}),
      bias_(Shape{out_c}) {
  TDFM_CHECK(in_h + 2 * pad >= kernel && in_w + 2 * pad >= kernel,
             "kernel larger than padded input");
  he_normal(weight_.value, geom_.patch_rows(), rng);
  if (reads_in_place(geom_) && group_images(geom_.patch_cols()) == 1) {
    in_place_.emplace(geom_);
  }
}

Tensor Conv2D::forward(const Tensor& input, bool training) {
  TDFM_CHECK(input.rank() == 4 && input.dim(1) == geom_.in_c &&
                 input.dim(2) == geom_.in_h && input.dim(3) == geom_.in_w,
             "Conv2D input shape mismatch");
  const std::size_t batch = input.dim(0);
  const std::size_t pr = geom_.patch_rows();
  const std::size_t pc = geom_.patch_cols();
  Tensor out(Shape{batch, out_c_, geom_.out_h(), geom_.out_w()});
  const std::size_t in_stride = geom_.in_c * geom_.in_h * geom_.in_w;
  const std::size_t out_stride = out_c_ * pc;
  count_conv(batch, 2 * out_c_ * pr * pc);
  // Only a training-mode forward keeps the input (copied into the cache's
  // storage) and the fused ReLU's mask for backward.  On the in-place path
  // with pad > 0 the cache holds the images' bordered copies instead, which
  // backward reads too; a cache of the same shape is reused, since its
  // border cells still hold +0.0f.  An eval forward writes no member: it
  // borders into chunk-local scratch.
  const bool keep = training && !quantized_;
  const bool in_place = in_place_.has_value() && !quantized_;
  const bool bordered = in_place && geom_.pad > 0;
  const std::size_t cached_stride = bordered ? in_place_->bordered_floats() : in_stride;
  if (keep && !bordered) {
    cached_input_ = input;
  } else if (keep) {
    const Shape shape{batch, geom_.in_c, geom_.in_h + 2 * geom_.pad,
                      geom_.in_w + 2 * geom_.pad};
    if (cached_input_.shape() != shape) cached_input_ = Tensor(shape);
  }
  if (keep && relu_) relu_mask_.resize(out.numel());
  const std::size_t group = group_images(pc);
  const std::size_t groups = (batch + group - 1) / group;
  // A group's GEMM output C[out_c, images*pc] is its output planes side by
  // side; copy them out adding the bias, then applying the fused ReLU and
  // recording its mask y > 0 (in place when C is the one image's output).
  // Element j reads src[j] and writes plane[j] and mask[j] alone (ivdep: no
  // other iteration's, even when src is plane), so the loops vectorize in
  // place; the loop bound is a local the byte stores cannot alias.
  const auto store_planes = [&](const float* c, std::size_t b0, std::size_t images) {
    const std::size_t n = pc;
    const std::size_t cols = images * n;
    for (std::size_t i = 0; i < images; ++i) {
      for (std::size_t oc = 0; oc < out_c_; ++oc) {
        const float* src = c + oc * cols + i * n;
        const std::size_t offset = (b0 + i) * out_stride + oc * n;
        float* plane = out.data() + offset;
        const float bv = bias_.value[oc];
        if (!relu_) {
#pragma GCC ivdep
          for (std::size_t j = 0; j < n; ++j) plane[j] = src[j] + bv;
        } else if (keep) {
          std::uint8_t* __restrict__ mask = relu_mask_.data() + offset;
#pragma GCC ivdep
          for (std::size_t j = 0; j < n; ++j) {
            const float y = src[j] + bv;
            plane[j] = y > 0.0F ? y : 0.0F;
            mask[j] = y > 0.0F ? 1 : 0;
          }
        } else {
#pragma GCC ivdep
          for (std::size_t j = 0; j < n; ++j) {
            const float y = src[j] + bv;
            plane[j] = y > 0.0F ? y : 0.0F;
          }
        }
      }
    }
  };
  core::parallel_for(0, groups, unit_grain(groups), [&](std::size_t g0, std::size_t g1) {
    // Chunk-local scratch, reused by every group of the chunk; a group's
    // GEMM output is staged only when it spans several images.
    std::vector<float> patches(in_place ? 0 : pr * group * pc);
    std::vector<float> scratch(bordered && !keep ? cached_stride : 0);
    std::vector<float> staged(group > 1 ? out_c_ * group * pc : 0);
    kernels::Q8Matrix qpatches;
    for (std::size_t gi = g0; gi < g1; ++gi) {
      const std::size_t b0 = gi * group;
      const std::size_t images = std::min(group, batch - b0);
      const std::size_t cols = images * pc;
      float* c = group > 1 ? staged.data() : out.data() + b0 * out_stride;
      if (quantized_) {
        // int8: the images' patch rows (tap order matching the weight rows)
        // stack into one [cols, pr] matrix, quantized row-wise; weight rows
        // block-dot against it.  An output depends only on its weight row
        // and its own patch row, so grouping changes no bit.
        for (std::size_t i = 0; i < images; ++i) {
          im2row(geom_, input.data() + (b0 + i) * in_stride,
                 patches.data() + i * pc * pr);
        }
        kernels::quantize_rows_q8(patches.data(), cols, pr, qpatches);
        gemm_q8_nt(qweight_, qpatches, c);
      } else if (in_place) {
        // One image: C[out_c, pc] = W[out_c, pr] * its patches, read in place.
        const float* image = input.data() + b0 * in_stride;
        if (bordered) {
          float* copy = keep ? cached_input_.data() + b0 * cached_stride : scratch.data();
          in_place_->fill_interior(image, copy);
          image = copy;
        }
        gemm_nn_patches(out_c_, weight_.value.data(), *in_place_, image, c);
      } else {
        for (std::size_t i = 0; i < images; ++i) {
          im2col(geom_, input.data() + (b0 + i) * in_stride, patches.data(),
                 cols, i * pc);
        }
        // C[out_c, cols] = W[out_c, pr] * columns[pr, cols]
        gemm_nn(out_c_, cols, pr, weight_.value.data(), patches.data(), c);
      }
      store_planes(c, b0, images);
    }
  });
  return out;
}

Tensor Conv2D::backward(const Tensor& grad_output) {
  TDFM_CHECK(!quantized_, "Conv2D: backward on a quantized (forward-only) layer");
  TDFM_CHECK(cached_input_.rank() == 4,
             "Conv2D: backward without a training-mode forward");
  const std::size_t batch = cached_input_.dim(0);
  const std::size_t oh = geom_.out_h();
  const std::size_t ow = geom_.out_w();
  const std::size_t pr = geom_.patch_rows();
  const std::size_t pc = geom_.patch_cols();
  TDFM_CHECK(grad_output.rank() == 4 && grad_output.dim(0) == batch &&
                 grad_output.dim(1) == out_c_ && grad_output.dim(2) == oh &&
                 grad_output.dim(3) == ow,
             "Conv2D grad_output shape mismatch");
  Tensor grad_input =
      input_grad_ ? Tensor(Shape{batch, geom_.in_c, geom_.in_h, geom_.in_w}) : Tensor();
  const std::size_t in_stride = geom_.in_c * geom_.in_h * geom_.in_w;
  // Per image of the cache: the input, or its bordered copy (forward).
  const std::size_t cached_stride =
      in_place_.has_value() && geom_.pad > 0 ? in_place_->bordered_floats() : in_stride;
  const std::size_t out_stride = out_c_ * pc;
  const std::size_t group = group_images(pc);
  const std::size_t groups = (batch + group - 1) / group;
  // Per-group dW/db contributions land in disjoint scratch slices; reduced
  // serially below in group order so every thread count adds in the same
  // sequence as the single-threaded loop.
  const std::size_t wsize = out_c_ * pr;
  const std::size_t slice = wsize + out_c_;
  grad_scratch_.resize(groups * slice);
  // The group's dY is staged when it spans several images, and always with
  // the fused ReLU, whose backward is applied in that copy.
  const bool stage = group > 1 || relu_;
  core::parallel_for(0, groups, unit_grain(groups), [&](std::size_t g0, std::size_t g1) {
    std::vector<float> columns(in_place_ ? 0 : pr * group * pc);
    std::vector<float> grad_columns(input_grad_ ? pr * group * pc : 0);
    std::vector<float> staged(stage ? out_c_ * group * pc : 0);
    for (std::size_t gi = g0; gi < g1; ++gi) {
      const std::size_t b0 = gi * group;
      const std::size_t images = std::min(group, batch - b0);
      const std::size_t cols = images * pc;
      // dY[out_c, cols]: the group's output-gradient planes side by side,
      // times the fused ReLU's m (ReLU::backward's dy * m).
      const float* gout = grad_output.data() + b0 * out_stride;
      if (stage) {
        for (std::size_t oc = 0; oc < out_c_; ++oc) {
          for (std::size_t i = 0; i < images; ++i) {
            const std::size_t offset = i * out_stride + oc * pc;
            float* dst = staged.data() + oc * cols + i * pc;
            if (relu_) {
              const std::uint8_t* mask = relu_mask_.data() + b0 * out_stride + offset;
              for (std::size_t j = 0; j < pc; ++j) {
                dst[j] = gout[offset + j] * (mask[j] != 0 ? 1.0F : 0.0F);
              }
            } else {
              std::memcpy(dst, gout + offset, pc * sizeof(float));
            }
          }
        }
        gout = staged.data();
      }
      float* dw = grad_scratch_.data() + gi * slice;
      float* db = dw + wsize;
      // dW_g[out_c, pr] = dY[out_c, cols] * columns[pr, cols]^T, the one
      // image's columns read in place, or the patch matrix recomputed
      // (cheaper than caching one per batch image).
      if (in_place_) {
        gemm_nt_patches(out_c_, gout, *in_place_,
                        cached_input_.data() + b0 * cached_stride, dw);
      } else {
        for (std::size_t i = 0; i < images; ++i) {
          im2col(geom_, cached_input_.data() + (b0 + i) * in_stride,
                 columns.data(), cols, i * pc);
        }
        gemm_nt(out_c_, pr, cols, gout, columns.data(), dw, /*accumulate=*/false);
      }
      // db_g[oc] = the sum of dY row oc, one chain over the columns in
      // order, for 8 channels side by side.
      for (std::size_t oc = 0; oc < out_c_; oc += channel_lanes::kLanes) {
        channel_lanes::sums(gout + oc * cols, cols,
                            std::min(channel_lanes::kLanes, out_c_ - oc), db + oc);
      }
      if (!input_grad_) continue;
      // dColumns[pr, cols] = W[out_c, pr]^T * dY[out_c, cols]
      gemm_tn(pr, cols, out_c_, weight_.value.data(), gout, grad_columns.data());
      for (std::size_t i = 0; i < images; ++i) {
        col2im(geom_, grad_columns.data(),
               grad_input.data() + (b0 + i) * in_stride, cols, i * pc);
      }
    }
  });
  // Fixed-order reduction: identical bits regardless of thread count.
  float* wgrad = weight_.grad.data();
  float* bgrad = bias_.grad.data();
  for (std::size_t gi = 0; gi < groups; ++gi) {
    const float* dw = grad_scratch_.data() + gi * slice;
    for (std::size_t i = 0; i < wsize; ++i) wgrad[i] += dw[i];
    const float* db = dw + wsize;
    for (std::size_t oc = 0; oc < out_c_; ++oc) bgrad[oc] += db[oc];
  }
  return grad_input;
}

void Conv2D::quantize_for_inference() {
  if (quantized_) return;
  kernels::quantize_rows_q8(weight_.value.data(), out_c_, geom_.patch_rows(),
                            qweight_);
  weight_.value = Tensor();
  weight_.grad = Tensor();
  cached_input_ = Tensor();
  relu_mask_ = {};
  grad_scratch_.clear();
  grad_scratch_.shrink_to_fit();
  quantized_ = true;
}

std::string Conv2D::name() const {
  return "Conv2D(" + std::to_string(geom_.in_c) + "->" + std::to_string(out_c_) +
         ", k" + std::to_string(geom_.kernel) + " s" + std::to_string(geom_.stride) +
         " p" + std::to_string(geom_.pad) + (relu_ ? ", ReLU)" : ")");
}

DepthwiseConv2D::DepthwiseConv2D(std::size_t channels, std::size_t in_h,
                                 std::size_t in_w, std::size_t kernel,
                                 std::size_t stride, std::size_t pad, Rng& rng)
    : geom_{1, in_h, in_w, kernel, stride, pad},
      channels_(channels),
      weight_(Shape{channels, kernel * kernel}),
      bias_(Shape{channels}) {
  TDFM_CHECK(in_h + 2 * pad >= kernel && in_w + 2 * pad >= kernel,
             "kernel larger than padded input");
  he_normal(weight_.value, kernel * kernel, rng);
}

Tensor DepthwiseConv2D::forward(const Tensor& input, bool training) {
  TDFM_CHECK(input.rank() == 4 && input.dim(1) == channels_ &&
                 input.dim(2) == geom_.in_h && input.dim(3) == geom_.in_w,
             "DepthwiseConv2D input shape mismatch");
  // Quantized mode is fake-quant (weights already rounded through q8_0 at
  // quantize time), so the same fp32 loop serves both paths.  Only a
  // training-mode forward keeps the input for backward.
  if (training && !quantized_) cached_input_ = input;
  const std::size_t batch = input.dim(0);
  const std::size_t pr = geom_.patch_rows();  // k*k (single channel)
  const std::size_t pc = geom_.patch_cols();
  Tensor out(Shape{batch, channels_, geom_.out_h(), geom_.out_w()});
  const std::size_t plane_in = geom_.in_h * geom_.in_w;
  count_conv(batch, 2 * channels_ * pr * pc);
  const kernels::DwGeometry g = plane_geometry(geom_);
  constexpr std::size_t kLanes = kernels::kDwLanes;
  const std::size_t run_floats = kernels::dw_run_floats(g);
  std::vector<float> packed((channels_ + kLanes - 1) / kLanes * run_floats);
  kernels::dw_pack_filters(g, channels_, weight_.value.data(), bias_.value.data(),
                           packed.data());
  const kernels::DwForwardFn fn = kernels::active_table().dw_forward;
  core::parallel_for(0, batch, unit_grain(batch), [&](std::size_t b0, std::size_t b1) {
    std::vector<float> scratch(kernels::dw_scratch_floats(g));
    for (std::size_t b = b0; b < b1; ++b) {
      for (std::size_t c = 0; c < channels_; c += kLanes) {
        const std::size_t p = b * channels_ + c;
        fn(g, std::min(kLanes, channels_ - c), input.data() + p * plane_in,
           packed.data() + c / kLanes * run_floats, out.data() + p * pc,
           scratch.data());
      }
    }
  });
  return out;
}

Tensor DepthwiseConv2D::backward(const Tensor& grad_output) {
  TDFM_CHECK(!quantized_,
             "DepthwiseConv2D: backward on a quantized (forward-only) layer");
  TDFM_CHECK(cached_input_.rank() == 4,
             "DepthwiseConv2D: backward without a training-mode forward");
  const std::size_t batch = cached_input_.dim(0);
  const std::size_t pr = geom_.patch_rows();
  const std::size_t pc = geom_.patch_cols();
  TDFM_CHECK(grad_output.rank() == 4 && grad_output.dim(0) == batch &&
                 grad_output.dim(1) == channels_ &&
                 grad_output.dim(2) == geom_.out_h() &&
                 grad_output.dim(3) == geom_.out_w(),
             "DepthwiseConv2D grad_output shape mismatch");
  Tensor grad_input(cached_input_.shape());
  const std::size_t plane_in = geom_.in_h * geom_.in_w;
  const kernels::DwGeometry g = plane_geometry(geom_);
  constexpr std::size_t kLanes = kernels::kDwLanes;
  const std::size_t runs = (channels_ + kLanes - 1) / kLanes;
  const std::size_t run_floats = kernels::dw_run_floats(g);
  std::vector<float> packed(runs * run_floats);
  kernels::dw_pack_filters(g, channels_, weight_.value.data(), bias_.value.data(),
                           packed.data());
  const kernels::KernelTable& table = kernels::active_table();
  // One task owns whole channel runs: it accumulates the run's filter and
  // bias gradients over the images in image order, the serial loop's
  // addition sequence, so no per-image scratch or reduction pass is needed.
  core::parallel_for(0, runs, unit_grain(runs), [&](std::size_t r0, std::size_t r1) {
    std::vector<float> scratch(kernels::dw_scratch_floats(g));
    for (std::size_t r = r0; r < r1; ++r) {
      const std::size_t c = r * kLanes;
      const std::size_t lanes = std::min(kLanes, channels_ - c);
      const float* run = packed.data() + r * run_floats;
      for (std::size_t b = 0; b < batch; ++b) {
        const std::size_t p = b * channels_ + c;
        const float* gout = grad_output.data() + p * pc;
        table.dw_input_grad(g, lanes, gout, run, grad_input.data() + p * plane_in,
                            scratch.data());
        table.dw_weight_grad(g, lanes, cached_input_.data() + p * plane_in, gout,
                             weight_.grad.data() + c * pr, bias_.grad.data() + c,
                             scratch.data());
      }
    }
  });
  return grad_input;
}

void DepthwiseConv2D::quantize_for_inference() {
  if (quantized_) return;
  // Round-trip the filters through q8_0 so accuracy reflects int8 weights;
  // keep them fp32 (each k x k filter is smaller than one q8 block, so real
  // int8 storage would not shrink anything).
  const std::size_t pr = geom_.patch_rows();
  const auto q = kernels::quantize_rows_q8(weight_.value.data(), channels_, pr);
  kernels::dequantize_rows_q8(q, weight_.value.data());
  weight_.grad = Tensor();
  cached_input_ = Tensor();
  quantized_ = true;
}

std::string DepthwiseConv2D::name() const {
  return "DepthwiseConv2D(" + std::to_string(channels_) + "ch, k" +
         std::to_string(geom_.kernel) + " s" + std::to_string(geom_.stride) + ")";
}

}  // namespace tdfm::nn
