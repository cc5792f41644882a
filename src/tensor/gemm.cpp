#include "tensor/gemm.hpp"

#include <algorithm>

#include "core/thread_pool.hpp"
#include "kernels/kernels.hpp"
#include "obs/metrics.hpp"

namespace tdfm {

namespace {

// FLOP accounting for the §IV-E overhead analysis.  One branch on the
// disabled path; enabled increments go to the calling thread's shard, so
// kernels running inside pool workers stay uncontended.
void count_gemm(std::size_t m, std::size_t n, std::size_t k) {
  if (!obs::metrics_enabled()) return;
  static obs::Counter calls = obs::Registry::global().counter("gemm.calls");
  static obs::Counter flops = obs::Registry::global().counter("gemm.flops");
  calls.add(1);
  flops.add(2 * m * n * k);
}

// Minimum FLOPs a parallel chunk should carry; below this the scheduling
// overhead outweighs the work, so small GEMMs stay on one thread.
constexpr std::size_t kMinFlopsPerChunk = 1U << 19;

// Rows of C per parallel chunk.  Every kernel keeps each row's arithmetic
// independent of the partition (see kernels/kernels.hpp), so any grain
// yields bit-identical results — the choice is about amortising scheduling
// overhead, and about keeping chunk edges on the kernels' row tiles: a
// grain above kernels::kGemmRowTile is cut to a multiple of it.
std::size_t row_grain(std::size_t m, std::size_t n, std::size_t k) {
  const std::size_t flops_per_row = 2 * n * k;
  if (flops_per_row == 0) return m;
  const std::size_t grain =
      std::clamp<std::size_t>(kMinFlopsPerChunk / flops_per_row, 1, std::max<std::size_t>(m, 1));
  constexpr std::size_t tile = kernels::kGemmRowTile;
  return grain > tile ? grain - grain % tile : grain;
}
}  // namespace

void gemm_nn(std::size_t m, std::size_t n, std::size_t k, const float* a,
             const float* b, float* c, bool accumulate) {
  count_gemm(m, n, k);
  const auto fn = kernels::active_table().nn;
  core::parallel_for(0, m, row_grain(m, n, k), [=](std::size_t r0, std::size_t r1) {
    fn(r0, r1, m, n, k, a, b, c, accumulate);
  });
}

void gemm_nt(std::size_t m, std::size_t n, std::size_t k, const float* a,
             const float* b, float* c, bool accumulate) {
  count_gemm(m, n, k);
  const auto fn = kernels::active_table().nt;
  core::parallel_for(0, m, row_grain(m, n, k), [=](std::size_t r0, std::size_t r1) {
    fn(r0, r1, m, n, k, a, b, c, accumulate);
  });
}

void gemm_tn(std::size_t m, std::size_t n, std::size_t k, const float* a,
             const float* b, float* c, bool accumulate) {
  count_gemm(m, n, k);
  const auto fn = kernels::active_table().tn;
  core::parallel_for(0, m, row_grain(m, n, k), [=](std::size_t r0, std::size_t r1) {
    fn(r0, r1, m, n, k, a, b, c, accumulate);
  });
}

void gemm_nn_patches(std::size_t m, const float* a, const InPlacePatches& patches,
                     const float* bordered, float* c) {
  const std::size_t n = patches.pixels();
  const std::size_t k = patches.taps();
  count_gemm(m, n, k);
  const auto fn = kernels::active_table().nn_conv;
  const kernels::ConvPatches b = patches.view(bordered);
  core::parallel_for(0, m, row_grain(m, n, k), [=](std::size_t r0, std::size_t r1) {
    fn(r0, r1, n, k, a, b, c, /*accumulate=*/false);
  });
}

void gemm_nt_patches(std::size_t m, const float* a, const InPlacePatches& patches,
                     const float* bordered, float* c) {
  const std::size_t n = patches.taps();
  const std::size_t k = patches.pixels();
  count_gemm(m, n, k);
  const auto fn = kernels::active_table().nt_conv;
  const kernels::ConvPatches b = patches.view(bordered);
  core::parallel_for(0, m, row_grain(m, n, k), [=](std::size_t r0, std::size_t r1) {
    fn(r0, r1, n, k, a, b, c, /*accumulate=*/false);
  });
}

}  // namespace tdfm
