// Shared tolerance policy for the kernel checker suite (InferLLM-style:
// every optimized kernel is compared element-wise against the scalar
// reference over randomized shapes, never assumed correct).
//
// fp32 kernels legitimately differ from the reference: FMA keeps an extra
// bit per multiply-add and the vectorized reductions reassociate the
// k-length dot product, so the allowed error grows with the reduction
// length and the magnitude of the result:
//
//   |got - ref| <= 1e-5 + 2e-7 * k + 1e-4 * |ref|
//
// The q8 kernels are NOT given this slack — their block dot is exact
// integer arithmetic with a fixed float accumulation order, so the checker
// compares them with memcmp (bit identity, bit_equal) instead, as it does
// every kernel that repeats another's chain.
#pragma once

#include <gtest/gtest.h>

#include <cmath>
#include <cstddef>
#include <cstring>
#include <string>

#include "core/thread_pool.hpp"
#include "kernels/kernels.hpp"

namespace tdfm::kernels_test {

/// Element-wise closeness with the k-scaled tolerance above.  Reports at
/// most five offending elements per call so a broken kernel does not flood
/// the log with thousands of failures.
inline void expect_allclose(const float* got, const float* ref,
                            std::size_t count, std::size_t k,
                            const std::string& what) {
  const double base = 1e-5 + 2e-7 * static_cast<double>(k);
  std::size_t reported = 0;
  for (std::size_t i = 0; i < count && reported < 5; ++i) {
    const auto g = static_cast<double>(got[i]);
    const auto r = static_cast<double>(ref[i]);
    const double tol = base + 1e-4 * std::fabs(r);
    if (std::fabs(g - r) > tol) {
      ADD_FAILURE() << what << ": element " << i << " got " << g << " want "
                    << r << " (|diff| " << std::fabs(g - r) << " > tol " << tol
                    << ")";
      ++reported;
    }
  }
}

inline bool bit_equal(const float* a, const float* b, std::size_t n) {
  return std::memcmp(a, b, n * sizeof(float)) == 0;
}

/// memcmp-equal, except that any NaN matches any NaN.  When both operands
/// of an add or FMA are NaN, x86 returns the first one, and the compiler
/// may swap the operands of a commutative intrinsic, so which NaN a sum of
/// an Inf * 0 and a propagated NaN keeps is not fixed even for one loop.
inline bool bit_equal_or_nan(const float* a, const float* b, std::size_t n) {
  for (std::size_t i = 0; i < n; ++i) {
    if (std::isnan(a[i]) && std::isnan(b[i])) continue;
    if (std::memcmp(a + i, b + i, sizeof(float)) != 0) return false;
  }
  return true;
}

/// Whether this host runs the avx2 table's 16-lane fp32 GEMMs
/// (gemm_avx512.cpp): AVX2 and FMA plus AVX-512F, DQ and VL, probed here
/// apart from dispatch so a test can check dispatch's choice against it.
inline bool host_runs_16_lanes() {
#if defined(__x86_64__) || defined(__i386__)
  return kernels::kernel_supported(kernels::KernelKind::kAvx2) &&
         __builtin_cpu_supports("avx512f") != 0 &&
         __builtin_cpu_supports("avx512dq") != 0 &&
         __builtin_cpu_supports("avx512vl") != 0;
#else
  return false;
#endif
}

/// Restores the active kernel (and lets a test switch it) RAII-style, so a
/// failing assertion cannot leak a forced kernel into later tests.
class KernelGuard {
 public:
  KernelGuard() : saved_(kernels::active_kernel()) {}
  ~KernelGuard() { kernels::set_active_kernel(saved_); }
  KernelGuard(const KernelGuard&) = delete;
  KernelGuard& operator=(const KernelGuard&) = delete;

 private:
  kernels::KernelKind saved_;
};

/// Same, for the global thread count.
class ThreadGuard {
 public:
  ThreadGuard() : saved_(core::ThreadPool::global_threads()) {}
  ~ThreadGuard() { core::ThreadPool::set_global_threads(saved_); }
  ThreadGuard(const ThreadGuard&) = delete;
  ThreadGuard& operator=(const ThreadGuard&) = delete;

 private:
  std::size_t saved_;
};

}  // namespace tdfm::kernels_test
