#include "kernels/kernels.hpp"

#include <atomic>
#include <cstdlib>
#include <stdexcept>
#include <string>

#include "kernels/gemm_kernels.hpp"

namespace tdfm::kernels {

namespace {

constexpr KernelTable kScalarTable{
    gemm_nn_rows_scalar,      gemm_nt_rows_scalar,      gemm_tn_rows_scalar,
    gemm_nn_conv_rows_scalar, gemm_nt_conv_rows_scalar, gemm_q8_rows_scalar,
    quantize_q8_rows_scalar,  dw_forward_scalar,        dw_input_grad_scalar,
    dw_weight_grad_scalar,    col2im_s1_scalar};
constexpr KernelTable kAvx2Table{
    gemm_nn_rows_avx2,        gemm_nt_rows_avx2,        gemm_tn_rows_avx2,
    gemm_nn_conv_rows_avx2,   gemm_nt_conv_rows_avx2,   gemm_q8_rows_avx2,
    quantize_q8_rows_avx2,    dw_forward_avx2,          dw_input_grad_avx2,
    dw_weight_grad_avx2,      col2im_s1_avx2};
// The avx2 table with its fp32 GEMMs 16 lanes wide: the same chains, so the
// same bits (kernels/gemm_tiles.hpp).  The q8, depthwise and col2im entries
// keep their 8-lane code (the depthwise runs are kDwLanes channels wide by
// layout).
constexpr KernelTable kAvx2x16Table{
    gemm_nn_rows_avx512,      gemm_nt_rows_avx512,      gemm_tn_rows_avx512,
    gemm_nn_conv_rows_avx512, gemm_nt_conv_rows_avx512, gemm_q8_rows_avx2,
    quantize_q8_rows_avx2,    dw_forward_avx2,          dw_input_grad_avx2,
    dw_weight_grad_avx2,      col2im_s1_avx2};

// Whether the host runs the 16-lane entries: AVX-512F, DQ and VL, with the
// ZMM state enabled by the OS (libgcc's cpuid probe checks XCR0 too).
bool wide_lanes() {
#if defined(__x86_64__) || defined(__i386__)
  static const bool wide = kernel_supported(KernelKind::kAvx2) &&
                           __builtin_cpu_supports("avx512f") != 0 &&
                           __builtin_cpu_supports("avx512dq") != 0 &&
                           __builtin_cpu_supports("avx512vl") != 0;
  return wide;
#else
  return false;
#endif
}

// -1 = not yet resolved.  Resolution is idempotent (env + cpuid are fixed),
// so a racing first call is benign: both writers store the same value.
std::atomic<int> g_active{-1};

KernelKind best_supported() {
  if (kernel_supported(KernelKind::kAvx2)) return KernelKind::kAvx2;
  return KernelKind::kScalar;
}

KernelKind resolve_from_env() {
  const char* env = std::getenv("TDFM_KERNEL");
  if (env == nullptr || *env == '\0') return best_supported();
  const auto parsed = parse_kernel(env);
  if (!parsed.has_value()) {
    throw std::runtime_error(std::string("TDFM_KERNEL: unknown kernel '") +
                             env + "' (expected scalar|avx2)");
  }
  if (!kernel_supported(*parsed)) {
    throw std::runtime_error(std::string("TDFM_KERNEL: kernel '") + env +
                             "' is not supported by this CPU");
  }
  return *parsed;
}

}  // namespace

const char* kernel_name(KernelKind kind) {
  switch (kind) {
    case KernelKind::kScalar: return "scalar";
    case KernelKind::kAvx2: return "avx2";
  }
  return "unknown";
}

std::optional<KernelKind> parse_kernel(std::string_view name) {
  if (name == "scalar") return KernelKind::kScalar;
  if (name == "avx2") return KernelKind::kAvx2;
  return std::nullopt;
}

bool kernel_supported(KernelKind kind) {
  switch (kind) {
    case KernelKind::kScalar:
      return true;
#if defined(__x86_64__) || defined(__i386__)
    case KernelKind::kAvx2:
      return __builtin_cpu_supports("avx2") != 0 &&
             __builtin_cpu_supports("fma") != 0;
#else
    case KernelKind::kAvx2:
      return false;
#endif
  }
  return false;
}

std::vector<KernelKind> supported_kernels() {
  std::vector<KernelKind> out{KernelKind::kScalar};
  if (kernel_supported(KernelKind::kAvx2)) out.push_back(KernelKind::kAvx2);
  return out;
}

KernelKind active_kernel() {
  int cur = g_active.load(std::memory_order_acquire);
  if (cur < 0) {
    cur = static_cast<int>(resolve_from_env());
    g_active.store(cur, std::memory_order_release);
  }
  return static_cast<KernelKind>(cur);
}

void set_active_kernel(KernelKind kind) {
  if (!kernel_supported(kind)) {
    throw std::runtime_error(std::string("kernel '") + kernel_name(kind) +
                             "' is not supported by this CPU");
  }
  g_active.store(static_cast<int>(kind), std::memory_order_release);
}

const KernelTable& kernel_table(KernelKind kind) {
  switch (kind) {
    case KernelKind::kAvx2:
      if (wide_lanes()) return kAvx2x16Table;
      return kAvx2Table;
    case KernelKind::kScalar: break;
  }
  return kScalarTable;
}

int vector_bits(KernelKind kind) {
  switch (kind) {
    case KernelKind::kAvx2: return wide_lanes() ? 512 : 256;
    case KernelKind::kScalar: break;
  }
  return 32;
}

const KernelTable& active_table() { return kernel_table(active_kernel()); }

}  // namespace tdfm::kernels
