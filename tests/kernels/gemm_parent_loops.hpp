// Copies of each kernel table's gemm_tn loop as it stood before the avx2
// entry became a register-blocked tile, of the avx2 gemm_nt loop as it
// stood before its row blocks, and of the avx2 gemm_nn loop as it stood
// before the 16-lane build: the oracles of
// KernelChecker.{Nn,Tn,Nt}MatchesParentLoopBitForBit.  gemm_parent_loops.cpp
// carries the kernel TUs' determinism flags (tests/CMakeLists.txt).
#pragma once

#include <cstddef>

namespace tdfm::kernels_test {

void tn_parent_scalar(std::size_t r0, std::size_t r1, std::size_t m,
                      std::size_t n, std::size_t k, const float* a,
                      const float* b, float* c, bool accumulate);
void tn_parent_avx2(std::size_t r0, std::size_t r1, std::size_t m,
                    std::size_t n, std::size_t k, const float* a,
                    const float* b, float* c, bool accumulate);
void nn_parent_avx2(std::size_t r0, std::size_t r1, std::size_t m,
                    std::size_t n, std::size_t k, const float* a,
                    const float* b, float* c, bool accumulate);
void nt_parent_avx2(std::size_t r0, std::size_t r1, std::size_t m,
                    std::size_t n, std::size_t k, const float* a,
                    const float* b, float* c, bool accumulate);

}  // namespace tdfm::kernels_test
