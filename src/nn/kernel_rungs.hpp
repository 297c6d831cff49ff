// ISA rungs behind the dispatched INT8 kernels of kernels.hpp.
//
// Each dispatched SIMD / batch-lane entry point (gemv_i8_simd,
// conv1d_i8_simd, gemm_pack_x, gemm_i8_batch) takes one rung per process,
// the widest the CPU supports, and forwards to the per-rung form declared
// here. Production code calls the dispatchers. The per-rung forms exist so
// the bit-exactness tests can run every rung the host supports: an AVX-512
// host would otherwise never run the 8-lane AVX2 chunking (a 9-step window
// needs a second AVX2 chunk) or the scalar rung.
#pragma once

#include <cstddef>
#include <cstdint>

namespace fenix::nn::kernels::rung {

enum class Isa { kScalar, kAvx2, kAvx512 };

/// The rung the dispatched entry points take on this CPU.
Isa dispatched();

/// True when `r` can run here: every rung up to dispatched(). The per-rung
/// forms below clamp an unsupported rung down to dispatched().
bool supported(Isa r);

/// "scalar", "avx2" or "avx512".
const char* name(Isa r);

/// Batch-lane width of the GEMM kernels at `r`: 16, 8 or 1.
std::size_t gemm_lanes(Isa r);

void gemm_pack_x(Isa r, const std::int8_t* const* xs, std::size_t lanes_used,
                 std::size_t K, std::int32_t* packed);
void gemm_i8_batch(Isa r, const std::int32_t* wpairs, std::size_t rows,
                   std::size_t kpairs, const std::int32_t* packed_x,
                   const std::int32_t* bias, int shift, bool relu,
                   std::int8_t* out);
void gemv_i8_simd(Isa r, const std::int8_t* w, std::size_t rows,
                  std::size_t row_stride, std::size_t cols,
                  const std::int8_t* x, const std::int32_t* bias, int shift,
                  bool relu, std::int8_t* y);
void conv1d_i8_simd(Isa r, const std::int8_t* w, const std::int32_t* wpairs,
                    std::size_t out_ch, std::size_t in_ch, std::size_t kernel,
                    const std::int8_t* x, std::size_t T,
                    const std::int32_t* bias, int shift, bool relu,
                    std::int8_t* y);

}  // namespace fenix::nn::kernels::rung
