// Explicit AVX2 / AVX-512 lowering of the INT8 kernels.
//
// The scalar kernels in kernels.cpp stay the semantic reference; everything
// here must agree with them bit-for-bit. The vector strategy is the standard
// INT8 pmaddwd ladder: sign-extend 8-bit operands to 16 bits, vpmaddwd
// multiplies lane pairs and adds each pair into an INT32 lane (products are
// <= 128*127 so a pair sum is <= 32512 — no saturation possible), and the
// INT32 lanes accumulate across the row before one horizontal reduction per
// output. Integer addition is associative and these layers are far too small
// to overflow INT32, so the lane partitioning is exact, not approximate.
//
// Four weight rows are processed per pass so each widened x chunk is reused
// four times, mirroring the blocking of the scalar kernels. Tails shorter
// than a vector chunk fall back to scalar multiplies feeding the same INT32
// accumulator. ISA selection happens once via __builtin_cpu_supports and is
// cached; compilation uses per-function target attributes so no global
// -mavx* flags leak into the rest of the build (the baseline stays plain
// x86-64 and non-AVX hosts still run everything through the scalar path).
//
// The convolution does not use the ladder: conv1d_i8_simd makes the T
// output positions the lanes of the batch-lane GEMM below, so its
// accumulation is purely vertical, with no horizontal reduction at all.
#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <vector>

#include "kernel_rungs.hpp"
#include "kernels.hpp"

#if defined(__x86_64__) || defined(_M_X64)
#define FENIX_SIMD_X86 1
#include <immintrin.h>
#else
#define FENIX_SIMD_X86 0
#endif

namespace fenix::nn::kernels {
using rung::Isa;
namespace {

// Requantization identical to the scalar gemv_i8 epilogue.
inline std::int8_t requantize(std::int32_t acc, std::int32_t bias, int shift,
                              bool relu) {
  std::int64_t v = rounding_shift_right(static_cast<std::int64_t>(acc) + bias,
                                        shift);
  if (relu && v < 0) v = 0;
  return saturate_i8(v);
}

Isa detect_isa() {
#if FENIX_SIMD_X86
  if (__builtin_cpu_supports("avx512bw") && __builtin_cpu_supports("avx512f")) {
    return Isa::kAvx512;
  }
  if (__builtin_cpu_supports("avx2")) return Isa::kAvx2;
#endif
  return Isa::kScalar;
}

Isa isa() {
  static const Isa cached = detect_isa();
  return cached;
}

// A rung the CPU lacks runs as the dispatched rung instead.
Isa clamp_rung(Isa r) { return rung::supported(r) ? r : isa(); }

#if FENIX_SIMD_X86

// AVX-512VNNI gates the dpbusd sub-INT8 path; detection is separate from the
// Isa ladder because VNNI only changes speed, never results.
bool has_vnni() {
  static const bool cached = __builtin_cpu_supports("avx512vnni") &&
                             __builtin_cpu_supports("avx512bw");
  return cached;
}

// ---- AVX2: 16 columns per step (128-bit INT8 loads widened to 256-bit
// INT16, vpmaddwd into 8 INT32 lanes). The bench models' layer widths are
// all multiples of 16, so the scalar tail is usually empty.

__attribute__((target("avx2"))) inline __m256i widen16_avx2(
    const std::int8_t* p) {
  return _mm256_cvtepi8_epi16(
      _mm_loadu_si128(reinterpret_cast<const __m128i*>(p)));
}

__attribute__((target("avx2"))) inline std::int32_t hsum_avx2(__m256i v) {
  __m128i lo = _mm256_castsi256_si128(v);
  __m128i hi = _mm256_extracti128_si256(v, 1);
  __m128i s = _mm_add_epi32(lo, hi);
  s = _mm_add_epi32(s, _mm_shuffle_epi32(s, _MM_SHUFFLE(1, 0, 3, 2)));
  s = _mm_add_epi32(s, _mm_shuffle_epi32(s, _MM_SHUFFLE(2, 3, 0, 1)));
  return _mm_cvtsi128_si32(s);
}

// Dot products of four weight rows against x, sharing the widened x chunks.
__attribute__((target("avx2"))) void dot4_avx2(
    const std::int8_t* w0, const std::int8_t* w1, const std::int8_t* w2,
    const std::int8_t* w3, const std::int8_t* x, std::size_t cols,
    std::int32_t out[4]) {
  __m256i acc0 = _mm256_setzero_si256();
  __m256i acc1 = _mm256_setzero_si256();
  __m256i acc2 = _mm256_setzero_si256();
  __m256i acc3 = _mm256_setzero_si256();
  std::size_t c = 0;
  for (; c + 16 <= cols; c += 16) {
    const __m256i xv = widen16_avx2(x + c);
    acc0 = _mm256_add_epi32(acc0, _mm256_madd_epi16(widen16_avx2(w0 + c), xv));
    acc1 = _mm256_add_epi32(acc1, _mm256_madd_epi16(widen16_avx2(w1 + c), xv));
    acc2 = _mm256_add_epi32(acc2, _mm256_madd_epi16(widen16_avx2(w2 + c), xv));
    acc3 = _mm256_add_epi32(acc3, _mm256_madd_epi16(widen16_avx2(w3 + c), xv));
  }
  out[0] = hsum_avx2(acc0);
  out[1] = hsum_avx2(acc1);
  out[2] = hsum_avx2(acc2);
  out[3] = hsum_avx2(acc3);
  for (; c < cols; ++c) {
    const std::int32_t xv = x[c];
    out[0] += static_cast<std::int32_t>(w0[c]) * xv;
    out[1] += static_cast<std::int32_t>(w1[c]) * xv;
    out[2] += static_cast<std::int32_t>(w2[c]) * xv;
    out[3] += static_cast<std::int32_t>(w3[c]) * xv;
  }
}

__attribute__((target("avx2"))) void dot1_avx2(const std::int8_t* w,
                                               const std::int8_t* x,
                                               std::size_t cols,
                                               std::int32_t* out) {
  __m256i acc = _mm256_setzero_si256();
  std::size_t c = 0;
  for (; c + 16 <= cols; c += 16) {
    acc = _mm256_add_epi32(
        acc, _mm256_madd_epi16(widen16_avx2(w + c), widen16_avx2(x + c)));
  }
  std::int32_t sum = hsum_avx2(acc);
  for (; c < cols; ++c) {
    sum += static_cast<std::int32_t>(w[c]) * static_cast<std::int32_t>(x[c]);
  }
  *out = sum;
}

__attribute__((target("avx2"))) void gemv_acc_avx2(
    const std::int8_t* w, std::size_t rows, std::size_t row_stride,
    std::size_t cols, const std::int8_t* x, std::int32_t* acc) {
  std::size_t r = 0;
  for (; r + 4 <= rows; r += 4) {
    const std::int8_t* base = w + r * row_stride;
    dot4_avx2(base, base + row_stride, base + 2 * row_stride,
              base + 3 * row_stride, x, cols, acc + r);
  }
  for (; r < rows; ++r) {
    dot1_avx2(w + r * row_stride, x, cols, acc + r);
  }
}

// ---- AVX-512BW: 32 columns per step (256-bit INT8 loads widened to 512-bit
// INT16, vpmaddwd into 16 INT32 lanes), with a 16-column AVX2 step for the
// remainder before the scalar tail. target("avx512bw") implies AVX2, so the
// mixed-width body compiles in one function.

__attribute__((target("avx512bw"))) inline __m512i widen16_avx512(
    const std::int8_t* p) {
  return _mm512_cvtepi8_epi16(
      _mm256_loadu_si256(reinterpret_cast<const __m256i*>(p)));
}

__attribute__((target("avx512bw"))) void dot4_avx512(
    const std::int8_t* w0, const std::int8_t* w1, const std::int8_t* w2,
    const std::int8_t* w3, const std::int8_t* x, std::size_t cols,
    std::int32_t out[4]) {
  __m512i acc0 = _mm512_setzero_si512();
  __m512i acc1 = _mm512_setzero_si512();
  __m512i acc2 = _mm512_setzero_si512();
  __m512i acc3 = _mm512_setzero_si512();
  std::size_t c = 0;
  for (; c + 32 <= cols; c += 32) {
    const __m512i xv = widen16_avx512(x + c);
    acc0 =
        _mm512_add_epi32(acc0, _mm512_madd_epi16(widen16_avx512(w0 + c), xv));
    acc1 =
        _mm512_add_epi32(acc1, _mm512_madd_epi16(widen16_avx512(w1 + c), xv));
    acc2 =
        _mm512_add_epi32(acc2, _mm512_madd_epi16(widen16_avx512(w2 + c), xv));
    acc3 =
        _mm512_add_epi32(acc3, _mm512_madd_epi16(widen16_avx512(w3 + c), xv));
  }
  out[0] = _mm512_reduce_add_epi32(acc0);
  out[1] = _mm512_reduce_add_epi32(acc1);
  out[2] = _mm512_reduce_add_epi32(acc2);
  out[3] = _mm512_reduce_add_epi32(acc3);
  if (c + 16 <= cols) {
    const __m256i xv = widen16_avx2(x + c);
    out[0] += hsum_avx2(_mm256_madd_epi16(widen16_avx2(w0 + c), xv));
    out[1] += hsum_avx2(_mm256_madd_epi16(widen16_avx2(w1 + c), xv));
    out[2] += hsum_avx2(_mm256_madd_epi16(widen16_avx2(w2 + c), xv));
    out[3] += hsum_avx2(_mm256_madd_epi16(widen16_avx2(w3 + c), xv));
    c += 16;
  }
  for (; c < cols; ++c) {
    const std::int32_t xv = x[c];
    out[0] += static_cast<std::int32_t>(w0[c]) * xv;
    out[1] += static_cast<std::int32_t>(w1[c]) * xv;
    out[2] += static_cast<std::int32_t>(w2[c]) * xv;
    out[3] += static_cast<std::int32_t>(w3[c]) * xv;
  }
}

__attribute__((target("avx512bw"))) void dot1_avx512(const std::int8_t* w,
                                                     const std::int8_t* x,
                                                     std::size_t cols,
                                                     std::int32_t* out) {
  __m512i acc = _mm512_setzero_si512();
  std::size_t c = 0;
  for (; c + 32 <= cols; c += 32) {
    acc = _mm512_add_epi32(
        acc, _mm512_madd_epi16(widen16_avx512(w + c), widen16_avx512(x + c)));
  }
  std::int32_t sum = _mm512_reduce_add_epi32(acc);
  if (c + 16 <= cols) {
    sum += hsum_avx2(
        _mm256_madd_epi16(widen16_avx2(w + c), widen16_avx2(x + c)));
    c += 16;
  }
  for (; c < cols; ++c) {
    sum += static_cast<std::int32_t>(w[c]) * static_cast<std::int32_t>(x[c]);
  }
  *out = sum;
}

__attribute__((target("avx512bw"))) void gemv_acc_avx512(
    const std::int8_t* w, std::size_t rows, std::size_t row_stride,
    std::size_t cols, const std::int8_t* x, std::int32_t* acc) {
  std::size_t r = 0;
  for (; r + 4 <= rows; r += 4) {
    const std::int8_t* base = w + r * row_stride;
    dot4_avx512(base, base + row_stride, base + 2 * row_stride,
                base + 3 * row_stride, x, cols, acc + r);
  }
  for (; r < rows; ++r) {
    dot1_avx512(w + r * row_stride, x, cols, acc + r);
  }
}

// ---- batch-lane GEMM ----

// AVX-512: 16 batch lanes per INT32 vector. Rows are processed four at a
// time so each packed-x load feeds four vpmaddwd; weight pairs broadcast
// straight from the precomputed wpairs array (one load-op per row per pair).

__attribute__((target("avx512bw"))) inline __m512i requant_avx512(
    __m512i v, int shift, bool relu) {
  // shift > 0 (checked by the caller): round-half-away-from-zero matches
  // rounding_shift_right exactly — |v| + 2^(shift-1) cannot overflow INT32
  // at these accumulator magnitudes, and the logical shift is safe on the
  // non-negative magnitude.
  const __m512i zero = _mm512_setzero_si512();
  const __m512i off = _mm512_set1_epi32(1 << (shift - 1));
  const __mmask16 neg = _mm512_cmplt_epi32_mask(v, zero);
  __m512i mag = _mm512_srli_epi32(_mm512_add_epi32(_mm512_abs_epi32(v), off),
                                  static_cast<unsigned>(shift));
  v = _mm512_mask_sub_epi32(mag, neg, zero, mag);
  if (relu) v = _mm512_max_epi32(v, zero);
  return v;
}

__attribute__((target("avx512bw"))) void gemm_i8_batch_avx512(
    const std::int32_t* wpairs, std::size_t rows, std::size_t kpairs,
    const std::int32_t* packed_x, const std::int32_t* bias, int shift,
    bool relu, std::int8_t* out) {
  std::size_t r = 0;
  for (; r + 4 <= rows; r += 4) {
    const std::int32_t* w0 = wpairs + (r + 0) * kpairs;
    const std::int32_t* w1 = wpairs + (r + 1) * kpairs;
    const std::int32_t* w2 = wpairs + (r + 2) * kpairs;
    const std::int32_t* w3 = wpairs + (r + 3) * kpairs;
    __m512i acc0 = _mm512_setzero_si512();
    __m512i acc1 = _mm512_setzero_si512();
    __m512i acc2 = _mm512_setzero_si512();
    __m512i acc3 = _mm512_setzero_si512();
    for (std::size_t kp = 0; kp < kpairs; ++kp) {
      const __m512i xv = _mm512_loadu_si512(packed_x + kp * 16);
      acc0 = _mm512_add_epi32(acc0,
                              _mm512_madd_epi16(_mm512_set1_epi32(w0[kp]), xv));
      acc1 = _mm512_add_epi32(acc1,
                              _mm512_madd_epi16(_mm512_set1_epi32(w1[kp]), xv));
      acc2 = _mm512_add_epi32(acc2,
                              _mm512_madd_epi16(_mm512_set1_epi32(w2[kp]), xv));
      acc3 = _mm512_add_epi32(acc3,
                              _mm512_madd_epi16(_mm512_set1_epi32(w3[kp]), xv));
    }
    const __m512i accs[4] = {acc0, acc1, acc2, acc3};
    for (int i = 0; i < 4; ++i) {
      __m512i v = _mm512_add_epi32(accs[i], _mm512_set1_epi32(bias[r + i]));
      v = requant_avx512(v, shift, relu);
      _mm_storeu_si128(reinterpret_cast<__m128i*>(out + (r + i) * 16),
                       _mm512_cvtsepi32_epi8(v));
    }
  }
  for (; r < rows; ++r) {
    const std::int32_t* wr = wpairs + r * kpairs;
    __m512i acc = _mm512_setzero_si512();
    for (std::size_t kp = 0; kp < kpairs; ++kp) {
      acc = _mm512_add_epi32(
          acc, _mm512_madd_epi16(_mm512_set1_epi32(wr[kp]),
                                 _mm512_loadu_si512(packed_x + kp * 16)));
    }
    __m512i v = _mm512_add_epi32(acc, _mm512_set1_epi32(bias[r]));
    v = requant_avx512(v, shift, relu);
    _mm_storeu_si128(reinterpret_cast<__m128i*>(out + r * 16),
                     _mm512_cvtsepi32_epi8(v));
  }
}

__attribute__((target("avx512bw"))) void gemm_acc_batch_avx512(
    const std::int32_t* wpairs, std::size_t rows, std::size_t kpairs,
    const std::int32_t* packed_x, std::int32_t* acc) {
  std::size_t r = 0;
  for (; r + 4 <= rows; r += 4) {
    const std::int32_t* w0 = wpairs + (r + 0) * kpairs;
    const std::int32_t* w1 = wpairs + (r + 1) * kpairs;
    const std::int32_t* w2 = wpairs + (r + 2) * kpairs;
    const std::int32_t* w3 = wpairs + (r + 3) * kpairs;
    __m512i acc0 = _mm512_setzero_si512();
    __m512i acc1 = _mm512_setzero_si512();
    __m512i acc2 = _mm512_setzero_si512();
    __m512i acc3 = _mm512_setzero_si512();
    for (std::size_t kp = 0; kp < kpairs; ++kp) {
      const __m512i xv = _mm512_loadu_si512(packed_x + kp * 16);
      acc0 = _mm512_add_epi32(acc0,
                              _mm512_madd_epi16(_mm512_set1_epi32(w0[kp]), xv));
      acc1 = _mm512_add_epi32(acc1,
                              _mm512_madd_epi16(_mm512_set1_epi32(w1[kp]), xv));
      acc2 = _mm512_add_epi32(acc2,
                              _mm512_madd_epi16(_mm512_set1_epi32(w2[kp]), xv));
      acc3 = _mm512_add_epi32(acc3,
                              _mm512_madd_epi16(_mm512_set1_epi32(w3[kp]), xv));
    }
    _mm512_storeu_si512(acc + (r + 0) * 16, acc0);
    _mm512_storeu_si512(acc + (r + 1) * 16, acc1);
    _mm512_storeu_si512(acc + (r + 2) * 16, acc2);
    _mm512_storeu_si512(acc + (r + 3) * 16, acc3);
  }
  for (; r < rows; ++r) {
    const std::int32_t* wr = wpairs + r * kpairs;
    __m512i a = _mm512_setzero_si512();
    for (std::size_t kp = 0; kp < kpairs; ++kp) {
      a = _mm512_add_epi32(
          a, _mm512_madd_epi16(_mm512_set1_epi32(wr[kp]),
                               _mm512_loadu_si512(packed_x + kp * 16)));
    }
    _mm512_storeu_si512(acc + r * 16, a);
  }
}

// AVX2: 8 batch lanes per INT32 vector, same structure.

__attribute__((target("avx2"))) inline __m256i requant_avx2(__m256i v,
                                                            int shift,
                                                            bool relu) {
  const __m256i zero = _mm256_setzero_si256();
  const __m256i off = _mm256_set1_epi32(1 << (shift - 1));
  __m256i mag = _mm256_srli_epi32(_mm256_add_epi32(_mm256_abs_epi32(v), off),
                                  shift);
  // sign_epi32(mag, v): mag for v > 0, -mag for v < 0, 0 for v == 0 (mag is
  // 0 there anyway) — exactly the round-half-away-from-zero sign restore.
  v = _mm256_sign_epi32(mag, v);
  if (relu) v = _mm256_max_epi32(v, zero);
  return v;
}

__attribute__((target("avx2"))) inline void store_i8_avx2(__m256i v,
                                                          std::int8_t* out) {
  const __m128i lo = _mm256_castsi256_si128(v);
  const __m128i hi = _mm256_extracti128_si256(v, 1);
  const __m128i p16 = _mm_packs_epi32(lo, hi);
  const __m128i p8 = _mm_packs_epi16(p16, p16);
  _mm_storel_epi64(reinterpret_cast<__m128i*>(out), p8);
}

__attribute__((target("avx2"))) void gemm_i8_batch_avx2(
    const std::int32_t* wpairs, std::size_t rows, std::size_t kpairs,
    const std::int32_t* packed_x, const std::int32_t* bias, int shift,
    bool relu, std::int8_t* out) {
  std::size_t r = 0;
  for (; r + 4 <= rows; r += 4) {
    const std::int32_t* w0 = wpairs + (r + 0) * kpairs;
    const std::int32_t* w1 = wpairs + (r + 1) * kpairs;
    const std::int32_t* w2 = wpairs + (r + 2) * kpairs;
    const std::int32_t* w3 = wpairs + (r + 3) * kpairs;
    __m256i acc0 = _mm256_setzero_si256();
    __m256i acc1 = _mm256_setzero_si256();
    __m256i acc2 = _mm256_setzero_si256();
    __m256i acc3 = _mm256_setzero_si256();
    for (std::size_t kp = 0; kp < kpairs; ++kp) {
      const __m256i xv = _mm256_loadu_si256(
          reinterpret_cast<const __m256i*>(packed_x + kp * 8));
      acc0 = _mm256_add_epi32(acc0,
                              _mm256_madd_epi16(_mm256_set1_epi32(w0[kp]), xv));
      acc1 = _mm256_add_epi32(acc1,
                              _mm256_madd_epi16(_mm256_set1_epi32(w1[kp]), xv));
      acc2 = _mm256_add_epi32(acc2,
                              _mm256_madd_epi16(_mm256_set1_epi32(w2[kp]), xv));
      acc3 = _mm256_add_epi32(acc3,
                              _mm256_madd_epi16(_mm256_set1_epi32(w3[kp]), xv));
    }
    const __m256i accs[4] = {acc0, acc1, acc2, acc3};
    for (int i = 0; i < 4; ++i) {
      __m256i v = _mm256_add_epi32(accs[i], _mm256_set1_epi32(bias[r + i]));
      store_i8_avx2(requant_avx2(v, shift, relu), out + (r + i) * 8);
    }
  }
  for (; r < rows; ++r) {
    const std::int32_t* wr = wpairs + r * kpairs;
    __m256i acc = _mm256_setzero_si256();
    for (std::size_t kp = 0; kp < kpairs; ++kp) {
      acc = _mm256_add_epi32(
          acc, _mm256_madd_epi16(_mm256_set1_epi32(wr[kp]),
                                 _mm256_loadu_si256(reinterpret_cast<const __m256i*>(
                                     packed_x + kp * 8))));
    }
    __m256i v = _mm256_add_epi32(acc, _mm256_set1_epi32(bias[r]));
    store_i8_avx2(requant_avx2(v, shift, relu), out + r * 8);
  }
}

__attribute__((target("avx2"))) void gemm_acc_batch_avx2(
    const std::int32_t* wpairs, std::size_t rows, std::size_t kpairs,
    const std::int32_t* packed_x, std::int32_t* acc) {
  for (std::size_t r = 0; r < rows; ++r) {
    const std::int32_t* wr = wpairs + r * kpairs;
    __m256i a = _mm256_setzero_si256();
    for (std::size_t kp = 0; kp < kpairs; ++kp) {
      a = _mm256_add_epi32(
          a, _mm256_madd_epi16(_mm256_set1_epi32(wr[kp]),
                               _mm256_loadu_si256(reinterpret_cast<const __m256i*>(
                                   packed_x + kp * 8))));
    }
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(acc + r * 8), a);
  }
}

// ---- Sub-INT8 (biased unsigned plane) dot products ----
//
// The biased plane stores w + B as unsigned bytes (B = 1 ternary, 8 INT4).
// Accumulating sum((w+B)*x) and subtracting B*sum(x) yields sum(w*x) as an
// exact integer identity — no tolerance involved. All ISA levels accumulate
// in the biased domain so one correction per row finishes the job.

// AVX-512VNNI: one dpbusd per row per 64 columns (u8 weights x s8
// activations, 4-wide dot into each INT32 lane). This is the kernel that
// makes ternary GEMV beat the INT8 madd ladder outright.

__attribute__((target("avx512vnni,avx512bw"))) void dot4_sub8_vnni(
    const std::uint8_t* w0, const std::uint8_t* w1, const std::uint8_t* w2,
    const std::uint8_t* w3, const std::int8_t* x, std::size_t cols,
    std::int32_t out[4]) {
  __m512i acc0 = _mm512_setzero_si512();
  __m512i acc1 = _mm512_setzero_si512();
  __m512i acc2 = _mm512_setzero_si512();
  __m512i acc3 = _mm512_setzero_si512();
  std::size_t c = 0;
  for (; c + 64 <= cols; c += 64) {
    const __m512i xv = _mm512_loadu_si512(x + c);
    acc0 = _mm512_dpbusd_epi32(acc0, _mm512_loadu_si512(w0 + c), xv);
    acc1 = _mm512_dpbusd_epi32(acc1, _mm512_loadu_si512(w1 + c), xv);
    acc2 = _mm512_dpbusd_epi32(acc2, _mm512_loadu_si512(w2 + c), xv);
    acc3 = _mm512_dpbusd_epi32(acc3, _mm512_loadu_si512(w3 + c), xv);
  }
  if (c < cols) {
    // Masked tail: lanes beyond cols load as zero and contribute nothing.
    const __mmask64 m = (~0ULL) >> (64 - (cols - c));
    const __m512i xv = _mm512_maskz_loadu_epi8(m, x + c);
    acc0 = _mm512_dpbusd_epi32(acc0, _mm512_maskz_loadu_epi8(m, w0 + c), xv);
    acc1 = _mm512_dpbusd_epi32(acc1, _mm512_maskz_loadu_epi8(m, w1 + c), xv);
    acc2 = _mm512_dpbusd_epi32(acc2, _mm512_maskz_loadu_epi8(m, w2 + c), xv);
    acc3 = _mm512_dpbusd_epi32(acc3, _mm512_maskz_loadu_epi8(m, w3 + c), xv);
  }
  out[0] = _mm512_reduce_add_epi32(acc0);
  out[1] = _mm512_reduce_add_epi32(acc1);
  out[2] = _mm512_reduce_add_epi32(acc2);
  out[3] = _mm512_reduce_add_epi32(acc3);
}

__attribute__((target("avx512vnni,avx512bw"))) void dot1_sub8_vnni(
    const std::uint8_t* w, const std::int8_t* x, std::size_t cols,
    std::int32_t* out) {
  __m512i acc = _mm512_setzero_si512();
  std::size_t c = 0;
  for (; c + 64 <= cols; c += 64) {
    acc = _mm512_dpbusd_epi32(acc, _mm512_loadu_si512(w + c),
                              _mm512_loadu_si512(x + c));
  }
  if (c < cols) {
    const __mmask64 m = (~0ULL) >> (64 - (cols - c));
    acc = _mm512_dpbusd_epi32(acc, _mm512_maskz_loadu_epi8(m, w + c),
                              _mm512_maskz_loadu_epi8(m, x + c));
  }
  *out = _mm512_reduce_add_epi32(acc);
}

// AVX-512BW without VNNI: zero-extend the biased bytes and run the same madd
// ladder as the INT8 kernels (pairs of (w+B)*x fit INT16 products easily).

__attribute__((target("avx512bw"))) inline __m512i widenu16_avx512(
    const std::uint8_t* p) {
  return _mm512_cvtepu8_epi16(
      _mm256_loadu_si256(reinterpret_cast<const __m256i*>(p)));
}

__attribute__((target("avx2"))) inline __m256i widenu16_avx2(
    const std::uint8_t* p) {
  return _mm256_cvtepu8_epi16(
      _mm_loadu_si128(reinterpret_cast<const __m128i*>(p)));
}

__attribute__((target("avx512bw"))) void dot4_sub8_avx512(
    const std::uint8_t* w0, const std::uint8_t* w1, const std::uint8_t* w2,
    const std::uint8_t* w3, const std::int8_t* x, std::size_t cols,
    std::int32_t out[4]) {
  __m512i acc0 = _mm512_setzero_si512();
  __m512i acc1 = _mm512_setzero_si512();
  __m512i acc2 = _mm512_setzero_si512();
  __m512i acc3 = _mm512_setzero_si512();
  std::size_t c = 0;
  for (; c + 32 <= cols; c += 32) {
    const __m512i xv = widen16_avx512(x + c);
    acc0 = _mm512_add_epi32(acc0, _mm512_madd_epi16(widenu16_avx512(w0 + c), xv));
    acc1 = _mm512_add_epi32(acc1, _mm512_madd_epi16(widenu16_avx512(w1 + c), xv));
    acc2 = _mm512_add_epi32(acc2, _mm512_madd_epi16(widenu16_avx512(w2 + c), xv));
    acc3 = _mm512_add_epi32(acc3, _mm512_madd_epi16(widenu16_avx512(w3 + c), xv));
  }
  out[0] = _mm512_reduce_add_epi32(acc0);
  out[1] = _mm512_reduce_add_epi32(acc1);
  out[2] = _mm512_reduce_add_epi32(acc2);
  out[3] = _mm512_reduce_add_epi32(acc3);
  for (; c < cols; ++c) {
    const std::int32_t xv = x[c];
    out[0] += static_cast<std::int32_t>(w0[c]) * xv;
    out[1] += static_cast<std::int32_t>(w1[c]) * xv;
    out[2] += static_cast<std::int32_t>(w2[c]) * xv;
    out[3] += static_cast<std::int32_t>(w3[c]) * xv;
  }
}

__attribute__((target("avx512bw"))) void dot1_sub8_avx512(
    const std::uint8_t* w, const std::int8_t* x, std::size_t cols,
    std::int32_t* out) {
  __m512i acc = _mm512_setzero_si512();
  std::size_t c = 0;
  for (; c + 32 <= cols; c += 32) {
    acc = _mm512_add_epi32(
        acc, _mm512_madd_epi16(widenu16_avx512(w + c), widen16_avx512(x + c)));
  }
  std::int32_t sum = _mm512_reduce_add_epi32(acc);
  for (; c < cols; ++c) {
    sum += static_cast<std::int32_t>(w[c]) * static_cast<std::int32_t>(x[c]);
  }
  *out = sum;
}

__attribute__((target("avx2"))) void dot4_sub8_avx2(
    const std::uint8_t* w0, const std::uint8_t* w1, const std::uint8_t* w2,
    const std::uint8_t* w3, const std::int8_t* x, std::size_t cols,
    std::int32_t out[4]) {
  __m256i acc0 = _mm256_setzero_si256();
  __m256i acc1 = _mm256_setzero_si256();
  __m256i acc2 = _mm256_setzero_si256();
  __m256i acc3 = _mm256_setzero_si256();
  std::size_t c = 0;
  for (; c + 16 <= cols; c += 16) {
    const __m256i xv = widen16_avx2(x + c);
    acc0 = _mm256_add_epi32(acc0, _mm256_madd_epi16(widenu16_avx2(w0 + c), xv));
    acc1 = _mm256_add_epi32(acc1, _mm256_madd_epi16(widenu16_avx2(w1 + c), xv));
    acc2 = _mm256_add_epi32(acc2, _mm256_madd_epi16(widenu16_avx2(w2 + c), xv));
    acc3 = _mm256_add_epi32(acc3, _mm256_madd_epi16(widenu16_avx2(w3 + c), xv));
  }
  out[0] = hsum_avx2(acc0);
  out[1] = hsum_avx2(acc1);
  out[2] = hsum_avx2(acc2);
  out[3] = hsum_avx2(acc3);
  for (; c < cols; ++c) {
    const std::int32_t xv = x[c];
    out[0] += static_cast<std::int32_t>(w0[c]) * xv;
    out[1] += static_cast<std::int32_t>(w1[c]) * xv;
    out[2] += static_cast<std::int32_t>(w2[c]) * xv;
    out[3] += static_cast<std::int32_t>(w3[c]) * xv;
  }
}

__attribute__((target("avx2"))) void dot1_sub8_avx2(const std::uint8_t* w,
                                                    const std::int8_t* x,
                                                    std::size_t cols,
                                                    std::int32_t* out) {
  __m256i acc = _mm256_setzero_si256();
  std::size_t c = 0;
  for (; c + 16 <= cols; c += 16) {
    acc = _mm256_add_epi32(
        acc, _mm256_madd_epi16(widenu16_avx2(w + c), widen16_avx2(x + c)));
  }
  std::int32_t sum = hsum_avx2(acc);
  for (; c < cols; ++c) {
    sum += static_cast<std::int32_t>(w[c]) * static_cast<std::int32_t>(x[c]);
  }
  *out = sum;
}

// Dispatches one 4-row / 1-row biased-domain dot to the best ISA.
void dot4_sub8(const std::uint8_t* w0, const std::uint8_t* w1,
               const std::uint8_t* w2, const std::uint8_t* w3,
               const std::int8_t* x, std::size_t cols, std::int32_t out[4]) {
  if (has_vnni()) {
    dot4_sub8_vnni(w0, w1, w2, w3, x, cols, out);
  } else if (isa() == Isa::kAvx512) {
    dot4_sub8_avx512(w0, w1, w2, w3, x, cols, out);
  } else {
    dot4_sub8_avx2(w0, w1, w2, w3, x, cols, out);
  }
}

void dot1_sub8(const std::uint8_t* w, const std::int8_t* x, std::size_t cols,
               std::int32_t* out) {
  if (has_vnni()) {
    dot1_sub8_vnni(w, x, cols, out);
  } else if (isa() == Isa::kAvx512) {
    dot1_sub8_avx512(w, x, cols, out);
  } else {
    dot1_sub8_avx2(w, x, cols, out);
  }
}

#endif  // FENIX_SIMD_X86

// Shared by every sub-INT8 path: sum of x (the B*sum(x) correction is one
// subtract per row). Plain loop — the compiler vectorizes it, and any
// summation order is exact.
std::int32_t sum_x_i32(const std::int8_t* x, std::size_t cols) {
  std::int32_t s = 0;
  for (std::size_t c = 0; c < cols; ++c) s += x[c];
  return s;
}

// Scalar sub-INT8 fallback: multiply out the biased plane directly. Same
// integer sums, so non-AVX hosts stay bit-identical.
void gemv_acc_sub8_scalar(const std::uint8_t* biased, std::size_t rows,
                          std::size_t row_stride, std::size_t cols,
                          int weight_bias, const std::int8_t* x,
                          std::int32_t* acc) {
  for (std::size_t r = 0; r < rows; ++r) {
    const std::uint8_t* wr = biased + r * row_stride;
    std::int32_t a = 0;
    for (std::size_t c = 0; c < cols; ++c) {
      a += (static_cast<std::int32_t>(wr[c]) - weight_bias) *
           static_cast<std::int32_t>(x[c]);
    }
    acc[r] = a;
  }
}

// Scalar batch fallback (1 lane): the same pair-decomposed arithmetic in
// plain integers, so non-AVX hosts stay bit-identical to the vector paths.

void gemm_acc_batch_scalar(const std::int32_t* wpairs, std::size_t rows,
                           std::size_t kpairs, const std::int32_t* packed_x,
                           std::int32_t* acc) {
  for (std::size_t r = 0; r < rows; ++r) {
    const std::int32_t* wr = wpairs + r * kpairs;
    std::int32_t a = 0;
    for (std::size_t kp = 0; kp < kpairs; ++kp) {
      const std::int32_t wp = wr[kp];
      const std::int32_t xp = packed_x[kp];
      a += static_cast<std::int32_t>(static_cast<std::int16_t>(wp & 0xffff)) *
           static_cast<std::int32_t>(static_cast<std::int16_t>(xp & 0xffff));
      a += static_cast<std::int32_t>(static_cast<std::int16_t>(wp >> 16)) *
           static_cast<std::int32_t>(static_cast<std::int16_t>(xp >> 16));
    }
    acc[r] = a;
  }
}

// Time-lane convolution workspace: the input plane with `pad` zero rows on
// each side, the packed GEMM operand and the rows x lanes GEMM output. One
// per thread, grown to the largest layer that thread has run, so a steady
// stream of inferences allocates nothing.
struct TimeLaneWorkspace {
  std::vector<std::int8_t> xpad;
  std::vector<std::int32_t> packed;
  std::vector<std::int8_t> out;
};

}  // namespace

const char* isa_name() { return rung::name(isa()); }

void gemv_acc_i8_simd(const std::int8_t* w, std::size_t rows,
                      std::size_t row_stride, std::size_t cols,
                      const std::int8_t* x, std::int32_t* acc) {
#if FENIX_SIMD_X86
  switch (isa()) {
    case Isa::kAvx512:
      gemv_acc_avx512(w, rows, row_stride, cols, x, acc);
      return;
    case Isa::kAvx2:
      gemv_acc_avx2(w, rows, row_stride, cols, x, acc);
      return;
    case Isa::kScalar:
      break;
  }
#endif
  gemv_acc_i8(w, rows, row_stride, cols, x, acc);
}

void gemv_i8_simd(const std::int8_t* w, std::size_t rows,
                  std::size_t row_stride, std::size_t cols,
                  const std::int8_t* x, const std::int32_t* bias, int shift,
                  bool relu, std::int8_t* y) {
  rung::gemv_i8_simd(isa(), w, rows, row_stride, cols, x, bias, shift, relu, y);
}

void gemv_acc_sub8_simd(const std::uint8_t* biased, std::size_t rows,
                        std::size_t row_stride, std::size_t cols,
                        int weight_bias, const std::int8_t* x,
                        std::int32_t* acc) {
#if FENIX_SIMD_X86
  if (isa() != Isa::kScalar) {
    const std::int32_t corr = weight_bias * sum_x_i32(x, cols);
    std::size_t r = 0;
    for (; r + 4 <= rows; r += 4) {
      const std::uint8_t* base = biased + r * row_stride;
      std::int32_t raw[4];
      dot4_sub8(base, base + row_stride, base + 2 * row_stride,
                base + 3 * row_stride, x, cols, raw);
      acc[r + 0] = raw[0] - corr;
      acc[r + 1] = raw[1] - corr;
      acc[r + 2] = raw[2] - corr;
      acc[r + 3] = raw[3] - corr;
    }
    for (; r < rows; ++r) {
      std::int32_t raw;
      dot1_sub8(biased + r * row_stride, x, cols, &raw);
      acc[r] = raw - corr;
    }
    return;
  }
#endif
  gemv_acc_sub8_scalar(biased, rows, row_stride, cols, weight_bias, x, acc);
}

void gemv_sub8_simd(const std::uint8_t* biased, std::size_t rows,
                    std::size_t row_stride, std::size_t cols, int weight_bias,
                    const std::int8_t* x, const std::int32_t* bias,
                    const std::int32_t* shift, bool relu, std::int8_t* y) {
#if FENIX_SIMD_X86
  if (isa() != Isa::kScalar) {
    const std::int32_t corr = weight_bias * sum_x_i32(x, cols);
    std::size_t r = 0;
    std::int32_t raw[4];
    for (; r + 4 <= rows; r += 4) {
      const std::uint8_t* base = biased + r * row_stride;
      dot4_sub8(base, base + row_stride, base + 2 * row_stride,
                base + 3 * row_stride, x, cols, raw);
      for (int i = 0; i < 4; ++i) {
        y[r + i] =
            requantize(raw[i] - corr, bias[r + i], shift[r + i], relu);
      }
    }
    for (; r < rows; ++r) {
      dot1_sub8(biased + r * row_stride, x, cols, raw);
      y[r] = requantize(raw[0] - corr, bias[r], shift[r], relu);
    }
    return;
  }
#endif
  std::int32_t a;
  for (std::size_t r = 0; r < rows; ++r) {
    gemv_acc_sub8_scalar(biased + r * row_stride, 1, row_stride, cols,
                         weight_bias, x, &a);
    y[r] = requantize(a, bias[r], shift[r], relu);
  }
}

void conv1d_sub8_simd(const std::uint8_t* biased, std::size_t out_ch,
                      std::size_t in_ch, std::size_t kernel, int weight_bias,
                      const std::int8_t* x, std::size_t T,
                      const std::int32_t* bias, const std::int32_t* shift,
                      bool relu, std::int8_t* y) {
  const std::size_t pad = kernel / 2;
  const std::size_t row_stride = in_ch * kernel;
  for (std::size_t ti = 0; ti < T; ++ti) {
    // Valid tap window, as in conv1d_i8: survivors form one contiguous
    // span of both x and each (biased) weight row.
    const std::size_t k_lo = pad > ti ? pad - ti : 0;
    const std::size_t k_hi = ti + (kernel - pad) <= T ? kernel : T + pad - ti;
    const std::size_t span = (k_hi - k_lo) * in_ch;
    const std::int8_t* xs = x + (ti + k_lo - pad) * in_ch;
    const std::uint8_t* ws = biased + k_lo * in_ch;
    gemv_sub8_simd(ws, out_ch, row_stride, span, weight_bias, xs, bias, shift,
                   relu, y + ti * out_ch);
  }
}

std::size_t gemm_batch_lanes() { return rung::gemm_lanes(isa()); }

std::vector<std::int32_t> pack_weight_pairs(const std::int8_t* w,
                                            std::size_t rows,
                                            std::size_t row_stride,
                                            std::size_t cols) {
  const std::size_t kpairs = (cols + 1) / 2;
  std::vector<std::int32_t> packed(rows * kpairs, 0);
  for (std::size_t r = 0; r < rows; ++r) {
    const std::int8_t* wr = w + r * row_stride;
    for (std::size_t kp = 0; kp < kpairs; ++kp) {
      const std::int16_t w0 = wr[2 * kp];
      const std::int16_t w1 =
          2 * kp + 1 < cols ? static_cast<std::int16_t>(wr[2 * kp + 1]) : 0;
      packed[r * kpairs + kp] =
          static_cast<std::int32_t>(static_cast<std::uint16_t>(w0)) |
          (static_cast<std::int32_t>(static_cast<std::uint16_t>(w1)) << 16);
    }
  }
  return packed;
}

void gemm_pack_x(const std::int8_t* const* xs, std::size_t lanes_used,
                 std::size_t K, std::int32_t* packed) {
  rung::gemm_pack_x(isa(), xs, lanes_used, K, packed);
}

void gemm_acc_i8_batch(const std::int32_t* wpairs, std::size_t rows,
                       std::size_t kpairs, const std::int32_t* packed_x,
                       std::int32_t* acc) {
#if FENIX_SIMD_X86
  switch (isa()) {
    case Isa::kAvx512:
      gemm_acc_batch_avx512(wpairs, rows, kpairs, packed_x, acc);
      return;
    case Isa::kAvx2:
      gemm_acc_batch_avx2(wpairs, rows, kpairs, packed_x, acc);
      return;
    case Isa::kScalar:
      break;
  }
#endif
  gemm_acc_batch_scalar(wpairs, rows, kpairs, packed_x, acc);
}

void gemm_i8_batch(const std::int32_t* wpairs, std::size_t rows,
                   std::size_t kpairs, const std::int32_t* packed_x,
                   const std::int32_t* bias, int shift, bool relu,
                   std::int8_t* out) {
  rung::gemm_i8_batch(isa(), wpairs, rows, kpairs, packed_x, bias, shift, relu,
                      out);
}

void conv1d_i8_simd(const std::int8_t* w, const std::int32_t* wpairs,
                    std::size_t out_ch, std::size_t in_ch, std::size_t kernel,
                    const std::int8_t* x, std::size_t T,
                    const std::int32_t* bias, int shift, bool relu,
                    std::int8_t* y) {
  rung::conv1d_i8_simd(isa(), w, wpairs, out_ch, in_ch, kernel, x, T, bias,
                       shift, relu, y);
}

// ---- per-rung forms (kernel_rungs.hpp) ----

namespace rung {

Isa dispatched() { return isa(); }

bool supported(Isa r) {
  return static_cast<int>(r) <= static_cast<int>(isa());
}

const char* name(Isa r) {
  switch (r) {
    case Isa::kAvx512:
      return "avx512";
    case Isa::kAvx2:
      return "avx2";
    case Isa::kScalar:
      break;
  }
  return "scalar";
}

std::size_t gemm_lanes(Isa r) {
  switch (clamp_rung(r)) {
    case Isa::kAvx512:
      return 16;
    case Isa::kAvx2:
      return 8;
    case Isa::kScalar:
      break;
  }
  return 1;
}

void gemm_pack_x(Isa r, const std::int8_t* const* xs, std::size_t lanes_used,
                 std::size_t K, std::int32_t* packed) {
  const std::size_t lanes = gemm_lanes(r);
  const std::size_t kpairs = (K + 1) / 2;
  if (lanes_used < lanes) {
    std::fill(packed, packed + kpairs * lanes, 0);
  }
  for (std::size_t b = 0; b < lanes_used; ++b) {
    const std::int8_t* x = xs[b];
    std::int32_t* col = packed + b;
    for (std::size_t kp = 0; kp < kpairs; ++kp) {
      const std::int16_t x0 = x[2 * kp];
      const std::int16_t x1 =
          2 * kp + 1 < K ? static_cast<std::int16_t>(x[2 * kp + 1]) : 0;
      col[kp * lanes] =
          static_cast<std::int32_t>(static_cast<std::uint16_t>(x0)) |
          (static_cast<std::int32_t>(static_cast<std::uint16_t>(x1)) << 16);
    }
  }
}

void gemm_i8_batch([[maybe_unused]] Isa r, const std::int32_t* wpairs,
                   std::size_t rows, std::size_t kpairs,
                   const std::int32_t* packed_x, const std::int32_t* bias,
                   int shift, bool relu, std::int8_t* out) {
#if FENIX_SIMD_X86
  switch (clamp_rung(r)) {
    case Isa::kAvx512:
      gemm_i8_batch_avx512(wpairs, rows, kpairs, packed_x, bias, shift, relu,
                           out);
      return;
    case Isa::kAvx2:
      gemm_i8_batch_avx2(wpairs, rows, kpairs, packed_x, bias, shift, relu,
                         out);
      return;
    case Isa::kScalar:
      break;
  }
#endif
  for (std::size_t row = 0; row < rows; ++row) {
    std::int32_t a;
    gemm_acc_batch_scalar(wpairs + row * kpairs, 1, kpairs, packed_x, &a);
    out[row] = requantize(a, bias[row], shift, relu);
  }
}

void gemv_i8_simd(Isa r, const std::int8_t* w, std::size_t rows,
                  std::size_t row_stride, std::size_t cols,
                  const std::int8_t* x, const std::int32_t* bias, int shift,
                  bool relu, std::int8_t* y) {
  r = clamp_rung(r);
#if FENIX_SIMD_X86
  if (r != Isa::kScalar) {
    std::size_t row = 0;
    std::int32_t acc[4];
    for (; row + 4 <= rows; row += 4) {
      const std::int8_t* base = w + row * row_stride;
      if (r == Isa::kAvx512) {
        dot4_avx512(base, base + row_stride, base + 2 * row_stride,
                    base + 3 * row_stride, x, cols, acc);
      } else {
        dot4_avx2(base, base + row_stride, base + 2 * row_stride,
                  base + 3 * row_stride, x, cols, acc);
      }
      for (int i = 0; i < 4; ++i) {
        y[row + i] = requantize(acc[i], bias[row + i], shift, relu);
      }
    }
    for (; row < rows; ++row) {
      if (r == Isa::kAvx512) {
        dot1_avx512(w + row * row_stride, x, cols, acc);
      } else {
        dot1_avx2(w + row * row_stride, x, cols, acc);
      }
      y[row] = requantize(acc[0], bias[row], shift, relu);
    }
    return;
  }
#endif
  gemv_i8(w, rows, row_stride, cols, x, bias, shift, relu, y);
}

void conv1d_i8_simd(Isa r, const std::int8_t* w, const std::int32_t* wpairs,
                    std::size_t out_ch, std::size_t in_ch, std::size_t kernel,
                    const std::int8_t* x, std::size_t T,
                    const std::int32_t* bias, int shift, bool relu,
                    std::int8_t* y) {
  r = clamp_rung(r);
  if (r == Isa::kScalar || shift <= 0 || wpairs == nullptr) {
    conv1d_i8(w, out_ch, in_ch, kernel, x, T, bias, shift, relu, y);
    return;
  }
  const std::size_t lanes = gemm_lanes(r);
  const std::size_t K = in_ch * kernel;
  const std::size_t kpairs = (K + 1) / 2;
  const std::size_t pad = kernel / 2;
  // Position t's kernel window is rows [t, t + kernel) of the padded plane:
  // taps that fall outside [0, T) read the zero rows and add nothing to the
  // integer accumulators, exactly as the edge-trimmed reference skips them.
  thread_local TimeLaneWorkspace ws;
  ws.xpad.resize((T + 2 * pad) * in_ch);
  std::memset(ws.xpad.data(), 0, pad * in_ch);
  std::memcpy(ws.xpad.data() + pad * in_ch, x, T * in_ch);
  std::memset(ws.xpad.data() + (pad + T) * in_ch, 0, pad * in_ch);
  ws.packed.resize(kpairs * lanes);
  ws.out.resize(out_ch * lanes);
  const std::int8_t* xs[16];
  for (std::size_t t0 = 0; t0 < T; t0 += lanes) {
    const std::size_t n = std::min(lanes, T - t0);
    for (std::size_t b = 0; b < n; ++b) {
      xs[b] = ws.xpad.data() + (t0 + b) * in_ch;
    }
    gemm_pack_x(r, xs, n, K, ws.packed.data());
    gemm_i8_batch(r, wpairs, out_ch, kpairs, ws.packed.data(), bias, shift,
                  relu, ws.out.data());
    for (std::size_t b = 0; b < n; ++b) {
      std::int8_t* dst = y + (t0 + b) * out_ch;
      const std::int8_t* src = ws.out.data() + b;
      for (std::size_t o = 0; o < out_ch; ++o) dst[o] = src[o * lanes];
    }
  }
}

}  // namespace rung

}  // namespace fenix::nn::kernels
