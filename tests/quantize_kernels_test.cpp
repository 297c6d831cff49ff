// Bit-exactness tests for the blocked, SIMD and time-lane INT8 kernels
// against their scalar references. Every fast path reorders int32 partial
// accumulations; integer addition is associative, so as long as partials
// cannot overflow (guaranteed for the layer sizes here) every reordering
// must produce the same bits as the sequential reference — these tests pin
// that contract across randomized shapes, including dims that are not a
// multiple of the 4-wide block or of any lane width, at every ISA rung the
// host supports.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <string>
#include <vector>

#include "nn/kernel_rungs.hpp"
#include "nn/kernels.hpp"
#include "nn/quantize.hpp"
#include "sim/random.hpp"

namespace fenix::nn {
namespace {

void fill_i8(std::vector<std::int8_t>& v, sim::RandomStream& rng) {
  for (auto& x : v) {
    x = static_cast<std::int8_t>(static_cast<int>(rng.uniform_int(255)) - 127);
  }
}

QDense random_qdense(std::size_t rows, std::size_t cols, sim::RandomStream& rng) {
  QDense d;
  d.w.rows = rows;
  d.w.cols = cols;
  d.w.exponent = -7;
  d.w.data.resize(rows * cols);
  fill_i8(d.w.data, rng);
  d.bias.resize(rows);
  for (auto& b : d.bias) {
    b = static_cast<std::int32_t>(rng.uniform_int(1 << 14)) - (1 << 13);
  }
  d.in_exponent = -6;
  d.out_exponent = -4;  // shift = -4 - (-7 + -6) = 9
  return d;
}

QConv1D random_qconv(std::size_t in_ch, std::size_t out_ch, std::size_t kernel,
                     sim::RandomStream& rng) {
  QConv1D c;
  c.in_ch = in_ch;
  c.out_ch = out_ch;
  c.kernel = kernel;
  c.w.rows = out_ch;
  c.w.cols = in_ch * kernel;
  c.w.exponent = -7;
  c.w.data.resize(c.w.rows * c.w.cols);
  fill_i8(c.w.data, rng);
  c.bias.resize(out_ch);
  for (auto& b : c.bias) {
    b = static_cast<std::int32_t>(rng.uniform_int(1 << 14)) - (1 << 13);
  }
  c.in_exponent = -6;
  c.out_exponent = -4;
  c.wpairs = kernels::pack_weight_pairs(c.w.data.data(), out_ch, c.w.cols,
                                        c.w.cols);
  return c;
}

// Every rung the host can run, narrowest first.
std::vector<kernels::rung::Isa> host_rungs() {
  std::vector<kernels::rung::Isa> rungs;
  for (const auto r : {kernels::rung::Isa::kScalar, kernels::rung::Isa::kAvx2,
                       kernels::rung::Isa::kAvx512}) {
    if (kernels::rung::supported(r)) rungs.push_back(r);
  }
  return rungs;
}

TEST(Kernels, DotMatchesNaive) {
  sim::RandomStream rng(11);
  for (std::size_t n : {0u, 1u, 2u, 3u, 4u, 5u, 7u, 8u, 15u, 16u, 33u, 100u}) {
    std::vector<std::int8_t> a(n), b(n);
    fill_i8(a, rng);
    fill_i8(b, rng);
    std::int32_t expected = 0;
    for (std::size_t i = 0; i < n; ++i) {
      expected += static_cast<std::int32_t>(a[i]) * static_cast<std::int32_t>(b[i]);
    }
    EXPECT_EQ(kernels::dot_i8(a.data(), b.data(), n), expected) << "n=" << n;
  }
}

TEST(Kernels, GemvAccMatchesNaive) {
  sim::RandomStream rng(12);
  for (std::size_t rows : {1u, 2u, 3u, 4u, 5u, 9u, 16u, 31u}) {
    for (std::size_t cols : {1u, 3u, 4u, 17u, 64u}) {
      std::vector<std::int8_t> w(rows * cols), x(cols);
      fill_i8(w, rng);
      fill_i8(x, rng);
      std::vector<std::int32_t> got(rows, 0);
      kernels::gemv_acc_i8(w.data(), rows, cols, cols, x.data(), got.data());
      for (std::size_t r = 0; r < rows; ++r) {
        std::int32_t expected = 0;
        for (std::size_t c = 0; c < cols; ++c) {
          expected += static_cast<std::int32_t>(w[r * cols + c]) *
                      static_cast<std::int32_t>(x[c]);
        }
        EXPECT_EQ(got[r], expected) << rows << "x" << cols << " row " << r;
      }
    }
  }
}

TEST(QDenseKernels, BlockedMatchesReferenceBitExact) {
  sim::RandomStream rng(13);
  // Shapes deliberately include non-multiples of the 4-row block and the
  // 4-wide unroll, plus degenerate 1-dim layers.
  const std::size_t shapes[][2] = {{1, 1},  {1, 7},  {3, 5},   {4, 4},
                                   {5, 9},  {7, 33}, {16, 16}, {31, 65},
                                   {64, 3}, {130, 50}};
  for (const auto& shape : shapes) {
    const auto layer = random_qdense(shape[0], shape[1], rng);
    std::vector<std::int8_t> x(shape[1]);
    fill_i8(x, rng);
    for (bool relu : {false, true}) {
      std::vector<std::int8_t> y_blocked(shape[0]), y_reference(shape[0]);
      layer.forward(x.data(), y_blocked.data(), relu);
      layer.forward_reference(x.data(), y_reference.data(), relu);
      EXPECT_EQ(y_blocked, y_reference)
          << shape[0] << "x" << shape[1] << " relu=" << relu;
    }
  }
}

TEST(QDenseKernels, RandomizedShapesBitExact) {
  sim::RandomStream rng(14);
  for (int trial = 0; trial < 50; ++trial) {
    const std::size_t rows = 1 + rng.uniform_int(70);
    const std::size_t cols = 1 + rng.uniform_int(70);
    const auto layer = random_qdense(rows, cols, rng);
    std::vector<std::int8_t> x(cols);
    fill_i8(x, rng);
    std::vector<std::int8_t> y_blocked(rows), y_reference(rows);
    const bool relu = (trial & 1) != 0;
    layer.forward(x.data(), y_blocked.data(), relu);
    layer.forward_reference(x.data(), y_reference.data(), relu);
    ASSERT_EQ(y_blocked, y_reference) << rows << "x" << cols << " relu=" << relu;
  }
}

// --------------------------------------------------------- SIMD variants
//
// The AVX2/AVX-512 kernels must agree with the scalar blocked kernels bit
// for bit on every shape, including tails shorter than a vector chunk. On a
// host without AVX2 the _simd entry points forward to the scalar kernels, so
// these tests degenerate to identity checks there (still worth running: they
// pin the dispatch path).

TEST(SimdKernels, GemvAccMatchesScalarBitExact) {
  sim::RandomStream rng(21);
  for (std::size_t rows : {1u, 2u, 3u, 4u, 5u, 9u, 16u, 31u, 64u}) {
    for (std::size_t cols : {1u, 3u, 15u, 16u, 17u, 31u, 32u, 33u, 48u, 64u, 100u, 128u}) {
      std::vector<std::int8_t> w(rows * cols), x(cols);
      fill_i8(w, rng);
      fill_i8(x, rng);
      std::vector<std::int32_t> scalar(rows, 0), simd(rows, 0);
      kernels::gemv_acc_i8(w.data(), rows, cols, cols, x.data(), scalar.data());
      kernels::gemv_acc_i8_simd(w.data(), rows, cols, cols, x.data(), simd.data());
      ASSERT_EQ(simd, scalar) << rows << "x" << cols;
    }
  }
}

TEST(SimdKernels, GemvMatchesScalarBitExact) {
  sim::RandomStream rng(22);
  const std::size_t shapes[][2] = {{1, 1},   {1, 16},  {3, 17},  {4, 48},
                                   {5, 33},  {7, 31},  {16, 64}, {31, 65},
                                   {64, 128}, {130, 50}};
  for (const auto& shape : shapes) {
    const auto layer = random_qdense(shape[0], shape[1], rng);
    std::vector<std::int8_t> x(shape[1]);
    fill_i8(x, rng);
    for (bool relu : {false, true}) {
      std::vector<std::int8_t> y_scalar(shape[0]), y_simd(shape[0]);
      layer.forward(x.data(), y_scalar.data(), relu);
      layer.forward_simd(x.data(), y_simd.data(), relu);
      ASSERT_EQ(y_simd, y_scalar)
          << shape[0] << "x" << shape[1] << " relu=" << relu;
    }
  }
}

TEST(SimdKernels, Conv1dMatchesScalarBitExact) {
  sim::RandomStream rng(23);
  const std::size_t shapes[][3] = {{1, 1, 1},   {1, 4, 3},  {3, 5, 3},
                                   {16, 16, 3}, {16, 32, 5}, {7, 9, 5},
                                   {32, 64, 3}};
  for (const auto& shape : shapes) {
    const auto layer = random_qconv(shape[0], shape[1], shape[2], rng);
    for (std::size_t T : {1u, 2u, 3u, 5u, 9u, 17u}) {
      std::vector<std::int8_t> x(T * shape[0]);
      fill_i8(x, rng);
      for (bool relu : {false, true}) {
        std::vector<std::int8_t> y_scalar(T * shape[1]);
        std::vector<std::int8_t> y_simd(T * shape[1]);
        layer.forward(x.data(), T, y_scalar.data(), relu);
        layer.forward_simd(x.data(), T, y_simd.data(), relu);
        ASSERT_EQ(y_simd, y_scalar)
            << "in=" << shape[0] << " out=" << shape[1] << " k=" << shape[2]
            << " T=" << T << " relu=" << relu;
      }
    }
  }
}

// ------------------------------------------------ every ISA rung
//
// The dispatched kernels take the widest rung the CPU has, so the tests
// above only ever see that one. These call the per-rung forms: on an AVX-512
// host the 8-lane AVX2 chunking (T = 9 needs a second chunk) and the scalar
// rung run here and nowhere else.

TEST(SimdKernels, DispatchedRungIsNamedAndSupported) {
  const auto r = kernels::rung::dispatched();
  EXPECT_TRUE(kernels::rung::supported(r));
  EXPECT_TRUE(kernels::rung::supported(kernels::rung::Isa::kScalar));
  EXPECT_EQ(std::string(kernels::isa_name()), kernels::rung::name(r));
  EXPECT_EQ(kernels::gemm_batch_lanes(), kernels::rung::gemm_lanes(r));
}

TEST(SimdKernels, GemvEveryRungMatchesReference) {
  sim::RandomStream rng(25);
  for (const auto r : host_rungs()) {
    for (int trial = 0; trial < 30; ++trial) {
      const std::size_t rows = 1 + rng.uniform_int(70);
      const std::size_t cols = 1 + rng.uniform_int(140);
      const auto layer = random_qdense(rows, cols, rng);
      std::vector<std::int8_t> x(cols);
      fill_i8(x, rng);
      const bool relu = (trial & 1) != 0;
      const int shift = layer.out_exponent - (layer.w.exponent + layer.in_exponent);
      std::vector<std::int8_t> y(rows), y_reference(rows);
      kernels::rung::gemv_i8_simd(r, layer.w.data.data(), rows, cols, cols,
                                  x.data(), layer.bias.data(), shift, relu,
                                  y.data());
      layer.forward_reference(x.data(), y_reference.data(), relu);
      ASSERT_EQ(y, y_reference) << kernels::rung::name(r) << " " << rows << "x"
                                << cols << " relu=" << relu;
    }
  }
}

TEST(SimdKernels, BatchGemmEveryRungMatchesPerLaneGemv) {
  sim::RandomStream rng(26);
  for (const auto r : host_rungs()) {
    const std::size_t lanes = kernels::rung::gemm_lanes(r);
    for (int trial = 0; trial < 30; ++trial) {
      const std::size_t rows = 1 + rng.uniform_int(40);
      const std::size_t K = 1 + rng.uniform_int(100);
      const std::size_t used = 1 + rng.uniform_int(lanes);
      const auto layer = random_qdense(rows, K, rng);
      const auto wpairs = kernels::pack_weight_pairs(layer.w.data.data(), rows, K, K);
      std::vector<std::vector<std::int8_t>> xs(used, std::vector<std::int8_t>(K));
      const std::int8_t* ptrs[16];
      for (std::size_t b = 0; b < used; ++b) {
        fill_i8(xs[b], rng);
        ptrs[b] = xs[b].data();
      }
      const bool relu = (trial & 1) != 0;
      const int shift = layer.out_exponent - (layer.w.exponent + layer.in_exponent);
      std::vector<std::int32_t> packed((K + 1) / 2 * lanes);
      std::vector<std::int8_t> out(rows * lanes);
      kernels::rung::gemm_pack_x(r, ptrs, used, K, packed.data());
      kernels::rung::gemm_i8_batch(r, wpairs.data(), rows, (K + 1) / 2,
                                   packed.data(), layer.bias.data(), shift, relu,
                                   out.data());
      for (std::size_t b = 0; b < used; ++b) {
        std::vector<std::int8_t> y_reference(rows);
        layer.forward_reference(xs[b].data(), y_reference.data(), relu);
        for (std::size_t o = 0; o < rows; ++o) {
          ASSERT_EQ(out[o * lanes + b], y_reference[o])
              << kernels::rung::name(r) << " rows=" << rows << " K=" << K
              << " lane " << b << "/" << used << " row " << o;
        }
      }
    }
  }
}

TEST(TimeLaneConv, EveryRungMatchesReferenceBitExact) {
  sim::RandomStream rng(27);
  for (const auto r : host_rungs()) {
    for (std::size_t kernel : {1u, 3u, 5u}) {
      for (std::size_t T : {1u, 2u, 9u, 16u, 17u, 33u}) {
        // One odd in_ch (a weight/activation pair then straddles two taps)
        // and one drawn freely, each with a random out_ch.
        for (const std::size_t in_ch : {1 + 2 * rng.uniform_int(12),
                                        1 + rng.uniform_int(40)}) {
          const std::size_t out_ch = 1 + rng.uniform_int(70);
          const auto layer = random_qconv(in_ch, out_ch, kernel, rng);
          const int shift =
              layer.out_exponent - (layer.w.exponent + layer.in_exponent);
          std::vector<std::int8_t> x(T * in_ch);
          fill_i8(x, rng);
          for (bool relu : {false, true}) {
            std::vector<std::int8_t> y(T * out_ch), y_reference(T * out_ch);
            kernels::rung::conv1d_i8_simd(r, layer.w.data.data(),
                                          layer.wpairs.data(), out_ch, in_ch,
                                          kernel, x.data(), T, layer.bias.data(),
                                          shift, relu, y.data());
            layer.forward_reference(x.data(), T, y_reference.data(), relu);
            ASSERT_EQ(y, y_reference)
                << kernels::rung::name(r) << " in=" << in_ch << " out=" << out_ch
                << " k=" << kernel << " T=" << T << " relu=" << relu;
          }
        }
      }
    }
  }
}

TEST(TimeLaneConv, NonPositiveShiftAndUnpairedLayerFallBackBitExact) {
  sim::RandomStream rng(28);
  for (const auto r : host_rungs()) {
    // shift = out_e - (w_e + in_e) = out_e + 13: 0 and -2 take the blocked
    // kernel (its int64 left shift is the reference semantics); 9 without
    // wpairs takes it too.
    for (const int out_exponent : {-13, -15, -4}) {
      for (const std::size_t T : {1u, 9u, 17u}) {
        auto layer = random_qconv(7, 13, 3, rng);
        layer.out_exponent = out_exponent;
        if (out_exponent == -4) layer.wpairs.clear();
        const int shift =
            layer.out_exponent - (layer.w.exponent + layer.in_exponent);
        std::vector<std::int8_t> x(T * 7);
        fill_i8(x, rng);
        for (bool relu : {false, true}) {
          std::vector<std::int8_t> y(T * 13), y_simd(T * 13), y_reference(T * 13);
          kernels::rung::conv1d_i8_simd(
              r, layer.w.data.data(),
              layer.wpairs.empty() ? nullptr : layer.wpairs.data(), 13, 7, 3,
              x.data(), T, layer.bias.data(), shift, relu, y.data());
          layer.forward_simd(x.data(), T, y_simd.data(), relu);
          layer.forward_reference(x.data(), T, y_reference.data(), relu);
          ASSERT_EQ(y, y_reference) << kernels::rung::name(r) << " shift=" << shift
                                    << " T=" << T << " relu=" << relu;
          ASSERT_EQ(y_simd, y_reference) << "shift=" << shift << " T=" << T;
        }
      }
    }
  }
}

TEST(QConv1DKernels, BlockedMatchesReferenceBitExact) {
  sim::RandomStream rng(15);
  const std::size_t shapes[][3] = {{1, 1, 1},  {1, 4, 3},  {3, 5, 3},
                                   {16, 16, 3}, {16, 32, 5}, {7, 9, 5},
                                   {12, 64, 3}};
  for (const auto& shape : shapes) {
    const auto layer = random_qconv(shape[0], shape[1], shape[2], rng);
    // T sweeps through lengths shorter than, equal to, and longer than the
    // kernel so every padding regime (left edge, right edge, both) is hit.
    for (std::size_t T : {1u, 2u, 3u, 5u, 9u, 17u}) {
      std::vector<std::int8_t> x(T * shape[0]);
      fill_i8(x, rng);
      for (bool relu : {false, true}) {
        std::vector<std::int8_t> y_blocked(T * shape[1]);
        std::vector<std::int8_t> y_reference(T * shape[1]);
        layer.forward(x.data(), T, y_blocked.data(), relu);
        layer.forward_reference(x.data(), T, y_reference.data(), relu);
        EXPECT_EQ(y_blocked, y_reference)
            << "in=" << shape[0] << " out=" << shape[1] << " k=" << shape[2]
            << " T=" << T << " relu=" << relu;
      }
    }
  }
}

// --------------------------------------------------------- full model paths

std::vector<SeqSample> pattern_samples(std::size_t per_class, std::uint64_t seed) {
  sim::RandomStream rng(seed);
  std::vector<SeqSample> samples;
  for (std::size_t c = 0; c < 3; ++c) {
    for (std::size_t i = 0; i < per_class; ++i) {
      SeqSample s;
      s.label = static_cast<std::int16_t>(c);
      for (std::size_t t = 0; t < 9; ++t) {
        const std::uint16_t base = c == 0 ? 10 : c == 1 ? 120 : (t % 2 ? 10 : 120);
        s.tokens.push_back({static_cast<std::uint16_t>(base + rng.uniform_int(8)),
                            static_cast<std::uint16_t>(rng.uniform_int(8))});
      }
      samples.push_back(std::move(s));
    }
  }
  return samples;
}

TEST(QuantizedCnnKernels, BlockedLogitsMatchReferenceBitExact) {
  CnnConfig config;
  config.conv_channels = {16, 24};
  config.fc_dims = {32};
  config.num_classes = 3;
  CnnClassifier model(config, 31);
  const auto train = pattern_samples(20, 70);
  TrainOptions opts;
  opts.epochs = 2;
  model.fit(train, opts);
  const QuantizedCnn qmodel(model, train);

  Scratch scratch;
  const auto test = pattern_samples(30, 71);
  for (const SeqSample& s : test) {
    const auto& blocked = qmodel.logits_q(s.tokens, scratch);
    const auto reference = qmodel.logits_q_reference(s.tokens);
    ASSERT_EQ(blocked, reference);
    // The allocating convenience wrapper must agree too.
    ASSERT_EQ(qmodel.logits_q(s.tokens), reference);
    ASSERT_EQ(qmodel.predict(s.tokens, scratch), qmodel.predict(s.tokens));
  }
}

// A window longer than one AVX-512 chunk (T = 17), an odd embedding width
// and kernel 5, at every precision: the dispatched logits_q / predict must
// equal the scalar reference pipeline bit for bit.
TEST(QuantizedCnnKernels, LongOddWindowMatchesReferenceAtEveryPrecision) {
  CnnConfig config;
  config.seq_len = 17;
  config.len_embed_dim = 5;
  config.ipd_embed_dim = 4;
  config.conv_channels = {7, 12};
  config.kernel = 5;
  config.fc_dims = {10};
  config.num_classes = 3;
  const auto samples = [](std::size_t per_class, std::uint64_t seed) {
    sim::RandomStream rng(seed);
    std::vector<SeqSample> out;
    for (std::size_t c = 0; c < 3; ++c) {
      for (std::size_t i = 0; i < per_class; ++i) {
        SeqSample s;
        s.label = static_cast<std::int16_t>(c);
        for (std::size_t t = 0; t < 17; ++t) {
          s.tokens.push_back(
              {static_cast<std::uint16_t>(40 * c + rng.uniform_int(30)),
               static_cast<std::uint16_t>(rng.uniform_int(8))});
        }
        out.push_back(std::move(s));
      }
    }
    return out;
  };
  CnnClassifier model(config, 37);
  const auto train = samples(15, 90);
  TrainOptions opts;
  opts.epochs = 2;
  model.fit(train, opts);
  const auto test = samples(20, 91);
  for (const Precision p : {Precision::kInt8, Precision::kInt4,
                            Precision::kTernary, Precision::kFp32}) {
    const QuantizedCnn qmodel(model, train, p);
    Scratch scratch;
    for (const SeqSample& s : test) {
      const auto reference = qmodel.logits_q_reference(s.tokens);
      ASSERT_EQ(qmodel.logits_q(s.tokens, scratch), reference) << precision_name(p);
      const auto best = std::max_element(reference.begin(), reference.end()) -
                        reference.begin();
      ASSERT_EQ(qmodel.predict(s.tokens, scratch), best) << precision_name(p);
    }
  }
}

TEST(QuantizedRnnKernels, BlockedPredictMatchesReference) {
  RnnConfig config;
  config.units = 24;
  config.fc_dims = {16};
  config.num_classes = 3;
  RnnClassifier model(config, 32);
  const auto train = pattern_samples(20, 72);
  TrainOptions opts;
  opts.epochs = 2;
  model.fit(train, opts);
  const QuantizedRnn qmodel(model, train);

  Scratch scratch;
  const auto test = pattern_samples(30, 73);
  for (const SeqSample& s : test) {
    const auto blocked = qmodel.predict(s.tokens, scratch);
    ASSERT_EQ(blocked, qmodel.predict_reference(s.tokens));
    ASSERT_EQ(blocked, qmodel.predict(s.tokens));
  }
}

TEST(QuantizedCnnKernels, PredictBatchMatchesPerWindowPredict) {
  CnnConfig config;
  config.conv_channels = {16, 24};
  config.fc_dims = {32};
  config.num_classes = 3;
  CnnClassifier model(config, 35);
  const auto train = pattern_samples(20, 76);
  TrainOptions opts;
  opts.epochs = 2;
  model.fit(train, opts);
  const QuantizedCnn qmodel(model, train);

  const auto test = pattern_samples(30, 77);
  std::vector<Token> flat;
  for (const SeqSample& s : test) {
    flat.insert(flat.end(), s.tokens.begin(), s.tokens.end());
  }
  Scratch scratch;
  std::vector<std::int16_t> batched(test.size());
  qmodel.predict_batch(flat.data(), test.size(), scratch, batched.data());
  Scratch serial_scratch;
  for (std::size_t i = 0; i < test.size(); ++i) {
    ASSERT_EQ(batched[i], qmodel.predict(test[i].tokens, serial_scratch)) << i;
  }
}

TEST(QuantizedRnnKernels, PredictBatchMatchesPerWindowPredict) {
  RnnConfig config;
  config.units = 24;
  config.fc_dims = {16};
  config.num_classes = 3;
  RnnClassifier model(config, 36);
  const auto train = pattern_samples(20, 78);
  TrainOptions opts;
  opts.epochs = 2;
  model.fit(train, opts);
  const QuantizedRnn qmodel(model, train);

  const auto test = pattern_samples(30, 79);
  std::vector<Token> flat;
  for (const SeqSample& s : test) {
    flat.insert(flat.end(), s.tokens.begin(), s.tokens.end());
  }
  Scratch scratch;
  std::vector<std::int16_t> batched(test.size());
  qmodel.predict_batch(flat.data(), test.size(), scratch, batched.data());
  Scratch serial_scratch;
  for (std::size_t i = 0; i < test.size(); ++i) {
    ASSERT_EQ(batched[i], qmodel.predict(test[i].tokens, serial_scratch)) << i;
  }
}

TEST(ScratchReuse, SharedAcrossModelsAndCallOrders) {
  CnnConfig cnn_config;
  cnn_config.conv_channels = {16};
  cnn_config.fc_dims = {};
  cnn_config.num_classes = 3;
  CnnClassifier cnn(cnn_config, 33);
  RnnConfig rnn_config;
  rnn_config.units = 16;
  rnn_config.num_classes = 3;
  RnnClassifier rnn(rnn_config, 34);
  const auto train = pattern_samples(20, 74);
  TrainOptions opts;
  opts.epochs = 2;
  cnn.fit(train, opts);
  rnn.fit(train, opts);
  const QuantizedCnn qcnn(cnn, train);
  const QuantizedRnn qrnn(rnn, train);

  // One scratch ping-ponged between two differently-shaped models must give
  // the same answers as fresh scratches: sizes are re-established per call.
  Scratch shared;
  const auto test = pattern_samples(10, 75);
  for (const SeqSample& s : test) {
    const auto cnn_shared = qcnn.predict(s.tokens, shared);
    const auto rnn_shared = qrnn.predict(s.tokens, shared);
    Scratch fresh_cnn, fresh_rnn;
    EXPECT_EQ(cnn_shared, qcnn.predict(s.tokens, fresh_cnn));
    EXPECT_EQ(rnn_shared, qrnn.predict(s.tokens, fresh_rnn));
  }
}

}  // namespace
}  // namespace fenix::nn
