#include "kernels/activation.h"

#include <algorithm>

#include "gemm/kernels/kernel.h"

namespace bt::kernels {

namespace {

// Rows stream through a fixed stack buffer, so any width works without heap
// traffic.
constexpr std::int64_t kChunk = 256;

template <typename T>
void add_bias_impl(par::Device& dev, T* x, const T* bias, std::int64_t rows,
                   std::int64_t cols) {
  dev.parallel_for(0, rows, /*grain=*/8, [&](std::int64_t r) {
    T* row = x + r * cols;
    for (std::int64_t j = 0; j < cols; ++j) {
      store_f32(row[j], load_f32(row[j]) + load_f32(bias[j]));
    }
  });
}

template <typename T>
void add_bias_gelu_impl(par::Device& dev, T* x, const T* bias,
                        std::int64_t rows, std::int64_t cols) {
  // The same dispatched bias_gelu_row as the fused GEMM epilogue
  // (gemm::BiasGeluEpilogue), so Fig. 10 compares fusion, not GELU code.
  dev.parallel_for(0, rows, /*grain=*/8, [&](std::int64_t r) {
    T* row = x + r * cols;
    float buf[kChunk];
    for (std::int64_t j0 = 0; j0 < cols; j0 += kChunk) {
      const int n = static_cast<int>(std::min(kChunk, cols - j0));
      convert_row_f32(row + j0, buf, n);
      gemm::kernels::bias_gelu_row(buf, bias + j0, buf, n);
      convert_row_from_f32(buf, row + j0, n);
    }
  });
}

}  // namespace

void add_bias(par::Device& dev, fp16_t* x, const fp16_t* bias,
              std::int64_t rows, std::int64_t cols) {
  add_bias_impl(dev, x, bias, rows, cols);
}
void add_bias(par::Device& dev, float* x, const float* bias,
              std::int64_t rows, std::int64_t cols) {
  add_bias_impl(dev, x, bias, rows, cols);
}
void add_bias_gelu(par::Device& dev, fp16_t* x, const fp16_t* bias,
                   std::int64_t rows, std::int64_t cols) {
  add_bias_gelu_impl(dev, x, bias, rows, cols);
}
void add_bias_gelu(par::Device& dev, float* x, const float* bias,
                   std::int64_t rows, std::int64_t cols) {
  add_bias_gelu_impl(dev, x, bias, rows, cols);
}

}  // namespace bt::kernels
