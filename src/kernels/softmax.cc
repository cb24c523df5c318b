#include "kernels/softmax.h"

#include <algorithm>
#include <cmath>

#include "gemm/kernels/kernel.h"

namespace bt::kernels {

namespace {

constexpr float kMask = -1e4f;  // framework-style additive attention mask

// Rows stream through a fixed stack buffer, so any max_seq works without
// heap traffic.
constexpr int kChunk = 256;

// buf[0, n) = row[j0, j0 + n) widened, plus the additive mask on columns
// >= len.
template <typename T>
void load_masked(const T* row, int j0, int n, int len, float* buf) {
  convert_row_f32(row + j0, buf, n);
  for (int j = std::max(len - j0, 0); j < n; ++j) buf[j] += kMask;
}

// Softmax of row[0, cols) in place, masking columns >= len: a max pass, a
// pass summing the exps, and a pass storing exp * (1 / sum) — the max and
// the exps run through the same vectorized max_row / exp_row primitives as
// the fused kernels, so the padded baselines and the fused paths differ
// only in traversal and fusion.
template <typename T>
void softmax_row(T* row, int cols, int len) {
  float buf[kChunk];
  float mx = -INFINITY;
  for (int j0 = 0; j0 < cols; j0 += kChunk) {
    const int n = std::min(kChunk, cols - j0);
    load_masked(row, j0, n, len, buf);
    mx = std::max(mx, gemm::kernels::max_row(buf, n));
  }
  float sum = 0.0f;
  for (int j0 = 0; j0 < cols; j0 += kChunk) {
    const int n = std::min(kChunk, cols - j0);
    load_masked(row, j0, n, len, buf);
    sum += gemm::kernels::exp_row(buf, mx, 1.0f, buf, n);
  }
  const float inv = 1.0f / sum;
  for (int j0 = 0; j0 < cols; j0 += kChunk) {
    const int n = std::min(kChunk, cols - j0);
    load_masked(row, j0, n, len, buf);
    gemm::kernels::exp_row(buf, mx, inv, buf, n);
    convert_row_from_f32(buf, row + j0, n);
  }
}

// Zero-padding row: touches only the valid prefix; masked tail is zeroed so
// the following padded batched GEMM reads exact zeros.
template <typename T>
void softmax_row_zeropad(T* row, int max_seq, int len) {
  softmax_row(row, len, len);
  for (int j = len; j < max_seq; ++j) store_f32(row[j], 0.0f);
}

template <typename T>
void softmax_full_impl(par::Device& dev, T* scores, int batch, int heads,
                       int max_seq, std::span<const int> seq_lens) {
  const std::int64_t rows =
      static_cast<std::int64_t>(batch) * heads * max_seq;
  dev.parallel_for(0, rows, /*grain=*/8, [&](std::int64_t r) {
    const int b = static_cast<int>(r / (static_cast<std::int64_t>(heads) * max_seq));
    // The whole padded row, as a padding-oblivious framework computes it.
    softmax_row(scores + r * max_seq, max_seq, seq_lens[static_cast<std::size_t>(b)]);
  });
}

template <typename T>
void softmax_zeropad_impl(par::Device& dev, T* scores, int batch, int heads,
                          int max_seq, std::span<const int> seq_lens) {
  // Enumerate only valid rows: sum_b heads * len_b tasks.
  std::vector<std::int64_t> row_prefix(static_cast<std::size_t>(batch) + 1, 0);
  for (int b = 0; b < batch; ++b) {
    row_prefix[static_cast<std::size_t>(b) + 1] =
        row_prefix[static_cast<std::size_t>(b)] +
        static_cast<std::int64_t>(heads) * seq_lens[static_cast<std::size_t>(b)];
  }
  const std::int64_t valid_rows = row_prefix[static_cast<std::size_t>(batch)];
  dev.parallel_for(0, valid_rows, /*grain=*/8, [&](std::int64_t t) {
    // Binary search the owning batch, then decompose into (head, row).
    int lo = 0;
    int hi = batch - 1;
    while (lo < hi) {
      const int mid = (lo + hi) / 2;
      if (t < row_prefix[static_cast<std::size_t>(mid) + 1]) {
        hi = mid;
      } else {
        lo = mid + 1;
      }
    }
    const int b = lo;
    const int len = seq_lens[static_cast<std::size_t>(b)];
    const std::int64_t local = t - row_prefix[static_cast<std::size_t>(b)];
    const std::int64_t h = local / len;
    const std::int64_t s = local % len;
    T* row = scores +
             ((static_cast<std::int64_t>(b) * heads + h) * max_seq + s) * max_seq;
    softmax_row_zeropad(row, max_seq, len);
  });
}

}  // namespace

void softmax_full(par::Device& dev, fp16_t* scores, int batch, int heads,
                  int max_seq, std::span<const int> seq_lens) {
  softmax_full_impl(dev, scores, batch, heads, max_seq, seq_lens);
}
void softmax_full(par::Device& dev, float* scores, int batch, int heads,
                  int max_seq, std::span<const int> seq_lens) {
  softmax_full_impl(dev, scores, batch, heads, max_seq, seq_lens);
}
void softmax_zeropad(par::Device& dev, fp16_t* scores, int batch, int heads,
                     int max_seq, std::span<const int> seq_lens) {
  softmax_zeropad_impl(dev, scores, batch, heads, max_seq, seq_lens);
}
void softmax_zeropad(par::Device& dev, float* scores, int batch, int heads,
                     int max_seq, std::span<const int> seq_lens) {
  softmax_zeropad_impl(dev, scores, batch, heads, max_seq, seq_lens);
}

}  // namespace bt::kernels
