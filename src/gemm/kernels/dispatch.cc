// Kernel selection: cpuid-style detection once at startup, overridable via
// BT_GEMM_KERNEL=scalar|vec|avx2|avx512 for A/B benchmarking, and force() for
// tests. The active kernel's primitives are stored as atomic function
// pointers so each hot-path dispatch is a single relaxed load.
#include "gemm/kernels/kernel.h"

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <cstdlib>

#include "common/half.h"

namespace bt::gemm::kernels {

namespace {

bool host_has_avx2_fma() noexcept {
#if (defined(__x86_64__) || defined(__i386__)) && \
    (defined(__GNUC__) || defined(__clang__))
  return __builtin_cpu_supports("avx2") && __builtin_cpu_supports("fma");
#else
  return false;
#endif
}

bool host_has_avx512f() noexcept {
#if (defined(__x86_64__) || defined(__i386__)) && \
    (defined(__GNUC__) || defined(__clang__))
  return __builtin_cpu_supports("avx512f");
#else
  return false;
#endif
}

Kind detect_best() noexcept {
  if (supported(Kind::kAvx512)) return Kind::kAvx512;
  if (supported(Kind::kAvx2)) return Kind::kAvx2;
  return Kind::kVec;
}

}  // namespace

namespace detail {

Kind kind_for_env(const char* env) noexcept {
  if (env == nullptr || env[0] == '\0') return detect_best();
  Kind requested;
  if (!parse(env, &requested)) {
    std::fprintf(stderr,
                 "bt: BT_GEMM_KERNEL=%s is not one of scalar|vec|avx2|avx512; "
                 "using %s\n",
                 env, name(detect_best()));
    return detect_best();
  }
  if (!supported(requested)) {
    std::fprintf(stderr,
                 "bt: BT_GEMM_KERNEL=%s is unsupported on this build/host; "
                 "using %s\n",
                 env, name(detect_best()));
    return detect_best();
  }
  return requested;
}

}  // namespace detail

namespace {

struct State {
  std::atomic<Kind> kind;
  std::atomic<TileMultiplyFn> fn;
  std::atomic<ExpRowFn> exp_row;
  std::atomic<MaxRowFn> max_row;
  std::atomic<BiasGeluRowFn> bias_gelu_row;
  State() { set(detail::kind_for_env(std::getenv("BT_GEMM_KERNEL"))); }
  void set(Kind k) noexcept {
    kind.store(k, std::memory_order_relaxed);
    fn.store(kernels::fn(k), std::memory_order_relaxed);
    exp_row.store(kernels::exp_row_fn(k), std::memory_order_relaxed);
    max_row.store(kernels::max_row_fn(k), std::memory_order_relaxed);
    bias_gelu_row.store(kernels::bias_gelu_row_fn(k),
                        std::memory_order_relaxed);
  }
};

State& state() noexcept {
  static State s;
  return s;
}

}  // namespace

const char* name(Kind kind) noexcept {
  switch (kind) {
    case Kind::kScalar: return "scalar";
    case Kind::kVec: return "vec";
    case Kind::kAvx2: return "avx2";
    case Kind::kAvx512: return "avx512";
  }
  return "?";
}

bool parse(std::string_view text, Kind* out) noexcept {
  if (text == "scalar") {
    *out = Kind::kScalar;
  } else if (text == "vec") {
    *out = Kind::kVec;
  } else if (text == "avx2") {
    *out = Kind::kAvx2;
  } else if (text == "avx512") {
    *out = Kind::kAvx512;
  } else {
    return false;
  }
  return true;
}

bool supported(Kind kind) noexcept {
  switch (kind) {
    case Kind::kScalar:
    case Kind::kVec:
      return true;
    case Kind::kAvx2:
      return detail::avx2_kernel_compiled() && host_has_avx2_fma();
    case Kind::kAvx512:
      // The avx512 kind runs the avx2 row primitives.
      return detail::avx512_kernel_compiled() && host_has_avx512f() &&
             supported(Kind::kAvx2);
  }
  return false;
}

TileMultiplyFn fn(Kind kind) noexcept {
  switch (kind) {
    case Kind::kScalar: return &tile_multiply_scalar;
    case Kind::kVec: return &tile_multiply_vec;
    case Kind::kAvx2: return &tile_multiply_avx2;
    case Kind::kAvx512: return &tile_multiply_avx512;
  }
  return &tile_multiply_scalar;
}

ExpRowFn exp_row_fn(Kind kind) noexcept {
  switch (kind) {
    case Kind::kScalar: return &exp_row_scalar;
    case Kind::kVec: return &exp_row_vec;
    case Kind::kAvx2:
    case Kind::kAvx512: return &exp_row_avx2;
  }
  return &exp_row_scalar;
}

MaxRowFn max_row_fn(Kind kind) noexcept {
  switch (kind) {
    case Kind::kScalar: return &max_row_scalar;
    case Kind::kVec: return &max_row_vec;
    case Kind::kAvx2:
    case Kind::kAvx512: return &max_row_avx2;
  }
  return &max_row_scalar;
}

BiasGeluRowFn bias_gelu_row_fn(Kind kind) noexcept {
  switch (kind) {
    case Kind::kScalar: return &bias_gelu_row_scalar;
    case Kind::kVec: return &bias_gelu_row_vec;
    case Kind::kAvx2:
    case Kind::kAvx512: return &bias_gelu_row_avx2;
  }
  return &bias_gelu_row_scalar;
}

Kind active() noexcept { return state().kind.load(std::memory_order_relaxed); }

bool force(Kind kind) noexcept {
  if (!supported(kind)) return false;
  state().set(kind);
  return true;
}

void tile_multiply(const float* panel_a, int mc, const float* panel_b, int kc,
                   float* acc) {
  state().fn.load(std::memory_order_relaxed)(panel_a, mc, panel_b, kc, acc);
}

float exp_row(const float* src, float sub, float mul, float* dst, int n) {
  return state().exp_row.load(std::memory_order_relaxed)(src, sub, mul, dst, n);
}

float max_row(const float* src, int n) {
  return state().max_row.load(std::memory_order_relaxed)(src, n);
}

void bias_gelu_row(const float* src, const float* bias, float* dst, int n) {
  state().bias_gelu_row.load(std::memory_order_relaxed)(src, bias, dst, n);
}

void bias_gelu_row(const float* src, const fp16_t* bias, float* dst, int n) {
  const BiasGeluRowFn run =
      state().bias_gelu_row.load(std::memory_order_relaxed);
  float wide[kPanelN];
  for (int j0 = 0; j0 < n; j0 += kPanelN) {
    const int len = std::min(kPanelN, n - j0);
    convert_row_f32(bias + j0, wide, len);
    run(src + j0, wide, dst + j0, len);
  }
}

}  // namespace bt::gemm::kernels
