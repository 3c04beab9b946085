// Dispatch and packing for the SIMD kernel subsystem (see kernels.h).
#include "tensor/kernels.h"

#include <algorithm>
#include <atomic>
#include <cstring>

#include "common/check.h"
#include "common/flags.h"

namespace ripple {

const char* kernel_isa_name(KernelIsa isa) {
  switch (isa) {
    case KernelIsa::kScalar: return "scalar";
    case KernelIsa::kAvx2: return "avx2";
    case KernelIsa::kAvx512: return "avx512";
  }
  return "?";
}

const char* kernel_mode_name(KernelMode mode) {
  switch (mode) {
    case KernelMode::kAuto: return "auto";
    case KernelMode::kScalar: return "scalar";
  }
  return "?";
}

KernelMode parse_kernel_mode(const std::string& name) {
  if (name == "auto") return KernelMode::kAuto;
  if (name == "scalar") return KernelMode::kScalar;
  throw check_error("unknown kernel mode '" + name +
                    "' (expected auto|scalar)");
}

const std::vector<std::string>& kernel_mode_choices() {
  static const std::vector<std::string> choices = {"auto", "scalar"};
  return choices;
}

const char* apply_kernel_flag(const Flags& flags) {
  set_kernel_mode(parse_kernel_mode(
      flags.get_choice("kernels", kernel_mode_choices(), "auto")));
  return kernel_isa_name(active_kernel_isa());
}

void PackedMatrix::assign(const Matrix& w) {
  rows_ = w.rows();
  cols_ = w.cols();
  data_.resize(num_panels() * rows_ * kPanelWidth);
  for (std::size_t pj = 0; pj < num_panels(); ++pj) {
    const std::size_t j0 = pj * kPanelWidth;
    const std::size_t jw = std::min(kPanelWidth, cols_ - j0);
    for (std::size_t p = 0; p < rows_; ++p) {
      const float* src = w.data() + p * cols_ + j0;
      float* dst = data_.data() + (pj * rows_ + p) * kPanelWidth;
      std::memcpy(dst, src, jw * sizeof(float));
      if (jw < kPanelWidth) {
        std::memset(dst + jw, 0, (kPanelWidth - jw) * sizeof(float));
      }
    }
  }
}

namespace {

bool cpu_has_avx2() {
#if defined(__x86_64__) || defined(__i386__)
  return __builtin_cpu_supports("avx2") != 0;
#else
  return false;
#endif
}

bool cpu_has_avx512f() {
#if defined(__x86_64__) || defined(__i386__)
  return __builtin_cpu_supports("avx512f") != 0;
#else
  return false;
#endif
}

const KernelOps* best_table(KernelMode mode) {
#ifdef RIPPLE_FORCE_SCALAR_KERNELS
  (void)mode;
  return scalar_kernel_ops();
#else
  if (mode == KernelMode::kScalar) return scalar_kernel_ops();
  if (const KernelOps* avx512 = avx512_kernel_ops();
      avx512 != nullptr && cpu_has_avx512f()) {
    return avx512;
  }
  if (const KernelOps* avx2 = avx2_kernel_ops();
      avx2 != nullptr && cpu_has_avx2()) {
    return avx2;
  }
  return scalar_kernel_ops();
#endif
}

std::atomic<KernelMode> g_mode{KernelMode::kAuto};
std::atomic<const KernelOps*> g_active{nullptr};

}  // namespace

const KernelOps& kernels() {
  const KernelOps* ops = g_active.load(std::memory_order_acquire);
  if (ops == nullptr) {
    const KernelOps* fresh =
        best_table(g_mode.load(std::memory_order_acquire));
    // CAS from nullptr only: lazy first-use detection must never clobber a
    // table installed by a concurrent explicit set_kernel_mode().
    if (g_active.compare_exchange_strong(ops, fresh,
                                         std::memory_order_acq_rel,
                                         std::memory_order_acquire)) {
      return *fresh;
    }
  }
  return *ops;
}

void set_kernel_mode(KernelMode mode) {
  g_mode.store(mode, std::memory_order_release);
  g_active.store(best_table(mode), std::memory_order_release);
}

KernelMode kernel_mode() { return g_mode.load(std::memory_order_acquire); }

KernelIsa active_kernel_isa() { return kernels().isa; }

const KernelOps* kernel_ops_for(KernelIsa isa) {
  switch (isa) {
    case KernelIsa::kScalar: return scalar_kernel_ops();
    case KernelIsa::kAvx2:
      return cpu_has_avx2() ? avx2_kernel_ops() : nullptr;
    case KernelIsa::kAvx512:
      return cpu_has_avx512f() ? avx512_kernel_ops() : nullptr;
  }
  return nullptr;
}

std::vector<KernelIsa> available_kernel_isas() {
  std::vector<KernelIsa> isas{KernelIsa::kScalar};
  if (kernel_ops_for(KernelIsa::kAvx2) != nullptr) {
    isas.push_back(KernelIsa::kAvx2);
  }
  if (kernel_ops_for(KernelIsa::kAvx512) != nullptr) {
    isas.push_back(KernelIsa::kAvx512);
  }
  return isas;
}

}  // namespace ripple
