// Copyright 2026 MixQ-GNN Authors
#include "common/cpu_features.h"

#include <atomic>
#include <cstdlib>
#include <cstring>

#if defined(__x86_64__) || defined(__i386__)
#include <cpuid.h>
#endif

namespace mixq {

const char* KernelIsaName(KernelIsa isa) {
  switch (isa) {
    case KernelIsa::kScalar:
      return "scalar";
    case KernelIsa::kVpmaddwd:
      return "vpmaddwd";
    case KernelIsa::kVnni:
      return "vnni";
  }
  return "unknown";
}

namespace {

#if defined(__x86_64__) || defined(__i386__)
// XCR0 via xgetbv: the OS must have enabled YMM state saves (bits 1|2) for
// any 256-bit kernel to be usable, regardless of what cpuid advertises.
uint64_t ReadXcr0() {
  uint32_t eax = 0, edx = 0;
  __asm__ volatile(".byte 0x0f, 0x01, 0xd0" : "=a"(eax), "=d"(edx) : "c"(0));
  return (static_cast<uint64_t>(edx) << 32) | eax;
}
#endif

CpuFeatures Detect() {
  CpuFeatures f;
#if defined(__x86_64__) || defined(__i386__)
  unsigned eax, ebx, ecx, edx;
  if (!__get_cpuid(1, &eax, &ebx, &ecx, &edx)) return f;
  const bool osxsave = (ecx & (1u << 27)) != 0;
  if (!osxsave || (ReadXcr0() & 0x6) != 0x6) return f;  // YMM state not saved
  if (__get_cpuid_count(7, 0, &eax, &ebx, &ecx, &edx)) {
    f.avx2 = (ebx & (1u << 5)) != 0;
    const bool avx512vl = (ebx & (1u << 31)) != 0;
    const bool avx512vnni = (ecx & (1u << 11)) != 0;
    f.avx512_vnni_vl = avx512vl && avx512vnni;
  }
  if (__get_cpuid_count(7, 1, &eax, &ebx, &ecx, &edx)) {
    f.avx_vnni = (eax & (1u << 4)) != 0;
  }
#endif
  return f;
}

KernelIsa Clamp(KernelIsa requested) {
  const KernelIsa best = BestSupportedIsa();
  return static_cast<int>(requested) <= static_cast<int>(best) ? requested : best;
}

// -1 = unresolved; otherwise holds a KernelIsa value.
std::atomic<int> g_active_isa{-1};

}  // namespace

const CpuFeatures& GetCpuFeatures() {
  static const CpuFeatures features = Detect();
  return features;
}

KernelIsa BestSupportedIsa() {
  // Unused when no SIMD kernel is compiled in (-DMIXQ_NATIVE=OFF).
  [[maybe_unused]] const CpuFeatures& f = GetCpuFeatures();
#if MIXQ_COMPILED_VNNI
  if (f.avx_vnni || f.avx512_vnni_vl) return KernelIsa::kVnni;
#endif
#if MIXQ_COMPILED_AVX2
  if (f.avx2) return KernelIsa::kVpmaddwd;
#endif
  return KernelIsa::kScalar;
}

KernelIsa ActiveKernelIsa() {
  int v = g_active_isa.load(std::memory_order_relaxed);
  if (v >= 0) return static_cast<KernelIsa>(v);
  KernelIsa isa = BestSupportedIsa();
  if (const char* env = std::getenv("MIXQ_KERNEL")) {
    if (std::strcmp(env, "scalar") == 0) {
      isa = KernelIsa::kScalar;
    } else if (std::strcmp(env, "vpmaddwd") == 0 || std::strcmp(env, "avx2") == 0) {
      isa = Clamp(KernelIsa::kVpmaddwd);
    } else if (std::strcmp(env, "vnni") == 0) {
      isa = Clamp(KernelIsa::kVnni);
    }  // unknown values keep the detected default
  }
  // First resolution wins; a concurrent SetKernelIsa simply overwrites.
  g_active_isa.store(static_cast<int>(isa), std::memory_order_relaxed);
  return isa;
}

void SetKernelIsa(KernelIsa isa) {
  g_active_isa.store(static_cast<int>(Clamp(isa)), std::memory_order_relaxed);
}

}  // namespace mixq
