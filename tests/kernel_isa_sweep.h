// Copyright 2026 MixQ-GNN Authors
// Test helper: runs a check once under every kernel tier this binary and
// CPU support (common/cpu_features.h), so bitwise contracts are asserted on
// the scalar, vpmaddwd and VNNI kernels alike.
#pragma once

#include <gtest/gtest.h>

#include "common/cpu_features.h"

namespace mixq {

/// Calls `body()` with each KernelIsa from kScalar up to BestSupportedIsa()
/// active, then restores the tier that was active before.
template <typename Fn>
void ForEachKernelIsa(Fn&& body) {
  const KernelIsa saved = ActiveKernelIsa();
  for (int t = 0; t <= static_cast<int>(BestSupportedIsa()); ++t) {
    const KernelIsa isa = static_cast<KernelIsa>(t);
    SCOPED_TRACE(KernelIsaName(isa));
    SetKernelIsa(isa);
    body();
  }
  SetKernelIsa(saved);
}

}  // namespace mixq
