// Copyright 2026 MixQ-GNN Authors
// mixq_inspect — prints a bundle's manifest (format version, kind, scheme
// label, bit assignment, dimensions, section sizes and checksums) without
// loading the weight or feature payloads: only the header, the section
// table, and the small metadata section (INFO / GMET) are read.
//
// With --verify, additionally runs every check a load would — header parse,
// per-section CRC, full semantic decode, and (model bundles) the plan
// checker's structural and value verdicts — printing a per-section verdict
// line and exiting non-zero on the first violation. --json (requires
// --verify) emits the same verdicts as a JSON array of check reports, one
// object per path — the identical format mixq_lint --json produces, so CI
// and external tooling parse one grammar.
//
//   mixq_inspect [--verify [--json]] bundle.mqb [more.mqb ...]
#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "engine/model_bundle.h"

using namespace mixq;
using namespace mixq::engine;

namespace {

int Inspect(const std::string& path) {
  Result<BundleManifest> manifest = InspectBundle(path);
  if (!manifest.ok()) {
    std::fprintf(stderr, "%s: %s\n", path.c_str(),
                 manifest.status().ToString().c_str());
    return 1;
  }
  const BundleManifest& m = manifest.ValueOrDie();
  std::printf("%s: %s bundle, format %u.%u, %llu bytes\n", path.c_str(),
              m.kind == BundleKind::kModel ? "model" : "graph", m.format_major,
              m.format_minor, static_cast<unsigned long long>(m.file_bytes));
  if (m.kind == BundleKind::kModel) {
    std::printf("  backbone       %s\n",
                m.model_kind == NodeModelKind::kGcn ? "gcn" : "sage");
    std::printf("  scheme         %s\n", m.info.scheme_label.c_str());
    std::printf("  dims           %lld features -> %lld logits\n",
                static_cast<long long>(m.info.in_features),
                static_cast<long long>(m.info.out_dim));
    std::printf("  params         %lld frozen scalars, %.2f avg bits\n",
                static_cast<long long>(m.info.param_count), m.info.avg_bits);
    std::printf("  int8 plan      %s\n", m.info.lowered_int8 ? "yes" : "no");
    std::printf("  bit assignment (%zu components)\n",
                m.info.bit_assignment.size());
    for (const auto& [id, bits] : m.info.bit_assignment) {
      std::printf("    %-28s %d\n", id.c_str(), bits);
    }
  } else {
    std::printf("  graph          %lld nodes, %lld nnz, %lld features/node\n",
                static_cast<long long>(m.graph_nodes),
                static_cast<long long>(m.graph_nnz),
                static_cast<long long>(m.feature_dim));
  }
  std::printf("  sections\n");
  for (const BundleSection& s : m.sections) {
    std::printf("    %s  offset %8llu  size %10llu  crc32 %08x\n",
                s.tag.c_str(), static_cast<unsigned long long>(s.offset),
                static_cast<unsigned long long>(s.size), s.crc32);
  }
  return 0;
}

int Verify(const std::string& path) {
  std::vector<BundleCheck> checks = VerifyBundleFile(path);
  std::printf("%s:\n", path.c_str());
  int rc = 0;
  for (const BundleCheck& c : checks) {
    if (c.status.ok()) {
      std::printf("  %-8s OK\n", c.section.c_str());
    } else {
      std::printf("  %-8s FAIL  %s\n", c.section.c_str(),
                  c.status.ToString().c_str());
      rc = 1;  // VerifyBundleFile stops at the first failure
    }
  }
  std::printf("verdict: %s\n", rc == 0 ? "VALID" : "INVALID");
  return rc;
}

/// --verify --json: one CheckReport object per path (shared grammar with
/// mixq_lint --json).
int VerifyJson(const std::vector<std::string>& paths) {
  int rc = 0;
  std::printf("[");
  for (size_t i = 0; i < paths.size(); ++i) {
    CheckReport report;
    report.subject = paths[i];
    report.checks = VerifyBundleFile(paths[i]);
    for (const BundleCheck& c : report.checks) {
      if (!c.status.ok()) rc = 1;
    }
    std::printf("%s%s", i == 0 ? "" : ",\n ",
                FormatCheckReportJson(report).c_str());
  }
  std::printf("]\n");
  return rc;
}

}  // namespace

int main(int argc, char** argv) {
  bool verify = false;
  bool json = false;
  std::vector<std::string> paths;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--verify") == 0) {
      verify = true;
    } else if (std::strcmp(argv[i], "--json") == 0) {
      json = true;
    } else {
      paths.emplace_back(argv[i]);
    }
  }
  if (paths.empty() || (json && !verify)) {
    std::fprintf(stderr,
                 "usage: %s [--verify [--json]] bundle.mqb [more.mqb ...]\n",
                 argv[0]);
    return 2;
  }
  if (json) return VerifyJson(paths);
  int rc = 0;
  for (size_t i = 0; i < paths.size(); ++i) {
    rc |= verify ? Verify(paths[i]) : Inspect(paths[i]);
    if (i + 1 < paths.size()) std::printf("\n");
  }
  return rc;
}
