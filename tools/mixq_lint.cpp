// Copyright 2026 MixQ-GNN Authors
// mixq_lint — the CI gate over serving artifacts: runs every machine-checked
// theorem the engine relies on over bundle files, offline.
//
// Per bundle path, the full load-equivalent check chain (VerifyBundleFile):
// header + section-table parse, per-section CRC, semantic decode, then for
// model bundles the plan checker (engine/plan_verifier.h): its structural
// verdict, then its value verdict — int32/int16 accumulator safety, finite
// frozen constants; for graph bundles the value invariants (finite
// adjacency + features).
//
// When an invocation names both model and graph bundles, every model x graph
// combination additionally gets a "pairing" report: the model's symbolic
// range certificate (max per-row SpMM depth, refined by the graph's actual
// adjacency value range) checked against the graph's bounds — exactly the
// check the batcher's precision resolution performs before serving int8.
//
//   mixq_lint [--json] bundle.mqb [more.mqb ...]
//
// Human output mirrors mixq_inspect --verify plus a final CLEAN / NOT CLEAN
// verdict; --json emits an array of CheckReport objects (the same grammar as
// mixq_inspect --verify --json). Exit 1 on any non-clean verdict.
#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "engine/model_bundle.h"
#include "engine/plan_analysis.h"

using namespace mixq;
using namespace mixq::engine;

namespace {

bool ReportClean(const CheckReport& report) {
  for (const BundleCheck& c : report.checks) {
    if (!c.status.ok()) return false;
  }
  return true;
}

void PrintHuman(const CheckReport& report) {
  std::printf("%s:\n", report.subject.c_str());
  for (const BundleCheck& c : report.checks) {
    if (c.status.ok()) {
      std::printf("  %-8s OK\n", c.section.c_str());
    } else {
      std::printf("  %-8s FAIL  %s\n", c.section.c_str(),
                  c.status.ToString().c_str());
    }
  }
}

/// Cheap kind probe so pairing only loads genuine model/graph combinations.
bool BundleIsKind(const std::string& path, BundleKind kind) {
  Result<BundleManifest> manifest = InspectBundle(path);
  return manifest.ok() && manifest.ValueOrDie().kind == kind;
}

/// The batcher's plan/graph pairing check, replayed offline: load both
/// artifacts, compute the graph's range bounds, check them against the
/// model's certificate.
CheckReport PairingReport(const std::string& model_path,
                          const std::string& graph_path) {
  CheckReport report;
  report.subject = model_path + " + " + graph_path;
  Status status = [&]() -> Status {
    Result<CompiledModelPtr> model = LoadBundle(model_path);
    if (!model.ok()) return model.status();
    Result<GraphBundle> graph = LoadGraph(graph_path);
    if (!graph.ok()) return graph.status();
    const PlanRangeCertificate* cert =
        model.ValueOrDie()->range_certificate();
    if (cert == nullptr) {
      // LoadBundle rejects plans that fail analysis, so a loaded model
      // always carries a certificate; belt and suspenders.
      return Status::Internal("loaded model has no range certificate");
    }
    return CheckGraphAgainstCertificate(
        *cert, graph.ValueOrDie().op->range_bounds());
  }();
  report.checks.push_back({"pairing", status});
  return report;
}

}  // namespace

int main(int argc, char** argv) {
  bool json = false;
  std::vector<std::string> paths;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--json") == 0) {
      json = true;
    } else {
      paths.emplace_back(argv[i]);
    }
  }
  if (paths.empty()) {
    std::fprintf(stderr, "usage: %s [--json] bundle.mqb [more.mqb ...]\n",
                 argv[0]);
    return 2;
  }

  std::vector<CheckReport> reports;
  std::vector<std::string> models, graphs;
  for (const std::string& path : paths) {
    CheckReport report;
    report.subject = path;
    report.checks = VerifyBundleFile(path);
    const bool clean = ReportClean(report);
    reports.push_back(std::move(report));
    // Only artifacts that lint clean on their own are worth pairing; a
    // corrupt bundle would just repeat its load error.
    if (clean && BundleIsKind(path, BundleKind::kModel)) models.push_back(path);
    if (clean && BundleIsKind(path, BundleKind::kGraph)) graphs.push_back(path);
  }
  for (const std::string& m : models) {
    for (const std::string& g : graphs) {
      reports.push_back(PairingReport(m, g));
    }
  }

  int rc = 0;
  for (const CheckReport& report : reports) {
    if (!ReportClean(report)) rc = 1;
  }

  if (json) {
    std::printf("[");
    for (size_t i = 0; i < reports.size(); ++i) {
      std::printf("%s%s", i == 0 ? "" : ",\n ",
                  FormatCheckReportJson(reports[i]).c_str());
    }
    std::printf("]\n");
    return rc;
  }
  for (size_t i = 0; i < reports.size(); ++i) {
    PrintHuman(reports[i]);
    if (i + 1 < reports.size()) std::printf("\n");
  }
  std::printf("verdict: %s\n", rc == 0 ? "CLEAN" : "NOT CLEAN");
  return rc;
}
