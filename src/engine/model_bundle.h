// Copyright 2026 MixQ-GNN Authors
// Portable model bundles — train once, serve from any process.
//
// A bundle is a single little-endian binary file that freezes everything a
// serving process needs and nothing it doesn't: SaveBundle() serializes a
// CompiledModel's metadata (CompiledModelInfo + backbone kind) and its
// lowered ExecutionPlan — the one step list, each weight once (int8 codes
// where its grid has them, floats otherwise), adjacency quantizers. The
// int8 program is not stored: it is derived from that step list.
// LoadBundle() reconstructs a CompiledModel whose Predict /
// PredictQuantized / PredictPruned are **bitwise identical** to the
// in-process original: every serialized buffer round-trips bit-for-bit,
// the derived ones are rebuilt by the same code
// (ExecutionPlan::FinalizeDerived), and the executors are the same code.
// Every CompiledModel has a plan (CompileModel refuses schemes that do not
// lower), so every CompiledModel can be bundled; the loaded model is the
// same object as a compiled one.
//
// Graph bundles (SaveGraph/LoadGraph) do the same for a serving graph: the
// normalized CSR operator exactly as served plus the node feature matrix, so
// a deployment process links zero training or normalization code.
//
// Wire format (DESIGN.md §5 has the normative description):
//
//   header   := magic "MIXQBNDL" | u16 major | u16 minor | u32 kind
//   section  := tag[4] | u64 payload_size | u32 crc32(payload) | payload
//   file     := header section*
//
// Model bundles carry sections INFO and PLAN; graph bundles carry GMET,
// CSRM, FEAT. Each kind has its own major. Compatibility rule: a reader
// rejects any major of a kind but its own (kNotImplemented: recompile with
// mixq_compile), accepts any minor, and skips unknown sections — future
// minors may append trailing sections without breaking old readers. Load
// paths are hardened: truncation (kOutOfRange), bad magic / wrong kind /
// structural corruption / CRC mismatch (kInvalidArgument), and missing files
// (kNotFound) all come back as typed Status errors, never asserts or UB.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "common/status.h"
#include "engine/compiled_model.h"
#include "sparse/spmm.h"
#include "tensor/tensor.h"

namespace mixq {
namespace engine {

/// Format versions written by this binary, one major per bundle kind. Bump
/// a kind's major for incompatible layout changes of that kind, the minor
/// when only appending new (skippable) sections. Readers accept only their
/// own major of each kind (any minor). Model 2.0 stores a coded linear's
/// weights once, as its int8 codes; model 3.0 drops the int8 plan section
/// (the int8 program is derived from PLAN). Graph bundles have kept one
/// layout since 1.0; their major is 2 because the model 2.0 bump once
/// applied to both kinds.
constexpr uint16_t kModelBundleFormatMajor = 3;
constexpr uint16_t kGraphBundleFormatMajor = 2;
constexpr uint16_t kBundleFormatMinor = 0;

/// What a bundle file holds.
enum class BundleKind : uint32_t { kModel = 1, kGraph = 2 };

/// One section as listed in a bundle's manifest. `crc32` is the stored
/// checksum (verified against the payload when the section is read).
struct BundleSection {
  std::string tag;      ///< FourCC, e.g. "PLAN"
  uint64_t offset = 0;  ///< payload offset within the file
  uint64_t size = 0;    ///< payload bytes
  uint32_t crc32 = 0;
};

/// Everything mixq_inspect prints: parsed header plus the small metadata
/// section, without touching the weight payloads.
struct BundleManifest {
  uint16_t format_major = 0;
  uint16_t format_minor = 0;
  BundleKind kind = BundleKind::kModel;
  uint64_t file_bytes = 0;
  std::vector<BundleSection> sections;

  /// Model bundles: the frozen info (scheme label, bit assignment, dims).
  CompiledModelInfo info;
  NodeModelKind model_kind = NodeModelKind::kGcn;

  /// Graph bundles: dimensions from the GMET section.
  int64_t graph_nodes = 0;
  int64_t feature_dim = 0;
  int64_t graph_nnz = 0;
};

/// Serializes `model` to `path` (atomic replace).
Status SaveBundle(const CompiledModel& model, const std::string& path);

/// Reads a model bundle back into a serving-ready CompiledModel. The loaded
/// model's Predict/PredictQuantized/PredictPruned are bitwise identical to
/// the saved model's.
Result<CompiledModelPtr> LoadBundle(const std::string& path);

/// A deserialized serving graph, ready for InferenceEngine::RegisterGraph.
struct GraphBundle {
  Tensor features;
  SparseOperatorPtr op;
};

/// Serializes a serving graph — the normalized operator exactly as served
/// (no re-normalization on load) plus node features. kInvalidArgument on
/// undefined features, null operator, or operator/features row mismatch.
Status SaveGraph(const Tensor& features, const SparseOperatorPtr& op,
                 const std::string& path);

/// Reads a graph bundle back; CSR arrays and feature values round-trip
/// bit-for-bit (validated by CsrMatrix::FromParts before use).
Result<GraphBundle> LoadGraph(const std::string& path);

/// The logit-digest file grammar shared by the compiling process
/// (tools/mixq_compile writes one "mode <fnv1a64 hex>" line per served
/// mode) and deployments verifying cross-process parity
/// (examples/offline_deploy). Keeping writer and reader in one place means
/// a format change cannot silently break the parity check.
std::string FormatLogitDigestLine(const std::string& mode, uint64_t digest);
/// Extracts the digest recorded for `mode`; false when the text has no
/// such line.
bool FindLogitDigest(const std::string& text, const std::string& mode,
                     uint64_t* digest);

/// Parses a bundle's header, section table, and small metadata section
/// (INFO / GMET) — skipping weight and feature payloads — so a manifest can
/// be printed without the memory or time to load the artifact. Sections
/// that are read get their CRC verified; skipped payloads only have their
/// stored checksum reported.
Result<BundleManifest> InspectBundle(const std::string& path);

/// One verdict from VerifyBundleFile: `section` names what was checked
/// ("header", a section FourCC for its CRC, "decode" for the semantic
/// deserialization, "plan" for the plan checker's structural verdict,
/// "ranges" for its value verdict, "values" for graph value invariants).
struct BundleCheck {
  std::string section;
  Status status;
};

/// Runs every check a load would (mixq_inspect --verify, mixq_lint): header
/// + section table parse, per-section CRC, full semantic decode, then — for
/// model bundles — one plan check (engine/plan_verifier.h) reported as its
/// structural then its value verdict; for graph bundles, the
/// value invariants (finite adjacency + features). Returns the verdicts in
/// check order, stopping at the first failure; a fully valid bundle yields
/// all-OK entries.
std::vector<BundleCheck> VerifyBundleFile(const std::string& path);

/// The machine-readable check report shared by `mixq_lint --json` and
/// `mixq_inspect --verify --json`, so CI and external tooling parse ONE
/// format. `subject` is the checked artifact ("model.mqb", or a synthetic
/// name like "model.mqb + graph.mqb" for pairing checks).
struct CheckReport {
  std::string subject;
  std::vector<BundleCheck> checks;
};

/// Renders one report as a JSON object:
///   {"subject": "...", "clean": true,
///    "checks": [{"section": "...", "code": "ok", "message": ""}, ...]}
/// Status codes use snake_case names ("ok", "invalid_argument", ...);
/// strings are JSON-escaped. Stable under `minor` format additions — new
/// check sections only append array entries.
std::string FormatCheckReportJson(const CheckReport& report);

}  // namespace engine
}  // namespace mixq
