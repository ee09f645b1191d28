// Copyright 2026 MixQ-GNN Authors
#include "engine/model_bundle.h"

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <limits>
#include <utility>

#include "common/binary_io.h"
#include "common/fault_injection.h"
#include "common/json_util.h"
#include "engine/plan_analysis.h"
#include "engine/plan_verifier.h"
#include "sparse/csr.h"

namespace mixq {
namespace engine {

namespace {

constexpr char kMagic[8] = {'M', 'I', 'X', 'Q', 'B', 'N', 'D', 'L'};
/// Section header: tag[4] + u64 payload size + u32 crc32.
constexpr size_t kSectionHeaderBytes = 16;
constexpr size_t kFileHeaderBytes = 8 + 2 + 2 + 4;

/// Sanity bound on structural counts (buffers, layers): a real plan has a
/// handful, so anything huge is corruption that slipped past the CRC.
constexpr int64_t kMaxStructuralCount = 1 << 20;

struct RawSection {
  std::string tag;
  uint64_t offset = 0;  // payload offset within the file
  uint64_t size = 0;
  uint32_t crc32 = 0;
};

// ---- framing ---------------------------------------------------------------

void AppendSection(ByteWriter* file, const char* tag, const ByteWriter& payload) {
  MIXQ_CHECK_EQ(static_cast<int64_t>(std::strlen(tag)), 4);
  file->PutBytes(tag, 4);
  file->PutU64(payload.size());
  file->PutU32(Crc32(payload.buffer().data(), payload.size()));
  file->PutBytes(payload.buffer().data(), payload.size());
}

uint16_t FormatMajor(BundleKind kind) {
  return kind == BundleKind::kModel ? kModelBundleFormatMajor
                                    : kGraphBundleFormatMajor;
}

void AppendFileHeader(ByteWriter* file, BundleKind kind) {
  file->PutBytes(kMagic, sizeof(kMagic));
  file->PutU16(FormatMajor(kind));
  file->PutU16(kBundleFormatMinor);
  file->PutU32(static_cast<uint32_t>(kind));
}

Status ParseFileHeader(ByteReader* r, const std::string& path, uint16_t* major,
                       uint16_t* minor, BundleKind* kind) {
  if (r->remaining() < kFileHeaderBytes) {
    return Status::OutOfRange("'" + path + "' is truncated: " +
                              std::to_string(r->remaining()) +
                              " bytes is smaller than the bundle header");
  }
  char magic[8];
  std::memcpy(magic, r->cursor(), sizeof(magic));
  MIXQ_RETURN_NOT_OK(r->Skip(sizeof(magic)));
  if (std::memcmp(magic, kMagic, sizeof(kMagic)) != 0) {
    return Status::InvalidArgument("'" + path +
                                   "' is not a mixq bundle (bad magic)");
  }
  MIXQ_RETURN_NOT_OK(r->ReadU16(major));
  MIXQ_RETURN_NOT_OK(r->ReadU16(minor));
  uint32_t kind_raw = 0;
  MIXQ_RETURN_NOT_OK(r->ReadU32(&kind_raw));
  if (kind_raw != static_cast<uint32_t>(BundleKind::kModel) &&
      kind_raw != static_cast<uint32_t>(BundleKind::kGraph)) {
    return Status::InvalidArgument("'" + path + "' has unknown bundle kind " +
                                   std::to_string(kind_raw));
  }
  *kind = static_cast<BundleKind>(kind_raw);
  const uint16_t own = FormatMajor(*kind);
  if (*major != own) {
    const std::string what = *kind == BundleKind::kModel ? "model" : "graph";
    return Status::NotImplemented(
        "'" + path + "' uses " + what + " bundle format " +
        std::to_string(*major) + "." + std::to_string(*minor) +
        ", but this binary reads only " + std::to_string(own) +
        ".x (it writes " + std::to_string(own) + "." +
        std::to_string(kBundleFormatMinor) +
        "); recompile the bundle with this build's mixq_compile");
  }
  return Status::OK();
}

/// Walks the section list. Unknown tags are recorded and skipped (the
/// forward-compatibility rule); bounds are validated so arbitrary bytes
/// cannot push the cursor out of the file.
Status ScanSections(ByteReader* r, std::vector<RawSection>* out) {
  while (r->remaining() > 0) {
    if (r->remaining() < kSectionHeaderBytes) {
      return Status::OutOfRange("truncated section header at offset " +
                                std::to_string(r->position()));
    }
    RawSection section;
    section.tag.assign(reinterpret_cast<const char*>(r->cursor()), 4);
    MIXQ_RETURN_NOT_OK(r->Skip(4));
    MIXQ_RETURN_NOT_OK(r->ReadU64(&section.size));
    MIXQ_RETURN_NOT_OK(r->ReadU32(&section.crc32));
    section.offset = r->position();
    if (section.size > r->remaining()) {
      return Status::OutOfRange(
          "truncated: section '" + section.tag + "' claims " +
          std::to_string(section.size) + " bytes, only " +
          std::to_string(r->remaining()) + " remain");
    }
    MIXQ_RETURN_NOT_OK(r->Skip(static_cast<size_t>(section.size)));
    out->push_back(std::move(section));
  }
  return Status::OK();
}

/// Locates a required section and verifies its checksum against the bytes.
Result<ByteReader> OpenSection(const std::vector<uint8_t>& bytes,
                               const std::vector<RawSection>& sections,
                               const std::string& tag) {
  const RawSection* found = nullptr;
  for (const RawSection& s : sections) {
    if (s.tag != tag) continue;
    if (found != nullptr) {
      return Status::InvalidArgument("duplicate section '" + tag + "'");
    }
    found = &s;
  }
  if (found == nullptr) {
    return Status::InvalidArgument("missing required section '" + tag + "'");
  }
  const uint8_t* payload = bytes.data() + found->offset;
  // Chaos hook: simulate bit rot — take the same typed rejection path a
  // genuinely corrupt section would.
  if (fault::ShouldFail("bundle.crc")) {
    return Status::InvalidArgument("checksum mismatch in section '" + tag +
                                   "' (injected fault at 'bundle.crc')");
  }
  const uint32_t actual = Crc32(payload, static_cast<size_t>(found->size));
  if (actual != found->crc32) {
    return Status::InvalidArgument(
        "checksum mismatch in section '" + tag + "': stored " +
        std::to_string(found->crc32) + ", computed " + std::to_string(actual));
  }
  return ByteReader(payload, static_cast<size_t>(found->size));
}

// ---- leaf codecs -----------------------------------------------------------

void PutQuantParams(ByteWriter* w, const QuantParams& p) {
  w->PutF32(p.scale);
  w->PutI32(p.zero_point);
  w->PutI32(p.bits);
  w->PutU8(p.symmetric ? 1 : 0);
}

Status ReadQuantParams(ByteReader* r, QuantParams* p) {
  uint8_t symmetric = 0;
  MIXQ_RETURN_NOT_OK(r->ReadF32(&p->scale));
  MIXQ_RETURN_NOT_OK(r->ReadI32(&p->zero_point));
  MIXQ_RETURN_NOT_OK(r->ReadI32(&p->bits));
  MIXQ_RETURN_NOT_OK(r->ReadU8(&symmetric));
  if (symmetric > 1) {
    return Status::InvalidArgument("quantizer symmetric flag must be 0/1");
  }
  p->symmetric = symmetric == 1;
  if (p->bits < 1 || p->bits > 32) {
    return Status::InvalidArgument("quantizer bits " + std::to_string(p->bits) +
                                   " outside [1, 32]");
  }
  if (!std::isfinite(p->scale) || p->scale <= 0.0f) {
    return Status::InvalidArgument("quantizer scale must be finite and > 0");
  }
  return Status::OK();
}

void PutComponent(ByteWriter* w, const LoweredComponent& c) {
  w->PutU8(c.identity ? 1 : 0);
  PutQuantParams(w, c.params);
}

Status ReadComponent(ByteReader* r, LoweredComponent* c) {
  uint8_t identity = 0;
  MIXQ_RETURN_NOT_OK(r->ReadU8(&identity));
  if (identity > 1) {
    return Status::InvalidArgument("component identity flag must be 0/1");
  }
  c->identity = identity == 1;
  return ReadQuantParams(r, &c->params);
}

Status ReadCount(ByteReader* r, const char* what, int64_t max, int64_t* out) {
  int64_t v = 0;
  MIXQ_RETURN_NOT_OK(r->ReadI64(&v));
  if (v < 0 || v > max) {
    return Status::InvalidArgument(std::string(what) + " count " +
                                   std::to_string(v) + " outside [0, " +
                                   std::to_string(max) + "]");
  }
  *out = v;
  return Status::OK();
}

/// Validates a buffer id: kInput (when allowed) or a scratch index.
Status CheckBuffer(const char* what, int id, int num_buffers, bool allow_input) {
  if (allow_input && id == ExecutionPlan::kInput) return Status::OK();
  if (id < 0 || id >= num_buffers) {
    return Status::InvalidArgument(std::string(what) + " buffer id " +
                                   std::to_string(id) + " outside [0, " +
                                   std::to_string(num_buffers) + ")");
  }
  return Status::OK();
}

}  // namespace

// ---- ExecutionPlan codec ---------------------------------------------------

/// Friend of ExecutionPlan: serializes / reconstructs the private step lists.
/// Load paths validate every index and size against the plan's own bounds so
/// a CRC-valid but hand-crafted payload cannot drive the executors out of
/// range.
class ExecutionPlanCodec {
 public:
  static void SavePlan(const ExecutionPlan& p, ByteWriter* w) {
    const std::vector<float> derived;  // what a coded linear's floats write
    w->PutI64(p.in_features_);
    w->PutI64(p.out_dim_);
    w->PutI32(p.num_buffers_);
    w->PutI32(p.final_buffer_);
    w->PutI64(static_cast<int64_t>(p.linears_.size()));
    for (const LoweredLinear& lin : p.linears_) {
      w->PutI64(lin.in);
      w->PutI64(lin.out);
      w->PutI64(lin.out_padded);
      PutQuantParams(w, lin.weight_params);
      w->PutPodVector(lin.weight_q8.empty() ? lin.weight_fq : derived);
      w->PutPodVector(lin.bias);
      w->PutPodVector(lin.weight_q8);
    }
    w->PutI64(static_cast<int64_t>(p.adj_quants_.size()));
    for (const LoweredComponent& c : p.adj_quants_) PutComponent(w, c);
    w->PutI64(static_cast<int64_t>(p.steps_.size()));
    for (const ExecutionPlan::Step& st : p.steps_) {
      w->PutU8(static_cast<uint8_t>(st.op));
      w->PutI32(st.src);
      w->PutI32(st.src2);
      w->PutI32(st.dst);
      w->PutI32(st.linear);
      w->PutI32(st.adj);
      w->PutI64(st.cols);
      PutComponent(w, st.quant);
    }
  }

  static Result<std::unique_ptr<ExecutionPlan>> LoadPlan(ByteReader* r) {
    std::unique_ptr<ExecutionPlan> p(new ExecutionPlan());
    MIXQ_RETURN_NOT_OK(r->ReadI64(&p->in_features_));
    MIXQ_RETURN_NOT_OK(r->ReadI64(&p->out_dim_));
    MIXQ_RETURN_NOT_OK(r->ReadI32(&p->num_buffers_));
    MIXQ_RETURN_NOT_OK(r->ReadI32(&p->final_buffer_));
    if (p->in_features_ <= 0 || p->out_dim_ <= 0) {
      return Status::InvalidArgument("plan dimensions must be positive");
    }
    if (p->num_buffers_ < 1 || p->num_buffers_ > kMaxStructuralCount) {
      return Status::InvalidArgument("plan buffer count " +
                                     std::to_string(p->num_buffers_) +
                                     " is implausible");
    }
    MIXQ_RETURN_NOT_OK(
        CheckBuffer("final", p->final_buffer_, p->num_buffers_, false));

    int64_t n_linears = 0;
    MIXQ_RETURN_NOT_OK(ReadCount(r, "linear", kMaxStructuralCount, &n_linears));
    p->linears_.resize(static_cast<size_t>(n_linears));
    for (LoweredLinear& lin : p->linears_) {
      MIXQ_RETURN_NOT_OK(r->ReadI64(&lin.in));
      MIXQ_RETURN_NOT_OK(r->ReadI64(&lin.out));
      MIXQ_RETURN_NOT_OK(r->ReadI64(&lin.out_padded));
      MIXQ_RETURN_NOT_OK(ReadQuantParams(r, &lin.weight_params));
      MIXQ_RETURN_NOT_OK(r->ReadPodVector(&lin.weight_fq));
      MIXQ_RETURN_NOT_OK(r->ReadPodVector(&lin.bias));
      MIXQ_RETURN_NOT_OK(r->ReadPodVector(&lin.weight_q8));
      if (lin.in <= 0 || lin.out <= 0 || lin.out_padded < lin.out ||
          lin.in > kMaxStructuralCount || lin.out_padded > kMaxStructuralCount) {
        return Status::InvalidArgument("linear dimensions are inconsistent");
      }
      // Each weight travels once: as int8 codes, from which FinalizeDerived
      // rebuilds the floats, or as floats when its grid has no codes.
      const bool coded = !lin.weight_q8.empty();
      if (coded == !lin.weight_fq.empty()) {
        return Status::InvalidArgument(
            coded ? "linear carries both float weights and int8 codes (a coded "
                    "linear's floats are derived from its codes)"
                  : "linear carries neither float weights nor int8 codes");
      }
      const uint64_t expect = static_cast<uint64_t>(lin.in) *
                              static_cast<uint64_t>(lin.out_padded);
      const size_t got = coded ? lin.weight_q8.size() : lin.weight_fq.size();
      if (got != expect) {
        return Status::InvalidArgument(
            "linear weight buffer has " + std::to_string(got) + " " +
            (coded ? "codes" : "floats") + ", want " + std::to_string(expect));
      }
      if (!lin.bias.empty() &&
          lin.bias.size() != static_cast<size_t>(lin.out)) {
        return Status::InvalidArgument("linear bias size mismatch");
      }
    }

    int64_t n_adj = 0;
    MIXQ_RETURN_NOT_OK(ReadCount(r, "adjacency quantizer", kMaxStructuralCount,
                                 &n_adj));
    p->adj_quants_.resize(static_cast<size_t>(n_adj));
    for (LoweredComponent& c : p->adj_quants_) {
      MIXQ_RETURN_NOT_OK(ReadComponent(r, &c));
    }

    int64_t n_steps = 0;
    MIXQ_RETURN_NOT_OK(ReadCount(r, "step", kMaxStructuralCount, &n_steps));
    if (n_steps == 0) {
      return Status::InvalidArgument("plan has no steps");
    }
    p->steps_.resize(static_cast<size_t>(n_steps));
    for (ExecutionPlan::Step& st : p->steps_) {
      uint8_t op = 0;
      MIXQ_RETURN_NOT_OK(r->ReadU8(&op));
      if (op > static_cast<uint8_t>(ExecutionPlan::Op::kRelu)) {
        return Status::InvalidArgument("unknown plan op " + std::to_string(op));
      }
      st.op = static_cast<ExecutionPlan::Op>(op);
      MIXQ_RETURN_NOT_OK(r->ReadI32(&st.src));
      MIXQ_RETURN_NOT_OK(r->ReadI32(&st.src2));
      MIXQ_RETURN_NOT_OK(r->ReadI32(&st.dst));
      MIXQ_RETURN_NOT_OK(r->ReadI32(&st.linear));
      MIXQ_RETURN_NOT_OK(r->ReadI32(&st.adj));
      MIXQ_RETURN_NOT_OK(r->ReadI64(&st.cols));
      MIXQ_RETURN_NOT_OK(ReadComponent(r, &st.quant));
      if (st.cols <= 0 || st.cols > kMaxStructuralCount) {
        return Status::InvalidArgument("plan step width is implausible");
      }
      MIXQ_RETURN_NOT_OK(CheckBuffer("step src", st.src, p->num_buffers_, true));
      MIXQ_RETURN_NOT_OK(CheckBuffer("step dst", st.dst, p->num_buffers_, false));
      if (st.op == ExecutionPlan::Op::kAdd) {
        MIXQ_RETURN_NOT_OK(
            CheckBuffer("step src2", st.src2, p->num_buffers_, true));
      }
      if (st.op == ExecutionPlan::Op::kMatMul &&
          (st.linear < 0 || st.linear >= n_linears)) {
        return Status::InvalidArgument("step linear index out of range");
      }
      if (st.op == ExecutionPlan::Op::kSpmm && (st.adj < 0 || st.adj >= n_adj)) {
        return Status::InvalidArgument("step adjacency index out of range");
      }
    }
    if (r->remaining() != 0) {
      return Status::InvalidArgument("plan section has trailing bytes");
    }
    // Derived state (a coded linear's floats and packings, the int8
    // program and its requant constants) is recomputed, not deserialized:
    // crafted bytes can never smuggle in a second copy of a weight, a
    // second program, or kernels' folded constants, that disagree with the
    // serialized codes, steps and quantizers.
    p->FinalizeDerived();
    return p;
  }
};

namespace {

// ---- INFO section ----------------------------------------------------------

void EncodeInfo(const CompiledModelInfo& info, NodeModelKind kind,
                ByteWriter* w) {
  w->PutU8(kind == NodeModelKind::kGcn ? 0 : 1);
  w->PutString(info.scheme_label);
  w->PutF64(info.avg_bits);
  w->PutI64(info.param_count);
  w->PutI64(info.in_features);
  w->PutI64(info.out_dim);
  w->PutU8(info.lowered_int8 ? 1 : 0);
  w->PutU32(static_cast<uint32_t>(info.bit_assignment.size()));
  for (const auto& [id, bits] : info.bit_assignment) {
    w->PutString(id);
    w->PutI32(bits);
  }
}

Status DecodeInfo(ByteReader* r, CompiledModelInfo* info, NodeModelKind* kind) {
  uint8_t kind_raw = 0, int8_raw = 0;
  MIXQ_RETURN_NOT_OK(r->ReadU8(&kind_raw));
  if (kind_raw > 1) {
    return Status::InvalidArgument("unknown model kind " +
                                   std::to_string(kind_raw));
  }
  *kind = kind_raw == 0 ? NodeModelKind::kGcn : NodeModelKind::kSage;
  MIXQ_RETURN_NOT_OK(r->ReadString(&info->scheme_label));
  MIXQ_RETURN_NOT_OK(r->ReadF64(&info->avg_bits));
  MIXQ_RETURN_NOT_OK(r->ReadI64(&info->param_count));
  MIXQ_RETURN_NOT_OK(r->ReadI64(&info->in_features));
  MIXQ_RETURN_NOT_OK(r->ReadI64(&info->out_dim));
  MIXQ_RETURN_NOT_OK(r->ReadU8(&int8_raw));
  if (int8_raw > 1) {
    return Status::InvalidArgument("int8 flag must be 0/1");
  }
  info->lowered_int8 = int8_raw == 1;
  uint32_t n_bits = 0;
  MIXQ_RETURN_NOT_OK(r->ReadU32(&n_bits));
  if (n_bits > kMaxStructuralCount) {
    return Status::InvalidArgument("bit assignment count is implausible");
  }
  for (uint32_t i = 0; i < n_bits; ++i) {
    std::string id;
    int32_t bits = 0;
    MIXQ_RETURN_NOT_OK(r->ReadString(&id));
    MIXQ_RETURN_NOT_OK(r->ReadI32(&bits));
    info->bit_assignment[id] = bits;
  }
  if (r->remaining() != 0) {
    return Status::InvalidArgument("INFO section has trailing bytes");
  }
  return Status::OK();
}

/// Loads + frames a bundle file and scans its sections; shared prologue of
/// every read entry point.
Status OpenBundle(const std::string& path, BundleKind* kind, uint16_t* major,
                  uint16_t* minor, std::vector<uint8_t>* bytes,
                  std::vector<RawSection>* sections) {
  MIXQ_RETURN_NOT_OK(ReadFileBytes(path, bytes));
  // Chaos hook: a bundle whose backing storage failed mid-read.
  MIXQ_RETURN_NOT_OK(fault::CheckPoint("bundle.read"));
  ByteReader reader(bytes->data(), bytes->size());
  MIXQ_RETURN_NOT_OK(ParseFileHeader(&reader, path, major, minor, kind));
  return ScanSections(&reader, sections);
}

struct DecodedModel {
  CompiledModelInfo info;
  NodeModelKind model_kind = NodeModelKind::kGcn;
  std::unique_ptr<ExecutionPlan> plan;
};

/// The one semantic decode of a model bundle, shared by LoadBundle and
/// VerifyBundleFile so the loader and mixq_lint cannot disagree: INFO, PLAN
/// (with its derived state), and INFO's promises checked against the plan.
Status DecodeModel(const std::vector<uint8_t>& bytes,
                   const std::vector<RawSection>& sections, DecodedModel* out) {
  Result<ByteReader> info_r = OpenSection(bytes, sections, "INFO");
  if (!info_r.ok()) return info_r.status();
  MIXQ_RETURN_NOT_OK(DecodeInfo(&info_r.ValueOrDie(), &out->info, &out->model_kind));
  Result<ByteReader> plan_r = OpenSection(bytes, sections, "PLAN");
  if (!plan_r.ok()) return plan_r.status();
  Result<std::unique_ptr<ExecutionPlan>> plan =
      ExecutionPlanCodec::LoadPlan(&plan_r.ValueOrDie());
  if (!plan.ok()) return plan.status();
  out->plan = plan.MoveValueOrDie();
  const CompiledModelInfo& info = out->info;
  const ExecutionPlan& p = *out->plan;
  if (p.in_features() != info.in_features || p.out_dim() != info.out_dim) {
    return Status::InvalidArgument(
        "metadata disagrees with the plan: INFO says " +
        std::to_string(info.in_features) + "->" + std::to_string(info.out_dim) +
        ", plan is " + std::to_string(p.in_features()) + "->" +
        std::to_string(p.out_dim()));
  }
  if (info.lowered_int8 != p.SupportsInt8()) {
    return Status::InvalidArgument(
        std::string("metadata disagrees with the plan: INFO ") +
        (info.lowered_int8 ? "declares an int8 program the plan does not derive"
                           : "declares no int8 program but the plan derives one"));
  }
  return Status::OK();
}

}  // namespace

// ---- model bundles ---------------------------------------------------------

Status SaveBundle(const CompiledModel& model, const std::string& path) {
  ByteWriter file;
  AppendFileHeader(&file, BundleKind::kModel);

  ByteWriter info;
  EncodeInfo(model.info_, model.model_kind_, &info);
  AppendSection(&file, "INFO", info);

  ByteWriter plan;
  ExecutionPlanCodec::SavePlan(*model.plan_, &plan);
  AppendSection(&file, "PLAN", plan);
  return WriteFileAtomic(path, file.buffer());
}

Result<CompiledModelPtr> LoadBundle(const std::string& path) {
  BundleKind kind;
  uint16_t major = 0, minor = 0;
  std::vector<uint8_t> bytes;
  std::vector<RawSection> sections;
  MIXQ_RETURN_NOT_OK(OpenBundle(path, &kind, &major, &minor, &bytes, &sections));
  if (kind != BundleKind::kModel) {
    return Status::InvalidArgument("'" + path +
                                   "' is a graph bundle, not a model bundle");
  }

  DecodedModel decoded;
  Status decode = DecodeModel(bytes, sections, &decoded);
  if (!decode.ok()) {
    return Status(decode.code(), "'" + path + "': " + decode.message());
  }

  // Unconditional plan check — bundle bytes are untrusted. The codec above
  // validated field-local structure; this pass validates the program's
  // global semantics (dataflow, shape chaining, quantizer grids) so no plan
  // that could drive an executor out of bounds ever reaches one, and its
  // values: a structurally valid plan can still drive an int32 accumulator
  // over the edge (huge K, full-scale codes) or carry non-finite frozen
  // constants. No loaded model ever serves without a certificate. A
  // CRC-consistent but semantically broken bundle lands here.
  PlanShapes shapes;
  shapes.in_features = decoded.info.in_features;
  shapes.out_dim = decoded.info.out_dim;
  PlanCheck check = CheckPlan(*decoded.plan, shapes);
  if (!check.structure.ok()) {
    return Status::InvalidArgument("'" + path + "' holds an invalid plan: " +
                                   check.structure.message());
  }
  if (!check.ranges.ok()) {
    return Status::InvalidArgument("'" + path +
                                   "' holds a plan that fails range "
                                   "analysis: " + check.ranges.message());
  }

  auto model = std::shared_ptr<CompiledModel>(new CompiledModel());
  model->info_ = std::move(decoded.info);
  model->model_kind_ = decoded.model_kind;
  model->plan_ = std::move(decoded.plan);
  model->range_cert_ =
      std::make_unique<const PlanRangeCertificate>(std::move(check.cert));
  return CompiledModelPtr(model);
}

std::vector<BundleCheck> VerifyBundleFile(const std::string& path) {
  std::vector<BundleCheck> out;
  BundleKind kind;
  uint16_t major = 0, minor = 0;
  std::vector<uint8_t> bytes;
  std::vector<RawSection> sections;
  Status header =
      OpenBundle(path, &kind, &major, &minor, &bytes, &sections);
  out.push_back({"header", header});
  if (!header.ok()) return out;

  // Per-section CRC verdicts, in file order (OpenSection also rejects
  // duplicate tags, which a plain load of a forward-compatible file with
  // trailing unknown sections would skip over).
  for (const RawSection& s : sections) {
    Result<ByteReader> r = OpenSection(bytes, sections, s.tag);
    out.push_back({s.tag, r.ok() ? Status::OK() : r.status()});
    if (!r.ok()) return out;
  }

  if (kind == BundleKind::kGraph) {
    Result<GraphBundle> graph = LoadGraph(path);
    out.push_back({"decode", graph.ok() ? Status::OK() : graph.status()});
    if (!graph.ok()) return out;
    // Value invariants of the served graph: finite adjacency (non-finite
    // entries would quantize through the emitter's NaN branch) and finite
    // features (they feed the fp32 walk's unbounded input).
    Status values = [&]() -> Status {
      const GraphBundle& g = graph.ValueOrDie();
      if (!g.op->range_bounds().values_finite) {
        return Status::InvalidArgument(
            "adjacency holds non-finite stored values");
      }
      for (float v : g.features.data()) {
        if (!std::isfinite(v)) {
          return Status::InvalidArgument("features hold non-finite values");
        }
      }
      return Status::OK();
    }();
    out.push_back({"values", values});
    return out;
  }

  // Model bundle: semantic decode first (reported as one verdict), then the
  // static plan verifier as its own verdict so a bad program is
  // distinguishable from malformed bytes.
  DecodedModel decoded;
  Status decode = DecodeModel(bytes, sections, &decoded);
  out.push_back({"decode", decode});
  if (!decode.ok()) return out;

  PlanShapes shapes;
  shapes.in_features = decoded.info.in_features;
  shapes.out_dim = decoded.info.out_dim;
  // Structure and values as separate verdicts: structural validity does not
  // imply value safety, and lint consumers want to see which theorem failed.
  PlanCheck check = CheckPlan(*decoded.plan, shapes);
  out.push_back({"plan", check.structure});
  if (!check.structure.ok()) return out;
  out.push_back({"ranges", check.ranges});
  return out;
}

std::string FormatCheckReportJson(const CheckReport& report) {
  using json::AppendJsonString;
  using json::StatusCodeJsonName;
  bool clean = true;
  for (const BundleCheck& c : report.checks) clean = clean && c.status.ok();
  std::string out = "{\"subject\": ";
  AppendJsonString(report.subject, &out);
  out += ", \"clean\": ";
  out += clean ? "true" : "false";
  out += ", \"checks\": [";
  for (size_t i = 0; i < report.checks.size(); ++i) {
    const BundleCheck& c = report.checks[i];
    if (i != 0) out += ", ";
    out += "{\"section\": ";
    AppendJsonString(c.section, &out);
    out += ", \"code\": ";
    AppendJsonString(StatusCodeJsonName(c.status.code()), &out);
    out += ", \"message\": ";
    AppendJsonString(c.status.message(), &out);
    out += "}";
  }
  out += "]}";
  return out;
}

// ---- graph bundles ---------------------------------------------------------

Status SaveGraph(const Tensor& features, const SparseOperatorPtr& op,
                 const std::string& path) {
  if (!features.defined()) {
    return Status::InvalidArgument("graph bundle needs defined features");
  }
  if (op == nullptr) {
    return Status::InvalidArgument("graph bundle needs a non-null operator");
  }
  if (op->matrix().cols() != features.rows()) {
    return Status::InvalidArgument(
        "operator/features mismatch: operator has " +
        std::to_string(op->matrix().cols()) + " columns, features " +
        std::to_string(features.rows()) + " rows");
  }
  const CsrMatrix& m = op->matrix();
  ByteWriter file;
  AppendFileHeader(&file, BundleKind::kGraph);

  ByteWriter meta;
  meta.PutI64(features.rows());
  meta.PutI64(features.cols());
  meta.PutI64(m.nnz());
  meta.PutI64(m.rows());
  meta.PutI64(m.cols());
  AppendSection(&file, "GMET", meta);

  ByteWriter csr;
  csr.PutI64(m.rows());
  csr.PutI64(m.cols());
  csr.PutPodVector(m.row_ptr());
  csr.PutPodVector(m.col_idx());
  csr.PutPodVector(m.values());
  AppendSection(&file, "CSRM", csr);

  ByteWriter feat;
  feat.PutI64(features.rows());
  feat.PutI64(features.cols());
  feat.PutPodVector(features.data());
  AppendSection(&file, "FEAT", feat);
  return WriteFileAtomic(path, file.buffer());
}

Result<GraphBundle> LoadGraph(const std::string& path) {
  BundleKind kind;
  uint16_t major = 0, minor = 0;
  std::vector<uint8_t> bytes;
  std::vector<RawSection> sections;
  MIXQ_RETURN_NOT_OK(OpenBundle(path, &kind, &major, &minor, &bytes, &sections));
  if (kind != BundleKind::kGraph) {
    return Status::InvalidArgument("'" + path +
                                   "' is a model bundle, not a graph bundle");
  }

  Result<ByteReader> meta_r = OpenSection(bytes, sections, "GMET");
  if (!meta_r.ok()) return meta_r.status();
  int64_t meta_nodes = 0, meta_dim = 0, meta_nnz = 0, meta_rows = 0, meta_cols = 0;
  {
    ByteReader& r = meta_r.ValueOrDie();
    MIXQ_RETURN_NOT_OK(r.ReadI64(&meta_nodes));
    MIXQ_RETURN_NOT_OK(r.ReadI64(&meta_dim));
    MIXQ_RETURN_NOT_OK(r.ReadI64(&meta_nnz));
    MIXQ_RETURN_NOT_OK(r.ReadI64(&meta_rows));
    MIXQ_RETURN_NOT_OK(r.ReadI64(&meta_cols));
  }

  Result<ByteReader> csr_r = OpenSection(bytes, sections, "CSRM");
  if (!csr_r.ok()) return csr_r.status();
  int64_t rows = 0, cols = 0;
  std::vector<int64_t> row_ptr, col_idx;
  std::vector<float> values;
  {
    ByteReader& r = csr_r.ValueOrDie();
    MIXQ_RETURN_NOT_OK(r.ReadI64(&rows));
    MIXQ_RETURN_NOT_OK(r.ReadI64(&cols));
    MIXQ_RETURN_NOT_OK(r.ReadPodVector(&row_ptr));
    MIXQ_RETURN_NOT_OK(r.ReadPodVector(&col_idx));
    MIXQ_RETURN_NOT_OK(r.ReadPodVector(&values));
  }
  Result<CsrMatrix> matrix = CsrMatrix::FromParts(rows, cols, std::move(row_ptr),
                                                  std::move(col_idx),
                                                  std::move(values));
  if (!matrix.ok()) return matrix.status();

  Result<ByteReader> feat_r = OpenSection(bytes, sections, "FEAT");
  if (!feat_r.ok()) return feat_r.status();
  int64_t feat_rows = 0, feat_cols = 0;
  std::vector<float> feat_data;
  {
    ByteReader& r = feat_r.ValueOrDie();
    MIXQ_RETURN_NOT_OK(r.ReadI64(&feat_rows));
    MIXQ_RETURN_NOT_OK(r.ReadI64(&feat_cols));
    MIXQ_RETURN_NOT_OK(r.ReadPodVector(&feat_data));
  }
  // Division, not multiplication: feat_rows * feat_cols on untrusted values
  // can wrap and "match" an empty payload for a huge claimed shape.
  const bool feat_shape_ok =
      feat_rows >= 0 && feat_cols >= 0 &&
      (feat_cols == 0
           ? feat_data.empty()
           : feat_data.size() % static_cast<uint64_t>(feat_cols) == 0 &&
                 feat_data.size() / static_cast<uint64_t>(feat_cols) ==
                     static_cast<uint64_t>(feat_rows));
  if (!feat_shape_ok) {
    return Status::InvalidArgument("feature matrix dimensions disagree with data");
  }

  const CsrMatrix& m = matrix.ValueOrDie();
  if (meta_nodes != feat_rows || meta_dim != feat_cols || meta_nnz != m.nnz() ||
      meta_rows != m.rows() || meta_cols != m.cols()) {
    return Status::InvalidArgument("'" + path +
                                   "' GMET metadata disagrees with its payload");
  }
  if (m.cols() != feat_rows) {
    return Status::InvalidArgument(
        "operator/features mismatch in '" + path + "': operator has " +
        std::to_string(m.cols()) + " columns, features " +
        std::to_string(feat_rows) + " rows");
  }

  GraphBundle bundle;
  bundle.features = Tensor::FromVector(Shape(feat_rows, feat_cols),
                                       std::move(feat_data));
  bundle.op = MakeOperator(matrix.MoveValueOrDie());
  return bundle;
}

// ---- logit digests ---------------------------------------------------------

std::string FormatLogitDigestLine(const std::string& mode, uint64_t digest) {
  char hex[17];
  std::snprintf(hex, sizeof(hex), "%016llx",
                static_cast<unsigned long long>(digest));
  return mode + " " + hex + "\n";
}

bool FindLogitDigest(const std::string& text, const std::string& mode,
                     uint64_t* digest) {
  size_t pos = 0;
  while (pos < text.size()) {
    size_t eol = text.find('\n', pos);
    if (eol == std::string::npos) eol = text.size();
    const std::string line = text.substr(pos, eol - pos);
    if (line.rfind(mode + " ", 0) == 0) {
      *digest = std::strtoull(line.c_str() + mode.size() + 1, nullptr, 16);
      return true;
    }
    pos = eol + 1;
  }
  return false;
}

// ---- inspection ------------------------------------------------------------

Result<BundleManifest> InspectBundle(const std::string& path) {
  BundleManifest manifest;
  BundleKind kind;
  std::vector<uint8_t> bytes;
  std::vector<RawSection> sections;
  MIXQ_RETURN_NOT_OK(OpenBundle(path, &kind, &manifest.format_major,
                                &manifest.format_minor, &bytes, &sections));
  manifest.kind = kind;
  manifest.file_bytes = bytes.size();
  for (const RawSection& s : sections) {
    BundleSection out;
    out.tag = s.tag;
    out.offset = s.offset;
    out.size = s.size;
    out.crc32 = s.crc32;
    manifest.sections.push_back(std::move(out));
  }
  if (kind == BundleKind::kModel) {
    Result<ByteReader> info_r = OpenSection(bytes, sections, "INFO");
    if (!info_r.ok()) return info_r.status();
    MIXQ_RETURN_NOT_OK(
        DecodeInfo(&info_r.ValueOrDie(), &manifest.info, &manifest.model_kind));
  } else {
    Result<ByteReader> meta_r = OpenSection(bytes, sections, "GMET");
    if (!meta_r.ok()) return meta_r.status();
    ByteReader& r = meta_r.ValueOrDie();
    int64_t op_rows = 0, op_cols = 0;
    MIXQ_RETURN_NOT_OK(r.ReadI64(&manifest.graph_nodes));
    MIXQ_RETURN_NOT_OK(r.ReadI64(&manifest.feature_dim));
    MIXQ_RETURN_NOT_OK(r.ReadI64(&manifest.graph_nnz));
    MIXQ_RETURN_NOT_OK(r.ReadI64(&op_rows));
    MIXQ_RETURN_NOT_OK(r.ReadI64(&op_cols));
  }
  return manifest;
}

}  // namespace engine
}  // namespace mixq
