// Copyright 2026 MixQ-GNN Authors
// Property-based / parameterized sweeps over invariants that must hold for
// every configuration: quantization error bounds, idempotence, Theorem-1
// exactness across graph shapes, Pareto dominance, GCN operator spectra, and
// a seeded differential test of every lowered serving route, compiled and
// bundled.
#include <gtest/gtest.h>

#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <string>
#include <tuple>
#include <vector>

#include "common/stats.h"
#include "core/experiment.h"
#include "engine/compiled_model.h"
#include "engine/model_bundle.h"
#include "quant/fused_mp.h"
#include "quant/quant_params.h"
#include "sparse/csr.h"
#include "tests/kernel_isa_sweep.h"

namespace mixq {
namespace {

// ---- Quantization invariants across (bits, symmetric, range) ----------------

class QuantInvariantTest
    : public ::testing::TestWithParam<std::tuple<int, bool, float>> {};

TEST_P(QuantInvariantTest, ErrorBoundedIdempotentMonotone) {
  const auto [bits, symmetric, range] = GetParam();
  QuantParams p = ParamsFromRange(-range, range, bits, symmetric);
  Rng rng(1000 + bits);
  for (int i = 0; i < 300; ++i) {
    const float x = rng.Uniform(-range, range);
    const float q = FakeQuantValue(x, p);
    // 1. Error bound within the representable range.
    EXPECT_LE(std::fabs(q - x), p.scale * 0.5f + 1e-5f) << "bits=" << bits;
    // 2. Idempotence: quantizing a grid point is exact.
    EXPECT_NEAR(FakeQuantValue(q, p), q, 1e-6f);
    // 3. Monotonicity: x1 <= x2 => Q(x1) <= Q(x2).
    const float x2 = rng.Uniform(-range, range);
    if (x <= x2) {
      EXPECT_LE(FakeQuantValue(x, p), FakeQuantValue(x2, p) + 1e-6f);
    }
  }
  // 4. Out-of-range values clamp to the representable extremes.
  const float top = FakeQuantValue(10.0f * range, p);
  const float bot = FakeQuantValue(-10.0f * range, p);
  EXPECT_NEAR(top, static_cast<float>(p.qmax() - p.zero_point) * p.scale, 1e-5f);
  EXPECT_NEAR(bot, static_cast<float>(p.qmin() - p.zero_point) * p.scale, 1e-5f);
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, QuantInvariantTest,
    ::testing::Combine(::testing::Values(2, 3, 4, 6, 8, 16),
                       ::testing::Bool(),
                       ::testing::Values(0.5f, 1.0f, 8.0f)),
    [](const auto& info) {
      return "b" + std::to_string(std::get<0>(info.param)) +
             (std::get<1>(info.param) ? "sym" : "asym") + "r" +
             std::to_string(static_cast<int>(std::get<2>(info.param) * 10));
    });

// ---- Theorem 1 across graph shapes and densities -----------------------------

class FusedShapeTest
    : public ::testing::TestWithParam<std::tuple<int64_t, int64_t, double>> {};

TEST_P(FusedShapeTest, FusedEqualsReferenceEverywhere) {
  const auto [n, f, density] = GetParam();
  Rng rng(static_cast<uint64_t>(n * 131 + f));
  std::vector<CooEntry> entries;
  for (int64_t i = 0; i < n; ++i) {
    for (int64_t j = 0; j < n; ++j) {
      if (rng.Bernoulli(density)) entries.push_back({i, j, rng.Uniform(-1.0f, 1.0f)});
    }
  }
  if (entries.empty()) entries.push_back({0, 0, 0.5f});
  CsrMatrix a = CsrMatrix::FromCoo(n, n, entries);
  Tensor x = Tensor::RandomUniform(Shape(n, f), &rng, -2.0f, 2.0f);
  QuantParams pa = ParamsFromRange(-1.0f, 1.0f, 8, true);
  QuantParams px = ParamsFromRange(-2.0f, 2.0f, 4, false);
  QuantParams py = ParamsFromRange(-10.0f, 10.0f, 16, true);
  QuantizedSparse qa = QuantizeCsr(a, pa);
  QuantizedDense qx = QuantizeDense(x, px);
  QuantizedDense fused = FusedQuantizedSpmm(a, qa, qx, py);
  QuantizedDense ref = ReferenceQuantizedSpmm(a, qa, qx, py);
  ASSERT_EQ(fused.q.size(), ref.q.size());
  for (size_t i = 0; i < fused.q.size(); ++i) {
    EXPECT_LE(std::abs(fused.q[i] - ref.q[i]), 1);
  }
}

INSTANTIATE_TEST_SUITE_P(Shapes, FusedShapeTest,
                         ::testing::Values(std::make_tuple<int64_t, int64_t>(1, 1, 1.0),
                                           std::make_tuple<int64_t, int64_t>(5, 3, 0.5),
                                           std::make_tuple<int64_t, int64_t>(17, 9, 0.2),
                                           std::make_tuple<int64_t, int64_t>(40, 16, 0.05),
                                           std::make_tuple<int64_t, int64_t>(64, 1, 0.1)));

// ---- Pareto front dominance ---------------------------------------------------

TEST(ParetoPropertyTest, NoFrontPointIsDominated) {
  Rng rng(77);
  std::vector<ParetoPoint> pts;
  for (int i = 0; i < 500; ++i) {
    pts.push_back({rng.Uniform(2.0f, 8.0f), rng.Uniform(0.2f, 0.9f), i});
  }
  auto front = ParetoFront(pts);
  ASSERT_FALSE(front.empty());
  for (const auto& fp : front) {
    for (const auto& p : pts) {
      const bool dominates =
          (p.cost < fp.cost && p.gain >= fp.gain) ||
          (p.cost <= fp.cost && p.gain > fp.gain);
      EXPECT_FALSE(dominates) << "front point " << fp.tag << " dominated by "
                              << p.tag;
    }
  }
  // Front is sorted by cost and strictly increasing in gain.
  for (size_t i = 1; i < front.size(); ++i) {
    EXPECT_LE(front[i - 1].cost, front[i].cost);
    EXPECT_LT(front[i - 1].gain, front[i].gain);
  }
}

// ---- GCN normalization spectrum ----------------------------------------------

TEST(GcnOperatorPropertyTest, SpectralRadiusAtMostOne) {
  // For Â = D^{-1/2}(I+A)D^{-1/2} with the renormalization-trick degrees,
  // the spectrum lies in [-1, 1]: aggregation cannot amplify feature norms.
  // Verified by power iteration on random undirected graphs.
  Rng rng(88);
  for (int trial = 0; trial < 10; ++trial) {
    const int64_t n = 20;
    std::vector<CooEntry> entries;
    for (int64_t i = 0; i < n; ++i) {
      for (int64_t j = i + 1; j < n; ++j) {
        if (rng.Bernoulli(0.2)) {
          entries.push_back({i, j, 1.0f});
          entries.push_back({j, i, 1.0f});
        }
      }
    }
    CsrMatrix norm = GcnNormalize(CsrMatrix::FromCoo(n, n, entries));
    std::vector<float> v(static_cast<size_t>(n));
    for (auto& x : v) x = rng.Uniform(-1.0f, 1.0f);
    std::vector<float> w(static_cast<size_t>(n));
    double lambda_est = 0.0;
    for (int it = 0; it < 200; ++it) {
      SpmmRaw(norm, v.data(), 1, w.data());
      double nv = 0.0, nw = 0.0;
      for (int64_t i = 0; i < n; ++i) {
        nv += static_cast<double>(v[static_cast<size_t>(i)]) * v[static_cast<size_t>(i)];
        nw += static_cast<double>(w[static_cast<size_t>(i)]) * w[static_cast<size_t>(i)];
      }
      lambda_est = std::sqrt(nw / std::max(nv, 1e-30));
      const double inv = 1.0 / std::max(std::sqrt(nw), 1e-30);
      for (int64_t i = 0; i < n; ++i) {
        v[static_cast<size_t>(i)] = static_cast<float>(w[static_cast<size_t>(i)] * inv);
      }
    }
    EXPECT_LE(lambda_est, 1.0 + 1e-3) << "trial " << trial;
  }
}

// ---- Requantization chain property --------------------------------------------

TEST(RequantChainTest, CoarserNeverMorePrecise) {
  // Quantizing at b1 then measuring error must never beat direct error at a
  // finer b2 > b1 by more than numerical noise, over many random draws.
  Rng rng(99);
  for (int trial = 0; trial < 50; ++trial) {
    const float range = rng.Uniform(0.5f, 4.0f);
    QuantParams p2 = ParamsFromRange(-range, range, 2, true);
    QuantParams p8 = ParamsFromRange(-range, range, 8, true);
    double e2 = 0.0, e8 = 0.0;
    for (int i = 0; i < 100; ++i) {
      const float x = rng.Uniform(-range, range);
      e2 += std::fabs(FakeQuantValue(x, p2) - x);
      e8 += std::fabs(FakeQuantValue(x, p8) - x);
    }
    EXPECT_GE(e2, e8);
  }
}

// ---- Differential serving: every lowered route against its oracle -----------

std::shared_ptr<ModelArtifact> TrainOnTinyCitation(const SchemeRef& scheme,
                                                   NodeModelKind model) {
  CitationConfig c;
  c.name = "differential-tiny";
  c.num_nodes = 160;
  c.num_classes = 3;
  c.feature_dim = 20;
  c.avg_degree = 3.0;
  c.homophily = 0.85;
  c.train_per_class = 8;
  c.val_count = 30;
  c.test_count = 60;
  c.seed = 1;
  NodeExperimentConfig cfg;
  cfg.model = model;
  cfg.hidden = 12;
  cfg.num_layers = 2;
  cfg.dropout = 0.2f;
  cfg.train.epochs = 12;
  cfg.train.lr = 0.05f;
  ExperimentSpec spec =
      ExperimentSpec::NodeClassification(GenerateCitation(c), cfg, scheme);
  spec.seed = 1;
  spec.keep_artifact = true;
  Result<ExperimentReport> report =
      Experiment::Create(std::move(spec)).ValueOrDie().Run();
  EXPECT_TRUE(report.ok()) << report.status().ToString();
  return report.ok() ? report.ValueOrDie().artifact : nullptr;
}

/// A random graph for one seed: Zipf-weighted rows (a few hubs, many rows
/// with no stored entries), about 5% isolated nodes that appear in no edge,
/// and duplicate edges summed by FromCoo.
CsrMatrix RandomPowerLawGraph(uint64_t seed, int64_t n) {
  Rng rng(seed);
  std::vector<int64_t> live;
  for (int64_t v = 0; v < n; ++v) {
    if (!rng.Bernoulli(0.05)) live.push_back(v);
  }
  // Rows drawn by inverse-CDF over weights (rank+1)^-1.2 in a shuffled rank
  // order, columns uniformly: hub rows aggregate many neighbours.
  std::vector<int64_t> rank = live;
  for (size_t i = rank.size(); i > 1; --i) {
    std::swap(rank[i - 1], rank[static_cast<size_t>(rng.UniformInt(
                               0, static_cast<int64_t>(i) - 1))]);
  }
  std::vector<double> cdf(rank.size());
  double total = 0.0;
  for (size_t i = 0; i < rank.size(); ++i) {
    total += std::pow(static_cast<double>(i + 1), -1.2);
    cdf[i] = total;
  }
  std::vector<CooEntry> edges;
  const int64_t num_edges = 3 * n;
  for (int64_t e = 0; e < num_edges; ++e) {
    const double u = total * rng.Uniform(0.0f, 1.0f);
    const size_t r = std::min(
        rank.size() - 1,
        static_cast<size_t>(std::lower_bound(cdf.begin(), cdf.end(), u) -
                            cdf.begin()));
    const int64_t col = live[static_cast<size_t>(
        rng.UniformInt(0, static_cast<int64_t>(live.size()) - 1))];
    edges.push_back({rank[r], col, 1.0f});
  }
  return CsrMatrix::FromCoo(n, n, std::move(edges));
}

/// Nodes with no stored entry in their row or their column.
int64_t CountIsolated(const CsrMatrix& adj) {
  std::vector<bool> touched(static_cast<size_t>(adj.rows()), false);
  for (int64_t r = 0; r < adj.rows(); ++r) {
    for (int64_t e = adj.row_ptr()[r]; e < adj.row_ptr()[r + 1]; ++e) {
      touched[static_cast<size_t>(r)] = true;
      touched[static_cast<size_t>(adj.col_idx()[e])] = true;
    }
  }
  return static_cast<int64_t>(std::count(touched.begin(), touched.end(), false));
}

/// Bitwise row comparison: row i of `got` against row rows[i] of `full`
/// (rows == nullptr compares every row in order).
void ExpectRowsBitwise(const Tensor& got, const Tensor& full,
                       const std::vector<int64_t>* rows, const std::string& what) {
  const int64_t w = full.cols();
  const int64_t count = rows == nullptr ? full.rows()
                                        : static_cast<int64_t>(rows->size());
  ASSERT_EQ(got.rows(), count) << what;
  ASSERT_EQ(got.cols(), w) << what;
  for (int64_t i = 0; i < count; ++i) {
    const int64_t r = rows == nullptr ? i : (*rows)[static_cast<size_t>(i)];
    const float* a = got.data().data() + i * w;
    const float* b = full.data().data() + r * w;
    if (std::memcmp(a, b, sizeof(float) * static_cast<size_t>(w)) != 0) {
      ADD_FAILURE() << what << ": row " << r << " differs, first column "
                    << std::mismatch(a, a + w, b).first - a;
      return;
    }
  }
}

// The safety net for the single step loop per precision: on fixed-seed
// random graphs and target sets, every serving route must reproduce its
// oracle bitwise, under every kernel tier — Predict against the artifact's
// replayed eval forward (ReplayEvalForward), pruned fp32 rows against
// Predict, pruned int8 rows against PredictQuantized. Each model is also
// round-tripped through SaveBundle/LoadBundle, and the loaded copy's routes
// must meet the same oracles (its PredictQuantized: the compiled model's).
// Each failure names its route and graph seed.
TEST(DifferentialServingTest, EveryRouteMatchesItsOracleOnRandomGraphs) {
  struct Case {
    const char* label;
    SchemeRef ref;
    NodeModelKind kind;
  };
  const std::vector<Case> cases = {
      {"fp32-gcn", SchemeRef::Fp32(), NodeModelKind::kGcn},
      {"qat8-gcn", SchemeRef::Qat(8), NodeModelKind::kGcn},
      {"qat4-gcn", SchemeRef::Qat(4), NodeModelKind::kGcn},
      {"fixed-gcn",
       SchemeRef::Fixed({{"model/x", 8}, {"gcn0/weight", 2},
                         {"gcn0/linear_out", 4}, {"gcn1/weight", 4}}),
       NodeModelKind::kGcn},
      // The widest grid that lowers: 31-bit codes and clamp bounds fit int32.
      {"fixed31-gcn",
       SchemeRef::Fixed({{"gcn0/weight", 31}, {"gcn1/linear_out", 31}}),
       NodeModelKind::kGcn},
      {"fp32-sage", SchemeRef::Fp32(), NodeModelKind::kSage},
      {"qat8-sage", SchemeRef::Qat(8), NodeModelKind::kSage},
      {"qat4-sage", SchemeRef::Qat(4), NodeModelKind::kSage},
      {"fixed-sage",
       SchemeRef::Fixed({{"model/x", 8}, {"sage0/root/weight", 2},
                         {"sage0/neigh/out", 4}, {"sage1/neigh/weight", 4}}),
       NodeModelKind::kSage},
      {"fixed31-sage", SchemeRef::Fixed({{"sage0/root/out", 31}}),
       NodeModelKind::kSage},
  };
  constexpr uint64_t kSeeds[] = {101, 202, 303, 404, 505, 606, 707, 808};
  constexpr int kTargetSets = 12;
  const std::string bundle_path =
      ::testing::TempDir() + "mixq_differential_" + std::to_string(getpid()) + ".mqb";
  int int8_models = 0;
  for (const Case& c : cases) {
    SCOPED_TRACE(c.label);
    auto artifact = TrainOnTinyCitation(c.ref, c.kind);
    ASSERT_NE(artifact, nullptr);
    Result<engine::CompiledModelPtr> compiled = engine::CompileModel(*artifact);
    ASSERT_TRUE(compiled.ok()) << compiled.status().ToString();
    const engine::CompiledModelPtr& model = compiled.ValueOrDie();
    ASSERT_TRUE(engine::SaveBundle(*model, bundle_path).ok());
    Result<engine::CompiledModelPtr> loaded = engine::LoadBundle(bundle_path);
    std::remove(bundle_path.c_str());
    ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
    const bool int8 = model->info().lowered_int8;
    ASSERT_EQ(loaded.ValueOrDie()->info().lowered_int8, int8);
    int8_models += int8 ? 1 : 0;
    for (uint64_t seed : kSeeds) {
      SCOPED_TRACE("graph seed " + std::to_string(seed));
      Rng rng(seed);
      const int64_t n = 150 + rng.UniformInt(0, 100);
      const CsrMatrix adj = RandomPowerLawGraph(seed, n);
      ASSERT_GT(CountIsolated(adj), 0);
      const SparseOperatorPtr op = MakeOperator(
          c.kind == NodeModelKind::kGcn ? GcnNormalize(adj) : RowNormalize(adj));
      const Tensor features = Tensor::RandomUniform(
          Shape(n, artifact->features.cols()), &rng, -1.0f, 1.0f);
      std::vector<std::vector<int64_t>> target_sets(kTargetSets);
      for (std::vector<int64_t>& targets : target_sets) {
        const int64_t count = rng.UniformInt(1, 16);
        for (int64_t i = 0; i < count; ++i) targets.push_back(rng.UniformInt(0, n - 1));
        std::sort(targets.begin(), targets.end());
        targets.erase(std::unique(targets.begin(), targets.end()), targets.end());
      }
      const Tensor reference =
          ReplayEvalForward(*artifact, features, op).ValueOrDie();

      ForEachKernelIsa([&] {
        // The compiled model first: its PredictQuantized is the int8 oracle
        // of both routes.
        Tensor int8_oracle;
        for (const engine::CompiledModelPtr& m : {model, loaded.ValueOrDie()}) {
          const bool bundled = m != model;
          SCOPED_TRACE(bundled ? "bundled" : "compiled");
          engine::PredictScratch scratch;
          const Tensor full = m->Predict(features, op, &scratch).ValueOrDie();
          ExpectRowsBitwise(full, reference, nullptr, "Predict vs ReplayEvalForward");
          Tensor quantized;
          if (int8) {
            Result<Tensor> q = m->PredictQuantized(features, op, &scratch);
            ASSERT_TRUE(q.ok()) << q.status().ToString();
            quantized = q.MoveValueOrDie();
            if (bundled) {
              ExpectRowsBitwise(quantized, int8_oracle, nullptr,
                                "bundled PredictQuantized vs compiled");
            } else {
              int8_oracle = quantized;
            }
          }
          FrontierWorkspace ws;
          for (const std::vector<int64_t>& targets : target_sets) {
            for (bool pruned_int8 : {false, true}) {
              if (pruned_int8 && !int8) continue;
              auto program = m->BuildFrontierProgram(op, targets, pruned_int8, &ws,
                                                     /*max_cost_fraction=*/10.0);
              ASSERT_NE(program, nullptr);
              Result<Tensor> pruned = m->PredictPruned(features, *program, &scratch);
              ASSERT_TRUE(pruned.ok()) << pruned.status().ToString();
              ExpectRowsBitwise(pruned.ValueOrDie(), pruned_int8 ? quantized : full,
                                &targets,
                                pruned_int8 ? "pruned int8 vs PredictQuantized"
                                            : "pruned fp32 vs Predict");
            }
          }
        }
      });
    }
  }
  // The qat8/qat4 models on both backbones must exercise the int8 routes.
  EXPECT_GE(int8_models, 4);
}

}  // namespace
}  // namespace mixq
