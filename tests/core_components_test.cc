#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <set>
#include <vector>

#include "core/encoder.h"
#include "core/gat_e.h"
#include "core/route_decoder.h"
#include "core/sort_lstm.h"
#include "core/uncertainty_loss.h"
#include "graph/features.h"
#include "nn/optimizer.h"

namespace m2g::core {
namespace {

ModelConfig TinyConfig() {
  ModelConfig c;
  c.hidden_dim = 16;
  c.num_heads = 2;
  c.num_layers = 2;
  c.aoi_id_embed_dim = 4;
  c.aoi_type_embed_dim = 2;
  c.lstm_hidden_dim = 16;
  c.courier_dim = 8;
  c.pos_enc_dim = 4;
  return c;
}

TEST(ConfigTest, ValidationCatchesBadConfigs) {
  ModelConfig c = TinyConfig();
  EXPECT_TRUE(ValidateConfig(c).ok());
  c.num_heads = 3;  // 16 % 3 != 0
  EXPECT_FALSE(ValidateConfig(c).ok());
  c = TinyConfig();
  c.aoi_id_embed_dim = 20;  // exceeds hidden_dim
  EXPECT_FALSE(ValidateConfig(c).ok());
  c = TinyConfig();
  c.pos_enc_dim = 5;
  EXPECT_FALSE(ValidateConfig(c).ok());
}

TEST(GatELayerTest, OutputShapesHiddenAndLast) {
  ModelConfig c = TinyConfig();
  Rng rng(1);
  const int n = 6;
  Tensor nodes = Tensor::Constant(
      Matrix::Random(n, c.hidden_dim, -1, 1, &rng));
  Tensor edges = Tensor::Constant(
      Matrix::Random(n * n, c.hidden_dim, -1, 1, &rng));
  std::vector<bool> adj(n * n, true);

  GatELayer hidden(c, /*is_last=*/false, &rng);
  GatEOutput out = hidden.Forward(nodes, edges, adj);
  EXPECT_EQ(out.nodes.rows(), n);
  EXPECT_EQ(out.nodes.cols(), c.hidden_dim);
  EXPECT_EQ(out.edges.rows(), n * n);
  EXPECT_EQ(out.edges.cols(), c.hidden_dim);

  GatELayer last(c, /*is_last=*/true, &rng);
  GatEOutput out2 = last.Forward(nodes, edges, adj);
  EXPECT_EQ(out2.nodes.cols(), c.hidden_dim);
}

TEST(GatELayerTest, MaskedNeighboursDoNotInfluence) {
  // With adjacency = identity, each node attends only to itself, so
  // changing another node's features must not change node 0's output.
  ModelConfig c = TinyConfig();
  Rng rng(2);
  const int n = 4;
  Matrix base = Matrix::Random(n, c.hidden_dim, -1, 1, &rng);
  Matrix edge_feats = Matrix::Random(n * n, c.hidden_dim, -1, 1, &rng);
  std::vector<bool> adj(n * n, false);
  for (int i = 0; i < n; ++i) adj[i * n + i] = true;

  GatELayer layer(c, false, &rng);
  GatEOutput out1 = layer.Forward(Tensor::Constant(base),
                                  Tensor::Constant(edge_feats), adj);
  Matrix perturbed = base;
  for (int col = 0; col < c.hidden_dim; ++col) {
    perturbed.At(2, col) += 5.0f;
  }
  GatEOutput out2 = layer.Forward(Tensor::Constant(perturbed),
                                  Tensor::Constant(edge_feats), adj);
  for (int col = 0; col < c.hidden_dim; ++col) {
    EXPECT_FLOAT_EQ(out1.nodes.value().At(0, col),
                    out2.nodes.value().At(0, col));
  }
}

TEST(GatELayerTest, EdgeFeaturesAffectAttention) {
  ModelConfig c = TinyConfig();
  Rng rng(3);
  const int n = 3;
  Tensor nodes = Tensor::Constant(
      Matrix::Random(n, c.hidden_dim, -1, 1, &rng));
  Matrix e1 = Matrix::Random(n * n, c.hidden_dim, -1, 1, &rng);
  Matrix e2 = e1;
  for (int col = 0; col < c.hidden_dim; ++col) e2.At(1, col) += 3.0f;
  std::vector<bool> adj(n * n, true);
  GatELayer layer(c, false, &rng);
  GatEOutput o1 = layer.Forward(nodes, Tensor::Constant(e1), adj);
  GatEOutput o2 = layer.Forward(nodes, Tensor::Constant(e2), adj);
  float diff = 0;
  for (int col = 0; col < c.hidden_dim; ++col) {
    diff += std::fabs(o1.nodes.value().At(0, col) -
                      o2.nodes.value().At(0, col));
  }
  EXPECT_GT(diff, 1e-6f);
}

TEST(GatELayerTest, GradientsReachAllParameters) {
  ModelConfig c = TinyConfig();
  Rng rng(4);
  const int n = 5;
  Tensor nodes = Tensor::Constant(
      Matrix::Random(n, c.hidden_dim, -1, 1, &rng));
  Tensor edges = Tensor::Constant(
      Matrix::Random(n * n, c.hidden_dim, -1, 1, &rng));
  std::vector<bool> adj(n * n, true);
  GatELayer layer(c, false, &rng);
  GatEOutput out = layer.Forward(nodes, edges, adj);
  Add(Sum(out.nodes), Sum(out.edges)).Backward();
  for (const auto& [name, p] : layer.NamedParameters()) {
    ASSERT_TRUE(p.grad().SameShape(p.value())) << name;
    EXPECT_GT(p.grad().MaxAbs(), 0.0f) << name;
  }
}

TEST(GatELayerTest, PermutationEquivariant) {
  // Relabeling the nodes (and permuting edges/adjacency consistently)
  // must permute the outputs identically — the defining property of a
  // graph encoder, and exactly what sequence encoders lack.
  ModelConfig c = TinyConfig();
  Rng rng(55);
  const int n = 5;
  Matrix nodes = Matrix::Random(n, c.hidden_dim, -1, 1, &rng);
  Matrix edges = Matrix::Random(n * n, c.hidden_dim, -1, 1, &rng);
  std::vector<bool> adj(n * n, false);
  for (int i = 0; i < n; ++i) {
    adj[i * n + i] = true;
    adj[i * n + (i + 1) % n] = true;
    adj[((i + 1) % n) * n + i] = true;
  }
  GatELayer layer(c, false, &rng);
  GatEOutput base = layer.Forward(Tensor::Constant(nodes),
                                  Tensor::Constant(edges), adj);

  // Apply permutation p (node i of the permuted graph = node p[i]).
  const std::vector<int> p = {3, 0, 4, 1, 2};
  Matrix pn(n, c.hidden_dim);
  Matrix pe(n * n, c.hidden_dim);
  std::vector<bool> padj(n * n, false);
  for (int i = 0; i < n; ++i) {
    for (int col = 0; col < c.hidden_dim; ++col) {
      pn.At(i, col) = nodes.At(p[i], col);
    }
    for (int j = 0; j < n; ++j) {
      padj[i * n + j] = adj[p[i] * n + p[j]];
      for (int col = 0; col < c.hidden_dim; ++col) {
        pe.At(i * n + j, col) = edges.At(p[i] * n + p[j], col);
      }
    }
  }
  GatEOutput permuted = layer.Forward(Tensor::Constant(pn),
                                      Tensor::Constant(pe), padj);
  for (int i = 0; i < n; ++i) {
    for (int col = 0; col < c.hidden_dim; ++col) {
      EXPECT_NEAR(permuted.nodes.value().At(i, col),
                  base.nodes.value().At(p[i], col), 1e-5f)
          << "node " << i << " col " << col;
    }
    for (int j = 0; j < n; ++j) {
      for (int col = 0; col < c.hidden_dim; ++col) {
        EXPECT_NEAR(permuted.edges.value().At(i * n + j, col),
                    base.edges.value().At(p[i] * n + p[j], col), 1e-5f);
      }
    }
  }
}

TEST(RouteDecoderTest, GreedyDecodeIsPermutation) {
  Rng rng(5);
  const int n = 9, d = 12, du = 6;
  AttentionRouteDecoder decoder(d, du, 16, &rng);
  Tensor nodes = Tensor::Constant(Matrix::Random(n, d, -1, 1, &rng));
  Tensor courier = Tensor::Constant(Matrix::Random(1, du, -1, 1, &rng));
  std::vector<int> route = decoder.DecodeGreedy(nodes, courier);
  std::set<int> seen(route.begin(), route.end());
  EXPECT_EQ(seen.size(), static_cast<size_t>(n));
  EXPECT_EQ(*seen.begin(), 0);
  EXPECT_EQ(*seen.rbegin(), n - 1);
}

TEST(RouteDecoderTest, TeacherForcedLossFiniteAndPositive) {
  Rng rng(6);
  const int n = 6, d = 12, du = 6;
  AttentionRouteDecoder decoder(d, du, 16, &rng);
  Tensor nodes = Tensor::Constant(Matrix::Random(n, d, -1, 1, &rng));
  Tensor courier = Tensor::Constant(Matrix::Random(1, du, -1, 1, &rng));
  std::vector<int> label = {2, 0, 4, 1, 5, 3};
  Tensor loss = decoder.TeacherForcedLoss(nodes, courier, label);
  EXPECT_GT(loss.item(), 0.0f);
  EXPECT_TRUE(std::isfinite(loss.item()));
}

TEST(RouteDecoderTest, LearnsTrivialOrderingTask) {
  // One fixed instance: the decoder should overfit the label route.
  Rng rng(7);
  const int n = 5, d = 8, du = 4;
  AttentionRouteDecoder decoder(d, du, 12, &rng);
  Tensor nodes = Tensor::Constant(Matrix::Random(n, d, -1, 1, &rng));
  Tensor courier = Tensor::Constant(Matrix::Random(1, du, -1, 1, &rng));
  std::vector<int> label = {3, 1, 4, 0, 2};
  nn::Adam opt(decoder.Parameters(), 0.02f);
  for (int it = 0; it < 150; ++it) {
    opt.ZeroGrad();
    decoder.TeacherForcedLoss(nodes, courier, label).Backward();
    opt.Step();
  }
  EXPECT_EQ(decoder.DecodeGreedy(nodes, courier), label);
}

TEST(RouteDecoderTest, BeamWidthOneEqualsGreedy) {
  Rng rng(41);
  const int n = 8, d = 12, du = 6;
  AttentionRouteDecoder decoder(d, du, 16, &rng);
  Tensor nodes = Tensor::Constant(Matrix::Random(n, d, -1, 1, &rng));
  Tensor courier = Tensor::Constant(Matrix::Random(1, du, -1, 1, &rng));
  EXPECT_EQ(decoder.DecodeBeam(nodes, courier, 1),
            decoder.DecodeGreedy(nodes, courier));
}

TEST(RouteDecoderTest, BeamReturnsValidPermutation) {
  Rng rng(42);
  const int n = 7, d = 12, du = 6;
  AttentionRouteDecoder decoder(d, du, 16, &rng);
  Tensor nodes = Tensor::Constant(Matrix::Random(n, d, -1, 1, &rng));
  Tensor courier = Tensor::Constant(Matrix::Random(1, du, -1, 1, &rng));
  for (int width : {2, 3, 8, 50}) {
    std::vector<int> route = decoder.DecodeBeam(nodes, courier, width);
    std::set<int> seen(route.begin(), route.end());
    EXPECT_EQ(seen.size(), static_cast<size_t>(n)) << "width " << width;
  }
}

TEST(RouteDecoderTest, BeamSequenceLogProbAtLeastGreedy) {
  // The beam's chosen route must have total log-probability >= the
  // greedy route's (greedy is always inside the width-k search space).
  Rng rng(43);
  const int n = 6, d = 10, du = 4;
  AttentionRouteDecoder decoder(d, du, 12, &rng);
  Tensor nodes = Tensor::Constant(Matrix::Random(n, d, -2, 2, &rng));
  Tensor courier = Tensor::Constant(Matrix::Random(1, du, -1, 1, &rng));

  // Score a complete route under the decoder by teacher-forcing it:
  // TeacherForcedLoss returns mean CE = -mean log p, so lower is better.
  auto mean_nll = [&](const std::vector<int>& route) {
    return decoder.TeacherForcedLoss(nodes, courier, route).item();
  };
  const float greedy_nll = mean_nll(decoder.DecodeGreedy(nodes, courier));
  const float beam_nll = mean_nll(decoder.DecodeBeam(nodes, courier, 4));
  EXPECT_LE(beam_nll, greedy_nll + 1e-4f);
}

TEST(SortLstmTest, PositionalEncodingProperties) {
  Matrix p1(1, 8), p2(1, 8);
  SortLstm::WritePositionalEncoding(1, 8, 10000.0f, p1.data());
  SortLstm::WritePositionalEncoding(2, 8, 10000.0f, p2.data());
  EXPECT_EQ(p1.cols(), 8);
  // Values bounded by 1.
  EXPECT_LE(p1.MaxAbs(), 1.0f);
  // Different positions produce different encodings.
  float diff = 0;
  for (int c = 0; c < 8; ++c) diff += std::fabs(p1.At(0, c) - p2.At(0, c));
  EXPECT_GT(diff, 0.1f);
  // sin^2 + cos^2 == 1 per frequency pair.
  for (int k = 0; k < 4; ++k) {
    EXPECT_NEAR(p1.At(0, 2 * k) * p1.At(0, 2 * k) +
                    p1.At(0, 2 * k + 1) * p1.At(0, 2 * k + 1),
                1.0f, 1e-5f);
  }
}

TEST(SortLstmTest, PositionTableMatchesWritePositionalEncoding) {
  // WritePosition copies table rows up to kPositionTableRows and computes
  // beyond; both must be WritePositionalEncoding's bytes, for the model's
  // (dim, base) and for odd widths.
  struct DimBase {
    int dim;
    float base;
  };
  for (const DimBase& db : {DimBase{8, 10000.0f}, DimBase{5, 100.0f},
                            DimBase{1, 10000.0f}}) {
    Rng rng(12);
    const SortLstm sort_lstm(6, db.dim, db.base, 4, &rng, /*edge_dim=*/3);
    std::vector<float> got(db.dim), want(db.dim);
    for (int pos = 0; pos <= SortLstm::kPositionTableRows + 8; ++pos) {
      sort_lstm.WritePosition(pos, got.data());
      SortLstm::WritePositionalEncoding(pos, db.dim, db.base, want.data());
      EXPECT_EQ(std::memcmp(got.data(), want.data(), db.dim * sizeof(float)),
                0)
          << "pos " << pos << " dim " << db.dim;
    }
  }
}

TEST(SortLstmTest, OutputsIndexedByNode) {
  Rng rng(8);
  const int n = 5, d = 10;
  SortLstm sort_lstm(d, 4, 10000.0f, 12, &rng, /*edge_dim=*/d);
  Tensor nodes = Tensor::Constant(Matrix::Random(n, d, -1, 1, &rng));
  std::vector<int> route = {4, 2, 0, 3, 1};
  auto times = sort_lstm.Forward(nodes, route);
  ASSERT_EQ(times.size(), static_cast<size_t>(n));
  for (const Tensor& t : times) {
    ASSERT_TRUE(t.defined());
    EXPECT_EQ(t.value().size(), 1u);
  }
}

TEST(SortLstmTest, RouteOrderChangesPredictions) {
  Rng rng(9);
  const int n = 4, d = 10;
  SortLstm sort_lstm(d, 4, 10000.0f, 12, &rng, /*edge_dim=*/d);
  Tensor nodes = Tensor::Constant(Matrix::Random(n, d, -1, 1, &rng));
  auto t1 = sort_lstm.Forward(nodes, {0, 1, 2, 3});
  auto t2 = sort_lstm.Forward(nodes, {3, 2, 1, 0});
  float diff = 0;
  for (int i = 0; i < n; ++i) {
    diff += std::fabs(t1[i].item() - t2[i].item());
  }
  EXPECT_GT(diff, 1e-5f);
}

TEST(SortLstmTest, LearnsPositionDependentTargets) {
  // Target: time = position in route; SortLSTM must fit it using the
  // positional encodings.
  Rng rng(10);
  const int n = 6, d = 8;
  SortLstm sort_lstm(d, 8, 10000.0f, 16, &rng, /*edge_dim=*/d);
  Tensor nodes = Tensor::Constant(Matrix::Random(n, d, -1, 1, &rng));
  std::vector<int> route = {5, 3, 0, 1, 4, 2};
  nn::Adam opt(sort_lstm.Parameters(), 0.02f);
  for (int it = 0; it < 200; ++it) {
    opt.ZeroGrad();
    auto times = sort_lstm.Forward(nodes, route);
    Tensor loss = Tensor::Scalar(0);
    for (int s = 0; s < n; ++s) {
      loss = Add(loss, L1Loss(times[route[s]],
                              static_cast<float>(s + 1) * 0.5f));
    }
    loss.Backward();
    opt.Step();
  }
  auto times = sort_lstm.Forward(nodes, route);
  for (int s = 0; s < n; ++s) {
    EXPECT_NEAR(times[route[s]].item(), (s + 1) * 0.5f, 0.15f);
  }
}

TEST(SortLstmTest, EdgeInputsChangePredictions) {
  Rng rng(77);
  const int n = 4, d = 8, de = 6;
  SortLstm sort_lstm(d, 4, 100.0f, 12, &rng, de);
  Tensor nodes = Tensor::Constant(Matrix::Random(n, d, -1, 1, &rng));
  Matrix e1 = Matrix::Random(n * n, de, -1, 1, &rng);
  Matrix e2 = e1;
  for (size_t i = 0; i < e2.size(); ++i) e2[i] += 0.5f;
  std::vector<int> route = {2, 0, 3, 1};
  auto t1 = sort_lstm.Forward(nodes, route, Tensor::Constant(e1));
  auto t2 = sort_lstm.Forward(nodes, route, Tensor::Constant(e2));
  float diff = 0;
  for (int i = 0; i < n; ++i) diff += std::fabs(t1[i].item() - t2[i].item());
  EXPECT_GT(diff, 1e-5f);
}

TEST(SortLstmTest, UndefinedEdgesFeedZeros) {
  Rng rng(78);
  const int n = 3, d = 8, de = 6;
  SortLstm sort_lstm(d, 4, 100.0f, 12, &rng, de);
  Tensor nodes = Tensor::Constant(Matrix::Random(n, d, -1, 1, &rng));
  std::vector<int> route = {1, 2, 0};
  auto from_undefined = sort_lstm.Forward(nodes, route, Tensor());
  auto from_zeros =
      sort_lstm.Forward(nodes, route, Tensor::Constant(Matrix(n * n, de)));
  for (int i = 0; i < n; ++i) {
    EXPECT_FLOAT_EQ(from_undefined[i].item(), from_zeros[i].item());
  }
}

TEST(UncertaintyLossTest, InitialSigmasAreOne) {
  UncertaintyLoss loss;
  for (int i = 0; i < 4; ++i) EXPECT_FLOAT_EQ(loss.Sigma(i), 1.0f);
}

TEST(UncertaintyLossTest, CombineMatchesFormulaAtInit) {
  UncertaintyLoss u;
  Tensor l1 = Tensor::Scalar(2.0f);
  Tensor l2 = Tensor::Scalar(4.0f);
  Tensor l3 = Tensor::Scalar(1.0f);
  Tensor l4 = Tensor::Scalar(3.0f);
  // At s=0: 0.5*2 + 0.5*4 + 1 + 3 + 0 = 7.
  EXPECT_NEAR(u.Combine(l1, l2, l3, l4).item(), 7.0f, 1e-5f);
}

TEST(UncertaintyLossTest, SkipsUndefinedTasks) {
  UncertaintyLoss u;
  Tensor undefined;
  Tensor l2 = Tensor::Scalar(4.0f);
  Tensor l4 = Tensor::Scalar(3.0f);
  EXPECT_NEAR(u.Combine(undefined, l2, undefined, l4).item(), 5.0f, 1e-5f);
}

TEST(UncertaintyLossTest, SigmaGrowsForNoisyTask) {
  // With one large constant loss and one small, gradient descent on the
  // combined objective should assign the large task a larger sigma.
  UncertaintyLoss u;
  nn::Adam opt(u.Parameters(), 0.05f);
  for (int it = 0; it < 200; ++it) {
    opt.ZeroGrad();
    Tensor big = Tensor::Scalar(10.0f);
    Tensor small = Tensor::Scalar(0.1f);
    u.Combine(big, small, big, small).Backward();
    opt.Step();
  }
  EXPECT_GT(u.Sigma(0), u.Sigma(1));
  EXPECT_GT(u.Sigma(2), u.Sigma(3));
}

TEST(FixedWeightCombineTest, UsesManualWeights) {
  Tensor route = Tensor::Scalar(1.0f);
  Tensor time = Tensor::Scalar(1.0f);
  Tensor undefined;
  EXPECT_NEAR(
      FixedWeightCombine(undefined, route, undefined, time).item(),
      101.0f, 1e-4f);
}

TEST(LevelEncoderTest, GraphAndBiLstmVariantsProduceShapes) {
  synth::DataConfig dc;
  dc.seed = 21;
  dc.world.num_aois = 50;
  dc.couriers.num_couriers = 4;
  dc.num_days = 4;
  synth::DatasetSplits splits = synth::BuildDataset(dc);
  ASSERT_GT(splits.train.size(), 0);
  const synth::Sample& s = splits.train.samples.front();
  graph::LevelGraph level = graph::BuildLocationGraph(s, {});

  for (bool use_graph : {true, false}) {
    ModelConfig c = TinyConfig();
    c.use_graph_encoder = use_graph;
    Rng rng(22);
    LevelEncoder encoder(c, graph::kLocationContinuousDim, &rng);
    Tensor global = Tensor::Constant(
        Matrix::Random(1, c.courier_dim, -1, 1, &rng));
    EncodedLevel enc = encoder.Encode(level, global);
    EXPECT_EQ(enc.nodes.rows(), s.num_locations());
    EXPECT_EQ(enc.nodes.cols(), c.hidden_dim);
    if (use_graph) {
      ASSERT_TRUE(enc.edges.defined());
      EXPECT_EQ(enc.edges.rows(),
                s.num_locations() * s.num_locations());
      EXPECT_EQ(enc.edges.cols(), c.hidden_dim);
    } else {
      EXPECT_FALSE(enc.edges.defined());
    }
  }
}

}  // namespace
}  // namespace m2g::core
