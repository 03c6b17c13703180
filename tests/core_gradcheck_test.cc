// Numeric-vs-analytic gradient checks at module granularity: GAT-e,
// the pointer route decoder, SortLSTM and the full M2G4RTP training
// loss. These catch any backward-pass mistake the op-level checks in
// autograd_test.cc cannot see (wrong composition, double-counting,
// detached paths).

#include <gtest/gtest.h>

#include <cmath>
#include <functional>

#include "core/gat_e.h"
#include "core/model.h"
#include "core/route_decoder.h"
#include "core/sort_lstm.h"

namespace m2g::core {
namespace {

/// Checks d(loss)/d(param[i]) for a subsample of indices of every
/// parameter of `module` against central differences.
void CheckModuleGradients(const nn::Module& module,
                          const std::function<Tensor()>& loss_fn,
                          int max_indices_per_param = 4,
                          float eps = 2e-2f, float tol = 6e-2f) {
  auto params = module.NamedParameters();
  // Analytic gradients.
  for (const auto& [name, p] : params) p.ZeroGrad();
  loss_fn().Backward();

  for (const auto& [name, p] : params) {
    Matrix& w = p.node()->value;
    const Matrix& g = p.grad();
    if (!g.SameShape(w)) continue;  // parameter unused by this loss
    const size_t stride =
        std::max<size_t>(1, w.size() / max_indices_per_param);
    for (size_t i = 0; i < w.size(); i += stride) {
      const float orig = w[i];
      w[i] = orig + eps;
      const float up = loss_fn().item();
      w[i] = orig - eps;
      const float down = loss_fn().item();
      w[i] = orig;
      const float numeric = (up - down) / (2 * eps);
      const float scale =
          std::max({1.0f, std::fabs(numeric), std::fabs(g[i])});
      EXPECT_NEAR(g[i], numeric, tol * scale)
          << name << " flat index " << i;
    }
  }
}

/// Pushes the sample's time targets far from anything an untrained model
/// can output, so no |pred - target| kink lies within the numeric-check
/// epsilon (L1 subgradients at the kink would otherwise produce valid
/// analytic gradients that central differences cannot confirm).
void MoveTargetsAwayFromKinks(synth::Sample* sample) {
  for (double& t : sample->time_label_min) t += 240.0;
  for (double& t : sample->aoi_time_label_min) t += 240.0;
}

ModelConfig TinyConfig() {
  ModelConfig c;
  c.hidden_dim = 8;
  c.num_heads = 2;
  c.num_layers = 1;
  c.aoi_id_embed_dim = 2;
  c.aoi_type_embed_dim = 2;
  c.lstm_hidden_dim = 8;
  c.courier_dim = 4;
  c.pos_enc_dim = 4;
  return c;
}

TEST(ModuleGradcheckTest, GatELayer) {
  ModelConfig c = TinyConfig();
  Rng rng(1);
  const int n = 4;
  Tensor nodes = Tensor::Constant(
      Matrix::Random(n, c.hidden_dim, -1, 1, &rng));
  Tensor edges = Tensor::Constant(
      Matrix::Random(n * n, c.hidden_dim, -1, 1, &rng));
  std::vector<bool> adj(n * n, true);
  GatELayer layer(c, /*is_last=*/false, &rng);
  auto loss = [&] {
    GatEOutput out = layer.Forward(nodes, edges, adj);
    return Add(Mean(Mul(out.nodes, out.nodes)),
               Mean(Mul(out.edges, out.edges)));
  };
  CheckModuleGradients(layer, loss);
}

TEST(ModuleGradcheckTest, GatELastLayerAveraging) {
  ModelConfig c = TinyConfig();
  Rng rng(2);
  const int n = 3;
  Tensor nodes = Tensor::Constant(
      Matrix::Random(n, c.hidden_dim, -1, 1, &rng));
  Tensor edges = Tensor::Constant(
      Matrix::Random(n * n, c.hidden_dim, -1, 1, &rng));
  std::vector<bool> adj(n * n, true);
  GatELayer layer(c, /*is_last=*/true, &rng);
  auto loss = [&] {
    GatEOutput out = layer.Forward(nodes, edges, adj);
    return Mean(Mul(out.nodes, out.nodes));
  };
  CheckModuleGradients(layer, loss);
}

TEST(ModuleGradcheckTest, RouteDecoderTeacherForcedLoss) {
  Rng rng(3);
  const int n = 4, d = 6, du = 4;
  AttentionRouteDecoder decoder(d, du, 6, &rng);
  Tensor nodes = Tensor::Constant(Matrix::Random(n, d, -1, 1, &rng));
  Tensor courier = Tensor::Constant(Matrix::Random(1, du, -1, 1, &rng));
  std::vector<int> label = {2, 0, 3, 1};
  auto loss = [&] {
    return decoder.TeacherForcedLoss(nodes, courier, label);
  };
  CheckModuleGradients(decoder, loss);
}

TEST(ModuleGradcheckTest, SortLstmL1Objective) {
  Rng rng(4);
  const int n = 4, d = 6;
  SortLstm sort_lstm(d, 4, 100.0f, 6, &rng, /*edge_dim=*/d);
  Tensor nodes = Tensor::Constant(Matrix::Random(n, d, -1, 1, &rng));
  std::vector<int> route = {1, 3, 0, 2};
  auto loss = [&] {
    auto times = sort_lstm.Forward(nodes, route);
    Tensor total = Tensor::Scalar(0);
    for (int i = 0; i < n; ++i) {
      total = Add(total, L1Loss(times[i], 0.5f * (i + 1)));
    }
    return Scale(total, 1.0f / n);
  };
  CheckModuleGradients(sort_lstm, loss);
}

TEST(ModuleGradcheckTest, FullModelTrainingLoss) {
  synth::DataConfig dc;
  dc.seed = 55;
  dc.world.num_aois = 40;
  dc.couriers.num_couriers = 3;
  dc.num_days = 3;
  synth::DatasetSplits splits = synth::BuildDataset(dc);
  ASSERT_GT(splits.train.size(), 0);
  // Use the smallest available sample to keep the sweep fast.
  synth::Sample sample = splits.train.samples.front();
  for (const synth::Sample& s : splits.train.samples) {
    if (s.num_locations() < sample.num_locations()) sample = s;
  }
  MoveTargetsAwayFromKinks(&sample);

  M2g4Rtp model(TinyConfig());
  // Teacher-forced guidance keeps ComputeLoss deterministic for the
  // repeated evaluations of the numeric check.
  model.set_guidance_sampling_prob(0.0f);
  auto loss = [&] { return model.ComputeLoss(sample); };
  CheckModuleGradients(model, loss, /*max_indices_per_param=*/2);
}

TEST(ModuleGradcheckTest, FullModelSingleLevelVariant) {
  synth::DataConfig dc;
  dc.seed = 56;
  dc.world.num_aois = 40;
  dc.couriers.num_couriers = 3;
  dc.num_days = 3;
  synth::DatasetSplits splits = synth::BuildDataset(dc);
  synth::Sample sample = splits.train.samples.front();
  for (const synth::Sample& s : splits.train.samples) {
    if (s.num_locations() < sample.num_locations()) sample = s;
  }
  MoveTargetsAwayFromKinks(&sample);
  ModelConfig c = TinyConfig();
  c.use_aoi_level = false;
  M2g4Rtp model(c);
  auto loss = [&] { return model.ComputeLoss(sample); };
  CheckModuleGradients(model, loss, /*max_indices_per_param=*/2);
}

}  // namespace
}  // namespace m2g::core
