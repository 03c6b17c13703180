#include "eval/rtp_model.h"

#include "baselines/deep_route.h"
#include "baselines/fdnet.h"
#include "baselines/graph2route.h"
#include "baselines/greedy.h"
#include "baselines/osquare.h"
#include "baselines/tsp.h"
#include "common/check.h"
#include "core/trainer.h"

namespace m2g::eval {
namespace {

class DistanceGreedyModel : public RtpModel {
 public:
  std::string name() const override { return "Distance-Greedy"; }
  void Fit(const synth::Dataset&, const synth::Dataset&) override {}
  core::RtpPrediction Predict(const synth::Sample& s) const override {
    return baselines::DistanceGreedyPredict(s, config_);
  }

 private:
  baselines::HeuristicConfig config_;
};

class TimeGreedyModel : public RtpModel {
 public:
  std::string name() const override { return "Time-Greedy"; }
  void Fit(const synth::Dataset&, const synth::Dataset&) override {}
  core::RtpPrediction Predict(const synth::Sample& s) const override {
    return baselines::TimeGreedyPredict(s, config_);
  }

 private:
  baselines::HeuristicConfig config_;
};

class OrToolsModel : public RtpModel {
 public:
  std::string name() const override { return "OR-Tools"; }
  void Fit(const synth::Dataset&, const synth::Dataset&) override {}
  core::RtpPrediction Predict(const synth::Sample& s) const override {
    return baselines::OrToolsLikePredict(s, config_);
  }

 private:
  baselines::HeuristicConfig config_;
};

class OSquareModel : public RtpModel {
 public:
  explicit OSquareModel(const EvalScale& scale) {
    baselines::OSquare::Config config;
    config.seed = scale.seed;
    model_ = std::make_unique<baselines::OSquare>(config);
  }
  std::string name() const override { return "OSquare"; }
  void Fit(const synth::Dataset& train, const synth::Dataset&) override {
    model_->Fit(train);
  }
  core::RtpPrediction Predict(const synth::Sample& s) const override {
    return model_->Predict(s);
  }

 private:
  std::unique_ptr<baselines::OSquare> model_;
};

baselines::DeepBaselineConfig MakeDeepConfig(const EvalScale& scale,
                                             uint64_t salt) {
  baselines::DeepBaselineConfig config;
  config.seed = scale.seed ^ salt;
  config.epochs = scale.epochs;
  config.max_samples_per_epoch = scale.max_samples_per_epoch;
  config.time_head.seed = scale.seed ^ (salt * 31);
  return config;
}

template <typename Net>
class DeepBaselineModel : public RtpModel {
 public:
  DeepBaselineModel(std::string name, const EvalScale& scale, uint64_t salt)
      : name_(std::move(name)),
        net_(std::make_unique<Net>(MakeDeepConfig(scale, salt))) {}
  std::string name() const override { return name_; }
  void Fit(const synth::Dataset& train, const synth::Dataset& val) override {
    net_->Fit(train, val);
  }
  core::RtpPrediction Predict(const synth::Sample& s) const override {
    return net_->Predict(s);
  }

 private:
  std::string name_;
  std::unique_ptr<Net> net_;
};

class M2g4RtpModel : public RtpModel {
 public:
  M2g4RtpModel(std::string name, const core::ModelConfig& mc,
               const EvalScale& scale)
      : name_(std::move(name)),
        scale_(scale),
        model_(std::make_unique<core::M2g4Rtp>(mc)) {}
  std::string name() const override { return name_; }
  void Fit(const synth::Dataset& train, const synth::Dataset& val) override {
    core::TrainConfig tc;
    tc.epochs = scale_.epochs;
    tc.max_samples_per_epoch = scale_.max_samples_per_epoch;
    tc.threads = scale_.threads;
    // Each bench seed draws its own sample order and guidance coins, not
    // only its own weight init (the deep baselines salt theirs too).
    tc.shuffle_seed = scale_.seed ^ 0x4d32;
    core::Trainer trainer(model_.get(), tc);
    trainer.Fit(train, val);
  }
  core::RtpPrediction Predict(const synth::Sample& s) const override {
    return model_->Predict(s);
  }

 private:
  std::string name_;
  EvalScale scale_;
  std::unique_ptr<core::M2g4Rtp> model_;
};

}  // namespace

std::vector<std::string> AllMethodNames() {
  return {"Distance-Greedy", "Time-Greedy", "OR-Tools",  "OSquare",
          "DeepRoute",       "FDNET",       "Graph2Route", "M2G4RTP"};
}

std::unique_ptr<RtpModel> CreateModel(const std::string& name,
                                      const EvalScale& scale) {
  if (name == "Distance-Greedy") {
    return std::make_unique<DistanceGreedyModel>();
  }
  if (name == "Time-Greedy") return std::make_unique<TimeGreedyModel>();
  if (name == "OR-Tools") return std::make_unique<OrToolsModel>();
  if (name == "OSquare") return std::make_unique<OSquareModel>(scale);
  if (name == "DeepRoute") {
    return std::make_unique<DeepBaselineModel<baselines::DeepRoute>>(
        "DeepRoute", scale, 0x11);
  }
  if (name == "FDNET") {
    return std::make_unique<DeepBaselineModel<baselines::Fdnet>>(
        "FDNET", scale, 0x22);
  }
  if (name == "Graph2Route") {
    return std::make_unique<DeepBaselineModel<baselines::Graph2Route>>(
        "Graph2Route", scale, 0x33);
  }

  core::ModelConfig mc;
  mc.seed = scale.seed;
  if (name == "M2G4RTP") {
    return std::make_unique<M2g4RtpModel>(name, mc, scale);
  }
  if (name == "M2G4RTP-two-step") {
    mc.two_step = true;
    return std::make_unique<M2g4RtpModel>(name, mc, scale);
  }
  if (name == "M2G4RTP-wo-aoi") {
    mc.use_aoi_level = false;
    return std::make_unique<M2g4RtpModel>(name, mc, scale);
  }
  if (name == "M2G4RTP-wo-graph") {
    mc.use_graph_encoder = false;
    return std::make_unique<M2g4RtpModel>(name, mc, scale);
  }
  if (name == "M2G4RTP-wo-uncertainty") {
    mc.use_uncertainty_weighting = false;
    return std::make_unique<M2g4RtpModel>(name, mc, scale);
  }
  M2G_CHECK_MSG(false, ("unknown method: " + name).c_str());
  return nullptr;
}

}  // namespace m2g::eval
