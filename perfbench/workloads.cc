#include "workloads.h"

#include <sys/resource.h>
#include <time.h>

#include <algorithm>
#include <cmath>
#include <condition_variable>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <functional>
#include <limits>
#include <map>
#include <memory>
#include <mutex>
#include <numeric>
#include <optional>
#include <thread>
#include <unordered_map>

#include "checks.h"
#include "common/rng.h"
#include "core/encode_plan.h"
#include "core/encoder.h"
#include "core/feature_embed.h"
#include "core/incremental_encode.h"
#include "core/model.h"
#include "core/trainer.h"
#include "generators.h"
#include "graph/features.h"
#include "graph/multi_level_graph.h"
#include "nn/optimizer.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "serve/graph_builder.h"
#include "serve/rtp_service.h"
#include "spans.h"
#include "tensor/grad_mode.h"
#include "tensor/matrix.h"
#include "tensor/ops.h"
#include "tensor/pool.h"
#include "tensor/simd.h"

namespace perfbench {
namespace {

namespace core = m2g::core;
namespace graph = m2g::graph;
namespace obs = m2g::obs;
namespace serve = m2g::serve;
namespace synth = m2g::synth;
using m2g::ArenaGuard;
using m2g::Matrix;
using m2g::NoGradGuard;
using m2g::Tensor;

/// Training samples (and val samples) of the train_epoch warm pass.
constexpr int kTrainWarmSamples = 64;
constexpr int kTrainWarmVal = 16;

double Seconds(int64_t ns) { return ns / 1e9; }

/// Linear interpolation between closest ranks.
double Quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const size_t lo = static_cast<size_t>(pos);
  const size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (v[hi] - v[lo]) * (pos - static_cast<double>(lo));
}

double Median(std::vector<double> v) { return Quantile(std::move(v), 0.5); }

/// Requests the kept passes of a serving run must cover, so that at least
/// 10 lie beyond p99.
constexpr int64_t kMinKeptRequests = 1000;

/// Indices of the fastest passes: the fastest third (rounded up), extended
/// by the next fastest until they hold `min_items` items when a pass holds
/// `items_per_pass`.
std::vector<size_t> FastestPasses(const std::vector<double>& pass_s,
                                  int64_t items_per_pass, int64_t min_items) {
  std::vector<size_t> order(pass_s.size());
  std::iota(order.begin(), order.end(), 0);
  std::sort(order.begin(), order.end(),
            [&](size_t a, size_t b) { return pass_s[a] < pass_s[b]; });
  size_t keep = (pass_s.size() + 2) / 3;
  while (keep < order.size() &&
         static_cast<int64_t>(keep) * items_per_pass < min_items) {
    ++keep;
  }
  order.resize(keep);
  return order;
}

double Ratio(double num, double den) { return den != 0 ? num / den : 0; }

/// This process's setup time: from process start to now.
double SetupSeconds(const RunOptions& opt) {
  return Seconds(NowNs() - opt.process_start_ns);
}

RunResult SetupOnlyResult(double setup_s) {
  RunResult result;
  result.metrics = {{"setup_s", setup_s, "s"}};
  return result;
}

/// Peak resident set of this process image. VmHWM rather than ru_maxrss:
/// ru_maxrss survives execve, so it would also count the launcher's peak.
double PeakRssMb() {
  std::FILE* f = std::fopen("/proc/self/status", "r");
  double kib = 0;
  if (f != nullptr) {
    char line[256];
    while (std::fgets(line, sizeof(line), f) != nullptr) {
      if (std::sscanf(line, "VmHWM: %lf kB", &kib) == 1) break;
    }
    std::fclose(f);
  }
  if (kib == 0) {
    rusage usage{};
    getrusage(RUSAGE_SELF, &usage);
    kib = static_cast<double>(usage.ru_maxrss);
  }
  return kib / 1024.0;
}

double ThreadCpuSeconds() {
  timespec ts{};
  clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
  return ts.tv_sec + ts.tv_nsec / 1e9;
}

/// Live values of the program's own counters and histograms the traced run
/// reads (it adds none).
struct ObsReadings {
  uint64_t pool_misses = 0;
  uint64_t batch_count = 0;
  double batch_size_sum = 0;
  uint64_t queue_wait_count = 0;
  double queue_wait_sum = 0;
  uint64_t sheds = 0;
  uint64_t delta_steps = 0;
  uint64_t full_fallbacks = 0;
  uint64_t evictions = 0;
};

ObsReadings ReadObs() {
  ObsReadings r;
  r.pool_misses = serve::RtpService::pool_counters().misses;
  const obs::MetricsSnapshot snap = obs::MetricsRegistry::Global().Snapshot();
  if (const obs::HistogramSnapshot* h = snap.FindHistogram("serve.batch.size")) {
    r.batch_count = h->count;
    r.batch_size_sum = h->sum;
  }
  if (const obs::HistogramSnapshot* h =
          snap.FindHistogram("serve.batch.queue_wait.ms")) {
    r.queue_wait_count = h->count;
    r.queue_wait_sum = h->sum;
  }
  for (const auto& [name, value] : snap.counters) {
    if (name == "serve.batch.sheds") r.sheds = value;
    if (name == "encode.delta_steps") r.delta_steps = value;
    if (name == "encode.full_fallbacks") r.full_fallbacks = value;
    if (name == "encode.session_evictions") r.evictions = value;
  }
  return r;
}

/// Persistent closed-loop clients. The threads live for the whole run, so
/// their thread-local tensor pools stay warm from the warm pass into the
/// timed passes. Client 0 is the calling thread.
class ClientGroup {
 public:
  explicit ClientGroup(int clients) : clients_(clients) {
    for (int c = 1; c < clients; ++c) {
      threads_.emplace_back([this, c] { Loop(c); });
    }
  }
  ~ClientGroup() {
    {
      std::lock_guard<std::mutex> lock(mu_);
      stop_ = true;
      ++generation_;
    }
    cv_.notify_all();
    for (std::thread& t : threads_) t.join();
  }
  ClientGroup(const ClientGroup&) = delete;
  ClientGroup& operator=(const ClientGroup&) = delete;

  int size() const { return clients_; }

  /// Runs `job(client)` on every client and returns when all are done.
  void Run(const std::function<void(int)>& job) {
    {
      std::lock_guard<std::mutex> lock(mu_);
      job_ = &job;
      pending_ = clients_ - 1;
      ++generation_;
    }
    cv_.notify_all();
    job(0);
    std::unique_lock<std::mutex> lock(mu_);
    done_cv_.wait(lock, [this] { return pending_ == 0; });
    job_ = nullptr;
  }

 private:
  void Loop(int client) {
    uint64_t seen = 0;
    for (;;) {
      const std::function<void(int)>* job = nullptr;
      {
        std::unique_lock<std::mutex> lock(mu_);
        cv_.wait(lock, [&] { return generation_ != seen; });
        seen = generation_;
        if (stop_) return;
        job = job_;
      }
      (*job)(client);
      {
        std::lock_guard<std::mutex> lock(mu_);
        --pending_;
      }
      done_cv_.notify_one();
    }
  }

  const int clients_;
  std::mutex mu_;
  std::condition_variable cv_;
  std::condition_variable done_cv_;
  const std::function<void(int)>* job_ = nullptr;
  uint64_t generation_ = 0;
  int pending_ = 0;
  bool stop_ = false;
  std::vector<std::thread> threads_;  // last: the threads use the above
};

// ---------------------------------------------------------------------------
// Serving workloads.
// ---------------------------------------------------------------------------

struct ServingSpec {
  ServingInputs (*make)(uint64_t);
  serve::ServingConfig config;
  int clients = 1;
  /// Which layers Handle runs: the plain path, encode sessions, or batching.
  enum class Path { kPlain, kSessions, kBatched } path = Path::kPlain;
};

ServingSpec SpecFor(const std::string& workload) {
  ServingSpec spec;
  if (workload == "trip_replay") {
    spec.make = &MakeTripReplay;
  } else if (workload == "order_stream") {
    spec.make = &MakeOrderStream;
    spec.config.encode_sessions.enabled = true;
    spec.path = ServingSpec::Path::kSessions;
  } else {
    spec.make = &MakeConcurrentBatched;
    spec.config.batching_enabled = true;
    spec.clients = 4;
    spec.path = ServingSpec::Path::kBatched;
  }
  return spec;
}

struct ServingSetup {
  ServingInputs in;
  std::unique_ptr<core::M2g4Rtp> model;
  std::unique_ptr<serve::RtpService> service;
};

struct ClientLog {
  std::vector<double> latency_ms;
  std::vector<uint64_t> hashes;
  std::vector<int> index;
  double cpu_s = 0;
};

/// One closed-loop pass in which every client sends the whole stream once:
/// client c of C starts at offset c * n / C and wraps around, so the
/// clients send different requests at any moment and a pass with C clients
/// holds C * n requests. `logs` and `recorders` may be null.
void ServePass(const ServingSetup& s, ClientGroup* clients,
               std::vector<ClientLog>* logs,
               std::vector<SpanRecorder>* recorders) {
  const int n = static_cast<int>(s.in.requests.size());
  clients->Run([&](int client) {
    ClientLog scratch;
    ClientLog& log = logs != nullptr ? (*logs)[client] : scratch;
    SpanRecorder* rec = recorders != nullptr ? &(*recorders)[client] : nullptr;
    const double cpu0 = ThreadCpuSeconds();
    const int offset = client * n / clients->size();
    for (int k = 0; k < n; ++k) {
      const int idx = (offset + k) % n;
      const int64_t t0 = NowNs();
      serve::RtpService::Response resp;
      {
        ScopedSpan span(rec, "serve.handle", idx);
        resp = s.service->Handle(s.in.requests[idx]);
      }
      log.latency_ms.push_back((NowNs() - t0) / 1e6);
      log.hashes.push_back(ResponseHash(resp.sample, resp.prediction));
      log.index.push_back(idx);
    }
    log.cpu_s += ThreadCpuSeconds() - cpu0;
  });
}

/// Generates inputs, builds the untrained fixed-seed model and the service,
/// and serves one untimed warm pass: it fills the tensor pools, the plan
/// size classes and the sessions.
std::unique_ptr<ServingSetup> SetUpServing(const ServingSpec& spec,
                                           uint64_t seed,
                                           ClientGroup* clients) {
  auto s = std::make_unique<ServingSetup>();
  s->in = spec.make(seed);
  s->model = std::make_unique<core::M2g4Rtp>(core::ModelConfig{});
  s->service = std::make_unique<serve::RtpService>(&s->in.world,
                                                   s->model.get(), spec.config);
  ServePass(*s, clients, nullptr, nullptr);
  return s;
}

/// Checks every logged response against the plain-path reference.
void CheckResponses(const std::vector<ClientLog>& logs, const Reference& ref,
                    RunResult* result, std::vector<double>* latencies) {
  for (const ClientLog& log : logs) {
    for (size_t k = 0; k < log.hashes.size(); ++k) {
      ++result->attempted;
      const int idx = log.index[k];
      if (log.hashes[k] != ref.hashes[idx] || !ref.valid[idx]) {
        ++result->failed;
      }
      latencies->push_back(log.latency_ms[k]);
    }
  }
}

std::string JoinSeconds(const std::vector<double>& values) {
  std::string out;
  for (double v : values) {
    char buf[32];
    std::snprintf(buf, sizeof(buf), "%s%.4f", out.empty() ? "" : ",", v);
    out += buf;
  }
  return out;
}

// --- Per-layer metrics ------------------------------------------------------

struct LayerMetricDef {
  const char* name;
  const char* unit;
};

/// Every per-layer metric, in print order. A traced run prints all of them;
/// layers a workload leaves idle read 0.
constexpr LayerMetricDef kLayerMetrics[] = {
    {"serve.handle_ms", "ms"},
    {"serve.extract_ms", "ms"},
    {"graph.build_ms", "ms"},
    {"core.predict_ms", "ms"},
    {"core.encode_ms", "ms"},
    {"core.encode_delta_ms", "ms"},
    {"core.decode_ms", "ms"},
    {"serve.unaccounted_ms", "ms"},
    {"core.predict_batch_ms", "ms"},
    {"core.batch_gain", "ratio"},
    {"serve.client_busy_frac", "fraction"},
    {"serve.batch.size_mean", "count"},
    {"serve.batch.queue_wait_ms", "ms"},
    {"serve.batch.shed_frac", "fraction"},
    {"serve.session.delta_frac", "fraction"},
    {"serve.session.evictions", "count"},
    {"tensor.pool_miss_per_req", "count"},
    {"core.loss_forward_ms", "ms"},
    {"tensor.backward_ms", "ms"},
    {"nn.optimizer_step_ms", "ms"},
    {"core.evaluate_ms", "ms"},
    {"tensor.matmul_f48_ns", "ns"},
    {"tensor.matmul_f48_gflops", "GFLOP/s"},
    {"tensor.gat_logits_n50_ns", "ns"},
    {"tensor.gat_logits_n50_gflops", "GFLOP/s"},
    {"tensor.pointer_scores_n50_ns", "ns"},
    {"tensor.pointer_scores_n50_gflops", "GFLOP/s"},
    {"obs.overhead_frac", "fraction"},
    {"bench.trace_overhead_frac", "fraction"},
};

std::vector<Metric> LayerMetrics(const std::map<std::string, double>& values) {
  std::vector<Metric> out;
  for (const LayerMetricDef& def : kLayerMetrics) {
    const auto it = values.find(def.name);
    out.push_back({def.name, it != values.end() ? it->second : 0.0, def.unit});
  }
  return out;
}

void PrintLayers(const char* title, const SpanRecorder& rec) {
  for (const auto& [name, t] : rec.Totals()) {
    std::printf("layer %s %-22s count=%-7lld self_ms=%-10.3f mean_ms=%.5f "
                "mean_self_ms=%.5f\n",
                title, name.c_str(), static_cast<long long>(t.count),
                t.self_ms, t.total_ms / t.count, t.self_ms / t.count);
  }
}

double MeanMs(const SpanRecorder& rec, const char* name) {
  const auto totals = rec.Totals();
  const auto it = totals.find(name);
  return it == totals.end() ? 0 : it->second.total_ms / it->second.count;
}

void WriteSpans(const RunOptions& opt, const std::string& part,
                const SpanRecorder& rec) {
  std::error_code ec;
  std::filesystem::create_directories(opt.trace_dir, ec);
  const std::string path = opt.trace_dir + "/" + opt.workload + "_seed" +
                           std::to_string(opt.seed) + "_" + part + ".jsonl";
  if (rec.WriteJsonl(path)) {
    std::printf("spans %s (%zu spans)\n", path.c_str(), rec.spans().size());
  } else {
    std::printf("spans: could not write %s\n", path.c_str());
  }
}

volatile float g_sink = 0;

/// Median ns per call of `fn` over 9 batches of ~2 ms each.
template <typename Fn>
double TimeKernelNs(Fn fn) {
  int reps = 1;
  for (;;) {
    const int64_t t0 = NowNs();
    for (int r = 0; r < reps; ++r) fn();
    if (NowNs() - t0 > 2'000'000 || reps > (1 << 24)) break;
    reps *= 2;
  }
  std::vector<double> per_call;
  for (int b = 0; b < 9; ++b) {
    const int64_t t0 = NowNs();
    for (int r = 0; r < reps; ++r) fn();
    per_call.push_back(static_cast<double>(NowNs() - t0) / reps);
  }
  return Median(per_call);
}

/// The row kernels at serving shapes (F = hidden 48, n = 50 nodes) on the
/// active SIMD tier. Operation counts are per call; bytes are the operands
/// and outputs each call touches, computed from their sizes.
void KernelMetrics(std::map<std::string, double>* values) {
  constexpr int n = 50, f = 48;
  m2g::Rng rng(7);
  const Matrix a = Matrix::Random(n, f, -1, 1, &rng);
  const Matrix b = Matrix::Random(f, f, -1, 1, &rng);
  Matrix out = Matrix::Zeros(n, f);
  const double mm_ns = TimeKernelNs([&] {
    m2g::MatMulInto(a.data(), n, f, b.data(), f, out.data());
    g_sink = g_sink + out.data()[0];
  });
  const double mm_flops = 2.0 * n * f * f;
  const double mm_bytes = 4.0 * (n * f + f * f + n * f);

  const Matrix s_dst = Matrix::Random(1, n, -1, 1, &rng);
  const Matrix s_edge = Matrix::Random(1, n, -1, 1, &rng);
  Matrix logits = Matrix::Zeros(1, n);
  const double gat_ns = TimeKernelNs([&] {
    m2g::GatLogitsRow(s_dst.data(), s_edge.data(), 0.25f, 0.2f, n,
                      logits.data());
    g_sink = g_sink + logits.data()[0];
  });
  const double gat_flops = 3.0 * n;  // add, add, leaky scale per element
  const double gat_bytes = 4.0 * (3 * n + 1);

  const Matrix keys = Matrix::Random(n, f, -1, 1, &rng);
  const Matrix q = Matrix::Random(1, f, -1, 1, &rng);
  const Matrix v = Matrix::Random(1, f, -1, 1, &rng);
  const std::vector<bool> mask(n, true);
  std::vector<float> scores(n, 0.0f);
  const double ptr_ns = TimeKernelNs([&] {
    m2g::PointerScoresMasked(keys, q.data(), v.data(), mask, scores.data());
    g_sink = g_sink + scores[0];
  });
  const double ptr_flops = 4.0 * n * f;  // add, tanh, mul, add per element
  const double ptr_bytes = 4.0 * (n * f + 2 * f + n);

  (*values)["tensor.matmul_f48_ns"] = mm_ns;
  (*values)["tensor.matmul_f48_gflops"] = mm_flops / mm_ns;
  (*values)["tensor.gat_logits_n50_ns"] = gat_ns;
  (*values)["tensor.gat_logits_n50_gflops"] = gat_flops / gat_ns;
  (*values)["tensor.pointer_scores_n50_ns"] = ptr_ns;
  (*values)["tensor.pointer_scores_n50_gflops"] = ptr_flops / ptr_ns;
  std::printf("kernels tier=%s matmul_f48 %.1f ns %.0f flop %.0f B | "
              "gat_logits_n50 %.1f ns %.0f flop %.0f B | pointer_scores_n50 "
              "%.1f ns %.0f flop %.0f B\n",
              m2g::simd::TierName(m2g::simd::ActiveTier()), mm_ns, mm_flops,
              mm_bytes, gat_ns, gat_flops, gat_bytes, ptr_ns, ptr_flops,
              ptr_bytes);
}

/// Standalone copies of the model's encoders: same ModelConfig and the same
/// Rng draw order as the M2g4Rtp constructor, hence the same weights.
struct StandaloneEncoders {
  explicit StandaloneEncoders(const core::ModelConfig& config)
      : rng(config.seed),
        global(config, &rng),
        location(config, graph::kLocationContinuousDim, &rng),
        aoi(config, graph::kAoiContinuousDim, &rng) {}
  m2g::Rng rng;
  core::GlobalFeatureEmbed global;
  core::LevelEncoder location;
  core::LevelEncoder aoi;
};

/// A courier's standalone delta-encode state for core.encode_delta_ms.
struct DeltaState {
  bool warm = false;
  graph::MultiLevelGraph prev;
  core::LevelEncodeCache location;
  core::LevelEncodeCache aoi;
};

/// DiffLevelGraph + EncodeDelta on both levels against the courier's
/// previous graph, falling back to a full cache-warming encode exactly when
/// PredictIncremental would. Returns whether the delta path ran.
bool EncodeStep(const StandaloneEncoders& enc, const graph::MultiLevelGraph& g,
                const Tensor& u, DeltaState* state) {
  const int max_n = std::max({g.location.n, g.aoi.n, state->location.cap,
                              state->aoi.cap});
  core::EncodePlan plan(max_n, core::ModelConfig{}.hidden_dim);
  bool delta = false;
  if (state->warm) {
    const graph::LevelGraphDelta dl =
        graph::DiffLevelGraph(state->prev.location, g.location);
    const graph::LevelGraphDelta da =
        graph::DiffLevelGraph(state->prev.aoi, g.aoi);
    delta = enc.location
                .EncodeDelta(g.location, state->prev.location, dl, u, &plan,
                             &state->location)
                .has_value() &&
            enc.aoi
                .EncodeDelta(g.aoi, state->prev.aoi, da, u, &plan, &state->aoi)
                .has_value();
  }
  if (!delta) {
    enc.location.EncodeFastCached(g.location, u, &plan, &state->location);
    enc.aoi.EncodeFastCached(g.aoi, u, &plan, &state->aoi);
  }
  state->prev = g;
  state->warm = true;
  return delta;
}

/// The traced run of a serving workload: an untraced pass, the same pass
/// with a span around every Handle (their difference is the trace
/// overhead), then one single-threaded pass of standalone calls into each
/// layer for every request.
RunResult TraceServing(const RunOptions& opt, const ServingSpec& spec,
                       const ServingSetup& s, ClientGroup* clients) {
  const int n = static_cast<int>(s.in.requests.size());
  std::map<std::string, double> values;
  RunResult result;

  std::vector<ClientLog> untraced(clients->size());
  int64_t t0 = NowNs();
  ServePass(s, clients, &untraced, nullptr);
  const double untraced_s = Seconds(NowNs() - t0);

  std::vector<ClientLog> logs(clients->size());
  std::vector<SpanRecorder> recorders(clients->size());
  const ObsReadings before = ReadObs();
  t0 = NowNs();
  ServePass(s, clients, &logs, &recorders);
  const double traced_s = Seconds(NowNs() - t0);
  const ObsReadings after = ReadObs();

  const Reference ref = BuildReference(s.in.world, *s.model, s.in.requests);
  std::vector<double> latencies;
  CheckResponses(logs, ref, &result, &latencies);
  const double requests = static_cast<double>(result.attempted);

  double handle_total_ms = 0, cpu_s = 0;
  for (int c = 0; c < clients->size(); ++c) {
    handle_total_ms += recorders[c].Totals()["serve.handle"].total_ms;
    cpu_s += logs[c].cpu_s;
    WriteSpans(opt, "client" + std::to_string(c), recorders[c]);
  }
  values["serve.handle_ms"] = handle_total_ms / requests;
  values["serve.client_busy_frac"] =
      cpu_s / (clients->size() * traced_s);
  values["bench.trace_overhead_frac"] = (traced_s - untraced_s) / untraced_s;
  values["tensor.pool_miss_per_req"] =
      (after.pool_misses - before.pool_misses) / requests;
  values["serve.batch.size_mean"] =
      Ratio(after.batch_size_sum - before.batch_size_sum,
            static_cast<double>(after.batch_count - before.batch_count));
  values["serve.batch.queue_wait_ms"] =
      Ratio(after.queue_wait_sum - before.queue_wait_sum,
            static_cast<double>(after.queue_wait_count -
                                before.queue_wait_count));
  values["serve.batch.shed_frac"] = (after.sheds - before.sheds) / requests;
  values["serve.session.delta_frac"] =
      (after.delta_steps - before.delta_steps) / requests;
  values["serve.session.evictions"] =
      static_cast<double>(after.evictions - before.evictions);
  std::printf("detail traced pass: %.0f requests, delta steps %llu, full "
              "fallbacks %llu, sheds %llu, pool misses %llu\n",
              requests,
              static_cast<unsigned long long>(after.delta_steps -
                                              before.delta_steps),
              static_cast<unsigned long long>(after.full_fallbacks -
                                              before.full_fallbacks),
              static_cast<unsigned long long>(after.sheds - before.sheds),
              static_cast<unsigned long long>(after.pool_misses -
                                              before.pool_misses));

  // Standalone layer calls, one request at a time on this thread.
  const core::ModelConfig config;
  const serve::FeatureExtractor extractor(&s.in.world);
  const serve::GraphBuilder builder(config.graph);
  const StandaloneEncoders enc(config);
  std::unordered_map<int, DeltaState> delta_states;
  SpanRecorder rec;
  NoGradGuard no_grad;
  int delta_steps = 0;
  for (int i = 0; i < n; ++i) {
    const serve::RtpRequest& req = s.in.requests[i];
    ScopedSpan root(&rec, "request", i);
    if (clients->size() == 1) {
      // Handle again right next to its layers, so that all of them see
      // the same host conditions when the remainder is taken.
      ScopedSpan span(&rec, "serve.handle", i);
      const serve::RtpService::Response resp = s.service->Handle(req);
      ++result.attempted;
      if (ResponseHash(resp.sample, resp.prediction) != ref.hashes[i]) {
        ++result.failed;
      }
    }
    synth::Sample sample;
    {
      ScopedSpan span(&rec, "serve.extract", i);
      extractor.BuildSample(req, &sample);
    }
    graph::MultiLevelGraph g;
    {
      ScopedSpan span(&rec, "graph.build", i);
      g = builder.Build(sample);
    }
    {
      ScopedSpan span(&rec, "core.encode", i);
      ArenaGuard arena;
      core::EncodePlan plan(std::max(g.location.n, g.aoi.n), config.hidden_dim);
      const Tensor u = enc.global.Embed(sample);
      const core::EncodedLevel l = enc.location.EncodeFast(g.location, u, &plan);
      const core::EncodedLevel a = enc.aoi.EncodeFast(g.aoi, u, &plan);
      g_sink = g_sink + l.nodes.value().data()[0] + a.nodes.value().data()[0];
    }
    if (spec.path == ServingSpec::Path::kSessions) {
      ScopedSpan span(&rec, "core.encode_delta", i);
      ArenaGuard arena;
      const Tensor u = enc.global.Embed(sample);
      delta_steps += EncodeStep(enc, g, u, &delta_states[req.courier.id]);
    }
    {
      ScopedSpan span(&rec, "core.predict", i);
      ArenaGuard arena;
      const core::RtpPrediction pred = s.model->Predict(sample);
      g_sink = g_sink + static_cast<float>(pred.location_route.size());
    }
  }

  const double extract = MeanMs(rec, "serve.extract");
  const double build = MeanMs(rec, "graph.build");
  const double encode = MeanMs(rec, "core.encode");
  const double predict = MeanMs(rec, "core.predict");
  const double decode = predict - build - encode;
  values["serve.extract_ms"] = extract;
  values["graph.build_ms"] = build;
  values["core.encode_ms"] = encode;
  values["core.predict_ms"] = predict;
  values["core.decode_ms"] = decode;
  double path_ms = predict;
  if (spec.path == ServingSpec::Path::kSessions) {
    const double step = MeanMs(rec, "core.encode_delta");
    values["core.encode_delta_ms"] = step;
    path_ms = build + step + decode;
    std::printf("detail standalone delta steps %d/%d\n", delta_steps, n);
  }
  if (spec.path == ServingSpec::Path::kBatched) {
    // PredictBatch on groups of 4 workload requests, against Predict on
    // the same requests; the batch outputs are checked like responses.
    constexpr int kGroup = 4;
    double batch_ms = 0;
    for (int g0 = 0; g0 + kGroup <= n; g0 += kGroup) {
      std::vector<synth::Sample> samples(kGroup);
      std::vector<const synth::Sample*> ptrs;
      for (int k = 0; k < kGroup; ++k) {
        extractor.BuildSample(s.in.requests[g0 + k], &samples[k]);
        ptrs.push_back(&samples[k]);
      }
      ArenaGuard arena;
      std::vector<core::RtpPrediction> preds;
      {
        ScopedSpan span(&rec, "core.predict_batch", g0);
        preds = s.model->PredictBatch(ptrs, spec.config.batch.max_batch_size);
      }
      for (int k = 0; k < kGroup; ++k) {
        if (ResponseHash(samples[k], preds[k]) != ref.hashes[g0 + k]) {
          std::printf("detail PredictBatch output differs from Predict at %d\n",
                      g0 + k);
          ++result.failed;
        }
      }
    }
    const auto totals = rec.Totals();
    batch_ms = totals.at("core.predict_batch").total_ms;
    values["core.predict_batch_ms"] = batch_ms / (n / kGroup * kGroup);
    values["core.batch_gain"] =
        Ratio(totals.at("core.predict").total_ms, batch_ms);
    path_ms = values["core.predict_batch_ms"];
  }
  // With one client the remainder is taken against the Handle calls of the
  // layer loop; with several, against the concurrent pass (queueing shows).
  const double handle =
      clients->size() == 1 ? MeanMs(rec, "serve.handle") : values["serve.handle_ms"];
  values["serve.unaccounted_ms"] = handle - extract - path_ms;
  std::printf("detail handle %.4f ms = extract %.4f + path %.4f + "
              "unaccounted %.4f (trace overhead %.4f)\n",
              handle, extract, path_ms, values["serve.unaccounted_ms"],
              values["bench.trace_overhead_frac"]);
  PrintLayers("clients", recorders[0]);
  PrintLayers("standalone", rec);
  WriteSpans(opt, "layers", rec);

  if (opt.workload == "trip_replay") {
    // obs enabled (the default) against obs::SetEnabled(false), same pass,
    // alternating; the median request of each side.
    std::vector<double> on, off;
    for (int rep = 0; rep < 3; ++rep) {
      for (const bool enabled : {true, false}) {
        obs::SetEnabled(enabled);
        std::vector<ClientLog> pass(clients->size());
        ServePass(s, clients, &pass, nullptr);
        (enabled ? on : off).push_back(Median(pass[0].latency_ms));
      }
    }
    obs::SetEnabled(true);
    values["obs.overhead_frac"] = (Median(on) - Median(off)) / Median(off);
  }
  KernelMetrics(&values);
  result.metrics = LayerMetrics(values);
  return result;
}

RunResult RunServing(const RunOptions& opt, const ServingSpec& spec) {
  ClientGroup clients(spec.clients);
  const std::unique_ptr<ServingSetup> s =
      SetUpServing(spec, opt.seed, &clients);
  const double setup_s = SetupSeconds(opt);
  if (opt.setup_only) return SetupOnlyResult(setup_s);
  std::printf("detail setup_s=%.4f requests_per_pass=%zu clients=%d\n",
              setup_s,
              s->in.requests.size() * spec.clients, spec.clients);
  if (spec.make == &MakeTripReplay) {
    std::string mix;
    for (const int trips : TripLengthMix()) {
      mix += (mix.empty() ? "" : ",") + std::to_string(trips);
    }
    std::printf("detail trip_length_mix=[%s] (trips of length 0, 1, ...)\n",
                mix.c_str());
  }
  if (opt.trace) return TraceServing(opt, spec, *s, &clients);

  // Whole passes until --seconds have elapsed: every pass sends each
  // request once, so every run serves the same request-size mix and only
  // the pass count varies.
  std::vector<std::vector<ClientLog>> passes;
  std::vector<double> pass_s;
  const int64_t t0 = NowNs();
  do {
    passes.emplace_back(spec.clients);
    const int64_t p0 = NowNs();
    ServePass(*s, &clients, &passes.back(), nullptr);
    pass_s.push_back(Seconds(NowNs() - p0));
  } while (Seconds(NowNs() - t0) < opt.seconds);

  RunResult result;
  const Reference ref = BuildReference(s->in.world, *s->model, s->in.requests);
  std::vector<double> all;
  for (const std::vector<ClientLog>& logs : passes) {
    CheckResponses(logs, ref, &result, &all);
  }
  // Timing metrics come from the fastest passes (a third, and at least
  // kMinKeptRequests requests): the host slows whole stretches of seconds,
  // and timing only its least disturbed passes keeps that out of the
  // numbers, as min-of-N timing does. Every response is still checked.
  const std::vector<size_t> kept = FastestPasses(
      pass_s, static_cast<int64_t>(s->in.requests.size()) * spec.clients,
      kMinKeptRequests);
  std::vector<double> latencies;
  double kept_s = 0;
  int64_t kept_requests = 0;
  for (const size_t p : kept) {
    RunResult ignored;
    CheckResponses(passes[p], ref, &ignored, &latencies);
    kept_s += pass_s[p];
    kept_requests += ignored.attempted;
  }
  const double p50 = Quantile(latencies, 0.5);
  const double p99 = Quantile(latencies, 0.99);
  const auto beyond =
      std::count_if(latencies.begin(), latencies.end(),
                    [&](double l) { return l > p99; });
  const double rate = kept_requests / kept_s;
  std::printf("detail pass_s=[%s]\n", JoinSeconds(pass_s).c_str());
  std::printf("detail passes=%zu kept=%zu requests=%lld kept_requests=%lld "
              "p99_beyond=%lld error_rate=%.6g\n",
              passes.size(), kept.size(),
              static_cast<long long>(result.attempted),
              static_cast<long long>(kept_requests),
              static_cast<long long>(beyond),
              Ratio(result.failed, result.attempted));
  const std::string input_bytes = SerializeRequests(s->in.requests);
  std::printf("digest input=%016llx output=%016llx\n",
              static_cast<unsigned long long>(
                  HashBytes(input_bytes.data(), input_bytes.size())),
              static_cast<unsigned long long>(ref.digest));
  result.metrics = {
      {"setup_s", setup_s, "s"},
      {"latency_p50_ms", p50, "ms"},
      {"latency_p99_ms", p99, "ms"},
      {"requests_per_s", rate, "1/s"},
      // Each request resolves to one sample.
      {"samples_per_s", rate, "1/s"},
      {"peak_rss_mb", PeakRssMb(), "MB"},
  };
  return result;
}

// ---------------------------------------------------------------------------
// train_epoch.
// ---------------------------------------------------------------------------

core::TrainConfig EpochConfig() {
  core::TrainConfig config;
  config.epochs = 1;
  config.threads = 1;
  return config;
}

/// The traced run of train_epoch: one untraced Fit, then the same epoch
/// replayed step by step through the public calls Fit makes, with a span
/// around each. The replay must end in Fit's weights, bit for bit.
RunResult TraceTrain(const RunOptions& opt, const TrainInputs& in) {
  const core::TrainConfig tc = EpochConfig();
  std::map<std::string, double> values;
  RunResult result;

  core::M2g4Rtp fitted{core::ModelConfig{}};
  int64_t t0 = NowNs();
  const std::vector<core::EpochStats> history =
      core::Trainer(&fitted, tc).Fit(in.train, in.val);
  const double fit_s = Seconds(NowNs() - t0);
  const uint64_t fit_hash = WeightsHash(fitted);

  core::M2g4Rtp model{core::ModelConfig{}};
  SpanRecorder rec;
  t0 = NowNs();
  m2g::nn::Adam optimizer(model.Parameters(), tc.learning_rate, 0.9f, 0.999f,
                          1e-8f, tc.weight_decay);
  m2g::Rng rng(tc.shuffle_seed);
  std::vector<int> order(in.train.samples.size());
  std::iota(order.begin(), order.end(), 0);
  rng.Shuffle(&order);
  model.set_guidance_sampling_prob(1.0f);  // what Fit sets for one epoch
  optimizer.ZeroGrad();
  const int limit = static_cast<int>(order.size());
  for (int begin = 0; begin < limit; begin += tc.batch_size) {
    ScopedSpan step(&rec, "train.step", begin / tc.batch_size);
    const int end = std::min(limit, begin + tc.batch_size);
    for (int idx = begin; idx < end; ++idx) {
      ArenaGuard arena;
      Tensor loss;
      {
        ScopedSpan span(&rec, "core.loss_forward", idx);
        core::LossBreakdown breakdown;
        loss = model.ComputeLoss(in.train.samples[order[idx]], &breakdown);
      }
      ScopedSpan span(&rec, "tensor.backward", idx);
      m2g::Scale(loss, 1.0f / static_cast<float>(tc.batch_size)).Backward();
    }
    ScopedSpan span(&rec, "nn.optimizer_step", begin / tc.batch_size);
    optimizer.ClipGradNorm(tc.grad_clip_norm);
    optimizer.Step();
    optimizer.ZeroGrad();
  }
  {
    ScopedSpan span(&rec, "core.evaluate", 0);
    core::Trainer(&model, tc).Evaluate(in.val);
  }
  const double replay_s = Seconds(NowNs() - t0);
  const bool replay_matches = WeightsHash(model) == fit_hash;
  const bool finite = !history.empty() &&
                      std::isfinite(history.front().train_loss) &&
                      std::isfinite(history.front().val_loss);
  result.attempted = in.train.size();
  result.failed = replay_matches && finite ? 0 : in.train.size();
  std::printf("detail replay_matches_fit=%d fit_s=%.3f replay_s=%.3f\n",
              replay_matches ? 1 : 0, fit_s, replay_s);

  const auto totals = rec.Totals();
  const auto mean = [&](const char* name) {
    const auto it = totals.find(name);
    return it == totals.end() ? 0 : it->second.total_ms / it->second.count;
  };
  values["core.loss_forward_ms"] = mean("core.loss_forward");
  values["tensor.backward_ms"] = mean("tensor.backward");
  values["nn.optimizer_step_ms"] = mean("nn.optimizer_step");
  values["core.evaluate_ms"] = mean("core.evaluate");
  values["bench.trace_overhead_frac"] = (replay_s - fit_s) / fit_s;
  PrintLayers("train", rec);
  WriteSpans(opt, "train", rec);
  KernelMetrics(&values);
  result.metrics = LayerMetrics(values);
  return result;
}

RunResult RunTrain(const RunOptions& opt) {
  const auto in = std::make_unique<TrainInputs>(MakeTrainEpoch(opt.seed));
  {
    // Warm pass: a short epoch on the head of the data fills the pools.
    core::TrainConfig warm = EpochConfig();
    warm.max_samples_per_epoch = kTrainWarmSamples;
    synth::Dataset warm_val;
    warm_val.samples.assign(
        in->val.samples.begin(),
        in->val.samples.begin() + std::min(kTrainWarmVal, in->val.size()));
    core::M2g4Rtp model{core::ModelConfig{}};
    core::Trainer(&model, warm).Fit(in->train, warm_val);
  }
  const double setup_s = SetupSeconds(opt);
  if (opt.setup_only) return SetupOnlyResult(setup_s);
  std::printf("detail setup_s=%.4f train_samples=%d val_samples=%d\n",
              setup_s, in->train.size(), in->val.size());
  if (opt.trace) return TraceTrain(opt, *in);

  // Whole epochs, each on a fresh fixed-seed model, until --seconds have
  // elapsed. Step latencies come from the trainer's own
  // train.shard_step.ms spans (one per accumulation batch at threads = 1).
  const int steps_per_epoch =
      (in->train.size() + EpochConfig().batch_size - 1) /
      EpochConfig().batch_size;
  // Room for a whole epoch of the trainer's flat spans (the step spans
  // plus the per-sample ones its validation pass records).
  obs::SetTraceRingCapacity(1 << 16);
  RunResult result;
  std::vector<std::vector<double>> epoch_steps_ms;
  std::vector<double> fit_s;
  uint64_t first_hash = 0;
  const int64_t t0 = NowNs();
  do {
    core::M2g4Rtp model{core::ModelConfig{}};
    core::Trainer trainer(&model, EpochConfig());
    obs::ClearTraces();
    const int64_t f0 = NowNs();
    const std::vector<core::EpochStats> history =
        trainer.Fit(in->train, in->val);
    fit_s.push_back(Seconds(NowNs() - f0));
    std::vector<double>& steps = epoch_steps_ms.emplace_back();
    for (const obs::TraceEvent& e : obs::RecentTraces()) {
      if (std::strcmp(e.stage, "train.shard_step.ms") == 0) {
        steps.push_back(e.duration_ms);
      }
    }
    const uint64_t hash = WeightsHash(model);
    if (fit_s.size() == 1) first_hash = hash;
    const bool ok = !history.empty() &&
                    std::isfinite(history.front().train_loss) &&
                    std::isfinite(history.front().val_loss) &&
                    hash == first_hash &&
                    static_cast<int>(steps.size()) == steps_per_epoch;
    result.attempted += in->train.size();
    if (!ok) result.failed += in->train.size();
  } while (Seconds(NowNs() - t0) < opt.seconds);

  // Throughput: the same pass selection as the serving workloads, over
  // epochs.
  double kept_s = 0;
  const std::vector<size_t> kept = FastestPasses(fit_s, steps_per_epoch, 0);
  for (const size_t e : kept) kept_s += fit_s[e];
  // Step latency: every epoch trains the same steps in the same order (a
  // fresh model, the trainer's fixed shuffle seed), so step i does the same
  // work in each; its latency is its fastest over all epochs of the run.
  // The host's stalls last milliseconds, too short to show in an epoch's
  // time, and with only two or three steps beyond p99 one stall used to
  // move latency_p99_ms by a fifth.
  std::vector<double> step_ms(steps_per_epoch,
                              std::numeric_limits<double>::infinity());
  for (const std::vector<double>& steps : epoch_steps_ms) {
    if (static_cast<int>(steps.size()) != steps_per_epoch) continue;
    for (int i = 0; i < steps_per_epoch; ++i) {
      step_ms[i] = std::min(step_ms[i], steps[i]);
    }
  }
  const double steps = static_cast<double>(kept.size()) * steps_per_epoch;
  const double samples = static_cast<double>(kept.size()) * in->train.size();
  std::printf("detail fit_s=[%s] kept=%zu steps=%.0f error_rate=%.6g\n",
              JoinSeconds(fit_s).c_str(), kept.size(), steps,
              Ratio(result.failed, result.attempted));
  const std::string input_bytes =
      SerializeDataset(in->train) + SerializeDataset(in->val);
  std::printf("digest input=%016llx output=%016llx\n",
              static_cast<unsigned long long>(
                  HashBytes(input_bytes.data(), input_bytes.size())),
              static_cast<unsigned long long>(first_hash));
  result.metrics = {
      {"setup_s", setup_s, "s"},
      {"latency_p50_ms", Quantile(step_ms, 0.5), "ms"},
      {"latency_p99_ms", Quantile(step_ms, 0.99), "ms"},
      // A training "request" is one accumulation step.
      {"requests_per_s", steps / kept_s, "1/s"},
      {"samples_per_s", samples / kept_s, "1/s"},
      {"peak_rss_mb", PeakRssMb(), "MB"},
  };
  return result;
}

}  // namespace

const std::vector<std::string>& WorkloadNames() {
  static const std::vector<std::string> names = {
      "trip_replay", "order_stream", "concurrent_batched", "train_epoch"};
  return names;
}

RunResult RunWorkload(const RunOptions& options) {
  if (options.workload == "train_epoch") return RunTrain(options);
  return RunServing(options, SpecFor(options.workload));
}

}  // namespace perfbench
