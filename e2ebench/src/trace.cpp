#include "trace.hpp"

#include <unistd.h>

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <map>
#include <random>
#include <sstream>

#include "client/demo_workflows.hpp"
#include "common/json.hpp"
#include "common/thread_pool.hpp"
#include "dataset/families.hpp"
#include "embed/codet5_sim.hpp"
#include "embed/embedding.hpp"
#include "engine/run_queue.hpp"
#include "pycode/parser.hpp"
#include "registry/schema.hpp"
#include "search/vector_index.hpp"
#include "server/admission.hpp"
#include "server/server.hpp"
#include "simd/simd.hpp"
#include "telemetry/telemetry.hpp"

namespace e2e {

using laminar::Result;
using laminar::Status;
using laminar::Value;
namespace server = laminar::server;
namespace search = laminar::search;
namespace dataset = laminar::dataset;

namespace {

constexpr size_t kVectorRows = 6000;  ///< the search_mix text index shape
constexpr size_t kVectorDims = 4096;
/// Rows of the HNSW probe index: enough for a multi-level graph, few enough
/// that building it at 4096 dims stays within a few seconds.
constexpr size_t kAnnRows = 2000;
constexpr int kKernelReps = 15;

double Ms(int64_t ns) { return static_cast<double>(ns) / 1e6; }

// ---------------------------------------------------------------- spans --

/// In-memory span recorder. Off, Open() records nothing and reads no clock.
class Tracer {
 public:
  struct Span {
    std::string name;
    int64_t start = 0;
    int64_t end = 0;
    int parent = -1;
  };

  class Scope {
   public:
    Scope(Tracer* tracer, int index) : tracer_(tracer), index_(index) {}
    ~Scope() {
      if (tracer_ != nullptr) tracer_->Close(index_);
    }
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    Tracer* tracer_;
    int index_;
  };

  void set_on(bool on) { on_ = on; }

  Scope Open(std::string name) {
    if (!on_) return Scope(nullptr, -1);
    spans_.push_back({std::move(name), NowNs(), 0, current_});
    current_ = static_cast<int>(spans_.size()) - 1;
    return Scope(this, current_);
  }

  const std::vector<Span>& spans() const { return spans_; }

  /// Self time (span minus the part its children cover) per span, in ms.
  std::vector<double> SelfMs() const {
    std::vector<int64_t> child(spans_.size(), 0);
    for (const Span& s : spans_) {
      if (s.parent >= 0) child[static_cast<size_t>(s.parent)] += s.end - s.start;
    }
    std::vector<double> out;
    for (size_t i = 0; i < spans_.size(); ++i) {
      out.push_back(Ms(spans_[i].end - spans_[i].start - child[i]));
    }
    return out;
  }

 private:
  void Close(int index) {
    spans_[static_cast<size_t>(index)].end = NowNs();
    current_ = spans_[static_cast<size_t>(index)].parent;
  }

  bool on_ = false;
  int current_ = -1;
  std::vector<Span> spans_;
};

// ------------------------------------------------------ in-process server --

class Capture final : public laminar::net::StreamResponder {
 public:
  void SendChunk(std::string_view chunk) override { body.append(chunk); }
  void End(int s) override { status = s; }
  std::string body;
  int status = 0;
};

CallResult HandleCall(server::LaminarServer& srv, const std::string& path,
                      const std::string& body) {
  laminar::net::HttpRequest request;
  request.path = path;
  request.body = body;
  Capture capture;
  srv.Handle(request, capture);
  return {capture.status, std::move(capture.body)};
}

/// laminar_serve's configuration, in process.
server::ServerConfig ServeConfig(const RunContext& ctx,
                                 const std::string& data_dir) {
  server::ServerConfig config;
  config.engine.cold_start_ms = 0;
  if (ctx.config.workload.wal) {
    config.snapshot_path = data_dir + "/snapshot.json";
    config.wal_path = data_dir + "/wal.log";
  }
  return config;
}

struct InProcess {
  std::string data_dir;
  std::unique_ptr<server::LaminarServer> server;
  ~InProcess() {
    server.reset();
    std::error_code ec;
    std::filesystem::remove_all(data_dir, ec);
  }
};

Result<std::unique_ptr<InProcess>> BuildInProcess(const RunContext& ctx,
                                                  const std::string& tag) {
  auto ip = std::make_unique<InProcess>();
  ip->data_dir = ctx.work_dir + "/inproc_" + tag + "_" +
                 std::to_string(::getpid());
  std::error_code ec;
  std::filesystem::remove_all(ip->data_dir, ec);
  std::filesystem::create_directories(ip->data_dir, ec);
  ip->server = std::make_unique<server::LaminarServer>(
      ServeConfig(ctx, ip->data_dir));
  for (const std::string& body : ctx.corpus.bulk_bodies) {
    CallResult r = HandleCall(*ip->server, "/registry/bulk_register", body);
    if (r.status != 200) return Status::Internal("in-process bulk_register");
  }
  for (const std::string& body : ctx.corpus.workflow_bodies) {
    CallResult r = HandleCall(*ip->server, "/workflows/register", body);
    if (r.status != 200) return Status::Internal("in-process workflow");
  }
  return ip;
}

// ------------------------------------------------------------- replay --

/// Module objects the replay's write path commits into, so the traced
/// registrations do not disturb the served registry's ids.
struct Sandbox {
  explicit Sandbox(const RunContext& ctx, const std::string& dir)
      : repo(db), search(repo), admission({}, {}), run_queue(8) {
    (void)laminar::registry::CreateLaminarSchema(db);
    if (ctx.config.workload.wal) (void)db.EnableWal(dir + "/sandbox_wal.log");
  }
  laminar::registry::Database db;
  laminar::registry::Repository repo;
  search::SearchService search;
  laminar::embed::CodeT5Sim codet5;
  server::AdmissionController admission;
  laminar::engine::FairRunQueue run_queue;
};

/// Counts gathered alongside the spans.
struct Tally {
  uint64_t cache_hits = 0;
  uint64_t cache_lookups = 0;
  double recommended = 0;
  double recommend_asked = 0;
  std::map<std::string, std::vector<double>> first_line_ms;  ///< by mapping
  std::vector<double> tuples;
  std::vector<double> broker_ops;
  double batch_items = 0;
  double batch_ops = 0;
  uint64_t failures = 0;  ///< replayed requests Handle did not answer 200
};

uint64_t CounterValue(const char* name, const char* labels) {
  const laminar::telemetry::Counter* c =
      laminar::telemetry::MetricsRegistry::Global().FindCounter(name, labels);
  return c == nullptr ? 0 : c->Value();
}

uint64_t BrokerOps(const laminar::broker::BrokerStats& s) {
  return s.gets + s.sets + s.pushes + s.pops + s.publishes;
}

Value HitsJson(const std::vector<search::SearchHit>& hits) {
  Value arr = Value::MakeArray();
  for (const search::SearchHit& hit : hits) {
    Value h = Value::MakeObject();
    h["id"] = hit.id;
    h["name"] = hit.name;
    h["description"] = hit.description;
    h["score"] = hit.score;
    arr.push_back(std::move(h));
  }
  Value resp = Value::MakeObject();
  resp["hits"] = std::move(arr);
  return resp;
}

/// One request: the whole server path (LaminarServer::Handle), then the
/// same request split into the public calls the server makes at its top
/// level (under "layers.<endpoint>", whose children sum to the server-side
/// work), then the deeper module calls on the same input.
void ReplayOne(const RunContext& ctx, const Request& r, bool with_handle,
               server::LaminarServer& srv, Sandbox& sb, Tracer& t,
               Tally& tally) {
  const std::string tag = EndpointTag(r.path);
  Tracer::Scope root = t.Open("request." + tag);
  if (with_handle) {
    Tracer::Scope s = t.Open("server.handle." + tag);
    if (HandleCall(srv, r.path, r.body).status != 200) ++tally.failures;
  }
  Value body;
  Value resp = Value::MakeObject();
  search::SearchService& svc = srv.search();
  {
    Tracer::Scope layers = t.Open("layers." + tag);
    {
      Tracer::Scope s = t.Open("common.json_parse");
      body = laminar::json::Parse(r.body).value();
    }
    {
      Tracer::Scope s = t.Open("server.admit");
      double retry_after_ms = 0;
      (void)sb.admission.AdmitRequest("default", &retry_after_ms);
    }
    if (r.path == "/search/semantic") {
      auto before = svc.query_cache_stats();
      std::vector<search::SearchHit> hits;
      {
        Tracer::Scope s = t.Open("search.semantic");
        hits = svc.SemanticSearch(body.GetString("query"),
                                  search::SearchTarget::kPe);
      }
      auto after = svc.query_cache_stats();
      tally.cache_hits += after.hits - before.hits;
      tally.cache_lookups +=
          (after.hits + after.misses) - (before.hits + before.misses);
      resp = HitsJson(hits);
    } else if (r.path == "/search/code") {
      Result<std::vector<search::RecommendationHit>> recs = [&] {
        Tracer::Scope s = t.Open("search.code_recommendation");
        return svc.CodeRecommendation(body.GetString("code"),
                                      search::SearchTarget::kPe);
      }();
      Value arr = Value::MakeArray();
      if (recs.ok()) {
        for (const auto& hit : recs.value()) {
          Value h = Value::MakeObject();
          h["name"] = hit.name;
          h["score"] = hit.score;
          h["similarCode"] = hit.similar_code;
          arr.push_back(std::move(h));
        }
      }
      resp["hits"] = std::move(arr);
    } else if (r.path == "/search/complete") {
      Result<std::vector<laminar::spt::Completion>> done = [&] {
        Tracer::Scope s = t.Open("search.code_completion");
        return svc.CodeCompletion(body.GetString("code"), 3);
      }();
      Value arr = Value::MakeArray();
      if (done.ok()) {
        for (const auto& c : done.value()) {
          Value h = Value::MakeObject();
          h["score"] = c.score;
          h["continuation"] = c.continuation;
          arr.push_back(std::move(h));
        }
      }
      resp["completions"] = std::move(arr);
    } else if (r.path == "/pes/get") {
      Tracer::Scope s = t.Open("registry.get_pe");
      Result<laminar::registry::PeRecord> pe =
          srv.repository().GetPe(body.GetInt("id"));
      if (pe.ok()) {
        resp["peName"] = pe->name;
        resp["code"] = pe->code;
      }
    } else if (r.path == "/pes/register") {
      const std::string code = body.GetString("code");
      std::string description;
      {
        Tracer::Scope s = t.Open("embed.summarize");
        description = sb.codet5.Summarize(
            code, laminar::embed::DescriptionContext::kFullClass);
      }
      search::SearchService::PreparedPe prepared;
      {
        Tracer::Scope s = t.Open("search.prepare_pe");
        prepared = sb.search.PreparePe(body.GetString("name"), description,
                                       "", code);
      }
      laminar::registry::PeRecord record;
      record.name = body.GetString("name");
      record.description = description;
      record.code = code;
      {
        Tracer::Scope s = t.Open("embed.to_json");
        record.description_embedding =
            laminar::embed::ToJson(prepared.text_embedding);
      }
      if (prepared.has_features) {
        Tracer::Scope s = t.Open("spt.features_to_json");
        record.spt_embedding = laminar::spt::FeatureBagToJson(prepared.features);
      }
      Result<int64_t> id = [&] {
        Tracer::Scope s = t.Open("registry.create_pe");
        return sb.repo.CreatePe(record);
      }();
      {
        Tracer::Scope s = t.Open("search.commit_pe");
        sb.search.CommitPe(id.ok() ? id.value() : 0, std::move(prepared));
      }
      resp["peId"] = id.ok() ? id.value() : 0;
    } else if (r.path == "/execute") {
      const std::string mapping = body.GetString("mapping");
      auto it = ctx.config.workload.inputs.begin();
      std::advance(it, body.GetInt("workflowId") - 1);
      const laminar::client::DemoWorkflow* wf =
          laminar::client::FindDemoWorkflow(it->first);
      laminar::engine::ExecuteRequest req;
      req.workflow_spec = wf->spec;
      req.workflow_code = wf->code;
      req.mapping = mapping;
      req.run_options.input = body.at("input");
      req.run_options.num_processes = static_cast<int>(body.GetInt("processes", 4));
      laminar::engine::ExecuteStats stats;
      auto& broker = srv.engine().broker();
      const uint64_t ops0 = BrokerOps(broker.stats());
      const uint64_t items0 =
          CounterValue("laminar_broker_batch_items_total", "op=\"push_multi\"") +
          CounterValue("laminar_broker_batch_items_total", "op=\"pop_up_to\"");
      const uint64_t bops0 =
          CounterValue("laminar_broker_batch_ops_total", "op=\"push_multi\"") +
          CounterValue("laminar_broker_batch_ops_total", "op=\"pop_up_to\"");
      {
        Tracer::Scope s = t.Open("engine.run_queue_wait");
        Result<laminar::engine::FairRunQueue::Ticket> ticket =
            sb.run_queue.Acquire("default", {});
      }
      int64_t start = 0;
      int64_t first = 0;
      {
        Tracer::Scope s = t.Open("engine.execute." + mapping);
        start = NowNs();
        (void)srv.engine().Execute(
            req,
            [&first](const std::string&) {
              if (first == 0) first = NowNs();
            },
            &stats);
      }
      if (first > 0) tally.first_line_ms[mapping].push_back(Ms(first - start));
      tally.tuples.push_back(static_cast<double>(stats.tuples));
      tally.broker_ops.push_back(
          static_cast<double>(BrokerOps(broker.stats()) - ops0));
      tally.batch_items +=
          static_cast<double>(
              CounterValue("laminar_broker_batch_items_total", "op=\"push_multi\"") +
              CounterValue("laminar_broker_batch_items_total", "op=\"pop_up_to\"")) -
          static_cast<double>(items0);
      tally.batch_ops +=
          static_cast<double>(
              CounterValue("laminar_broker_batch_ops_total", "op=\"push_multi\"") +
              CounterValue("laminar_broker_batch_ops_total", "op=\"pop_up_to\"")) -
          static_cast<double>(bops0);
    }
    {
      Tracer::Scope s = t.Open("common.json_write");
      std::string out = resp.ToJson();
      (void)out;
    }
  }
  // Deeper calls on the same input, outside the layer sum.
  if (r.path == "/search/semantic") {
    Tracer::Scope s = t.Open("embed.encode_text");
    (void)svc.text_encoder().EncodeText(body.GetString("query"));
  } else if (r.path == "/search/code" || r.path == "/search/complete") {
    const std::string code = body.GetString("code");
    const auto& aroma = svc.aroma();
    {
      Tracer::Scope s = t.Open("pycode.parse");
      (void)laminar::pycode::ParseLenient(code);
    }
    {
      Tracer::Scope s = t.Open("spt.featurize");
      (void)aroma.Featurize(code);
    }
    if (r.path == "/search/code") {
      {
        Tracer::Scope s = t.Open("spt.search");
        (void)aroma.Search(code, aroma.config().retrieve_top);
      }
      Tracer::Scope s = t.Open("spt.recommend");
      auto recs = aroma.Recommend(code);
      tally.recommended += recs.ok() ? static_cast<double>(recs->size()) : 0;
      tally.recommend_asked +=
          static_cast<double>(aroma.config().max_recommendations);
    } else {
      Tracer::Scope s = t.Open("spt.complete");
      (void)aroma.Complete(code, 3);
    }
  } else if (r.path == "/pes/register") {
    Tracer::Scope s = t.Open("embed.encode_code");
    (void)svc.code_encoder().EncodeCode(body.GetString("code"));
  }
}

/// A fixed request of every endpoint type, so each layer is measured on
/// every workload (on that workload's in-process state).
std::vector<Request> LayerProbeRequests(const RunContext& ctx) {
  BenchConfig every = ctx.config;
  every.workload.mix = {{"/search/semantic", 0}, {"/search/code", 0},
                        {"/search/complete", 0}, {"/pes/get", 0},
                        {"/execute", 0}};
  Corpus corpus = ctx.corpus;
  if (corpus.pes.empty()) {  // stream_exec: the workflows' own PE sources
    for (const auto& [name, input] : ctx.config.workload.inputs) {
      for (const auto& pe : laminar::client::FindDemoWorkflow(name)->pes) {
        laminar::dataset::PeExample ex;
        ex.pe_code = pe.code;
        corpus.pes.push_back(ex);
      }
    }
  }
  if (corpus.workflow_bodies.empty()) {
    corpus.workflow_bodies.assign(ctx.config.workload.inputs.size(), "");
  }
  std::vector<Request> probes = ProbeSet(every, corpus);
  every.workload.mix = {{"/pes/register", 1.0}};
  RequestStream fresh(every, corpus, ctx.seed, 9);
  for (int i = 0; i < 3; ++i) probes.push_back(fresh.Next());
  return probes;
}

// ------------------------------------------------------ kernel probes --

struct KernelNumbers {
  double dot_gbps = 0;
  double topk_ms = 0;
  double ann_topk_ms = 0;
  double ann_build_s = 0;
};

double MedianOf(int reps, const std::function<void()>& fn) {
  std::vector<double> ms;
  for (int i = 0; i < reps; ++i) {
    int64_t t0 = NowNs();
    fn();
    ms.push_back(Ms(NowNs() - t0));
  }
  return Quantile(ms, 0.5);
}

/// `embedding` is a real text embedding, for embed::ToJson (whose cost
/// depends on the digits it prints).
KernelNumbers MeasureKernels(const RunContext& ctx, Tracer& t,
                             const std::vector<float>& embedding) {
  KernelNumbers k;
  // The search_mix text index shape; a smaller corpus (smoke runs) scans
  // its own size instead.
  const size_t rows =
      ctx.corpus.pes.empty()
          ? kVectorRows
          : std::clamp(ctx.corpus.pes.size(), size_t{64}, kVectorRows);
  std::mt19937 gen(static_cast<uint32_t>(ctx.seed));
  std::normal_distribution<float> normal;
  auto unit = [&]() {
    std::vector<float> v(kVectorDims);
    double norm = 0;
    for (float& x : v) {
      x = normal(gen);
      norm += static_cast<double>(x) * x;
    }
    for (float& x : v) x = static_cast<float>(x / std::sqrt(norm));
    return v;
  };
  std::vector<float> block;
  block.reserve(rows * kVectorDims);
  for (size_t i = 0; i < rows; ++i) {
    std::vector<float> v = unit();
    block.insert(block.end(), v.begin(), v.end());
  }
  const std::vector<float> query = unit();

  for (int i = 0; i < kKernelReps; ++i) {
    Tracer::Scope s = t.Open("embed.to_json");
    (void)laminar::embed::ToJson(embedding);
  }
  std::vector<float> out(rows);
  const double dot_ms = MedianOf(kKernelReps, [&] {
    laminar::simd::DotBatch(query.data(), block.data(), rows, kVectorDims,
                            out.data());
  });
  k.dot_gbps = static_cast<double>(rows * kVectorDims * sizeof(float)) /
               (dot_ms * 1e6);

  search::VectorIndex flat(kVectorDims);
  for (size_t i = 0; i < rows; ++i) {
    flat.Upsert(static_cast<int64_t>(i + 1),
                std::span<const float>(block.data() + i * kVectorDims,
                                       kVectorDims));
  }
  k.topk_ms = MedianOf(kKernelReps, [&] {
    Tracer::Scope s = t.Open("search.vector_topk");
    (void)flat.TopK(query, 5);
  });

  search::VectorIndex::Options ann_options;
  ann_options.strategy = search::IndexStrategy::kHnsw;
  search::VectorIndex ann(kVectorDims, ann_options);
  laminar::ThreadPool pool(4);
  int64_t t0 = NowNs();
  {
    Tracer::Scope s = t.Open("ann.build");
    ann.BeginBulk();
    for (size_t i = 0; i < std::min(rows, kAnnRows); ++i) {
      ann.Upsert(static_cast<int64_t>(i + 1),
                 std::span<const float>(block.data() + i * kVectorDims,
                                        kVectorDims));
    }
    ann.EndBulk(&pool);
  }
  k.ann_build_s = static_cast<double>(NowNs() - t0) / 1e9;
  k.ann_topk_ms = MedianOf(kKernelReps, [&] {
    Tracer::Scope s = t.Open("ann.topk");
    (void)ann.TopK(query, 5);
  });
  return k;
}

/// Mean of the self times of every span named `name`.
double MeanSelf(const Tracer& t, const std::vector<double>& self,
                const std::string& name) {
  std::vector<double> v;
  for (size_t i = 0; i < t.spans().size(); ++i) {
    if (t.spans()[i].name == name) v.push_back(self[i]);
  }
  return Mean(v);
}

void WriteSpans(const Tracer& t, const std::string& path) {
  std::ofstream out(path);
  out << "[\n";
  const auto& spans = t.spans();
  const int64_t origin = spans.empty() ? 0 : spans.front().start;
  for (size_t i = 0; i < spans.size(); ++i) {
    out << "{\"id\":" << i << ",\"name\":\"" << spans[i].name
        << "\",\"start_ns\":" << spans[i].start - origin
        << ",\"end_ns\":" << spans[i].end - origin
        << ",\"parent\":" << spans[i].parent << "}"
        << (i + 1 < spans.size() ? ",\n" : "\n");
  }
  out << "]\n";
}

}  // namespace

Result<std::vector<std::string>> ReferenceAnswers(
    const RunContext& ctx, const std::vector<Request>& probes) {
  const std::string path = ctx.work_dir + "/reference_" +
                           ctx.config.workload.name + "_" +
                           std::to_string(ctx.corpus.pes.size()) + "_" +
                           ctx.source_digest + ".json";
  {
    std::ifstream in(path);
    std::stringstream text;
    text << in.rdbuf();
    Result<Value> doc = laminar::json::Parse(text.str());
    if (in && doc.ok() && doc->size() == probes.size()) {
      std::vector<std::string> out;
      for (const Value& v : doc->as_array()) out.push_back(v.as_string());
      return out;
    }
  }
  Result<std::unique_ptr<InProcess>> ip = BuildInProcess(ctx, "reference");
  if (!ip.ok()) return ip.status();
  std::vector<std::string> out;
  Value arr = Value::MakeArray();
  for (const Request& probe : probes) {
    CallResult r = HandleCall(*ip.value()->server, probe.path, probe.body);
    out.push_back(Canonical(probe, r.status, r.body));
    if (out.back().empty()) {
      return Status::Internal("reference probe failed: " + probe.path);
    }
    arr.push_back(out.back());
  }
  const std::string tmp = path + ".tmp" + std::to_string(::getpid());
  {
    std::ofstream file(tmp);
    file << arr.ToJson();
  }
  std::filesystem::rename(tmp, path);
  return out;
}

int RunTraced(const RunContext& ctx, const std::vector<std::string>& keys) {
  const BenchConfig& config = ctx.config;
  const WorkloadConfig& w = config.workload;
  Report report;
  uint64_t attempted = 0;
  uint64_t failed = 0;

  // 1. Low-rate TCP segment: transport numbers, server-side means and the
  //    unloaded end-to-end median of every endpoint.
  std::map<std::string, double> e2e_p50;
  {
    Result<std::unique_ptr<Seeded>> seeded = SpawnAndSeed(ctx, 0);
    if (!seeded.ok()) {
      std::fprintf(stderr, "e2ebench: set-up: %s\n",
                   seeded.status().ToString().c_str());
      return 1;
    }
    Seeded& live = *seeded.value();
    OpenLoop loop(ctx, &live.conns);
    RequestStream warm(config, ctx.corpus, ctx.seed, 1);
    Phase warm_phase = loop.Run(warm, w.fixed_rps, config.warmup_s, ctx.seed + 11);
    attempted += warm_phase.requests.size();
    failed += warm_phase.Failures();
    const std::string before = live.conns[0]->Call("/metrics", "").body;
    RequestStream stream(config, ctx.corpus, ctx.seed, 3);
    Phase low = loop.Run(stream, w.ladder.front() * w.fixed_rps,
                         ctx.seconds, ctx.seed + 13);
    const std::string after = live.conns[0]->Call("/metrics", "").body;
    attempted += low.requests.size();
    failed += low.Failures();
    ReportTraffic(low, ctx, &report);
    std::map<std::string, double> server_means = ServerMeans(before, after);
    double server_sum = 0;
    double server_n = 0;
    std::vector<double> client_all;
    for (const auto& [path, share] : w.mix) {
      std::vector<double> lat = low.Latencies(path);
      if (lat.empty()) continue;
      e2e_p50[path] = Quantile(lat, 0.5);
      report.Add("e2e.low_p50_ms." + EndpointTag(path), e2e_p50[path], "ms");
      if (server_means.count(path)) {
        report.Add("server.request_ms_mean." + EndpointTag(path),
                   server_means[path], "ms");
        server_sum += server_means[path] * static_cast<double>(lat.size());
        server_n += static_cast<double>(lat.size());
      }
    }
    for (size_t i = 0; i < low.requests.size(); ++i) {
      if (low.requests[i].kind != Kind::kHealth && low.ok[i]) {
        client_all.push_back(Ms(low.slots[i].end_ns - low.slots[i].sent_ns));
      }
    }
    if (server_n > 0) {
      report.Add("server.request_ms_mean", server_sum / server_n, "ms");
      report.Add("net.queue_ms_mean", Mean(client_all) - server_sum / server_n,
                 "ms");
    }
    live.Close();
  }

  // 2. The same corpus in process, and the replay.
  Result<std::unique_ptr<InProcess>> ip = BuildInProcess(ctx, "trace");
  if (!ip.ok()) {
    std::fprintf(stderr, "e2ebench: %s\n", ip.status().ToString().c_str());
    return 1;
  }
  server::LaminarServer& srv = *ip.value()->server;
  Sandbox sandbox(ctx, ip.value()->data_dir);
  RequestStream stream(config, ctx.corpus, ctx.seed, 3);
  std::vector<Request> replay;
  for (size_t i = 0; i < config.trace_requests; ++i) {
    replay.push_back(stream.Next());
  }
  Tracer tracer;
  Tally tally;
  Tally untraced_tally;
  auto replay_one = [&](const Request& r, bool spans, Tally& into) {
    tracer.set_on(spans);
    const int64_t t0 = NowNs();
    ReplayOne(ctx, r, true, srv, sandbox, tracer, into);
    return static_cast<double>(NowNs() - t0);
  };
  for (const Request& r : replay) replay_one(r, false, untraced_tally);  // warm-up
  // Each request then runs once with spans and once without, alternating
  // which goes first so cache warmth favours neither side.
  double traced_ns = 0;
  double untraced_ns = 0;
  for (size_t i = 0; i < replay.size(); ++i) {
    if (i % 2 == 0) {
      traced_ns += replay_one(replay[i], true, tally);
      untraced_ns += replay_one(replay[i], false, untraced_tally);
    } else {
      untraced_ns += replay_one(replay[i], false, untraced_tally);
      traced_ns += replay_one(replay[i], true, tally);
    }
  }
  report.Add("telemetry.trace_overhead_frac", traced_ns / untraced_ns - 1.0,
             "ratio");
  attempted += 3 * replay.size();
  failed += tally.failures + untraced_tally.failures;

  // 3. Every layer on this workload's state, and the kernels.
  tracer.set_on(true);
  for (const Request& r : LayerProbeRequests(ctx)) {
    ReplayOne(ctx, r, false, srv, sandbox, tracer, tally);
  }
  KernelNumbers kernels = MeasureKernels(
      ctx, tracer,
      srv.search().text_encoder().EncodeText(
          dataset::Families().front().description));
  const std::vector<double> self = tracer.SelfMs();

  // 4. Per-layer numbers.
  auto us = [&](const char* metric, const char* span) {
    report.Add(metric, 1000.0 * MeanSelf(tracer, self, span), "us");
  };
  auto ms = [&](const char* metric, const char* span) {
    report.Add(metric, MeanSelf(tracer, self, span), "ms");
  };
  {
    std::vector<double> handle;
    for (size_t i = 0; i < tracer.spans().size(); ++i) {
      if (tracer.spans()[i].name.rfind("server.handle.", 0) == 0) {
        handle.push_back(self[i]);
      }
    }
    report.Add("server.handle_ms", Mean(handle), "ms");
    for (const auto& [path, share] : w.mix) {
      ms(("server.handle_ms." + EndpointTag(path)).c_str(),
         ("server.handle." + EndpointTag(path)).c_str());
    }
  }
  us("server.admit_us", "server.admit");
  us("common.json_parse_us", "common.json_parse");
  us("common.json_write_us", "common.json_write");
  us("embed.encode_text_us", "embed.encode_text");
  us("embed.encode_code_us", "embed.encode_code");
  us("embed.summarize_us", "embed.summarize");
  ms("embed.to_json_ms", "embed.to_json");
  ms("search.semantic_ms", "search.semantic");
  ms("search.code_recommendation_ms", "search.code_recommendation");
  ms("search.code_completion_ms", "search.code_completion");
  report.Add("search.vector_topk_ms", kernels.topk_ms, "ms");
  report.Add("search.vector_bytes_per_query",
             static_cast<double>(kVectorRows * kVectorDims * sizeof(float)),
             "B");
  report.Add("search.query_cache_hit_frac",
             tally.cache_lookups ? static_cast<double>(tally.cache_hits) /
                                       static_cast<double>(tally.cache_lookups)
                                 : 0,
             "ratio");
  ms("search.prepare_pe_ms", "search.prepare_pe");
  ms("search.commit_pe_ms", "search.commit_pe");
  report.Add("ann.topk_ms", kernels.ann_topk_ms, "ms");
  report.Add("ann.build_s", kernels.ann_build_s, "s");
  report.Add("simd.dot_gbps", kernels.dot_gbps, "GB/s");
  us("pycode.parse_us", "pycode.parse");
  ms("spt.featurize_ms", "spt.featurize");
  ms("spt.search_ms", "spt.search");
  ms("spt.recommend_ms", "spt.recommend");
  ms("spt.complete_ms", "spt.complete");
  report.Add("spt.recommend_yield",
             tally.recommend_asked > 0 ? tally.recommended / tally.recommend_asked
                                       : 0,
             "ratio");
  us("registry.create_pe_us", "registry.create_pe");
  us("registry.get_pe_us", "registry.get_pe");
  for (const char* m : kMappings) {
    ms((std::string("engine.execute_ms.") + m).c_str(),
       (std::string("engine.execute.") + m).c_str());
    report.Add(std::string("engine.first_line_ms.") + m,
               Mean(tally.first_line_ms[m]), "ms");
  }
  ms("engine.run_queue_wait_ms", "engine.run_queue_wait");
  report.Add("dataflow.tuples_per_run", Mean(tally.tuples), "count");
  report.Add("broker.ops_per_run", Mean(tally.broker_ops), "count");
  report.Add("broker.batch_fill",
             tally.batch_ops > 0 ? tally.batch_items / tally.batch_ops : 0,
             "ratio");

  // 5. Layer sums against the unloaded end-to-end medians.
  std::map<std::string, std::vector<double>> layer_sums;
  {
    const auto& spans = tracer.spans();
    std::vector<double> child_self(spans.size(), 0);
    for (size_t i = 0; i < spans.size(); ++i) {
      if (spans[i].parent >= 0) {
        child_self[static_cast<size_t>(spans[i].parent)] += self[i];
      }
    }
    for (size_t i = 0; i < spans.size(); ++i) {
      if (spans[i].name.rfind("layers.", 0) == 0) {
        layer_sums[spans[i].name.substr(7)].push_back(child_self[i]);
      }
    }
  }
  double primary_gap = std::nan("");
  double primary_share = -1;
  for (const auto& [path, share] : w.mix) {
    const std::string tag = EndpointTag(path);
    if (!e2e_p50.count(path) || layer_sums[tag].empty()) continue;
    const double sum = Quantile(layer_sums[tag], 0.5);
    const double health = report.Value("net.health_rtt_p50_ms");
    const double gap = (e2e_p50[path] - (sum + health)) / e2e_p50[path];
    report.Add("trace.layer_sum_ms." + tag, sum, "ms");
    report.Add("trace.gap_frac." + tag, gap, "ratio");
    if (std::abs(gap) > 0.10) {
      report.Note("layer sum for " + path + " is " +
                  std::to_string(100 * gap) +
                  "% away from the unloaded end-to-end median");
    }
    if (share > primary_share) {
      primary_share = share;
      primary_gap = gap;
    }
  }
  report.Add("trace.layer_sum_gap_frac", primary_gap, "ratio");

  WriteSpans(tracer, ctx.work_dir + "/spans_" + w.name + "_" +
                         std::to_string(ctx.seed) + ".json");
  report.PrintLines();
  const bool correct = failed == 0;
  report.PrintResult(correct, attempted, failed, keys);
  return correct ? 0 : 1;
}

}  // namespace e2e
