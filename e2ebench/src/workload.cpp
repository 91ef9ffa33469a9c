#include "workload.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <sstream>

#include "client/demo_workflows.hpp"
#include "common/hashing.hpp"
#include "common/json.hpp"
#include "common/strings.hpp"
#include "dataset/families.hpp"
#include "host.hpp"

namespace e2e {

using laminar::Result;
using laminar::Status;
using laminar::Value;
namespace dataset = laminar::dataset;

namespace {

constexpr uint64_t kCorpusSeed = 0x1a3f5c7e9b2d4f60ULL;
constexpr double kZipfExponent = 1.0;
constexpr std::string_view kEndMarker = "##END## ";

/// Query prefixes that widen the paraphrase pool into distinct texts.
constexpr const char* kQueryPrefixes[] = {
    "",          "find ",          "a PE that ",      "code to ",
    "how do I ", "processing element to ", "snippet that ", "example: "};

/// Overrides the settings `src` names, leaving the others as they are.
void ApplySettings(const Value& src, BenchConfig* c) {
  c->setup_reps = static_cast<int>(src.GetDouble("setup_reps", c->setup_reps));
  c->warmup_s = src.GetDouble("warmup_s", c->warmup_s);
  c->step_s = src.GetDouble("step_s", c->step_s);
  c->bisect_steps =
      static_cast<int>(src.GetDouble("bisect_steps", c->bisect_steps));
  c->trace_requests = static_cast<size_t>(
      src.GetDouble("trace_requests", static_cast<double>(c->trace_requests)));
  WorkloadConfig& w = c->workload;
  w.variants = static_cast<size_t>(
      src.GetDouble("variants", static_cast<double>(w.variants)));
  w.fixed_rps = src.GetDouble("fixed_rps", w.fixed_rps);
  w.limit_ms = src.GetDouble("limit_ms", w.limit_ms);
  if (src.contains("wal")) w.wal = src.GetBool("wal", false);
  if (src.contains("limited")) {
    w.limited = src.GetString("limited") == "run" ? Kind::kRun : Kind::kRead;
  }
  if (src.at("mix").is_object()) {
    w.mix.clear();
    for (const auto& [endpoint, share] : src.at("mix").as_object()) {
      w.mix.emplace_back(endpoint, share.as_double());
    }
  }
  if (src.at("ladder").is_array()) {
    w.ladder.clear();
    for (const Value& m : src.at("ladder").as_array()) {
      w.ladder.push_back(m.as_double());
    }
  }
  if (src.at("order_dependent").is_array()) {
    w.order_dependent.clear();
    for (const Value& wf : src.at("order_dependent").as_array()) {
      w.order_dependent.push_back(wf.as_string());
    }
  }
  if (src.at("inputs").is_object()) {
    w.inputs.clear();
    for (const auto& [wf, n] : src.at("inputs").as_object()) {
      w.inputs[wf] = n.as_int();
    }
  }
}

std::string Fmt(double v) {
  char buf[32];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

Request MakeRequest(std::string path, Value body, Kind kind,
                    uint64_t key = 0) {
  Request r;
  r.path = std::move(path);
  r.body = body.ToJson();
  r.kind = kind;
  r.key = key;
  return r;
}

Request CodeRequest(const std::string& path, std::string code) {
  Value body = Value::MakeObject();
  body["code"] = std::move(code);
  if (path == "/search/complete") {
    body["limit"] = static_cast<int64_t>(3);
  } else {
    body["target"] = "pe";
    body["embedding_type"] = "spt";
  }
  return MakeRequest(path, std::move(body), Kind::kRead);
}

Request ExecuteRequest(const BenchConfig& config, size_t workflow,
                       int mapping) {
  auto it = config.workload.inputs.begin();
  std::advance(it, static_cast<long>(workflow));
  Value body = Value::MakeObject();
  body["workflowId"] = static_cast<int64_t>(workflow + 1);
  body["mapping"] = kMappings[mapping];
  body["input"] = it->second;
  body["processes"] = static_cast<int64_t>(std::min(kMaxProcesses, Nproc()));
  Request r = MakeRequest("/execute", std::move(body), Kind::kRun);
  r.mapping = mapping;
  r.workflow = static_cast<int>(workflow);
  return r;
}

std::vector<std::string> QueryPool() {
  std::vector<std::string> pool;
  for (const dataset::FamilySpec& f : dataset::Families()) {
    for (std::string_view base : {f.description, f.paraphrase_a,
                                  f.paraphrase_b}) {
      for (const char* prefix : kQueryPrefixes) {
        pool.push_back(std::string(prefix) + std::string(base));
      }
    }
  }
  return pool;
}

}  // namespace

const char* KindName(Kind kind) {
  switch (kind) {
    case Kind::kRead: return "read";
    case Kind::kWrite: return "write";
    case Kind::kRun: return "run";
    case Kind::kHealth: return "health";
  }
  return "?";
}

Result<BenchConfig> LoadConfig(const std::string& path,
                               const std::string& workload, bool smoke) {
  std::ifstream in(path);
  if (!in) return Status::NotFound("cannot read " + path);
  std::stringstream text;
  text << in.rdbuf();
  Result<Value> doc = laminar::json::Parse(text.str());
  if (!doc.ok()) return doc.status();
  const Value& spec = doc->at("workloads").at(workload);
  if (!spec.is_object()) {
    return Status::InvalidArgument("unknown workload '" + workload + "'");
  }
  BenchConfig config;
  config.workload.name = workload;
  ApplySettings(doc->at("defaults"), &config);
  ApplySettings(spec, &config);
  if (smoke) {
    ApplySettings(doc->at("smoke"), &config);
    ApplySettings(spec.at("smoke"), &config);
  }
  const WorkloadConfig& w = config.workload;
  if (w.mix.empty() || w.fixed_rps <= 0 || w.limit_ms <= 0 ||
      w.ladder.empty() || config.setup_reps < 1) {
    return Status::InvalidArgument("incomplete settings for " + workload);
  }
  return config;
}

Corpus BuildCorpus(const BenchConfig& config) {
  Corpus corpus;
  if (config.workload.variants > 0) {
    dataset::DatasetConfig dc;
    dc.variants_per_family = config.workload.variants;
    dc.seed = kCorpusSeed;
    dc.docstring_probability = 1.0;
    corpus.pes = dataset::CodeSearchNetPeDataset::Generate(dc).examples();
    for (size_t begin = 0; begin < corpus.pes.size(); begin += kBulkChunk) {
      Value arr = Value::MakeArray();
      for (size_t i = begin; i < std::min(corpus.pes.size(), begin + kBulkChunk);
           ++i) {
        Value p = Value::MakeObject();
        p["code"] = corpus.pes[i].pe_code;
        p["name"] = corpus.pes[i].name;
        p["description"] = corpus.pes[i].description;
        arr.push_back(std::move(p));
      }
      Value body = Value::MakeObject();
      body["pes"] = std::move(arr);
      corpus.bulk_bodies.push_back(body.ToJson());
    }
  }
  const auto& mix = config.workload.mix;
  const bool runs = std::any_of(mix.begin(), mix.end(), [](const auto& m) {
    return m.first == "/execute";
  });
  for (const auto& [name, input] : config.workload.inputs) {
    if (!runs) break;
    const laminar::client::DemoWorkflow* wf =
        laminar::client::FindDemoWorkflow(name);
    if (wf == nullptr) continue;
    Value body = Value::MakeObject();
    body["name"] = wf->name;
    body["spec"] = wf->spec;
    body["code"] = wf->code;
    Value pes = Value::MakeArray();
    for (const laminar::client::PeSource& pe : wf->pes) {
      Value p = Value::MakeObject();
      p["code"] = pe.code;
      if (!pe.name.empty()) p["name"] = pe.name;
      if (!pe.description.empty()) p["description"] = pe.description;
      pes.push_back(std::move(p));
    }
    body["pes"] = std::move(pes);
    corpus.workflow_bodies.push_back(body.ToJson());
  }
  return corpus;
}

RequestStream::RequestStream(const BenchConfig& config, const Corpus& corpus,
                             uint64_t seed, uint64_t phase)
    : config_(config),
      corpus_(corpus),
      rng_(laminar::hashing::SplitMix64(seed * 0x9e3779b97f4a7c15ULL + phase)) {
  char tag[48];
  std::snprintf(tag, sizeof tag, "S%llxP%llu",
                static_cast<unsigned long long>(seed),
                static_cast<unsigned long long>(phase));
  name_tag_ = tag;
  // Popularity ranks depend on the seed only, so every phase of a run asks
  // the same head queries.
  queries_ = QueryPool();
  laminar::Rng rank_rng(laminar::hashing::SplitMix64(seed ^ 0x51ab));
  rank_rng.Shuffle(queries_);
  double total = 0;
  for (size_t i = 0; i < queries_.size(); ++i) {
    total += 1.0 / std::pow(static_cast<double>(i + 1), kZipfExponent);
    zipf_cdf_.push_back(total);
  }
  for (double& c : zipf_cdf_) c /= total;
  // Registrations: fresh variants rendered from a seed disjoint from the
  // corpus seed.
  dataset::DatasetConfig dc;
  dc.variants_per_family = 8;
  dc.seed = laminar::hashing::SplitMix64(seed ^ 0xf7e54ULL) | 1;
  dc.docstring_probability = 1.0;
  fresh_ = dataset::CodeSearchNetPeDataset::Generate(dc).examples();
  rng_.Shuffle(fresh_);
  code_order_.resize(corpus_.pes.size());
  for (size_t i = 0; i < code_order_.size(); ++i) code_order_[i] = i;
  rng_.Shuffle(code_order_);
}

Request RequestStream::Next() {
  const WorkloadConfig& w = config_.workload;
  double u = rng_.NextDouble();
  std::string endpoint = w.mix.back().first;
  for (const auto& [path, share] : w.mix) {
    if (u < share) {
      endpoint = path;
      break;
    }
    u -= share;
  }
  const uint64_t n = count_++;
  if (endpoint == "/search/semantic") {
    size_t rank = static_cast<size_t>(
        std::lower_bound(zipf_cdf_.begin(), zipf_cdf_.end(),
                         rng_.NextDouble()) -
        zipf_cdf_.begin());
    rank = std::min(rank, queries_.size() - 1);
    Value body = Value::MakeObject();
    body["query"] = queries_[rank];
    body["target"] = "pe";
    return MakeRequest(endpoint, std::move(body), Kind::kRead,
                       laminar::hashing::Fnv1a64(queries_[rank]) | 1);
  }
  if (endpoint == "/search/code" || endpoint == "/search/complete") {
    // Fig. 12 protocol: a corpus PE with 0-50% of its body dropped from the
    // tail; each PE is used once, so every query is unique.
    size_t index = code_order_[code_next_++ % code_order_.size()];
    double drop = 0.5 * rng_.NextDouble();
    Request r = CodeRequest(
        endpoint, dataset::DropCode(corpus_.pes[index].pe_code, drop));
    r.key = laminar::hashing::Fnv1a64(r.body) | 1;
    return r;
  }
  if (endpoint == "/pes/register") {
    const dataset::PeExample& ex = fresh_[fresh_next_++ % fresh_.size()];
    Value body = Value::MakeObject();
    body["code"] = ex.pe_code;
    body["name"] = ex.name + name_tag_ + "N" + std::to_string(n);
    return MakeRequest(endpoint, std::move(body), Kind::kWrite);
  }
  if (endpoint == "/pes/get") {
    Value body = Value::MakeObject();
    body["id"] = static_cast<int64_t>(1 + rng_.NextBelow(corpus_.pes.size()));
    return MakeRequest(endpoint, std::move(body), Kind::kRead);
  }
  // /execute: a workflow at random, mappings in rotation.
  size_t workflow = rng_.NextBelow(corpus_.workflow_bodies.size());
  return ExecuteRequest(config_, workflow, static_cast<int>(n % 3));
}

Request HealthRequest() {
  return MakeRequest("/health", Value::MakeObject(), Kind::kHealth);
}

std::vector<Request> ProbeSet(const BenchConfig& config,
                              const Corpus& corpus) {
  std::vector<Request> probes;
  const auto& mix = config.workload.mix;
  auto has = [&](const char* endpoint) {
    return std::any_of(mix.begin(), mix.end(),
                       [&](const auto& m) { return m.first == endpoint; });
  };
  const size_t n = corpus.pes.size();
  if (has("/search/semantic")) {
    std::vector<std::string> pool = QueryPool();
    for (size_t i = 0; i < pool.size(); i += pool.size() / 12) {
      Value body = Value::MakeObject();
      body["query"] = pool[i];
      body["target"] = "pe";
      probes.push_back(MakeRequest("/search/semantic", std::move(body),
                                   Kind::kRead));
    }
  }
  for (const char* endpoint : {"/search/code", "/search/complete"}) {
    if (!has(endpoint)) continue;
    for (size_t i = 0; i < 6; ++i) {
      size_t index = (i * 997 + 13) % n;
      probes.push_back(CodeRequest(
          endpoint, dataset::DropCode(corpus.pes[index].pe_code, 0.1 * i)));
    }
  }
  if (has("/pes/get")) {
    for (size_t i = 0; i < 4; ++i) {
      Value body = Value::MakeObject();
      body["id"] = static_cast<int64_t>(1 + (i * 1499) % n);
      probes.push_back(MakeRequest("/pes/get", std::move(body), Kind::kRead));
    }
  }
  if (has("/execute")) {
    for (size_t wf = 0; wf < corpus.workflow_bodies.size(); ++wf) {
      for (int m = 0; m < 3; ++m) probes.push_back(ExecuteRequest(config, wf, m));
    }
  }
  return probes;
}

bool OrderDependentRun(const WorkloadConfig& workload,
                       const Request& request) {
  if (request.workflow < 0 || request.mapping != 2) return false;
  auto it = workload.inputs.begin();
  std::advance(it, request.workflow);
  return std::find(workload.order_dependent.begin(),
                   workload.order_dependent.end(),
                   it->first) != workload.order_dependent.end();
}

namespace {

/// Stdout lines of a streamed run, without the ##END## record.
std::vector<std::string> RunLines(const std::string& body,
                                  std::string* end_record) {
  std::vector<std::string> lines;
  for (std::string& line : laminar::strings::SplitLines(body)) {
    if (line.rfind(kEndMarker, 0) == 0) {
      if (end_record != nullptr) *end_record = line.substr(kEndMarker.size());
      continue;
    }
    lines.push_back(std::move(line));
  }
  return lines;
}

}  // namespace

std::string Canonical(const Request& request, int status,
                      const std::string& body) {
  if (status != 200) return "";
  if (request.path == "/execute") {
    std::string end;
    std::vector<std::string> lines = RunLines(body, &end);
    if (end.empty()) return "";
    std::sort(lines.begin(), lines.end());
    return laminar::strings::Join(lines, "\n");
  }
  Result<Value> doc = laminar::json::Parse(body);
  if (!doc.ok()) return "";
  std::string out;
  if (request.path == "/pes/get") {
    return doc->GetString("peName") + "\n" + doc->GetString("code");
  }
  const char* field =
      request.path == "/search/complete" ? "completions" : "hits";
  if (!doc->at(field).is_array()) return "";
  for (const Value& h : doc->at(field).as_array()) {
    out += h.GetString("name") + "\t" + Fmt(h.GetDouble("score")) + "\t" +
           h.GetString("continuation") + "\n";
  }
  return out.empty() ? "(no hits)" : out;
}

bool ResponseOk(const Request& request, int status, const std::string& body) {
  if (status != 200) return false;
  if (request.path == "/execute") {
    std::string end;
    std::vector<std::string> out = RunLines(body, &end);
    Result<Value> stats = laminar::json::Parse(end);
    return stats.ok() && !stats->contains("error") && !out.empty();
  }
  Result<Value> doc = laminar::json::Parse(body);
  if (!doc.ok()) return false;
  if (request.path == "/search/semantic") {
    return doc->at("hits").is_array() && doc->at("hits").size() > 0;
  }
  if (request.path == "/search/code") return doc->at("hits").is_array();
  if (request.path == "/search/complete") {
    return doc->at("completions").is_array();
  }
  if (request.path == "/pes/register") return doc->GetInt("peId") > 0;
  if (request.path == "/pes/get") return !doc->GetString("peName").empty();
  return doc->GetString("status") == "ok";  // /health
}

int64_t RegisteredId(const std::string& body) {
  Result<Value> doc = laminar::json::Parse(body);
  return doc.ok() ? doc->GetInt("peId") : 0;
}

}  // namespace e2e
