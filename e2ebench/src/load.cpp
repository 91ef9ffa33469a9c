#include "load.hpp"

#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <filesystem>
#include <functional>
#include <thread>
#include <unordered_set>

#include "common/json.hpp"
#include "common/strings.hpp"
#include "trace.hpp"

namespace e2e {

using laminar::Result;
using laminar::Status;

namespace {

constexpr double kDrainTimeoutS = 30.0;

double Ms(int64_t ns) { return static_cast<double>(ns) / 1e6; }

/// Poisson arrival offsets (ns) at `rps` over `seconds`.
std::vector<int64_t> Arrivals(laminar::Rng& rng, double rps, double seconds) {
  std::vector<int64_t> out;
  if (rps <= 0) return out;
  double t = 0;
  while (true) {
    t += -std::log(1.0 - rng.NextDouble()) / rps;
    if (t >= seconds) break;
    out.push_back(static_cast<int64_t>(t * 1e9));
  }
  return out;
}

/// The endpoint with the largest share: the one the workload is about.
std::string PrimaryEndpoint(const WorkloadConfig& w) {
  return std::max_element(w.mix.begin(), w.mix.end(),
                          [](const auto& a, const auto& b) {
                            return a.second < b.second;
                          })
      ->first;
}

void CollectRegistered(const Phase& phase, std::vector<int64_t>* ids) {
  for (size_t i = 0; i < phase.requests.size(); ++i) {
    if (phase.requests[i].path != "/pes/register" || !phase.ok[i]) continue;
    int64_t id = RegisteredId(phase.slots[i].body);
    if (id > 0) ids->push_back(id);
  }
}

struct Step {
  double rps = 0;
  double p50 = 0;
  double p99 = 0;
  double growth = 0;
  /// max(p99 / limit, backlog growth / allowed growth): the step meets the
  /// latency limit without a growing backlog iff badness <= 1.
  double badness = 0;
  bool pass = false;
};

}  // namespace

std::string EndpointTag(const std::string& path) {
  std::string tag = path.substr(path.find_first_not_of('/'));
  std::replace(tag.begin(), tag.end(), '/', '_');
  return tag;
}

void Seeded::Close() {
  conns.clear();
  if (server) server->Stop();
  if (!data_dir.empty()) {
    std::error_code ec;
    std::filesystem::remove_all(data_dir, ec);
    data_dir.clear();
  }
}

Result<std::unique_ptr<Seeded>> SpawnAndSeed(const RunContext& ctx, int rep) {
  auto seeded = std::make_unique<Seeded>();
  std::vector<std::string> args;
  if (ctx.config.workload.wal) {
    seeded->data_dir = ctx.work_dir + "/data_" + std::to_string(::getpid()) +
                       "_" + std::to_string(rep);
    std::error_code ec;
    std::filesystem::remove_all(seeded->data_dir, ec);
    std::filesystem::create_directories(seeded->data_dir, ec);
    args = {"--snapshot", seeded->data_dir + "/snapshot.json", "--wal",
            seeded->data_dir + "/wal.log"};
  }
  const int64_t start = NowNs();
  seeded->server = std::make_unique<ServerProcess>(ctx.serve_bin, args);
  if (!seeded->server->ok()) {
    return Status::Unavailable("laminar_serve: " + seeded->server->error());
  }
  for (int c = 0; c < ctx.connections; ++c) {
    std::string error;
    std::unique_ptr<WireConn> conn =
        WireConn::Dial(seeded->server->port(), &error);
    if (!conn) return Status::Unavailable("connect: " + error);
    seeded->conns.push_back(std::move(conn));
  }
  WireConn& setup = *seeded->conns[0];
  int64_t next_id = 1;
  for (const std::string& body : ctx.corpus.bulk_bodies) {
    CallResult r = setup.Call("/registry/bulk_register", body);
    Result<laminar::Value> doc = laminar::json::Parse(r.body);
    if (r.status != 200 || !doc.ok()) {
      return Status::Internal("bulk_register failed: HTTP " +
                              std::to_string(r.status));
    }
    for (const laminar::Value& id : doc->at("peIds").as_array()) {
      if (id.as_int() != next_id++) {
        return Status::Internal("bulk_register assigned unexpected ids");
      }
    }
  }
  if (next_id - 1 != static_cast<int64_t>(ctx.corpus.pes.size())) {
    return Status::Internal("bulk_register rejected PEs");
  }
  for (size_t i = 0; i < ctx.corpus.workflow_bodies.size(); ++i) {
    CallResult r = setup.Call("/workflows/register", ctx.corpus.workflow_bodies[i]);
    Result<laminar::Value> doc = laminar::json::Parse(r.body);
    if (r.status != 200 || !doc.ok() ||
        doc->GetInt("workflowId") != static_cast<int64_t>(i + 1)) {
      return Status::Internal("workflow registration failed: HTTP " +
                              std::to_string(r.status));
    }
  }
  // Set-up ends when the first workload request succeeds.
  RequestStream first_stream(ctx.config, ctx.corpus, ctx.seed, 0);
  Request first = first_stream.Next();
  CallResult r = setup.Call(first.path, first.body);
  if (!ResponseOk(first, r.status, r.body)) {
    return Status::Internal("first request " + first.path + " failed: HTTP " +
                            std::to_string(r.status));
  }
  if (first.path == "/pes/register") {
    (void)setup.Call("/pes/remove",
                     "{\"id\":" + std::to_string(RegisteredId(r.body)) + "}");
  }
  seeded->setup_s = static_cast<double>(NowNs() - start) / 1e9;
  seeded->setup_rss_mb = seeded->server->PeakRssMb();
  return seeded;
}

Phase OpenLoop::Run(RequestStream& stream, double rps, double seconds,
                    uint64_t arrival_seed) {
  Phase phase;
  phase.rps = rps;
  phase.seconds = seconds;
  laminar::Rng rng(arrival_seed);
  std::vector<int64_t> work = Arrivals(rng, rps, seconds);
  std::vector<int64_t> health = Arrivals(rng, kHealthRps, seconds);
  // Merge the two schedules; each arrival draws its request in due order.
  std::vector<std::pair<int64_t, bool>> due;
  for (int64_t t : work) due.push_back({t, false});
  for (int64_t t : health) due.push_back({t, true});
  std::sort(due.begin(), due.end());
  const size_t n = due.size();
  phase.requests.reserve(n);
  for (const auto& [t, is_health] : due) {
    phase.requests.push_back(is_health ? HealthRequest() : stream.Next());
  }
  phase.slots = std::vector<Slot>(n);
  phase.ok.assign(n, 0);
  const uint64_t base = next_base_;
  next_base_ += n;
  std::vector<std::string> frames(n);
  for (size_t i = 0; i < n; ++i) {
    frames[i] = EncodeRequest(2 * (base + i) + 1, phase.requests[i].path,
                              phase.requests[i].body);
  }
  std::atomic<size_t> completed{0};
  for (auto& conn : *conns_) conn->BindSlots(&phase.slots, base, &completed);

  const size_t conn_count = conns_->size();
  const int64_t start = NowNs() + 2'000'000;  // 2 ms to settle
  for (size_t i = 0; i < n; ++i) {
    Slot& slot = phase.slots[i];
    slot.due_ns = start + due[i].first;
    int64_t now = NowNs();
    if (now < slot.due_ns) {
      std::this_thread::sleep_for(std::chrono::nanoseconds(slot.due_ns - now));
    }
    slot.sent_ns = NowNs();
    slot.req_bytes = static_cast<uint32_t>(frames[i].size());
    if ((*conns_)[i % conn_count]->Write(frames[i])) ++phase.written;
    phase.backlog.push_back(static_cast<uint32_t>(
        phase.written - std::min(phase.written, completed.load())));
  }
  const int64_t end_of_sending = NowNs();
  // Drain: every written request must be answered.
  const int64_t drain_deadline =
      end_of_sending + static_cast<int64_t>(kDrainTimeoutS * 1e9);
  while (completed.load(std::memory_order_acquire) < phase.written) {
    if (NowNs() > drain_deadline) {
      phase.drained = false;
      break;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  // Unbind before the slots can move; stragglers are then ignored.
  for (auto& conn : *conns_) conn->BindSlots(nullptr, 0, nullptr);
  for (size_t i = 0; i < n; ++i) {
    const Slot& slot = phase.slots[i];
    phase.ok[i] = slot.done.load(std::memory_order_acquire) &&
                  ResponseOk(phase.requests[i], slot.status, slot.body);
  }
  return phase;
}

std::vector<double> Phase::Latencies(Kind kind, bool first_line) const {
  std::vector<double> out;
  for (size_t i = 0; i < requests.size(); ++i) {
    if (requests[i].kind != kind) continue;
    const Slot& s = slots[i];
    int64_t at = first_line ? s.first_data_ns : s.end_ns;
    out.push_back(ok[i] && at > 0 ? Ms(at - s.due_ns) : kInf);
  }
  return out;
}

std::vector<double> Phase::Latencies(const std::string& path) const {
  std::vector<double> out;
  for (size_t i = 0; i < requests.size(); ++i) {
    if (requests[i].path != path) continue;
    out.push_back(ok[i] ? Ms(slots[i].end_ns - slots[i].due_ns) : kInf);
  }
  return out;
}

size_t Phase::Failures() const {
  return static_cast<size_t>(std::count(ok.begin(), ok.end(), 0));
}

std::vector<double> Phase::Lateness() const {
  std::vector<double> out;
  for (const Slot& s : slots) out.push_back(Ms(s.sent_ns - s.due_ns));
  return out;
}

double Phase::BacklogGrowth() const {
  const size_t n = backlog.size();
  if (n < 8) return 0;
  auto mean = [&](size_t from, size_t to) {
    double sum = 0;
    for (size_t i = from; i < to; ++i) sum += backlog[i];
    return sum / static_cast<double>(to - from);
  };
  return mean(3 * n / 4, n) - mean(n / 4, n / 2);
}

std::map<std::string, double> ServerMeans(const std::string& before,
                                          const std::string& after) {
  // name{path="/x"} value  ->  (path, value)
  auto parse = [](const std::string& text, const char* suffix) {
    std::map<std::string, double> out;
    const std::string prefix =
        std::string("laminar_server_request_ms") + suffix + "{path=\"";
    for (const std::string& line : laminar::strings::SplitLines(text)) {
      if (line.rfind(prefix, 0) != 0) continue;
      size_t quote = line.find('"', prefix.size());
      size_t space = line.rfind(' ');
      if (quote == std::string::npos || space == std::string::npos) continue;
      out[line.substr(prefix.size(), quote - prefix.size())] =
          std::atof(line.c_str() + space + 1);
    }
    return out;
  };
  auto sum0 = parse(before, "_sum");
  auto cnt0 = parse(before, "_count");
  auto sum1 = parse(after, "_sum");
  auto cnt1 = parse(after, "_count");
  std::map<std::string, double> means;
  for (const auto& [path, count] : cnt1) {
    double dc = count - cnt0[path];
    if (dc > 0) means[path] = (sum1[path] - sum0[path]) / dc;
  }
  return means;
}

void ReportTraffic(const Phase& phase, const RunContext& ctx, Report* report) {
  std::map<std::string, size_t> per_endpoint;
  size_t total = 0;
  size_t keyed = 0;
  size_t repeats = 0;
  std::unordered_set<uint64_t> seen;
  std::vector<double> req_bytes;
  std::vector<double> resp_bytes;
  std::vector<double> health_rtt;
  for (size_t i = 0; i < phase.requests.size(); ++i) {
    const Request& r = phase.requests[i];
    const Slot& s = phase.slots[i];
    if (r.kind == Kind::kHealth) {
      if (phase.ok[i]) health_rtt.push_back(Ms(s.end_ns - s.sent_ns));
      continue;
    }
    ++total;
    ++per_endpoint[r.path];
    if (r.key != 0) {
      ++keyed;
      if (!seen.insert(r.key).second) ++repeats;
    }
    req_bytes.push_back(s.req_bytes);
    resp_bytes.push_back(s.resp_bytes);
  }
  report->Add("gen.offered_rps", static_cast<double>(total) / phase.seconds,
              "req/s");
  report->Add("gen.late_p99_ms", Quantile(phase.Lateness(), 0.99), "ms");
  for (const auto& [path, share] : ctx.config.workload.mix) {
    report->Add("gen.mix_share." + EndpointTag(path),
                total ? static_cast<double>(per_endpoint[path]) / total : 0,
                "ratio");
  }
  report->Add("gen.repeat_share",
              keyed ? static_cast<double>(repeats) / keyed : 0, "ratio");
  report->Add("gen.threads_plus_conns", 1.0 + ctx.connections, "count");
  report->Add("net.health_rtt_p50_ms", Quantile(health_rtt, 0.5), "ms");
  report->Add("net.req_bytes_mean", Mean(req_bytes), "B");
  report->Add("net.resp_bytes_mean", Mean(resp_bytes), "B");
}

/// The rate ladder: coarse steps at multiples of the fixed rate until the
/// first step that misses the latency limit or grows a backlog, then
/// bisection. Returns sustainable_rps.
double MeasureSustainable(const RunContext& ctx, OpenLoop& loop,
                          const std::function<void(const Phase&)>& account,
                          uint64_t arrival_seed, Report& report) {
  const BenchConfig& config = ctx.config;
  const WorkloadConfig& w = config.workload;
  const bool first_line = w.limited == Kind::kRun;
  RequestStream ladder_stream(config, ctx.corpus, ctx.seed, 2);
  uint64_t step_count = 0;
  auto run_step = [&](double rps) {
    Phase p = loop.Run(ladder_stream, rps, config.step_s,
                       arrival_seed + 100 + step_count++);
    account(p);
    std::vector<double> lat = p.Latencies(w.limited, first_line);
    Step s;
    s.rps = rps;
    s.p50 = Quantile(lat, 0.5);
    s.p99 = Quantile(lat, 0.99);
    s.growth = p.BacklogGrowth();
    // A queue that keeps up holds a steady backlog; allow it to grow by a
    // tenth of the arrivals between the two quarters it is compared over.
    const double allowed = std::max(4.0, 0.1 * rps * config.step_s / 2);
    s.badness = std::max(s.p99 / w.limit_ms, s.growth / allowed);
    s.pass = p.drained && s.badness <= 1.0;
    char line[192];
    std::snprintf(line, sizeof line,
                  "ladder rps=%.1f p50_ms=%.3f p99_ms=%.3f backlog_growth=%.1f "
                  "badness=%.3f %s",
                  rps, s.p50, s.p99, s.growth, s.badness,
                  s.pass ? "pass" : "fail");
    report.Note(line);
    return s;
  };
  Step lo, hi;  // last passing and first failing step
  bool have_lo = false;
  bool have_hi = false;
  for (double m : w.ladder) {
    Step s = run_step(m * w.fixed_rps);
    if (!s.pass) {
      hi = s;
      have_hi = true;
      break;
    }
    lo = s;
    have_lo = true;
  }
  for (int b = 0; b < config.bisect_steps && have_lo && have_hi; ++b) {
    Step s = run_step(0.5 * (lo.rps + hi.rps));
    (s.pass ? lo : hi) = s;
  }
  // Interpolate where badness crosses 1, so the value is continuous.
  double sustainable;
  if (!have_lo) {
    sustainable = hi.rps / std::max(1.0, hi.badness);
  } else if (!have_hi) {
    sustainable = lo.rps;  // the ladder's top passed: a floor
    report.Note("every ladder step passed; sustainable_rps is a lower bound");
  } else {
    const double b_hi = std::min(hi.badness, 4.0);
    const double frac =
        b_hi > lo.badness
            ? std::clamp((1.0 - lo.badness) / (b_hi - lo.badness), 0.0, 1.0)
            : 0.0;
    sustainable = lo.rps + frac * (hi.rps - lo.rps);
  }
  return sustainable;
}

int RunEndToEnd(const RunContext& ctx, const std::vector<std::string>& keys) {
  const BenchConfig& config = ctx.config;
  const WorkloadConfig& w = config.workload;
  Report report;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  bool valid = true;

  const std::vector<Request> probes = ProbeSet(config, ctx.corpus);
  Result<std::vector<std::string>> reference = ReferenceAnswers(ctx, probes);
  if (!reference.ok()) {
    std::fprintf(stderr, "e2ebench: reference: %s\n",
                 reference.status().ToString().c_str());
    return 1;
  }

  // Set-up, several times; the last server carries the load.
  std::vector<double> setups;
  std::vector<double> setup_rss;
  std::unique_ptr<Seeded> live;
  for (int rep = 0; rep < config.setup_reps; ++rep) {
    Result<std::unique_ptr<Seeded>> seeded = SpawnAndSeed(ctx, rep);
    if (!seeded.ok()) {
      std::fprintf(stderr, "e2ebench: set-up: %s\n",
                   seeded.status().ToString().c_str());
      return 1;
    }
    setups.push_back(seeded.value()->setup_s);
    setup_rss.push_back(seeded.value()->setup_rss_mb);
    live = std::move(seeded.value());
    if (rep + 1 < config.setup_reps) live.reset();
  }
  report.Add("setup_s", Quantile(setups, 0.5), "s");
  // Peak RSS of the seeded server, median over the set-ups: the corpus
  // footprint, before load adds per-request memory that depends on how
  // many requests happen to overlap.
  report.Add("rss_mb", Quantile(setup_rss, 0.5), "MB");
  for (double s : setups) report.Note("setup_rep_s " + std::to_string(s));

  OpenLoop loop(ctx, &live->conns);
  std::vector<int64_t> registered;
  auto account = [&](const Phase& p) {
    attempted += p.requests.size();
    failed += p.Failures();
    if (!p.drained) valid = false;
    CollectRegistered(p, &registered);
  };
  const uint64_t arrival_seed = ctx.seed * 0x2545f4914f6cdd1dULL;

  // Warm-up at the fixed rate (not measured).
  {
    RequestStream stream(config, ctx.corpus, ctx.seed, 1);
    account(loop.Run(stream, w.fixed_rps, config.warmup_s, arrival_seed + 1));
  }

  // The measured phase at the fixed offered rate.
  const std::string metrics_before = live->conns[0]->Call("/metrics", "").body;
  RequestStream fixed_stream(config, ctx.corpus, ctx.seed, 3);
  Phase fixed =
      loop.Run(fixed_stream, w.fixed_rps, ctx.seconds, arrival_seed + 3);
  const std::string metrics_after = live->conns[0]->Call("/metrics", "").body;
  account(fixed);
  // Peak RSS through the measured phase; read before the ladder, whose
  // overloaded steps would make it depend on how deep they queued.
  report.Add("rss_peak_mb", live->server->PeakRssMb(), "MB");

  // The ladder runs after the measured phase, so its overloaded steps
  // cannot disturb the measured numbers.
  report.Add("sustainable_rps",
             MeasureSustainable(ctx, loop, account, arrival_seed, report),
             "req/s");

  // Gated latencies: every workload request, due time to END frame.
  std::vector<double> all;
  for (Kind k : {Kind::kRead, Kind::kWrite, Kind::kRun}) {
    std::vector<double> lat = fixed.Latencies(k);
    all.insert(all.end(), lat.begin(), lat.end());
  }
  report.Add("p50_ms", Quantile(all, 0.5), "ms");
  report.Add("p90_ms", Quantile(all, 0.90), "ms");
  report.Add("p99_ms", Quantile(all, 0.99), "ms");
  report.Add("samples", static_cast<double>(all.size()), "count");
  // The per-class metrics of the workload's traffic.
  for (Kind k : {Kind::kRead, Kind::kWrite}) {
    std::vector<double> lat = fixed.Latencies(k);
    if (lat.empty()) continue;
    report.Add(std::string(KindName(k)) + "_p50_ms", Quantile(lat, 0.5), "ms");
    report.Add(std::string(KindName(k)) + "_p99_ms", Quantile(lat, 0.99), "ms");
  }
  if (!fixed.Latencies(Kind::kRun).empty()) {
    std::vector<double> first = fixed.Latencies(Kind::kRun, true);
    std::vector<double> run = fixed.Latencies(Kind::kRun);
    report.Add("first_line_p50_ms", Quantile(first, 0.5), "ms");
    report.Add("first_line_p99_ms", Quantile(first, 0.99), "ms");
    report.Add("run_p50_ms", Quantile(run, 0.5), "ms");
    report.Add("run_p99_ms", Quantile(run, 0.99), "ms");
  }
  ReportTraffic(fixed, ctx, &report);
  const std::string primary = PrimaryEndpoint(w);
  std::map<std::string, double> server_means =
      ServerMeans(metrics_before, metrics_after);
  for (const auto& [path, mean] : server_means) {
    report.Add("server.request_ms_mean." + EndpointTag(path), mean, "ms");
  }
  {
    std::vector<double> client;
    for (size_t i = 0; i < fixed.requests.size(); ++i) {
      if (fixed.requests[i].path == primary && fixed.ok[i]) {
        client.push_back(Ms(fixed.slots[i].end_ns - fixed.slots[i].sent_ns));
      }
    }
    if (server_means.count(primary)) {
      report.Add("net.queue_ms_mean", Mean(client) - server_means[primary],
                 "ms");
    }
  }

  // Generator self-checks.
  const double late_p99 = Quantile(fixed.Lateness(), 0.99);
  if (late_p99 > kLateFrac * w.limit_ms) {
    report.Note("INVALID: generator late p99 " + std::to_string(late_p99) +
                " ms exceeds " + std::to_string(kLateFrac) +
                " x the latency limit");
    valid = false;
  }
  if (1 + ctx.connections > ctx.nproc) {
    report.Note("INVALID: generator threads plus connections exceed nproc");
    valid = false;
  }

  // Correctness gate: take the registrations back out, then the probe set
  // must match the in-process reference.
  WireConn& call = *live->conns[0];
  for (int64_t id : registered) {
    CallResult r = call.Call("/pes/remove", "{\"id\":" + std::to_string(id) + "}");
    if (r.status != 200) {
      report.Note("cleanup: /pes/remove " + std::to_string(id) + " failed");
      ++failed;
    }
  }
  size_t mismatches = 0;
  const std::vector<std::string>& ref = reference.value();
  for (size_t i = 0; i < probes.size(); ++i) {
    ++attempted;
    CallResult r = call.Call(probes[i].path, probes[i].body);
    std::string got = Canonical(probes[i], r.status, r.body);
    bool match = !got.empty() && got == ref[i];
    if (probes[i].mapping > 0) {
      // Streamed runs: every mapping yields the simple mapping's lines.
      const std::string& simple = ref[i - static_cast<size_t>(probes[i].mapping)];
      match = !got.empty() && got == simple;
      if (OrderDependentRun(w, probes[i])) {
        match = ResponseOk(probes[i], r.status, r.body);
      }
    }
    if (!match) {
      ++mismatches;
      report.Note("probe mismatch: " + probes[i].path + " " +
                  probes[i].body.substr(0, 80));
    }
  }
  failed += mismatches;
  report.Add("probe_mismatches", static_cast<double>(mismatches), "count");

  live->Close();
  report.Add("fail_frac",
             attempted ? static_cast<double>(failed) / attempted : 0, "ratio");

  const bool correct = valid && failed == 0;
  report.PrintLines();
  report.PrintResult(correct, attempted, failed, keys);
  return correct ? 0 : 1;
}

}  // namespace e2e
