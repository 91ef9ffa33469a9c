// Server-level telemetry tests: the GET /metrics Prometheus scrape, the
// telemetry block of POST /stats, and the guarantee that the /execute
// ##END## totals and the /stats metrics are read from the same registry.
//
// The registry is process-wide, so all assertions are monotonic (>=) or
// compare two views captured at the same moment — other tests in this
// binary may also have executed workflows.
#include <gtest/gtest.h>

#include <string>

#include "client/connect.hpp"
#include "client/demo_workflows.hpp"
#include "telemetry/telemetry.hpp"

namespace laminar::client {
namespace {

server::ServerConfig FastServer() {
  server::ServerConfig config;
  config.engine.cold_start_ms = 0;
  return config;
}

/// Value of `name{labels} N` in a Prometheus text scrape; -1 when absent.
int64_t ScrapeValue(const std::string& text, const std::string& series) {
  const std::string needle = series + " ";
  size_t start = 0;
  while ((start = text.find(needle, start)) != std::string::npos) {
    // Must be at the start of a line.
    if (start != 0 && text[start - 1] != '\n') {
      ++start;
      continue;
    }
    size_t value_at = start + needle.size();
    return std::stoll(text.substr(value_at));
  }
  return -1;
}

TEST(TelemetryServer, ExecuteThenScrapeShowsActivity) {
  InProcessLaminar laminar = ConnectInProcess(FastServer());
  const DemoWorkflow* demo = FindDemoWorkflow("isprime_wf");
  ASSERT_NE(demo, nullptr);
  Result<WorkflowInfo> wf = laminar.client->RegisterWorkflow(
      demo->name, demo->spec, demo->pes, demo->code);
  ASSERT_TRUE(wf.ok());

  RunOutcome outcome = laminar.client->Run(wf->id, Value(10));
  ASSERT_TRUE(outcome.status.ok());

  Result<std::string> metrics = laminar.client->GetMetrics();
  ASSERT_TRUE(metrics.ok());
  const std::string& text = metrics.value();

  // Executions were counted.
  EXPECT_GE(ScrapeValue(text, "laminar_engine_executions_total{result=\"ok\"}"),
            1);
  // The cold-start histogram has at least one sample (this run started at
  // least one instance cold).
  EXPECT_GE(ScrapeValue(text, "laminar_engine_cold_start_ms_count"), 1);
  // Per-endpoint request counters: the /execute call itself plus the
  // /metrics scrape we are reading were both counted.
  EXPECT_GE(
      ScrapeValue(text, "laminar_server_requests_total{path=\"/execute\"}"),
      1);
  EXPECT_GE(
      ScrapeValue(text, "laminar_server_requests_total{path=\"/metrics\"}"),
      1);
  // The mapping layer and the broker were exercised too.
  EXPECT_GE(ScrapeValue(
                text, "laminar_dataflow_enactments_total{mapping=\"simple\"}"),
            1);
  // Exposition is well-formed Prometheus text.
  EXPECT_NE(text.find("# TYPE laminar_engine_executions_total counter"),
            std::string::npos);
  EXPECT_NE(text.find("laminar_engine_run_ms_bucket{le=\"+Inf\"}"),
            std::string::npos);
}

TEST(TelemetryServer, UnknownPathsCollapseToOther) {
  InProcessLaminar laminar = ConnectInProcess(FastServer());
  net::HttpRequest req;
  req.path = "/definitely/not/an/endpoint";
  (void)laminar.client_side->Call(req);

  Result<std::string> metrics = laminar.client->GetMetrics();
  ASSERT_TRUE(metrics.ok());
  EXPECT_GE(
      ScrapeValue(*metrics, "laminar_server_requests_total{path=\"other\"}"),
      1);
  // The unknown path itself must NOT appear as a label.
  EXPECT_EQ(metrics->find("/definitely/not/an/endpoint"), std::string::npos);
}

TEST(TelemetryServer, StatsCarriesTelemetryView) {
  InProcessLaminar laminar = ConnectInProcess(FastServer());
  const DemoWorkflow* demo = FindDemoWorkflow("isprime_wf");
  Result<WorkflowInfo> wf = laminar.client->RegisterWorkflow(
      demo->name, demo->spec, demo->pes, demo->code);
  ASSERT_TRUE(wf.ok());
  ASSERT_TRUE(laminar.client->Run(wf->id, Value(5)).status.ok());

  Result<Value> stats = laminar.client->GetStats();
  ASSERT_TRUE(stats.ok());

  // Pre-existing fields still served.
  EXPECT_EQ(stats->GetInt("pes"), 3);
  EXPECT_EQ(stats->GetInt("workflows"), 1);

  // Process-wide execution counts come from the registry under "metrics",
  // not from a second copy in the body.
  EXPECT_FALSE(stats->contains("totals"));
  EXPECT_FALSE(stats->contains("net"));
  EXPECT_FALSE(stats->at("search").contains("simd"));
  const Value& counters = stats->at("metrics").at("counters");
  EXPECT_GE(counters.GetInt("laminar_engine_executions_total{result=\"ok\"}"),
            1);
  EXPECT_GE(counters.GetInt("laminar_engine_cold_starts_total"), 1);
  EXPECT_GT(counters.GetInt("laminar_engine_tuples_total"), 0);
  const Value& run_ms =
      stats->at("metrics").at("histograms").at("laminar_engine_run_ms");
  EXPECT_GE(run_ms.GetDouble("p95"), run_ms.GetDouble("p50"));

  // Full metric dump and recent trace spans ride along.
  EXPECT_TRUE(stats->at("metrics").at("counters").is_object());
  EXPECT_TRUE(stats->at("trace").is_array());
  EXPECT_GT(stats->at("trace").as_array().size(), 0u);
}

TEST(TelemetryServer, EndChunkTotalsMatchStatsTotals) {
  InProcessLaminar laminar = ConnectInProcess(FastServer());
  const DemoWorkflow* demo = FindDemoWorkflow("isprime_wf");
  Result<WorkflowInfo> wf = laminar.client->RegisterWorkflow(
      demo->name, demo->spec, demo->pes, demo->code);
  ASSERT_TRUE(wf.ok());

  RunOutcome outcome = laminar.client->Run(wf->id, Value(8));
  ASSERT_TRUE(outcome.status.ok());
  ASSERT_TRUE(outcome.stats.contains("totals"));
  const Value& end_totals = outcome.stats.at("totals");

  Result<Value> stats = laminar.client->GetStats();
  ASSERT_TRUE(stats.ok());
  const Value& counters = stats->at("metrics").at("counters");

  // Same registry, and nothing executed in between: the ##END## totals
  // must equal the counters /stats serves under "metrics" exactly.
  EXPECT_EQ(end_totals.GetInt("executionsOk"),
            counters.GetInt("laminar_engine_executions_total{result=\"ok\"}"));
  EXPECT_EQ(
      end_totals.GetInt("executionsError"),
      counters.GetInt("laminar_engine_executions_total{result=\"error\"}"));
  EXPECT_EQ(end_totals.GetInt("tuplesTotal"),
            counters.GetInt("laminar_engine_tuples_total"));
  EXPECT_EQ(end_totals.GetInt("coldStartsTotal"),
            counters.GetInt("laminar_engine_cold_starts_total"));
  EXPECT_EQ(end_totals.GetInt("linesTotal"),
            counters.GetInt("laminar_engine_output_lines_total"));
  // And the per-run fields still exist alongside.
  EXPECT_GT(outcome.stats.GetInt("tuples"), 0);
}

TEST(TelemetryServer, SearchQueriesAreCounted) {
  InProcessLaminar laminar = ConnectInProcess(FastServer());
  const DemoWorkflow* demo = FindDemoWorkflow("isprime_wf");
  ASSERT_TRUE(laminar.client
                  ->RegisterWorkflow(demo->name, demo->spec, demo->pes,
                                     demo->code)
                  .ok());
  ASSERT_TRUE(
      laminar.client->SearchRegistrySemantic("prime numbers", "pe").ok());
  ASSERT_TRUE(laminar.client->SearchRegistryLiteral("prime", "pe").ok());

  Result<std::string> metrics = laminar.client->GetMetrics();
  ASSERT_TRUE(metrics.ok());
  EXPECT_GE(
      ScrapeValue(*metrics, "laminar_search_queries_total{kind=\"semantic\"}"),
      1);
  EXPECT_GE(
      ScrapeValue(*metrics, "laminar_search_queries_total{kind=\"literal\"}"),
      1);
  EXPECT_GE(ScrapeValue(*metrics,
                        "laminar_embed_encodes_total{model=\"unixcoder\"}"),
            1);
}

TEST(TelemetryServer, QueryCacheCountersExposedInMetrics) {
  InProcessLaminar laminar = ConnectInProcess(FastServer());
  ASSERT_TRUE(laminar.client
                  ->RegisterPe(
                      "class CacheProbe(IterativePE):\n"
                      "    def _process(self, x):\n        return x\n",
                      "CacheProbe")
                  .ok());
  Result<std::string> before = laminar.client->GetMetrics();
  ASSERT_TRUE(before.ok());
  // Both series exist in the scrape even before any query runs.
  int64_t hits0 =
      ScrapeValue(*before, "laminar_search_query_cache_hits_total");
  int64_t misses0 =
      ScrapeValue(*before, "laminar_search_query_cache_misses_total");
  ASSERT_GE(hits0, 0);
  ASSERT_GE(misses0, 0);

  // Same query twice: one miss (first encode), then one hit.
  ASSERT_TRUE(
      laminar.client->SearchRegistrySemantic("probe the cache", "pe").ok());
  ASSERT_TRUE(
      laminar.client->SearchRegistrySemantic("probe the cache", "pe").ok());
  Result<std::string> after = laminar.client->GetMetrics();
  ASSERT_TRUE(after.ok());
  EXPECT_GE(ScrapeValue(*after, "laminar_search_query_cache_misses_total"),
            misses0 + 1);
  EXPECT_GE(ScrapeValue(*after, "laminar_search_query_cache_hits_total"),
            hits0 + 1);
}

}  // namespace
}  // namespace laminar::client
