// Tests for the server's operational endpoints: /stats, /registry/save,
// /registry/load, plus error-path behaviour of the protocol layer.
#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <string>
#include <vector>

#include "client/connect.hpp"
#include "client/demo_workflows.hpp"
#include "common/json.hpp"
#include "registry/schema.hpp"

namespace laminar::client {
namespace {

server::ServerConfig FastServer() {
  server::ServerConfig config;
  config.engine.cold_start_ms = 0;
  return config;
}

TEST(ServerExtras, StatsReflectActivity) {
  InProcessLaminar laminar = ConnectInProcess(FastServer());
  const DemoWorkflow* demo = FindDemoWorkflow("isprime_wf");
  Result<WorkflowInfo> wf = laminar.client->RegisterWorkflow(
      demo->name, demo->spec, demo->pes, demo->code);
  ASSERT_TRUE(wf.ok());
  (void)laminar.client->RunDynamic(wf->id, Value(10));

  Result<Value> stats = laminar.client->GetStats();
  ASSERT_TRUE(stats.ok());
  EXPECT_EQ(stats->GetInt("pes"), 3);
  EXPECT_EQ(stats->GetInt("workflows"), 1);
  // The dynamic run went through the engine's broker.
  EXPECT_GT(stats->at("broker").GetInt("pushes"), 0);
  EXPECT_GT(stats->at("engine").GetInt("warmInstances"), 0);
}

TEST(ServerExtras, SaveAndLoadRoundTrip) {
  namespace fs = std::filesystem;
  std::string path =
      (fs::temp_directory_path() / "laminar_server_snapshot.json").string();

  {
    InProcessLaminar laminar = ConnectInProcess(FastServer());
    const DemoWorkflow* demo = FindDemoWorkflow("anomaly_wf");
    ASSERT_TRUE(laminar.client
                    ->RegisterWorkflow(demo->name, demo->spec, demo->pes,
                                       demo->code)
                    .ok());
    ASSERT_TRUE(laminar.client->SaveRegistry(path).ok());
  }
  {
    InProcessLaminar laminar = ConnectInProcess(FastServer());
    ASSERT_TRUE(laminar.client->LoadRegistry(path).ok());
    // Registry content restored...
    Result<WorkflowInfo> wf = laminar.client->GetWorkflowByName("anomaly_wf");
    ASSERT_TRUE(wf.ok());
    // ...search reindexed...
    auto hits = laminar.client->SearchRegistrySemantic(
        "a pe that is able to detect anomalies", "pe", 3);
    ASSERT_TRUE(hits.ok());
    ASSERT_FALSE(hits->empty());
    EXPECT_NE(hits->front().name.find("Anomaly"), std::string::npos);
    // ...and the restored workflow still runs.
    RunOutcome outcome = laminar.client->Run(wf->id, Value(50));
    EXPECT_TRUE(outcome.status.ok()) << outcome.status.ToString();
  }
  std::remove(path.c_str());
}

TEST(ServerExtras, RowCountsInStatsAndLoadMatchTheRegistry) {
  // /stats and /registry/load report row counts straight from the tables;
  // they must agree with the rows a full registry listing returns, through
  // registrations, removals and a save/load cycle.
  namespace fs = std::filesystem;
  std::string path =
      (fs::temp_directory_path() / "laminar_server_counts.json").string();
  auto expect_counts = [](LaminarClient& client, const Value& counts) {
    auto registry = client.GetRegistry();
    ASSERT_TRUE(registry.ok());
    EXPECT_EQ(counts.GetInt("pes", -1),
              static_cast<int64_t>(registry->first.size()));
    EXPECT_EQ(counts.GetInt("workflows", -1),
              static_cast<int64_t>(registry->second.size()));
  };
  {
    InProcessLaminar laminar = ConnectInProcess(FastServer());
    for (const char* name : {"isprime_wf", "anomaly_wf"}) {
      const DemoWorkflow* demo = FindDemoWorkflow(name);
      ASSERT_TRUE(laminar.client
                      ->RegisterWorkflow(demo->name, demo->spec, demo->pes,
                                         demo->code)
                      .ok());
    }
    Result<PeInfo> extra = laminar.client->RegisterPe(
        "class Extra:\n    def process(self, x):\n        return x\n");
    ASSERT_TRUE(extra.ok());
    Result<PeInfo> gone = laminar.client->RegisterPe(
        "class Gone:\n    def process(self, x):\n        return x\n");
    ASSERT_TRUE(gone.ok());
    ASSERT_TRUE(laminar.client->RemovePe(gone->id).ok());
    Result<Value> stats = laminar.client->GetStats();
    ASSERT_TRUE(stats.ok());
    EXPECT_EQ(stats->GetInt("workflows"), 2);
    expect_counts(*laminar.client, *stats);
    ASSERT_TRUE(laminar.client->SaveRegistry(path).ok());
  }
  {
    InProcessLaminar laminar = ConnectInProcess(FastServer());
    Value body = Value::MakeObject();
    body["path"] = path;
    Result<Value> loaded = laminar.client->CallEndpoint("/registry/load", body);
    ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
    expect_counts(*laminar.client, *loaded);
    Result<Value> stats = laminar.client->GetStats();
    ASSERT_TRUE(stats.ok());
    EXPECT_EQ(stats->GetInt("pes"), loaded->GetInt("pes"));
    EXPECT_EQ(stats->GetInt("workflows"), loaded->GetInt("workflows"));
  }
  std::remove(path.c_str());
}

TEST(ServerExtras, LoadWithABadRowInTheLastTableChangesNothing) {
  // The snapshot empties the PE table, and its last table (responses) holds
  // a row with no primary key. The load must fail before it replaces any
  // table, so the registry and its search indexes stay as they were.
  namespace fs = std::filesystem;
  const std::string saved =
      (fs::temp_directory_path() / "laminar_server_bad_load_src.json")
          .string();
  const std::string crafted =
      (fs::temp_directory_path() / "laminar_server_bad_load.json").string();
  InProcessLaminar laminar = ConnectInProcess(FastServer());
  const DemoWorkflow* demo = FindDemoWorkflow("anomaly_wf");
  ASSERT_TRUE(laminar.client
                  ->RegisterWorkflow(demo->name, demo->spec, demo->pes,
                                     demo->code)
                  .ok());
  laminar.client->SetTenant("alice");
  ASSERT_TRUE(laminar.client
                  ->RegisterPe("class Own:\n    def process(self, x):\n"
                               "        return x\n")
                  .ok());
  laminar.client->SetTenant("");
  ASSERT_TRUE(laminar.client->SaveRegistry(saved).ok());
  {
    std::ifstream in(saved);
    std::string text((std::istreambuf_iterator<char>(in)),
                     std::istreambuf_iterator<char>());
    Result<Value> doc = json::Parse(text);
    ASSERT_TRUE(doc.ok());
    (*doc)[registry::kPeTable]["rows"] = Value::MakeArray();
    Value bad_row = Value::MakeObject();
    bad_row["executionId"] = 1;
    (*doc)[registry::kResponseTable]["rows"].push_back(std::move(bad_row));
    std::ofstream(crafted) << doc->ToJson();
  }

  auto observe = [&] {
    Value seen = Value::MakeObject();
    Result<Value> list =
        laminar.client->CallEndpoint("/registry/list", Value::MakeObject());
    Value query = Value::MakeObject();
    query["query"] = "a pe that is able to detect anomalies";
    Result<Value> search =
        laminar.client->CallEndpoint("/search/semantic", query);
    Result<Value> stats = laminar.client->GetStats();
    EXPECT_TRUE(list.ok() && search.ok() && stats.ok());
    if (!list.ok() || !search.ok() || !stats.ok()) return seen;
    seen["list"] = list.value();
    seen["search"] = search.value();
    seen["pes"] = stats->at("pes");
    seen["workflows"] = stats->at("workflows");
    for (const auto& [tenant, t] : stats->at("tenants").as_object()) {
      seen["tenants"][tenant]["pes"] = t.at("pes");
      seen["tenants"][tenant]["workflows"] = t.at("workflows");
    }
    return seen;
  };
  const Value before = observe();
  ASSERT_FALSE(before.at("search").at("hits").as_array().empty())
      << before.ToJson();
  Status st = laminar.client->LoadRegistry(crafted);
  EXPECT_FALSE(st.ok());
  EXPECT_NE(st.ToString().find("primary key"), std::string::npos)
      << st.ToString();
  EXPECT_EQ(observe().ToJson(), before.ToJson());
  std::remove(saved.c_str());
  std::remove(crafted.c_str());
}

TEST(ServerExtras, SaveRequiresPath) {
  InProcessLaminar laminar = ConnectInProcess(FastServer());
  EXPECT_FALSE(laminar.client->SaveRegistry("").ok());
}

TEST(ServerExtras, LoadMissingFileFails) {
  InProcessLaminar laminar = ConnectInProcess(FastServer());
  Status st = laminar.client->LoadRegistry("/definitely/not/here.json");
  EXPECT_FALSE(st.ok());
  EXPECT_EQ(st.code(), StatusCode::kNotFound);
}

TEST(ServerExtras, UnknownEndpointIs404) {
  InProcessLaminar laminar = ConnectInProcess(FastServer());
  net::HttpRequest req;
  req.path = "/no/such/endpoint";
  auto resp = laminar.client_side->Call(req);
  ASSERT_TRUE(resp.ok());
  EXPECT_EQ(resp->first, 404);
}

TEST(ServerExtras, MalformedJsonBodyIs400) {
  InProcessLaminar laminar = ConnectInProcess(FastServer());
  net::HttpRequest req;
  req.path = "/pes/get";
  req.body = "{not json";
  auto resp = laminar.client_side->Call(req);
  ASSERT_TRUE(resp.ok());
  EXPECT_EQ(resp->first, 400);
}

TEST(ServerExtras, HealthEndpoint) {
  InProcessLaminar laminar = ConnectInProcess(FastServer());
  net::HttpRequest req;
  req.path = "/health";
  auto resp = laminar.client_side->Call(req);
  ASSERT_TRUE(resp.ok());
  EXPECT_EQ(resp->first, 200);
  EXPECT_NE(resp->second.find("ok"), std::string::npos);
}

TEST(ServerExtras, ExecuteRejectsGarbageResourcesField) {
  InProcessLaminar laminar = ConnectInProcess(FastServer());
  const DemoWorkflow* demo = FindDemoWorkflow("isprime_wf");
  net::HttpRequest req;
  req.path = "/execute";
  Value body = Value::MakeObject();
  body["spec"] = demo->spec;
  body["mapping"] = "simple";
  body["input"] = 2;
  body["resources"] = "not an array";  // tolerated: treated as empty
  req.body = body.ToJson();
  auto resp = laminar.client_side->Call(req);
  ASSERT_TRUE(resp.ok());
  EXPECT_EQ(resp->first, 200);
}

// A deeply nested Python body is one small request; it must be answered
// (200 or 400), not overflow the stack and kill the server for everyone.
TEST(ServerExtras, DeeplyNestedCodeIsAnsweredNotACrash) {
  InProcessLaminar laminar = ConnectInProcess(FastServer());
  auto repeat = [](std::string_view unit, int n) {
    std::string out;
    for (int i = 0; i < n; ++i) out += unit;
    return out;
  };
  constexpr int kDepth = 100'000;
  const std::vector<std::string> shapes = {
      "x = " + repeat("(", kDepth) + "1" + repeat(")", kDepth) + "\n",
      "x = " + repeat("- ", kDepth) + "1\n",
      "x = " + repeat("not ", kDepth) + "y\n",
      "x = " + repeat("lambda: ", kDepth) + "1\n",
  };
  for (const std::string& code : shapes) {
    for (const char* path : {"/pes/register", "/search/code",
                             "/search/complete"}) {
      Value body = Value::MakeObject();
      body["code"] = code;
      net::HttpRequest req;
      req.path = path;
      req.body = body.ToJson();
      auto resp = laminar.client_side->Call(req);
      ASSERT_TRUE(resp.ok()) << path;
      EXPECT_TRUE(resp->first == 200 || resp->first == 400)
          << path << " answered " << resp->first << " " << resp->second;
    }
  }
  net::HttpRequest health;
  health.path = "/health";
  auto resp = laminar.client_side->Call(health);
  ASSERT_TRUE(resp.ok());
  EXPECT_EQ(resp->first, 200);
}

}  // namespace
}  // namespace laminar::client
