// Multi-tenant admission control and fair run scheduling (ROADMAP item 3):
// FairRunQueue's start-time fair queuing, per-tenant caps and queued-run
// deadlines; AdmissionController's token bucket and row quotas; and the
// server boundary end to end — tenant resolution (body field > header >
// default), row visibility scoping, 429-with-retry-hint quota refusals, and
// the per-tenant /stats slice reconciling with actual run outcomes, and the
// per-tenant row counts staying equal to the registry on every mutation
// path (registration, removal, load, WAL recovery, replication).
#include <gtest/gtest.h>

#include <chrono>
#include <filesystem>
#include <map>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include <unistd.h>

#include "client/connect.hpp"
#include "client/demo_workflows.hpp"
#include "common/clock.hpp"
#include "engine/run_queue.hpp"
#include "registry/schema.hpp"
#include "server/admission.hpp"

namespace laminar {
namespace {

using engine::FairRunQueue;
using server::TenantQuotas;

// ---- FairRunQueue scheduling -------------------------------------------

TEST(FairQueue, GrantsImmediatelyWhileSlotsFree) {
  FairRunQueue q(2);
  auto a = q.Acquire("alice", {});
  auto b = q.Acquire("bob", {});
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  EXPECT_TRUE(a->valid());
  EXPECT_EQ(q.queued(), 0u);
}

/// Spawns a waiter thread and blocks until it is registered in the queue
/// (so arrival order across threads is deterministic).
std::thread QueuedWaiter(FairRunQueue& q, std::string tenant,
                         FairRunQueue::AcquireOptions options,
                         std::mutex& mu, std::vector<std::string>& grants) {
  size_t queued_before = q.queued();
  std::thread t([&q, &mu, &grants, tenant, options] {
    auto ticket = q.Acquire(tenant, options);
    ASSERT_TRUE(ticket.ok()) << ticket.status().ToString();
    std::scoped_lock lock(mu);
    grants.push_back(tenant);
    // Ticket destructor releases the slot -> next grant dispatches.
  });
  while (q.queued() <= queued_before) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  return t;
}

TEST(FairQueue, FloodedTenantDoesNotStarveOthers) {
  FairRunQueue q(1);
  auto hog = q.Acquire("mallory", {});  // occupies the only slot
  ASSERT_TRUE(hog.ok());

  std::mutex mu;
  std::vector<std::string> grants;
  std::vector<std::thread> threads;
  // mallory floods the queue first; alice arrives last.
  for (int i = 0; i < 3; ++i) {
    threads.push_back(QueuedWaiter(q, "mallory", {}, mu, grants));
  }
  threads.push_back(QueuedWaiter(q, "alice", {}, mu, grants));

  hog->Release();  // cascade: each grant releases and dispatches the next
  for (auto& t : threads) t.join();

  ASSERT_EQ(grants.size(), 4u);
  // mallory's first grant pushed its virtual time to 1; alice queued at
  // virtual time 0, so despite arriving last she is granted first.
  EXPECT_EQ(grants[0], "alice");
}

TEST(FairQueue, EqualWeightTenantsAlternate) {
  FairRunQueue q(1);
  auto hog = q.Acquire("zeta", {});  // park the slot; zeta vtime -> 1
  ASSERT_TRUE(hog.ok());

  std::mutex mu;
  std::vector<std::string> grants;
  std::vector<std::thread> threads;
  // All of a's waiters queue before any of b's.
  for (int i = 0; i < 3; ++i) {
    threads.push_back(QueuedWaiter(q, "a", {}, mu, grants));
  }
  for (int i = 0; i < 3; ++i) {
    threads.push_back(QueuedWaiter(q, "b", {}, mu, grants));
  }
  hog->Release();
  for (auto& t : threads) t.join();

  // Start-time fair queuing with equal weights interleaves the two tenants
  // (ties break by name): a b a b a b — never a a a b b b.
  ASSERT_EQ(grants.size(), 6u);
  EXPECT_EQ(grants, (std::vector<std::string>{"a", "b", "a", "b", "a", "b"}));
}

TEST(FairQueue, PriorityOvertakesWithinTenant) {
  FairRunQueue q(1);
  auto hog = q.Acquire("t", {});
  ASSERT_TRUE(hog.ok());

  std::mutex mu;
  std::vector<std::string> grants;
  FairRunQueue::AcquireOptions low;
  low.priority = 0;
  FairRunQueue::AcquireOptions high;
  high.priority = 5;
  // Tag the tenant string with the priority so the grant log is readable.
  std::vector<std::thread> threads;
  std::thread t1([&] {
    auto ticket = q.Acquire("t", low);
    ASSERT_TRUE(ticket.ok());
    std::scoped_lock lock(mu);
    grants.push_back("low");
  });
  while (q.queued() < 1) std::this_thread::sleep_for(std::chrono::milliseconds(1));
  std::thread t2([&] {
    auto ticket = q.Acquire("t", high);
    ASSERT_TRUE(ticket.ok());
    std::scoped_lock lock(mu);
    grants.push_back("high");
  });
  while (q.queued() < 2) std::this_thread::sleep_for(std::chrono::milliseconds(1));

  hog->Release();
  t1.join();
  t2.join();
  ASSERT_EQ(grants.size(), 2u);
  EXPECT_EQ(grants[0], "high");  // arrived second, dispatched first
}

TEST(FairQueue, PerTenantConcurrencyCapHoldsSlotsBack) {
  FairRunQueue q(4);
  FairRunQueue::AcquireOptions capped;
  capped.max_concurrent = 1;
  auto first = q.Acquire("solo", capped);
  ASSERT_TRUE(first.ok());

  // Three slots are free, but solo is at its cap: a second acquire with a
  // queued-run deadline expires instead of being granted.
  FairRunQueue::AcquireOptions capped_deadline = capped;
  capped_deadline.deadline_us = NowMicros() + 60'000;
  auto second = q.Acquire("solo", capped_deadline);
  ASSERT_FALSE(second.ok());
  EXPECT_EQ(second.status().code(), StatusCode::kDeadlineExceeded);

  // Other tenants are unaffected by solo's cap.
  auto other = q.Acquire("other", {});
  EXPECT_TRUE(other.ok());

  // Releasing the capped run frees the tenant again.
  first->Release();
  auto third = q.Acquire("solo", capped);
  EXPECT_TRUE(third.ok());
}

TEST(FairQueue, DepthCapsRejectWithRetryHint) {
  FairRunQueue q(1, /*max_queue_depth=*/1);
  auto hog = q.Acquire("t", {});
  ASSERT_TRUE(hog.ok());

  std::mutex mu;
  std::vector<std::string> grants;
  std::thread waiter = QueuedWaiter(q, "t", {}, mu, grants);

  double retry_after_ms = 0.0;
  auto rejected = q.Acquire("t", {}, &retry_after_ms);
  ASSERT_FALSE(rejected.ok());
  EXPECT_EQ(rejected.status().code(), StatusCode::kResourceExhausted);
  EXPECT_GT(retry_after_ms, 0.0);

  hog->Release();
  waiter.join();

  auto snapshot = q.Snapshot();
  EXPECT_EQ(snapshot["t"].rejected, 1u);
  EXPECT_EQ(snapshot["t"].admitted, 2u);  // hog + the queued waiter
}

TEST(FairQueue, PerTenantQueueCapRejects) {
  FairRunQueue q(1);  // global depth unlimited
  auto hog = q.Acquire("t", {});
  ASSERT_TRUE(hog.ok());

  FairRunQueue::AcquireOptions one_queued;
  one_queued.max_queued = 1;
  std::mutex mu;
  std::vector<std::string> grants;
  std::thread waiter = QueuedWaiter(q, "t", one_queued, mu, grants);

  auto rejected = q.Acquire("t", one_queued);
  ASSERT_FALSE(rejected.ok());
  EXPECT_EQ(rejected.status().code(), StatusCode::kResourceExhausted);
  // Another tenant still queues fine against the same global queue.
  EXPECT_EQ(q.queued(), 1u);

  hog->Release();
  waiter.join();
}

TEST(FairQueue, QueuedDeadlineExpiresWithoutTakingSlot) {
  FairRunQueue q(1);
  auto hog = q.Acquire("t", {});
  ASSERT_TRUE(hog.ok());

  FairRunQueue::AcquireOptions opts;
  opts.deadline_us = NowMicros() + 30'000;  // 30ms, slot never frees
  auto expired = q.Acquire("t", opts);
  ASSERT_FALSE(expired.ok());
  EXPECT_EQ(expired.status().code(), StatusCode::kDeadlineExceeded);
  EXPECT_EQ(q.queued(), 0u);  // deregistered, no leaked waiter

  auto snapshot = q.Snapshot();
  EXPECT_EQ(snapshot["t"].deadline_expired, 1u);
  EXPECT_EQ(snapshot["t"].running, 1);
}

// ---- AdmissionController ------------------------------------------------

TEST(Admission, TenantNameCharsetIsStrict) {
  EXPECT_TRUE(server::ValidTenantName("default"));
  EXPECT_TRUE(server::ValidTenantName("team-7.staging_x"));
  EXPECT_FALSE(server::ValidTenantName(""));
  EXPECT_FALSE(server::ValidTenantName("has space"));
  EXPECT_FALSE(server::ValidTenantName("slash/y"));
  EXPECT_FALSE(server::ValidTenantName("quote\"z"));
  EXPECT_FALSE(server::ValidTenantName(std::string(65, 'a')));
}

TEST(Admission, TokenBucketThrottlesThenRecovers) {
  TenantQuotas limited;
  limited.requests_per_sec = 20.0;
  limited.burst = 2.0;
  server::AdmissionController admission({}, {{"rl", limited}});

  double retry_after_ms = 0.0;
  EXPECT_TRUE(admission.AdmitRequest("rl", &retry_after_ms).ok());
  EXPECT_TRUE(admission.AdmitRequest("rl", &retry_after_ms).ok());
  Status throttled = admission.AdmitRequest("rl", &retry_after_ms);
  ASSERT_EQ(throttled.code(), StatusCode::kResourceExhausted);
  EXPECT_GT(retry_after_ms, 0.0);

  // Unlimited tenants never throttle.
  for (int i = 0; i < 100; ++i) {
    EXPECT_TRUE(admission.AdmitRequest("free", nullptr).ok());
  }

  // A refill interval later the bucket has a token again.
  std::this_thread::sleep_for(std::chrono::milliseconds(120));
  EXPECT_TRUE(admission.AdmitRequest("rl", &retry_after_ms).ok());
}

TEST(Admission, RowQuotasTrackLiveCounts) {
  TenantQuotas small;
  small.max_pes = 2;
  small.max_workflows = 1;
  server::AdmissionController admission({}, {{"t", small}});

  // The caller passes the live count; the quota bounds count + additional.
  EXPECT_TRUE(admission.AdmitPes("t", 0, 2).ok());
  EXPECT_EQ(admission.AdmitPes("t", 0, 3).code(),
            StatusCode::kResourceExhausted);
  Status full = admission.AdmitPes("t", 2, 1);
  EXPECT_EQ(full.code(), StatusCode::kResourceExhausted);
  EXPECT_NE(full.ToString().find("(2/2)"), std::string::npos)
      << full.ToString();
  EXPECT_TRUE(admission.AdmitPes("t", 1, 1).ok());

  EXPECT_TRUE(admission.AdmitWorkflows("t", 0, 1).ok());
  EXPECT_EQ(admission.AdmitWorkflows("t", 1, 1).code(),
            StatusCode::kResourceExhausted);

  // Tenants without an override inherit the unlimited defaults.
  EXPECT_TRUE(admission.AdmitPes("other", 1000, 1000).ok());
  EXPECT_TRUE(admission.AdmitWorkflows("other", 1000, 1000).ok());
}

// ---- server boundary end to end ----------------------------------------

server::ServerConfig FastServer() {
  server::ServerConfig config;
  config.engine.cold_start_ms = 0;
  return config;
}

TEST(TenantServer, DefaultTenantKeepsLegacyBehaviour) {
  client::InProcessLaminar laminar = client::ConnectInProcess(FastServer());
  const client::DemoWorkflow* demo = client::FindDemoWorkflow("isprime_wf");
  Result<client::WorkflowInfo> wf = laminar.client->RegisterWorkflow(
      demo->name, demo->spec, demo->pes, demo->code);
  ASSERT_TRUE(wf.ok()) << wf.status().ToString();

  client::RunOutcome run = laminar.client->RunDynamic(wf->id, Value(10));
  ASSERT_TRUE(run.status.ok()) << run.status.ToString();

  Result<Value> stats = laminar.client->GetStats();
  ASSERT_TRUE(stats.ok());
  const Value& tenants = stats->at("tenants");
  ASSERT_TRUE(tenants.is_object());
  const Value& dflt = tenants.at("default");
  EXPECT_GE(dflt.GetInt("runsSucceeded"), 1);
  EXPECT_GE(dflt.GetInt("runsAdmitted"), 1);
  EXPECT_EQ(dflt.GetInt("runsRejected"), 0);
  EXPECT_GE(stats->at("runQueue").GetInt("slots"), 1);
}

TEST(TenantServer, RowsAreScopedToTheirTenant) {
  client::InProcessLaminar laminar = client::ConnectInProcess(FastServer());
  client::ExtraClient alice = client::AttachClient(*laminar.server);
  client::ExtraClient bob = client::AttachClient(*laminar.server);
  alice.client->SetTenant("alice");
  bob.client->SetTenant("bob");

  Result<client::PeInfo> pe = alice.client->RegisterPe(
      "class AliceOnly(IterativePE):\n"
      "    def _process(self, x):\n"
      "        return x\n");
  ASSERT_TRUE(pe.ok()) << pe.status().ToString();

  // Owner sees it; an unrelated tenant gets 404; the default tenant (the
  // operator view) sees everything.
  EXPECT_TRUE(alice.client->GetPe(pe->id).ok());
  Result<client::PeInfo> cross = bob.client->GetPe(pe->id);
  ASSERT_FALSE(cross.ok());
  EXPECT_EQ(cross.status().code(), StatusCode::kNotFound);
  EXPECT_TRUE(laminar.client->GetPe(pe->id).ok());

  // Listing and literal search filter the same way.
  auto bob_registry = bob.client->GetRegistry();
  ASSERT_TRUE(bob_registry.ok());
  EXPECT_TRUE(bob_registry->first.empty());
  auto bob_hits = bob.client->SearchRegistryLiteral("AliceOnly");
  ASSERT_TRUE(bob_hits.ok());
  EXPECT_TRUE(bob_hits->empty());
  auto alice_hits = alice.client->SearchRegistryLiteral("AliceOnly");
  ASSERT_TRUE(alice_hits.ok());
  EXPECT_EQ(alice_hits->size(), 1u);

  // Default-tenant rows stay visible to every tenant (shared library).
  Result<client::PeInfo> shared = laminar.client->RegisterPe(
      "class SharedPe(IterativePE):\n"
      "    def _process(self, x):\n"
      "        return x\n");
  ASSERT_TRUE(shared.ok());
  EXPECT_TRUE(bob.client->GetPe(shared->id).ok());
}

TEST(TenantServer, PeQuotaRefusesWith429) {
  server::ServerConfig config = FastServer();
  TenantQuotas one_pe;
  one_pe.max_pes = 1;
  config.tenant_overrides["alice"] = one_pe;
  client::InProcessLaminar laminar = client::ConnectInProcess(config);
  laminar.client->SetTenant("alice");

  ASSERT_TRUE(laminar.client
                  ->RegisterPe("class A(IterativePE):\n"
                               "    def _process(self, x):\n"
                               "        return x\n")
                  .ok());
  Result<client::PeInfo> second = laminar.client->RegisterPe(
      "class B(IterativePE):\n"
      "    def _process(self, x):\n"
      "        return x\n");
  ASSERT_FALSE(second.ok());
  // Quota refusal is 429 -> kResourceExhausted, never a 5xx.
  EXPECT_EQ(second.status().code(), StatusCode::kResourceExhausted);

  // Removing the row frees the quota again.
  auto pes = laminar.client->GetRegistry();
  ASSERT_TRUE(pes.ok());
  ASSERT_EQ(pes->first.size(), 1u);
  ASSERT_TRUE(laminar.client->RemovePe(pes->first[0].id).ok());
  EXPECT_TRUE(laminar.client
                  ->RegisterPe("class C(IterativePE):\n"
                               "    def _process(self, x):\n"
                               "        return x\n")
                  .ok());
}

TEST(TenantServer, RequestRateLimitReturns429) {
  server::ServerConfig config = FastServer();
  TenantQuotas limited;
  limited.requests_per_sec = 1.0;
  limited.burst = 1.0;
  config.tenant_overrides["rl"] = limited;
  client::InProcessLaminar laminar = client::ConnectInProcess(config);
  laminar.client->SetTenant("rl");

  ASSERT_TRUE(laminar.client->GetStats().ok());  // spends the one token
  Result<Value> throttled = laminar.client->GetStats();
  ASSERT_FALSE(throttled.ok());
  EXPECT_EQ(throttled.status().code(), StatusCode::kResourceExhausted);

  // The throttle is per tenant: the default tenant is unaffected.
  laminar.client->SetTenant("");
  EXPECT_TRUE(laminar.client->GetStats().ok());
}

TEST(TenantServer, InvalidTenantNameIs400) {
  client::InProcessLaminar laminar = client::ConnectInProcess(FastServer());
  laminar.client->SetTenant("not a tenant!");
  Result<Value> stats = laminar.client->GetStats();
  ASSERT_FALSE(stats.ok());
  EXPECT_EQ(stats.status().code(), StatusCode::kInvalidArgument);
}

TEST(TenantServer, BodyTenantFieldWinsOverHeader) {
  server::ServerConfig config = FastServer();
  TenantQuotas none;
  none.max_concurrent_runs = 0;
  client::InProcessLaminar laminar = client::ConnectInProcess(config);
  laminar.client->SetTenant("header-tenant");

  const client::DemoWorkflow* demo = client::FindDemoWorkflow("isprime_wf");
  Value body = Value::MakeObject();
  body["spec"] = demo->spec;
  body["mapping"] = "simple";
  body["input"] = 5;
  body["tenant"] = "body-tenant";
  client::RunOutcome run = laminar.client->RunRaw(body);
  ASSERT_TRUE(run.status.ok()) << run.status.ToString();

  laminar.client->SetTenant("");
  Result<Value> stats = laminar.client->GetStats();
  ASSERT_TRUE(stats.ok());
  const Value& tenants = stats->at("tenants");
  EXPECT_EQ(tenants.at("body-tenant").GetInt("runsSucceeded"), 1);
  // The header tenant was overridden for the run itself (it still shows up
  // in request accounting from the gate, but owns no run).
  EXPECT_EQ(tenants.at("header-tenant").GetInt("runsSucceeded", 0), 0);
}

TEST(TenantServer, StatsReconcileWithRunOutcomes) {
  client::InProcessLaminar laminar = client::ConnectInProcess(FastServer());
  client::ExtraClient alice = client::AttachClient(*laminar.server);
  alice.client->SetTenant("alice");

  const client::DemoWorkflow* demo = client::FindDemoWorkflow("isprime_wf");
  int alice_ok = 0;
  for (int i = 0; i < 3; ++i) {
    client::RunOutcome run =
        alice.client->RunSpec(demo->spec, "simple", Value(5));
    ASSERT_TRUE(run.status.ok()) << run.status.ToString();
    ASSERT_FALSE(run.stats.is_null());  // the ##END## record arrived
    ++alice_ok;
  }
  client::RunOutcome dflt =
      laminar.client->RunSpec(demo->spec, "simple", Value(5));
  ASSERT_TRUE(dflt.status.ok());

  Result<Value> stats = laminar.client->GetStats();
  ASSERT_TRUE(stats.ok());
  const Value& tenants = stats->at("tenants");
  EXPECT_EQ(tenants.at("alice").GetInt("runsSucceeded"), alice_ok);
  EXPECT_EQ(tenants.at("alice").GetInt("runsAdmitted"), alice_ok);
  EXPECT_EQ(tenants.at("alice").GetInt("runsFailed"), 0);
  EXPECT_EQ(tenants.at("alice").GetInt("running"), 0);  // all released
  EXPECT_EQ(tenants.at("default").GetInt("runsSucceeded"), 1);
  EXPECT_EQ(stats->at("runQueue").GetInt("queued"), 0);
}

// ---- per-tenant row counts -----------------------------------------------

std::string PeSourceCode(const std::string& cls) {
  return "class " + cls + "(IterativePE):\n"
         "    def _process(self, x):\n"
         "        return x\n";
}

/// /stats tenants.<t>.pes/workflows must equal a count over every stored
/// row grouped by owner, and every tenant owning a row must be listed.
void ExpectTenantCountsMatchRegistry(server::LaminarServer& server,
                                     client::LaminarClient& client,
                                     const std::string& where) {
  SCOPED_TRACE(where);
  client.SetTenant("");
  Result<Value> stats = client.GetStats();
  ASSERT_TRUE(stats.ok()) << stats.status().ToString();
  std::map<std::string, registry::TenantRows> want;
  for (const registry::PeRecord& pe : server.repository().AllPes()) {
    ++want[std::string(registry::RowTenant(pe.tenant))].pes;
  }
  for (const registry::WorkflowRecord& wf :
       server.repository().AllWorkflows()) {
    ++want[std::string(registry::RowTenant(wf.tenant))].workflows;
  }
  const Value& tenants = stats->at("tenants");
  for (const auto& [tenant, rows] : want) {
    ASSERT_TRUE(tenants.contains(tenant)) << tenant << " in "
                                          << tenants.ToJson();
    EXPECT_EQ(tenants.at(tenant).GetInt("pes"), rows.pes) << tenant;
    EXPECT_EQ(tenants.at(tenant).GetInt("workflows"), rows.workflows)
        << tenant;
  }
  for (const auto& [tenant, t] : tenants.as_object()) {
    if (want.contains(tenant)) continue;
    EXPECT_EQ(t.GetInt("pes"), 0) << tenant;
    EXPECT_EQ(t.GetInt("workflows"), 0) << tenant;
  }
}

/// Waits until the follower has applied everything the leader has logged.
void AwaitFollower(client::LaminarClient& leader,
                   client::LaminarClient& follower) {
  Result<Value> head = leader.ReplicationStatus();
  ASSERT_TRUE(head.ok()) << head.status().ToString();
  const int64_t want = head->GetInt("headSeq", 0);
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(10);
  while (true) {
    Result<Value> status = follower.ReplicationStatus();
    if (status.ok() && status->GetInt("appliedSeq", 0) >= want) return;
    ASSERT_LT(std::chrono::steady_clock::now(), deadline)
        << "follower never reached seq " << want;
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
}

class TenantRowCounts : public ::testing::Test {
 protected:
  void SetUp() override {
    const std::string tag = (std::filesystem::temp_directory_path() /
                             ("laminar_tenant_rows_" +
                              std::to_string(::getpid())))
                                .string();
    wal_path_ = tag + "_wal.jsonl";
    snapshot_path_ = tag + "_snap.json";
    saved_path_ = tag + "_saved.json";
    TearDown();
  }
  void TearDown() override {
    for (const std::string& p : {wal_path_, snapshot_path_, saved_path_}) {
      std::filesystem::remove(p);
    }
  }

  std::unique_ptr<client::TcpLaminarServer> Serve(server::ServerConfig config) {
    config.engine.cold_start_ms = 0;
    net::TcpListenerConfig listener;
    listener.port = 0;
    Result<client::TcpLaminarServer> served =
        client::ServeTcp(std::move(config), listener);
    EXPECT_TRUE(served.ok()) << served.status().ToString();
    if (!served.ok()) return nullptr;
    return std::make_unique<client::TcpLaminarServer>(
        std::move(served.value()));
  }
  std::unique_ptr<client::TcpLaminarServer> ServeLeader() {
    server::ServerConfig config;
    config.wal_path = wal_path_;
    config.snapshot_path = snapshot_path_;
    return Serve(config);
  }

  std::string wal_path_;
  std::string snapshot_path_;
  std::string saved_path_;
};

TEST_F(TenantRowCounts, StatsMatchTheRegistryOnEveryMutationPath) {
  std::unique_ptr<client::TcpLaminarServer> leader = ServeLeader();
  ASSERT_NE(leader, nullptr);
  Result<client::TcpClient> cli = client::ConnectTcp("127.0.0.1",
                                                     leader->port());
  ASSERT_TRUE(cli.ok()) << cli.status().ToString();
  client::LaminarClient& c = *cli->client;
  auto check = [&](const std::string& where) {
    ExpectTenantCountsMatchRegistry(*leader->server, c, where);
  };

  // /pes/register for three owners, default included.
  c.SetTenant("alice");
  ASSERT_TRUE(c.RegisterPe(PeSourceCode("AliceA")).ok());
  Result<client::PeInfo> alice_b = c.RegisterPe(PeSourceCode("AliceB"));
  ASSERT_TRUE(alice_b.ok());
  c.SetTenant("bob");
  ASSERT_TRUE(c.RegisterPe(PeSourceCode("BobA")).ok());
  c.SetTenant("");
  ASSERT_TRUE(c.RegisterPe(PeSourceCode("Shared")).ok());
  ASSERT_NO_FATAL_FAILURE(check("register"));

  // /registry/bulk_register.
  c.SetTenant("alice");
  std::vector<client::PeSource> bulk(3);
  for (size_t i = 0; i < bulk.size(); ++i) {
    bulk[i].code = PeSourceCode("Bulk" + std::to_string(i));
  }
  ASSERT_TRUE(c.BulkRegisterPes(bulk).ok());
  ASSERT_NO_FATAL_FAILURE(check("bulk_register"));

  // /workflows/register with member PEs.
  const client::DemoWorkflow* demo = client::FindDemoWorkflow("isprime_wf");
  c.SetTenant("bob");
  Result<client::WorkflowInfo> wf =
      c.RegisterWorkflow(demo->name, demo->spec, demo->pes, demo->code);
  ASSERT_TRUE(wf.ok()) << wf.status().ToString();
  ASSERT_NO_FATAL_FAILURE(check("workflow register"));

  // /pes/remove and /workflows/remove.
  c.SetTenant("alice");
  ASSERT_TRUE(c.RemovePe(alice_b->id).ok());
  c.SetTenant("bob");
  ASSERT_TRUE(c.RemoveWorkflow(wf->id).ok());
  ASSERT_NO_FATAL_FAILURE(check("remove"));

  // /registry/save, a further registration, then /registry/load.
  c.SetTenant("");
  ASSERT_TRUE(c.SaveRegistry(saved_path_).ok());
  c.SetTenant("carol");
  ASSERT_TRUE(c.RegisterPe(PeSourceCode("CarolA")).ok());
  c.SetTenant("");
  ASSERT_TRUE(c.LoadRegistry(saved_path_).ok());
  ASSERT_NO_FATAL_FAILURE(check("save + load"));

  // A restart recovers the registry from the WAL. The old connection goes
  // first, so the old server shuts down with no client attached.
  cli = Status::Unavailable("restarting");
  leader.reset();
  leader = ServeLeader();
  ASSERT_NE(leader, nullptr);
  cli = client::ConnectTcp("127.0.0.1", leader->port());
  ASSERT_TRUE(cli.ok()) << cli.status().ToString();
  client::LaminarClient& c2 = *cli->client;
  ASSERT_GT(leader->server->repository().PeCount(), 0u);
  ASSERT_NO_FATAL_FAILURE(
      ExpectTenantCountsMatchRegistry(*leader->server, c2, "WAL recovery"));

  // A follower bootstraps from the snapshot, then applies a replicated
  // insert, erase and clear.
  server::ServerConfig follower_config;
  follower_config.replica_of = "127.0.0.1:" + std::to_string(leader->port());
  std::unique_ptr<client::TcpLaminarServer> follower = Serve(follower_config);
  ASSERT_NE(follower, nullptr);
  Result<client::TcpClient> fcli =
      client::ConnectTcp("127.0.0.1", follower->port());
  ASSERT_TRUE(fcli.ok()) << fcli.status().ToString();
  client::LaminarClient& f = *fcli->client;
  auto check_follower = [&](const std::string& where) {
    ASSERT_NO_FATAL_FAILURE(AwaitFollower(c2, f));
    ExpectTenantCountsMatchRegistry(*follower->server, f, where);
  };
  ASSERT_NO_FATAL_FAILURE(check_follower("follower bootstrap"));
  c2.SetTenant("dave");
  Result<client::PeInfo> dave = c2.RegisterPe(PeSourceCode("DaveA"));
  ASSERT_TRUE(dave.ok());
  ASSERT_NO_FATAL_FAILURE(check_follower("replicated insert"));
  ASSERT_TRUE(c2.RemovePe(dave->id).ok());
  ASSERT_NO_FATAL_FAILURE(check_follower("replicated erase"));
  c2.SetTenant("");
  ASSERT_TRUE(c2.RemoveAll().ok());
  ASSERT_NO_FATAL_FAILURE(
      ExpectTenantCountsMatchRegistry(*leader->server, c2, "remove_all"));
  ASSERT_NO_FATAL_FAILURE(check_follower("replicated clear"));
  EXPECT_EQ(follower->server->repository().PeCount(), 0u);
}

TEST_F(TenantRowCounts, PreTenancySnapshotRowsCountAsDefault) {
  // A snapshot written before tenancy existed: its rows have no tenant
  // column at all.
  {
    registry::Database db;
    ASSERT_TRUE(registry::CreateLaminarSchema(db).ok());
    registry::Repository repo(db);
    Result<int64_t> user = repo.CreateUser("legacy", "pw");
    ASSERT_TRUE(user.ok());
    for (const char* name : {"OldA", "OldB", "OldC"}) {
      Value pe = Value::MakeObject();
      pe["peName"] = name;
      pe["peCode"] = PeSourceCode(name);
      ASSERT_TRUE(db.Insert(registry::kPeTable, std::move(pe)).ok());
    }
    Value wf = Value::MakeObject();
    wf["userId"] = user.value();
    wf["workflowName"] = "old_wf";
    wf["workflowCode"] = "pass";
    ASSERT_TRUE(db.Insert(registry::kWorkflowTable, std::move(wf)).ok());
    ASSERT_TRUE(db.SaveToFile(saved_path_).ok());
  }
  server::ServerConfig config;
  TenantQuotas four_pes;
  four_pes.max_pes = 4;
  config.tenant_overrides[std::string(server::kDefaultTenant)] = four_pes;
  std::unique_ptr<client::TcpLaminarServer> served = Serve(config);
  ASSERT_NE(served, nullptr);
  Result<client::TcpClient> cli =
      client::ConnectTcp("127.0.0.1", served->port());
  ASSERT_TRUE(cli.ok());
  client::LaminarClient& c = *cli->client;
  ASSERT_TRUE(c.LoadRegistry(saved_path_).ok());
  ASSERT_NO_FATAL_FAILURE(
      ExpectTenantCountsMatchRegistry(*served->server, c, "legacy load"));
  Result<Value> stats = c.GetStats();
  ASSERT_TRUE(stats.ok());
  EXPECT_EQ(stats->at("tenants").at("default").GetInt("pes"), 3);
  EXPECT_EQ(stats->at("tenants").at("default").GetInt("workflows"), 1);
  // The legacy rows count against the default tenant's quota.
  ASSERT_TRUE(c.RegisterPe(PeSourceCode("NewA")).ok());
  Result<client::PeInfo> over = c.RegisterPe(PeSourceCode("NewB"));
  ASSERT_FALSE(over.ok());
  EXPECT_EQ(over.status().code(), StatusCode::kResourceExhausted);
}

}  // namespace
}  // namespace laminar
