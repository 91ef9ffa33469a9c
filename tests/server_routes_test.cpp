// Route-policy matrix: every endpoint is sent a `{}` body on three servers —
// a leader, a follower behind a dead leader with a staleness bound, and a
// leader whose tenants get a single rate token — and the answer's class is
// checked against the endpoint's follower and admission policy. The table
// below is the expected policy; the server keeps its own in its route table.
#include <gtest/gtest.h>

#include <unistd.h>

#include <filesystem>
#include <iterator>
#include <memory>
#include <string>

#include "common/json.hpp"
#include "server/server.hpp"
#include "telemetry/telemetry.hpp"

namespace laminar::server {
namespace {

enum class Follower { kAlways, kServe, kRefuse };

struct Expected {
  const char* path;
  Follower follower;
  bool rate_gated;
};

constexpr Expected kRoutes[] = {
    {"/health", Follower::kAlways, false},
    {"/metrics", Follower::kAlways, false},
    {"/replication/status", Follower::kAlways, false},
    {"/replication/snapshot", Follower::kRefuse, false},
    {"/replication/fetch", Follower::kRefuse, false},
    {"/stats", Follower::kServe, true},
    {"/pes/get", Follower::kServe, true},
    {"/pes/describe", Follower::kServe, true},
    {"/workflows/get", Follower::kServe, true},
    {"/workflows/describe", Follower::kServe, true},
    {"/workflows/pes", Follower::kServe, true},
    {"/workflows/executions", Follower::kServe, true},
    {"/registry/list", Follower::kServe, true},
    {"/search/literal", Follower::kServe, true},
    {"/search/semantic", Follower::kServe, true},
    {"/search/code", Follower::kServe, true},
    {"/search/complete", Follower::kServe, true},
    {"/execute", Follower::kRefuse, true},
    {"/resources/upload", Follower::kRefuse, true},
    {"/users/register", Follower::kRefuse, true},
    {"/users/login", Follower::kRefuse, true},
    {"/pes/register", Follower::kRefuse, true},
    {"/pes/update_description", Follower::kRefuse, true},
    {"/pes/remove", Follower::kRefuse, true},
    {"/workflows/register", Follower::kRefuse, true},
    {"/workflows/update_description", Follower::kRefuse, true},
    {"/workflows/remove", Follower::kRefuse, true},
    {"/registry/remove_all", Follower::kRefuse, true},
    {"/registry/save", Follower::kRefuse, true},
    {"/registry/load", Follower::kRefuse, true},
    {"/registry/bulk_register", Follower::kRefuse, true},
};
static_assert(std::size(kRoutes) == 31);

constexpr char kUnknownPath[] = "/no/such/endpoint";

/// What kind of answer a request got, read from status and body markers.
enum class Outcome { kServed, kRefused421, kStale503, kThrottled429, kUnknown };

const char* Name(Outcome o) {
  switch (o) {
    case Outcome::kServed: return "served";
    case Outcome::kRefused421: return "421";
    case Outcome::kStale503: return "503";
    case Outcome::kThrottled429: return "429";
    case Outcome::kUnknown: return "404 unknown endpoint";
  }
  return "?";
}

struct Capture : net::StreamResponder {
  std::string body;
  int status = 0;
  void SendChunk(std::string_view chunk) override { body += chunk; }
  void End(int s) override { status = s; }
};

struct Answer {
  int status;
  std::string body;
  Outcome outcome;
};

Answer Send(LaminarServer& server, const std::string& path,
            const std::string& tenant = "") {
  net::HttpRequest req;
  req.path = path;
  req.body = "{}";
  if (!tenant.empty()) req.headers["x-laminar-tenant"] = tenant;
  Capture cap;
  server.Handle(req, cap);
  Answer a{cap.status, cap.body, Outcome::kServed};
  Result<Value> json = json::Parse(cap.body);
  const Value body = json.ok() ? json.value() : Value::MakeObject();
  if (a.status == 421 && !body.GetString("leader").empty()) {
    a.outcome = Outcome::kRefused421;
  } else if (a.status == 503 && body.contains("maxReplicaLagMs")) {
    a.outcome = Outcome::kStale503;
  } else if (a.status == 429 && body.contains("retryAfterMs")) {
    a.outcome = Outcome::kThrottled429;
  } else if (a.status == 404 &&
             body.GetString("error").find("unknown endpoint") !=
                 std::string::npos) {
    a.outcome = Outcome::kUnknown;
  }
  return a;
}

uint64_t RequestCount(const std::string& label_path) {
  return telemetry::MetricsRegistry::Global()
      .GetCounter("laminar_server_requests_total",
                  "path=\"" + label_path + "\"")
      .Value();
}

std::string TempPath(const std::string& stem) {
  return (std::filesystem::temp_directory_path() /
          (stem + "_" + std::to_string(::getpid())))
      .string();
}

ServerConfig BaseConfig() {
  ServerConfig config;
  config.engine.cold_start_ms = 0;
  config.ingest_threads = 0;
  return config;
}

/// A leader with a WAL, so the replication routes have something to ship.
struct Leader {
  std::string wal = TempPath("laminar_routes_wal");
  std::string snap = TempPath("laminar_routes_snap");
  std::unique_ptr<LaminarServer> server;
  Leader() {
    std::filesystem::remove(wal);
    std::filesystem::remove(snap);
    ServerConfig config = BaseConfig();
    config.wal_path = wal;
    config.snapshot_path = snap;
    server = std::make_unique<LaminarServer>(config);
  }
  ~Leader() {
    server.reset();
    std::filesystem::remove(wal);
    std::filesystem::remove(snap);
  }
};

/// A follower whose leader never answers: it never confirms freshness, so
/// with a staleness bound every served read is refused 503.
std::unique_ptr<LaminarServer> StaleFollower() {
  ServerConfig config = BaseConfig();
  config.replica_of = "127.0.0.1:1";  // nothing listens on port 1
  config.max_replica_lag_ms = 50;
  return std::make_unique<LaminarServer>(config);
}

/// Every tenant gets one token that does not refill within the test.
std::unique_ptr<LaminarServer> RateLimitedLeader() {
  ServerConfig config = BaseConfig();
  config.tenant_quotas.requests_per_sec = 0.001;
  config.tenant_quotas.burst = 1.0;
  return std::make_unique<LaminarServer>(config);
}

TEST(ServerRoutes, LeaderServesEveryRouteAndLabelsItsPath) {
  Leader leader;
  for (const Expected& route : kRoutes) {
    const uint64_t before = RequestCount(route.path);
    Answer a = Send(*leader.server, route.path);
    EXPECT_EQ(a.outcome, Outcome::kServed)
        << route.path << " got " << a.status << " " << a.body;
    EXPECT_EQ(RequestCount(route.path), before + 1) << route.path;
  }
}

TEST(ServerRoutes, StaleFollowerAppliesEachRoutesPolicy) {
  std::unique_ptr<LaminarServer> follower = StaleFollower();
  for (const Expected& route : kRoutes) {
    Answer a = Send(*follower, route.path);
    const Outcome want = route.follower == Follower::kAlways
                             ? Outcome::kServed
                         : route.follower == Follower::kServe
                             ? Outcome::kStale503
                             : Outcome::kRefused421;
    EXPECT_EQ(a.outcome, want) << route.path << " want " << Name(want)
                               << ", got " << a.status << " " << a.body;
    if (want == Outcome::kRefused421) {
      Result<Value> body = json::Parse(a.body);
      ASSERT_TRUE(body.ok()) << route.path;
      EXPECT_EQ(body->GetString("leader"), "127.0.0.1:1") << route.path;
    }
  }
}

TEST(ServerRoutes, RateGatedRoutesSpendTheTokenAndExemptRoutesNever) {
  std::unique_ptr<LaminarServer> server = RateLimitedLeader();
  int tenant_no = 0;
  for (const Expected& route : kRoutes) {
    // A fresh tenant per route, holding exactly one token.
    const std::string tenant = "rl" + std::to_string(tenant_no++);
    Answer first = Send(*server, route.path, tenant);
    EXPECT_EQ(first.outcome, Outcome::kServed)
        << route.path << " got " << first.status << " " << first.body;
    Answer second = Send(*server, route.path, tenant);
    const Outcome want =
        route.rate_gated ? Outcome::kThrottled429 : Outcome::kServed;
    EXPECT_EQ(second.outcome, want)
        << route.path << " want " << Name(want) << ", got " << second.status
        << " " << second.body;
    // An exempt route leaves the token for the next gated request.
    Answer probe = Send(*server, "/pes/get", tenant);
    EXPECT_EQ(probe.outcome, route.rate_gated ? Outcome::kThrottled429
                                              : Outcome::kServed)
        << "probe after " << route.path;
  }
}

// Unknown paths answer 404 before the follower gate, admission and the lock,
// and are counted under the bounded path="other" label.
TEST(ServerRoutes, UnknownPathIsA404OnTheLeaderCountedAsOther) {
  Leader leader;
  const uint64_t before = RequestCount("other");
  Answer a = Send(*leader.server, kUnknownPath);
  EXPECT_EQ(a.outcome, Outcome::kUnknown) << a.status << " " << a.body;
  EXPECT_EQ(RequestCount("other"), before + 1);
  EXPECT_EQ(RequestCount(kUnknownPath), 0u);
}

TEST(ServerRoutes, UnknownPathIsA404OnAFollower) {
  std::unique_ptr<LaminarServer> follower = StaleFollower();
  Answer a = Send(*follower, kUnknownPath);
  EXPECT_EQ(a.outcome, Outcome::kUnknown) << a.status << " " << a.body;
}

TEST(ServerRoutes, UnknownPathKeepsTheTenantsToken) {
  std::unique_ptr<LaminarServer> server = RateLimitedLeader();
  for (int i = 0; i < 3; ++i) {
    Answer a = Send(*server, kUnknownPath, "rl");
    EXPECT_EQ(a.outcome, Outcome::kUnknown) << a.status << " " << a.body;
  }
  EXPECT_EQ(Send(*server, "/pes/get", "rl").outcome, Outcome::kServed);
  EXPECT_EQ(Send(*server, "/pes/get", "rl").outcome, Outcome::kThrottled429);
}

}  // namespace
}  // namespace laminar::server
