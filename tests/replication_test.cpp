// WAL-shipping read replicas (ISSUE 9): follower bootstrap + tail parity,
// the read-only 421 gate, the bounded-staleness 503 contract, follower
// kill/restart resync, and the ConnectTcp startup-race retry.
//
// Leader and followers run in ONE process as separate LaminarServer
// instances behind real TCP listeners — the replication path exercised is
// identical to separate OS processes (same sockets, same protocol), while
// teardown stays deterministic and sanitizer-friendly.
#include <chrono>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include <unistd.h>

#include <gtest/gtest.h>

#include "client/connect.hpp"
#include "client/demo_workflows.hpp"
#include "client/fanout.hpp"
#include "common/json.hpp"
#include "embed/embedding.hpp"
#include "embed/unixcoder_sim.hpp"
#include "net/tcp.hpp"
#include "registry/database.hpp"
#include "registry/repository.hpp"
#include "registry/schema.hpp"
#include "server/replication.hpp"
#include "spt/recommend.hpp"

namespace laminar::client {
namespace {

namespace fs = std::filesystem;

std::string TempPath(const std::string& name) {
  return (fs::temp_directory_path() / name).string();
}

std::string ReadAll(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return std::string(std::istreambuf_iterator<char>(in),
                     std::istreambuf_iterator<char>());
}

std::string PeCode(const std::string& cls) {
  return "class " + cls + ":\n    def process(self, x):\n        return x\n";
}

// The hub's ring is bounded by bytes as well as records: PE records of
// ~20 KB (the size a stored 4,096-float embedding gives them) must not pin
// more than the budget, and a follower that starts behind the ring catches
// up from the WAL file with the same lines, so its registry ends byte-for-
// byte equal to the leader's.
TEST(ReplicationHubRing, StaysWithinByteBudgetAndLaggingFollowerCatchesUp) {
  const std::string wal_path =
      TempPath("laminar_repl_ring_" + std::to_string(::getpid()) + ".jsonl");
  fs::remove(wal_path);
  registry::Database leader;
  ASSERT_TRUE(registry::CreateLaminarSchema(leader).ok());
  ASSERT_TRUE(leader.EnableWal(wal_path).ok());
  server::ReplicationHub hub(wal_path, leader.wal_status().appended_seq);
  leader.SetWalObserver([&hub](uint64_t seq, const std::string& line) {
    hub.Publish(seq, line);
  });
  registry::Repository repo(leader);
  constexpr size_t kRecords = 1100;
  const size_t budget = server::ReplicationHub::kRingByteBudget;
  for (size_t i = 0; i < kRecords; ++i) {
    registry::PeRecord pe;
    pe.name = "Pe" + std::to_string(i);
    pe.code = PeCode(pe.name);
    pe.description_embedding =
        std::string(20000, static_cast<char>('a' + i % 26));
    ASSERT_TRUE(repo.CreatePe(std::move(pe)).ok());
    ASSERT_LE(hub.ring_bytes(), budget) << "after record " << i;
  }
  EXPECT_GT(hub.ring_bytes(), budget / 2);
  EXPECT_LT(hub.ring_records(), kRecords);  // the oldest records were evicted
  EXPECT_GT(hub.ring_records(), 0u);

  // The follower starts from an empty registry: its first fetches start
  // behind the ring and are served from the WAL file, the rest from memory.
  registry::Database follower;
  ASSERT_TRUE(registry::CreateLaminarSchema(follower).ok());
  std::vector<std::string> shipped;
  uint64_t applied = 0;
  while (applied < hub.head_seq()) {
    server::ReplicationHub::FetchResult batch = hub.Fetch(applied, 512, 0);
    ASSERT_FALSE(batch.need_snapshot);
    ASSERT_FALSE(batch.lines.empty());
    for (std::string& line : batch.lines) {
      Result<Value> record = json::Parse(line);
      ASSERT_TRUE(record.ok()) << record.status().ToString();
      ASSERT_EQ(static_cast<uint64_t>(record->GetInt("seq")), applied + 1);
      ASSERT_TRUE(follower.ApplyWalRecord(record.value()).ok());
      ++applied;
      shipped.push_back(std::move(line));
    }
  }
  std::vector<std::string> wal_lines;
  {
    std::ifstream in(wal_path);
    std::string line;
    while (std::getline(in, line)) {
      if (!line.empty()) wal_lines.push_back(line);
    }
  }
  EXPECT_EQ(shipped, wal_lines);
  EXPECT_EQ(follower.Dump(), leader.Dump());
  leader.DisableWal();
  fs::remove(wal_path);
}

// A fetch served from the WAL file leaves a cursor, and the next file read
// resumes at it. A compaction in between rewrites the file, so the cursor's
// byte offset no longer holds the next record: the read must notice, start
// over from the top and still ship exactly the missing suffix.
TEST(ReplicationHubRing, FileFallbackResumesAcrossCompaction) {
  const std::string tag = "laminar_repl_cursor_" + std::to_string(::getpid());
  const std::string wal_path = TempPath(tag + ".jsonl");
  const std::string snap_path = TempPath(tag + "_snap.json");
  fs::remove(wal_path);
  fs::remove(snap_path);
  registry::Database leader;
  ASSERT_TRUE(registry::CreateLaminarSchema(leader).ok());
  ASSERT_TRUE(leader.Recover(snap_path, wal_path).ok());
  // A 16-record ring: almost every fetch below misses it.
  server::ReplicationHub hub(wal_path, leader.wal_status().appended_seq, 16);
  leader.SetWalObserver([&hub](uint64_t seq, const std::string& line) {
    hub.Publish(seq, line);
  });
  registry::Repository repo(leader);
  auto add_pes = [&](size_t from, size_t to) {
    for (size_t i = from; i < to; ++i) {
      registry::PeRecord pe;
      pe.name = "Pe" + std::to_string(i);
      pe.code = PeCode(pe.name);
      pe.description_embedding = std::string(100 + i % 37, 'e');
      ASSERT_TRUE(repo.CreatePe(std::move(pe)).ok());
    }
  };
  add_pes(0, 300);
  registry::Database::Snapshot covered = leader.CaptureSnapshot();
  ASSERT_EQ(covered.wal_seq, 300u);
  add_pes(300, 700);

  registry::Database follower;
  ASSERT_TRUE(registry::CreateLaminarSchema(follower).ok());
  uint64_t applied = 0;
  auto fetch = [&](size_t max_records) {
    server::ReplicationHub::FetchResult batch =
        hub.Fetch(applied, max_records, 0);
    ASSERT_FALSE(batch.need_snapshot) << "from seq " << applied;
    ASSERT_FALSE(batch.lines.empty()) << "from seq " << applied;
    for (const std::string& line : batch.lines) {
      Result<Value> record = json::Parse(line);
      ASSERT_TRUE(record.ok()) << record.status().ToString();
      ASSERT_EQ(static_cast<uint64_t>(record->GetInt("seq")), applied + 1);
      ASSERT_TRUE(follower.ApplyWalRecord(record.value()).ok());
      ++applied;
    }
  };
  // A file read from the top, then one that resumes at its cursor.
  ASSERT_NO_FATAL_FAILURE(fetch(200));
  ASSERT_NO_FATAL_FAILURE(fetch(150));
  ASSERT_EQ(applied, 350u);
  // Drops records 1..300 from the file; the follower still needs 351 on.
  ASSERT_TRUE(leader.WriteSnapshot(std::move(covered), snap_path).ok());
  while (applied < hub.head_seq()) ASSERT_NO_FATAL_FAILURE(fetch(64));
  EXPECT_EQ(follower.Dump(), leader.Dump());
  leader.DisableWal();
  fs::remove(wal_path);
  fs::remove(snap_path);
}

/// One leader (WAL-enabled) plus N followers, all on ephemeral ports.
class ReplicationTest : public ::testing::Test {
 protected:
  void SetUp() override {
    // Pid-unique: ctest runs the whole suite and each of its tests as
    // separate processes in parallel, and a shared WAL would leak one
    // process's rows into another's leader.
    const std::string tag = "laminar_repl_" + std::to_string(::getpid());
    wal_path_ = TempPath(tag + "_wal.jsonl");
    snapshot_path_ = TempPath(tag + "_snap.json");
    fs::remove(wal_path_);
    fs::remove(snapshot_path_);
  }

  void TearDown() override {
    fs::remove(wal_path_);
    fs::remove(snapshot_path_);
  }

  void StartLeader() {
    server::ServerConfig config;
    config.wal_path = wal_path_;
    config.snapshot_path = snapshot_path_;
    net::TcpListenerConfig listener;
    listener.port = 0;
    Result<TcpLaminarServer> leader = ServeTcp(std::move(config), listener);
    ASSERT_TRUE(leader.ok()) << leader.status().ToString();
    leader_ = std::make_unique<TcpLaminarServer>(std::move(leader.value()));
  }

  std::unique_ptr<TcpLaminarServer> StartFollower(int max_replica_lag_ms = 0,
                                                  uint16_t leader_port = 0) {
    server::ServerConfig config;
    config.replica_of =
        "127.0.0.1:" +
        std::to_string(leader_port != 0 ? leader_port : leader_->port());
    config.max_replica_lag_ms = max_replica_lag_ms;
    net::TcpListenerConfig listener;
    listener.port = 0;
    Result<TcpLaminarServer> follower = ServeTcp(std::move(config), listener);
    EXPECT_TRUE(follower.ok()) << follower.status().ToString();
    if (!follower.ok()) return nullptr;
    return std::make_unique<TcpLaminarServer>(std::move(follower.value()));
  }

  static Result<TcpClient> Dial(uint16_t port) {
    return ConnectTcp("127.0.0.1", port);
  }

  /// Polls the follower's /replication/status until appliedSeq >= the
  /// leader's current headSeq.
  static void AwaitCatchUp(LaminarClient& leader_client,
                           LaminarClient& follower_client,
                           int timeout_ms = 10'000) {
    Result<Value> leader_status = leader_client.ReplicationStatus();
    ASSERT_TRUE(leader_status.ok()) << leader_status.status().ToString();
    const int64_t head = leader_status->GetInt("headSeq", 0);
    const auto deadline = std::chrono::steady_clock::now() +
                          std::chrono::milliseconds(timeout_ms);
    while (true) {
      Result<Value> status = follower_client.ReplicationStatus();
      if (status.ok() && status->GetInt("appliedSeq", 0) >= head) return;
      ASSERT_LT(std::chrono::steady_clock::now(), deadline)
          << "follower never caught up to leader headSeq " << head << ": "
          << (status.ok() ? status->ToJson() : status.status().ToString());
      std::this_thread::sleep_for(std::chrono::milliseconds(10));
    }
  }

  std::string wal_path_;
  std::string snapshot_path_;
  std::unique_ptr<TcpLaminarServer> leader_;
};

TEST_F(ReplicationTest, FollowerBootstrapsTailsAndServesIdenticalReads) {
  StartLeader();
  Result<TcpClient> leader_cli = Dial(leader_->port());
  ASSERT_TRUE(leader_cli.ok());

  // Rows registered BEFORE the follower exists arrive via the snapshot...
  Result<PeInfo> pe1 = leader_cli->client->RegisterPe(
      PeCode("SnapshotSource"), "SnapshotSource", "reads tuples from a file");
  ASSERT_TRUE(pe1.ok()) << pe1.status().ToString();

  std::unique_ptr<TcpLaminarServer> follower = StartFollower();
  ASSERT_NE(follower, nullptr);
  Result<TcpClient> follower_cli = Dial(follower->port());
  ASSERT_TRUE(follower_cli.ok());
  AwaitCatchUp(*leader_cli->client, *follower_cli->client);

  // ...and rows registered AFTER it bootstrapped arrive via the WAL tail.
  Result<PeInfo> pe2 = leader_cli->client->RegisterPe(
      PeCode("TailFilter"), "TailFilter", "filters tuples by a predicate");
  ASSERT_TRUE(pe2.ok()) << pe2.status().ToString();
  AwaitCatchUp(*leader_cli->client, *follower_cli->client);

  // Point reads resolve identically on both nodes.
  Result<PeInfo> got = follower_cli->client->GetPe(pe2->id);
  ASSERT_TRUE(got.ok()) << got.status().ToString();
  EXPECT_EQ(got->name, "TailFilter");
  EXPECT_EQ(got->code, PeCode("TailFilter"));

  // Parity gate at quiesce: follower search results are bit-identical to
  // the leader's — same ids, same order, same scores (the follower indexes
  // the stored embeddings, it never re-encodes).
  for (const char* query : {"reads tuples", "filters tuples", "tuples"}) {
    Result<std::vector<SearchHit>> on_leader =
        leader_cli->client->SearchRegistrySemantic(query);
    Result<std::vector<SearchHit>> on_follower =
        follower_cli->client->SearchRegistrySemantic(query);
    ASSERT_TRUE(on_leader.ok() && on_follower.ok());
    ASSERT_EQ(on_leader->size(), on_follower->size()) << query;
    for (size_t i = 0; i < on_leader->size(); ++i) {
      EXPECT_EQ((*on_leader)[i].id, (*on_follower)[i].id) << query;
      EXPECT_EQ((*on_leader)[i].score, (*on_follower)[i].score) << query;
    }
  }
  Result<std::vector<SearchHit>> literal =
      follower_cli->client->SearchRegistryLiteral("Filter");
  ASSERT_TRUE(literal.ok());
  EXPECT_EQ(literal->size(), 1u);

  // Removal also replicates: erase on the leader disappears on the replica.
  ASSERT_TRUE(leader_cli->client->RemovePe(pe1->id).ok());
  AwaitCatchUp(*leader_cli->client, *follower_cli->client);
  EXPECT_FALSE(follower_cli->client->GetPe(pe1->id).ok());

  // /stats surfaces the replication role on both sides.
  Result<Value> leader_stats = leader_cli->client->GetStats();
  ASSERT_TRUE(leader_stats.ok());
  EXPECT_EQ(leader_stats->at("replication").GetString("role"), "leader");
  EXPECT_TRUE(leader_stats->at("wal").GetBool("enabled"));
  Result<Value> follower_stats = follower_cli->client->GetStats();
  ASSERT_TRUE(follower_stats.ok());
  EXPECT_EQ(follower_stats->at("replication").GetString("role"), "follower");
  EXPECT_GE(follower_stats->at("replication").GetInt("recordsApplied"), 1);
}

TEST_F(ReplicationTest, FollowerRejectsMutationsWith421) {
  StartLeader();
  std::unique_ptr<TcpLaminarServer> follower = StartFollower();
  ASSERT_NE(follower, nullptr);

  // Wire-level: the raw HTTP status must be 421 and the body must name the
  // leader, so any client can fail over without Laminar-specific logic.
  Result<std::unique_ptr<net::ByteStream>> stream =
      net::TcpConnect("127.0.0.1", follower->port());
  ASSERT_TRUE(stream.ok());
  net::HttpConnection raw(std::move(stream.value()),
                          net::HttpConnection::Mode::kStreaming);
  for (const char* path :
       {"/pes/register", "/execute", "/registry/remove_all",
        "/replication/fetch"}) {
    net::HttpRequest req;
    req.path = path;
    req.body = "{}";
    Result<std::pair<int, std::string>> resp = raw.Call(req);
    ASSERT_TRUE(resp.ok()) << path;
    EXPECT_EQ(resp->first, 421) << path;
    Result<Value> body = json::Parse(resp->second);
    ASSERT_TRUE(body.ok()) << path;
    EXPECT_EQ(body->GetString("leader"),
              "127.0.0.1:" + std::to_string(leader_->port()))
        << path;
  }
  raw.Close();

  // Client-level: 421 maps to kUnavailable (the fan-out failover trigger).
  Result<TcpClient> follower_cli = Dial(follower->port());
  ASSERT_TRUE(follower_cli.ok());
  Result<PeInfo> refused =
      follower_cli->client->RegisterPe(PeCode("Nope"), "Nope");
  ASSERT_FALSE(refused.ok());
  EXPECT_EQ(refused.status().code(), StatusCode::kUnavailable);
}

TEST_F(ReplicationTest, StalenessContractRefusesReadsWith503) {
  // A follower whose leader does not exist can never confirm freshness:
  // with a staleness bound configured, reads must fail 503, not serve an
  // empty (infinitely stale) registry.
  uint16_t dead_port = 1;  // nothing listens on port 1
  std::unique_ptr<TcpLaminarServer> orphan =
      StartFollower(/*max_replica_lag_ms=*/50, /*leader_port=*/dead_port);
  ASSERT_NE(orphan, nullptr);
  Result<TcpClient> orphan_cli = Dial(orphan->port());
  ASSERT_TRUE(orphan_cli.ok());
  Result<std::vector<SearchHit>> stale =
      orphan_cli->client->SearchRegistryLiteral("anything");
  ASSERT_FALSE(stale.ok());
  EXPECT_EQ(stale.status().code(), StatusCode::kUnavailable);
  // /replication/status stays observable even while reads are refused.
  Result<Value> status = orphan_cli->client->ReplicationStatus();
  ASSERT_TRUE(status.ok());
  EXPECT_FALSE(status->GetBool("bootstrapped", true));
  orphan.reset();

  // With a live leader and a generous bound, the same gate passes once the
  // follower has confirmed catch-up.
  StartLeader();
  Result<TcpClient> leader_cli = Dial(leader_->port());
  ASSERT_TRUE(leader_cli.ok());
  ASSERT_TRUE(
      leader_cli->client->RegisterPe(PeCode("Fresh"), "Fresh").ok());
  std::unique_ptr<TcpLaminarServer> follower =
      StartFollower(/*max_replica_lag_ms=*/60'000);
  ASSERT_NE(follower, nullptr);
  Result<TcpClient> follower_cli = Dial(follower->port());
  ASSERT_TRUE(follower_cli.ok());
  AwaitCatchUp(*leader_cli->client, *follower_cli->client);
  Result<std::vector<SearchHit>> fresh =
      follower_cli->client->SearchRegistryLiteral("Fresh");
  ASSERT_TRUE(fresh.ok()) << fresh.status().ToString();
  EXPECT_EQ(fresh->size(), 1u);
}

TEST_F(ReplicationTest, ReplicaSetClientRoutesReadsAndFailsOver) {
  StartLeader();
  Result<TcpClient> seed = Dial(leader_->port());
  ASSERT_TRUE(seed.ok());
  ASSERT_TRUE(seed->client->RegisterPe(PeCode("Routed"), "Routed").ok());
  std::unique_ptr<TcpLaminarServer> f1 = StartFollower();
  std::unique_ptr<TcpLaminarServer> f2 = StartFollower();
  ASSERT_NE(f1, nullptr);
  ASSERT_NE(f2, nullptr);

  const std::string leader_spec =
      "127.0.0.1:" + std::to_string(leader_->port());
  Result<std::unique_ptr<ReplicaSetClient>> set = ReplicaSetClient::Connect(
      leader_spec, {"127.0.0.1:" + std::to_string(f1->port()),
                    "127.0.0.1:" + std::to_string(f2->port())});
  ASSERT_TRUE(set.ok()) << set.status().ToString();
  EXPECT_EQ((*set)->follower_count(), 2u);
  ASSERT_TRUE((*set)->WaitForCatchUp(10'000).ok());

  // Reads succeed through the set; writes go to the leader explicitly.
  Result<std::vector<SearchHit>> hits =
      (*set)->Read<std::vector<SearchHit>>([](LaminarClient& c) {
        return c.SearchRegistryLiteral("Routed");
      });
  ASSERT_TRUE(hits.ok()) << hits.status().ToString();
  EXPECT_EQ(hits->size(), 1u);
  Result<PeInfo> write = (*set)->leader().RegisterPe(PeCode("ViaSet"));
  ASSERT_TRUE(write.ok()) << write.status().ToString();

  // Kill both followers: every read must fail over to the leader rather
  // than surface kUnavailable to the caller.
  f1.reset();
  f2.reset();
  for (int i = 0; i < 8; ++i) {
    Result<std::vector<SearchHit>> after =
        (*set)->Read<std::vector<SearchHit>>([](LaminarClient& c) {
          return c.SearchRegistryLiteral("Routed");
        });
    ASSERT_TRUE(after.ok())
        << "read " << i << ": " << after.status().ToString();
  }
}

TEST_F(ReplicationTest, FollowerRestartResyncsWithoutDupOrSkip) {
  StartLeader();
  Result<TcpClient> leader_cli = Dial(leader_->port());
  ASSERT_TRUE(leader_cli.ok());
  for (int i = 0; i < 3; ++i) {
    ASSERT_TRUE(leader_cli->client
                    ->RegisterPe(PeCode("Before" + std::to_string(i)),
                                 "Before" + std::to_string(i))
                    .ok());
  }
  std::unique_ptr<TcpLaminarServer> follower = StartFollower();
  ASSERT_NE(follower, nullptr);
  {
    Result<TcpClient> follower_cli = Dial(follower->port());
    ASSERT_TRUE(follower_cli.ok());
    AwaitCatchUp(*leader_cli->client, *follower_cli->client);
  }

  // Kill the follower mid-stream, mutate the leader while it is down,
  // then bring a fresh follower up at the same role.
  follower.reset();
  for (int i = 0; i < 3; ++i) {
    ASSERT_TRUE(leader_cli->client
                    ->RegisterPe(PeCode("While" + std::to_string(i)),
                                 "While" + std::to_string(i))
                    .ok());
  }
  follower = StartFollower();
  ASSERT_NE(follower, nullptr);
  Result<TcpClient> follower_cli = Dial(follower->port());
  ASSERT_TRUE(follower_cli.ok());
  AwaitCatchUp(*leader_cli->client, *follower_cli->client);

  // A restarted follower re-bootstraps (it keeps no local WAL), and the
  // snapshot + suffix hand-off is exact: no row duplicated, none skipped.
  Result<Value> status = follower_cli->client->ReplicationStatus();
  ASSERT_TRUE(status.ok());
  EXPECT_GE(status->GetInt("bootstraps"), 1);
  EXPECT_EQ(status->GetInt("gaps"), 0);
  EXPECT_EQ(status->GetInt("appliedSeq"), status->GetInt("leaderSeq"));

  auto leader_registry = leader_cli->client->GetRegistry();
  auto follower_registry = follower_cli->client->GetRegistry();
  ASSERT_TRUE(leader_registry.ok() && follower_registry.ok());
  ASSERT_EQ(leader_registry->first.size(), follower_registry->first.size());
  for (size_t i = 0; i < leader_registry->first.size(); ++i) {
    EXPECT_EQ(leader_registry->first[i].id, follower_registry->first[i].id);
    EXPECT_EQ(leader_registry->first[i].name,
              follower_registry->first[i].name);
  }
}

TEST_F(ReplicationTest, SnapshotAndWalRecoverAndBootstrapIdentically) {
  // Pins the on-disk format: a snapshot plus WAL suffix written by one
  // leader recovers in a restarted leader, and bootstraps a follower, to
  // the same records and bit-identical semantic scores. The stored columns
  // (descriptionEmbedding, sptEmbedding) are read back, never re-encoded,
  // so any drift in how they were written or parsed shows up here.
  const std::string tag = "laminar_repl_compat_" + std::to_string(::getpid());
  const std::string side_before = TempPath(tag + "_before.json");
  const std::string side_after = TempPath(tag + "_after.json");
  const std::vector<std::string> queries = {
      "reads quoted tuples", "filters prime numbers", "sensor anomaly",
      "tuples"};
  struct State {
    std::vector<PeInfo> pes;
    std::vector<std::string> workflows;
    std::vector<std::vector<SearchHit>> hits;
    int64_t stats_pes = -1;
  };
  auto capture = [&](LaminarClient& client) {
    State state;
    auto registry = client.GetRegistry();
    EXPECT_TRUE(registry.ok());
    if (!registry.ok()) return state;
    state.pes = registry->first;
    for (const WorkflowInfo& wf : registry->second) {
      state.workflows.push_back(wf.name + "|" + wf.description + "|" +
                                wf.code);
    }
    for (const std::string& q : queries) {
      for (const char* target : {"pe", "workflow"}) {
        Result<std::vector<SearchHit>> hits =
            client.SearchRegistrySemantic(q, target);
        EXPECT_TRUE(hits.ok()) << q;
        state.hits.push_back(hits.ok() ? *hits : std::vector<SearchHit>{});
      }
    }
    Result<Value> stats = client.GetStats();
    EXPECT_TRUE(stats.ok());
    if (stats.ok()) state.stats_pes = stats->GetInt("pes", -1);
    return state;
  };
  auto expect_same = [](const State& want, const State& got,
                        const char* where) {
    ASSERT_EQ(want.pes.size(), got.pes.size()) << where;
    for (size_t i = 0; i < want.pes.size(); ++i) {
      const PeInfo& a = want.pes[i];
      const PeInfo& b = got.pes[i];
      EXPECT_EQ(a.id, b.id) << where;
      EXPECT_EQ(a.name, b.name) << where;
      EXPECT_EQ(a.description, b.description) << where;
      EXPECT_EQ(a.code, b.code) << where;
    }
    EXPECT_EQ(want.workflows, got.workflows) << where;
    EXPECT_EQ(want.stats_pes, got.stats_pes) << where;
    ASSERT_EQ(want.hits.size(), got.hits.size()) << where;
    for (size_t q = 0; q < want.hits.size(); ++q) {
      ASSERT_EQ(want.hits[q].size(), got.hits[q].size()) << where << " " << q;
      for (size_t i = 0; i < want.hits[q].size(); ++i) {
        EXPECT_EQ(want.hits[q][i].id, got.hits[q][i].id) << where << " " << q;
        // Bit-identical, not approximately equal.
        EXPECT_EQ(want.hits[q][i].score, got.hits[q][i].score)
            << where << " " << q;
      }
    }
  };

  StartLeader();
  State before;
  {
    Result<TcpClient> cli = Dial(leader_->port());
    ASSERT_TRUE(cli.ok());
    LaminarClient& client = *cli->client;
    // Descriptions exercise every escape class the writer has: quotes,
    // backslashes, tabs, control bytes and UTF-8 multibyte text.
    ASSERT_TRUE(client
                    .RegisterPe(PeCode("QuotedReader"), "QuotedReader",
                                "reads \"quoted\" tuples\tfrom C:\\data")
                    .ok());
    ASSERT_TRUE(client
                    .RegisterPe(PeCode("Premier"), "Premier",
                                std::string("filtre les nombres premiers \xe2\x80\x94 "
                                            "caf\xc3\xa9 \x01 bell\x07"))
                    .ok());
    const DemoWorkflow* demo = FindDemoWorkflow("isprime_wf");
    ASSERT_NE(demo, nullptr);
    ASSERT_TRUE(
        client.RegisterWorkflow(demo->name, demo->spec, demo->pes, demo->code)
            .ok());
    // Everything so far lands in the snapshot; the rest is WAL suffix.
    ASSERT_TRUE(client.SaveRegistry(snapshot_path_).ok());
    Result<PeInfo> suffix = client.RegisterPe(
        PeCode("SuffixFilter"), "SuffixFilter", "filters tuples by a predicate");
    ASSERT_TRUE(suffix.ok());
    ASSERT_TRUE(client
                    .UpdatePeDescription(suffix->id,
                                         "flags sensor anomalies over a window")
                    .ok());
    const DemoWorkflow* anomaly = FindDemoWorkflow("anomaly_wf");
    ASSERT_NE(anomaly, nullptr);
    ASSERT_TRUE(client
                    .RegisterWorkflow(anomaly->name, anomaly->spec,
                                      anomaly->pes, anomaly->code)
                    .ok());
    before = capture(client);
    ASSERT_TRUE(client.SaveRegistry(side_before).ok());
  }
  ASSERT_GE(before.pes.size(), 8u);
  ASSERT_EQ(before.workflows.size(), 2u);

  // Restart: the new leader recovers the snapshot plus the WAL suffix.
  leader_.reset();
  StartLeader();
  Result<TcpClient> leader_cli = Dial(leader_->port());
  ASSERT_TRUE(leader_cli.ok());
  expect_same(before, capture(*leader_cli->client), "recovered leader");
  // Re-serializing the recovered tables reproduces the same snapshot bytes.
  ASSERT_TRUE(leader_cli->client->SaveRegistry(side_after).ok());
  const std::string before_bytes = ReadAll(side_before);
  EXPECT_FALSE(before_bytes.empty());
  EXPECT_EQ(before_bytes, ReadAll(side_after));
  // The stored columns are lossless: each parses back to exactly what the
  // server computed from the row's description and code.
  Result<Value> doc = json::Parse(before_bytes);
  ASSERT_TRUE(doc.ok()) << doc.status().ToString();
  const embed::UnixcoderSim text_model;
  const spt::AromaEngine aroma;
  size_t pe_rows = 0;
  for (const char* table : {"processing_element", "workflow"}) {
    for (const Value& row : doc->at(table).at("rows").as_array()) {
      EXPECT_EQ(embed::FromJson(row.GetString("descriptionEmbedding")),
                text_model.EncodeText(row.GetString("description")))
          << row.GetString("description");
      if (std::string(table) != "processing_element") continue;
      ++pe_rows;
      Result<spt::FeatureBag> stored =
          spt::FeatureBagFromJson(row.GetString("sptEmbedding"));
      Result<spt::FeatureBag> fresh = aroma.Featurize(row.GetString("peCode"));
      ASSERT_TRUE(stored.ok() && fresh.ok());
      EXPECT_EQ(stored->counts, fresh->counts);
    }
  }
  EXPECT_EQ(pe_rows, before.pes.size());

  // A follower bootstraps from the recovered leader's snapshot.
  std::unique_ptr<TcpLaminarServer> follower = StartFollower();
  ASSERT_NE(follower, nullptr);
  Result<TcpClient> follower_cli = Dial(follower->port());
  ASSERT_TRUE(follower_cli.ok());
  AwaitCatchUp(*leader_cli->client, *follower_cli->client);
  expect_same(before, capture(*follower_cli->client), "bootstrapped follower");

  follower.reset();
  leader_.reset();
  for (const std::string& path :
       {wal_path_, snapshot_path_, side_before, side_after}) {
    fs::remove(path);
  }
}

TEST_F(ReplicationTest, ConnectRetryRidesOutStartupRace) {
  // Reserve a port, release it, then start the real server on it only
  // after a delay — the single-shot connect must fail, the retrying
  // connect must ride the race out.
  uint16_t port = 0;
  {
    net::TcpListenerConfig probe;
    probe.port = 0;
    net::TcpListener reserver(probe, [](const net::HttpRequest&,
                                        net::StreamResponder&) {});
    ASSERT_TRUE(reserver.Start().ok());
    port = reserver.port();
    reserver.Stop();
  }
  Result<std::unique_ptr<net::ByteStream>> single =
      net::TcpConnect("127.0.0.1", port, 500);
  EXPECT_FALSE(single.ok()) << "nothing should be listening yet";

  std::unique_ptr<TcpLaminarServer> late;
  std::thread starter([&] {
    std::this_thread::sleep_for(std::chrono::milliseconds(150));
    server::ServerConfig config;
    net::TcpListenerConfig listener;
    listener.port = port;
    Result<TcpLaminarServer> serving = ServeTcp(std::move(config), listener);
    if (serving.ok()) {
      late = std::make_unique<TcpLaminarServer>(std::move(serving.value()));
    }
  });
  net::TcpConnectOptions options;
  options.attempts = 30;
  options.initial_backoff_ms = 20;
  options.max_backoff_ms = 200;
  Result<TcpClient> retried =
      ConnectTcp("127.0.0.1:" + std::to_string(port), options);
  starter.join();
  ASSERT_NE(late, nullptr) << "late server failed to start";
  ASSERT_TRUE(retried.ok()) << retried.status().ToString();
  Result<Value> stats = retried->client->GetStats();
  EXPECT_TRUE(stats.ok()) << stats.status().ToString();
}

}  // namespace
}  // namespace laminar::client
