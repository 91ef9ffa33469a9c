// The Laminar server (paper §III): coordinates clients, registry, search and
// the execution engine. Organized like the paper's layering — this class is
// the controller tier; registry::Repository is the data-access tier;
// search::SearchService / ExecutionEngine are the service tier.
//
// The server is transport-agnostic: Handle() implements the protocol and can
// be bound as the handler of any number of HttpConnections (batch or
// streaming). Locking discipline: one std::shared_mutex guards the registry
// tier — mutations take it exclusively, while read-only endpoints (search,
// completion, recommendation, get/list, stats) take shared locks so
// concurrent searches run in parallel and never queue behind each other or
// behind registry writes. Workflow execution runs outside the lock.
//
// Endpoints: the route table in server.cpp (LaminarServer::FindRoute) lists
// every path with its body kind, follower, admission and lock policy. Every
// request is counted into laminar_server_requests_total{path=...} and timed
// into laminar_server_request_ms{path=...}; unknown paths answer 404 and
// collapse to path="other" so the label set stays bounded.
#pragma once

#include <memory>
#include <shared_mutex>
#include <string>

#include "common/thread_pool.hpp"
#include "embed/codet5_sim.hpp"
#include "engine/engine.hpp"
#include "engine/run_queue.hpp"
#include "net/http.hpp"
#include "registry/repository.hpp"
#include "search/search_service.hpp"
#include "server/admission.hpp"
#include "server/replication.hpp"

namespace laminar::server {

struct ServerConfig {
  engine::EngineConfig engine;
  /// Search tier, including the vector-index knobs (`search.vector_index`:
  /// parallel_threshold, max_threads, strategy flat|hnsw|auto, HNSW shape).
  /// The chosen values are surfaced under /stats "search.vectorIndex".
  search::SearchConfig search;
  /// Name of the implicit user owning unauthenticated registrations.
  std::string default_user = "laminar";
  /// Helper threads for the ingest pool: /registry/bulk_register prepares
  /// and bulk index rebuilds fan out across them (plus the calling thread).
  /// 0 disables the pool — everything still works, just serially.
  size_t ingest_threads = 4;
  /// When non-empty, every committed registry mutation is appended to this
  /// write-ahead log, and construction recovers snapshot_path + WAL suffix
  /// (a missing snapshot/WAL is a normal first boot, not an error).
  std::string wal_path;
  /// Snapshot consulted by startup recovery when wal_path is set.
  std::string snapshot_path;
  /// WAL durability: "none" (default — the OS flushes on its own schedule;
  /// crash-consistent but the tail may be lost on power failure), "interval"
  /// (a background thread fsyncs every wal_fsync_interval_ms without
  /// blocking appends), or "per_record" (fsync inside every append — full
  /// durability, slowest). /stats "wal" reports appendedSeq vs durableSeq.
  std::string wal_fsync = "none";
  int wal_fsync_interval_ms = 50;
  /// "host:port" of a leader to replicate from. Non-empty turns this server
  /// into a read-only follower: it bootstraps from the leader's snapshot,
  /// tails its WAL, serves every read endpoint, and answers mutations and
  /// /execute with HTTP 421 pointing at the leader. wal_path/snapshot_path
  /// are ignored on a follower (its registry is a replica, not an origin).
  std::string replica_of;
  /// Follower bounded-staleness contract: when > 0, read endpoints answer
  /// 503 unless the follower confirmed it was caught up with the leader
  /// within this many milliseconds. Must exceed the replication fetch
  /// long-poll (1 s) or an idle follower flaps stale. 0 = always serve.
  int max_replica_lag_ms = 0;
  /// Multi-tenant admission (ROADMAP item 3). `tenant_quotas` applies to
  /// every tenant without an entry in `tenant_overrides`; the zero-valued
  /// defaults mean "unlimited", so an unconfigured server admits everything
  /// exactly as before tenancy existed.
  TenantQuotas tenant_quotas;
  std::map<std::string, TenantQuotas> tenant_overrides;
  /// Concurrent /execute enactments (FairRunQueue slots). 0 = inherit
  /// engine.max_concurrent so the queue never adds a second bottleneck.
  int run_workers = 0;
  /// Global queued-run cap across all tenants; 0 = unlimited.
  size_t run_queue_depth = 0;
};

class LaminarServer {
 public:
  explicit LaminarServer(ServerConfig config = {});

  /// The protocol handler; bind into HttpConnection as the StreamHandler.
  void Handle(const net::HttpRequest& request, net::StreamResponder& out);

  /// Convenience for binding: a StreamHandler closure over this server.
  net::StreamHandler HandlerFn();

  registry::Repository& repository() { return repo_; }
  search::SearchService& search() { return search_; }
  engine::ExecutionEngine& engine() { return engine_; }

  /// Marker prefixing the final stats chunk of an /execute stream.
  static constexpr std::string_view kEndMarker = "##END## ";

 private:
  /// One row of the route table (server.cpp): an endpoint's path, body
  /// kind, follower/admission/lock policy and handler.
  struct Route;
  /// The row for `path`, or null for an unknown endpoint.
  static const Route* FindRoute(std::string_view path);

  /// Two-phase registration. Prepare* runs the expensive work —
  /// CodeT5 summarization, UniXcoder/ReACC encodes, the SPT parse and
  /// featurization — on the request thread with NO registry lock held;
  /// Commit* inserts the row and upserts the precomputed vectors inside a
  /// short exclusive section. Concurrent writers therefore serialize only
  /// on the cheap commits instead of on each other's model inference.
  struct PreparedPeReg {
    registry::PeRecord record;
    search::SearchService::PreparedPe index;
  };
  Result<PreparedPeReg> PreparePeRegistration(const Value& pe_obj,
                                              const std::string& tenant) const;
  /// Requires mu_ held exclusively. Enforces the tenant PE quota against
  /// the row count the PE table keeps.
  Result<int64_t> CommitPeRegistration(PreparedPeReg prepared);
  /// The row half of CommitPeRegistration (quota, insert): the record is
  /// consumed and the caller commits `prepared.index` to search, which lets
  /// /registry/bulk_register commit a whole batch at once.
  Result<int64_t> InsertPeRow(PreparedPeReg& prepared);

  Value PeToJson(const registry::PeRecord& pe, bool with_code) const;
  Value WorkflowToJson(const registry::WorkflowRecord& wf,
                       bool with_code) const;
  /// The user a request's token names, else the default user. Takes mu_
  /// shared, so callers must not hold it.
  int64_t AuthUser(const net::HttpRequest& request);

  /// The /execute handler body: validates, queues and streams one run.
  void HandleExecute(const Value& body, int64_t user_id,
                     const std::string& tenant, net::StreamResponder& out);

  // Replication plumbing (see replication.hpp for the protocol).
  /// Follower bootstrap hook: loads the leader snapshot document and
  /// rebuilds the search indexes. Takes mu_ exclusively.
  Result<uint64_t> BootstrapFromSnapshot(const std::string& snapshot_doc);
  /// Follower apply hook: one fetch batch through Database::ApplyWalRecord
  /// under a single exclusive lock, maintaining search incrementally.
  Status ApplyReplicatedRecords(const std::vector<Value>& records);
  /// The /replication/status (and /stats "replication") body.
  Value ReplicationStatusJson() const;

  ServerConfig config_;
  registry::Database db_;
  registry::Repository repo_;
  search::SearchService search_;
  engine::ExecutionEngine engine_;
  /// Boundary quota/rate checks + per-tenant counters (own internal lock).
  AdmissionController admission_;
  /// Tenant-fair bounded dispatch for /execute (own internal lock).
  engine::FairRunQueue run_queue_;
  embed::CodeT5Sim codet5_;
  /// Helpers for bulk-ingest prepare fan-out (null when ingest_threads=0).
  std::unique_ptr<ThreadPool> ingest_pool_;
  /// Guards db_/repo_/search_/tokens_: shared for read-only endpoints,
  /// exclusive for mutations (each route's lock column in server.cpp).
  std::shared_mutex mu_;
  std::unordered_map<std::string, int64_t> tokens_;
  int64_t default_user_id_ = 0;
  uint64_t next_token_ = 1;
  /// Leader-side shipping ring (null unless wal_path set and not a
  /// follower). Fed by the Database WAL observer.
  std::unique_ptr<ReplicationHub> repl_hub_;
  /// Follower-side tailer (null unless replica_of set). Declared LAST so
  /// its destructor joins the replication thread before any member it
  /// touches (db_, search_, admission_, mu_) is destroyed.
  std::unique_ptr<ReplicationFollower> repl_follower_;
};

}  // namespace laminar::server
