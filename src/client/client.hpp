// The Laminar client (paper §IV-A, Table I): the full client-function
// surface — user registration/login, PE/workflow registration and
// management, literal/semantic search, code recommendation, and the three
// run modes (run, run_multiprocess, run_dynamic) with true streaming of
// workflow stdout.
//
// The client speaks the wire protocol over any HttpConnection; pair it with
// Mode::kStreaming for Laminar 2.0 behaviour or Mode::kBatch for the 1.0
// baseline the streaming bench compares against.
#pragma once

#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "common/status.hpp"
#include "common/value.hpp"
#include "net/http.hpp"
#include "net/multipart.hpp"

namespace laminar::client {

struct PeInfo {
  int64_t id = 0;
  std::string name;
  std::string description;
  std::string code;
};

struct WorkflowInfo {
  int64_t id = 0;
  std::string name;
  std::string description;
  std::vector<int64_t> pe_ids;
  std::string code;
};

struct SearchHit {
  int64_t id = 0;
  std::string name;
  std::string description;
  double score = 0.0;
  std::string similar_code;  ///< code recommendations only
  int64_t occurrences = 0;   ///< workflow recommendations only
};

/// Source of one PE inside a workflow registration.
struct PeSource {
  std::string code;
  std::string name;         ///< optional; derived from the class otherwise
  std::string description;  ///< optional; CodeT5 generates it otherwise
};

/// Outcome of a run; `lines` is the complete stdout, `stats` the engine's
/// ##END## record (tuples, runMs, coldStart, peakWorkers, executionId).
struct RunOutcome {
  Status status;
  std::vector<std::string> lines;
  Value stats;
  /// Milliseconds from request to the *first* stdout line (the §IV-E
  /// true-streaming metric).
  double first_line_ms = -1.0;
  double total_ms = 0.0;
};

/// Per-line streaming callback (optional on all run functions).
using LineCallback = std::function<void(const std::string&)>;

/// A named local resource attached to a run (§IV-F): the client sends
/// (name, content-hash) refs; content is uploaded only if the engine asks.
struct Resource {
  std::string name;
  std::string content;
};

class LaminarClient {
 public:
  /// Takes shared ownership of an established connection.
  explicit LaminarClient(std::shared_ptr<net::HttpConnection> connection);

  /// Attaches an `x-laminar-tenant` header to every subsequent request, so
  /// the server attributes quota/rate/run-queue usage to that tenant. Empty
  /// (the default) runs as the server's default tenant — the pre-tenancy
  /// behavior. A `"tenant"` field in a RunRaw body overrides the header.
  void SetTenant(std::string tenant) { tenant_ = std::move(tenant); }
  const std::string& tenant() const { return tenant_; }

  // ---- users ----
  Result<int64_t> Register(const std::string& user_name,
                           const std::string& password);
  /// On success the session token is attached to subsequent requests.
  Status Login(const std::string& user_name, const std::string& password);

  // ---- registration ----
  Result<PeInfo> RegisterPe(const std::string& code,
                            const std::string& name = "",
                            const std::string& description = "");
  Result<WorkflowInfo> RegisterWorkflow(const std::string& name,
                                        const Value& spec,
                                        const std::vector<PeSource>& pes,
                                        const std::string& code = "",
                                        const std::string& description = "");
  /// One-call batch registration (/registry/bulk_register): the server
  /// prepares all PEs in parallel and commits them in a single exclusive
  /// section. Returns the new PE ids in input order; items the server
  /// rejected are skipped (their errors are reported in the response body,
  /// and the call fails only if *no* PE registered).
  Result<std::vector<int64_t>> BulkRegisterPes(
      const std::vector<PeSource>& pes);

  // ---- retrieval ----
  Result<PeInfo> GetPe(int64_t id);
  Result<PeInfo> GetPeByName(const std::string& name);
  Result<WorkflowInfo> GetWorkflow(int64_t id);
  Result<WorkflowInfo> GetWorkflowByName(const std::string& name);
  Result<std::vector<PeInfo>> GetPesByWorkflow(int64_t workflow_id);
  /// Execution history of a workflow (id, mapping, status, timestamps).
  Result<Value> GetExecutions(int64_t workflow_id);
  /// All PEs and workflows in the registry.
  Result<std::pair<std::vector<PeInfo>, std::vector<WorkflowInfo>>>
  GetRegistry();
  Result<PeInfo> DescribePe(int64_t id) { return GetPe(id); }
  Result<WorkflowInfo> DescribeWorkflow(int64_t id) { return GetWorkflow(id); }

  // ---- updates / removal ----
  Status UpdatePeDescription(int64_t id, const std::string& description);
  Status UpdateWorkflowDescription(int64_t id, const std::string& description);
  Status RemovePe(int64_t id);
  Status RemoveWorkflow(int64_t id);
  Status RemoveAll();

  // ---- search (Table I: search_Registry_*) ----
  Result<std::vector<SearchHit>> SearchRegistryLiteral(
      const std::string& term, const std::string& target = "pe",
      size_t limit = 0);
  Result<std::vector<SearchHit>> SearchRegistrySemantic(
      const std::string& query, const std::string& target = "pe",
      size_t limit = 0);
  Result<std::vector<SearchHit>> CodeRecommendation(
      const std::string& code, const std::string& target = "pe",
      const std::string& embedding_type = "spt", size_t limit = 0);
  /// Code completion: suggested continuations for a partial PE snippet.
  /// Each hit's `similar_code` holds the continuation lines.
  Result<std::vector<SearchHit>> CompleteCode(const std::string& partial_code,
                                              size_t limit = 3);

  // ---- registry persistence & server stats ----
  /// Persists the server-side registry database to a file on the server.
  Status SaveRegistry(const std::string& path);
  /// Restores the registry from a server-side file and reindexes search.
  Status LoadRegistry(const std::string& path);
  /// This server's statistics (the /stats endpoint): registry, cache,
  /// broker, search-index, tenant, run-queue, WAL and replication blocks,
  /// plus the process-wide telemetry registry ("metrics") and recent
  /// spans ("trace").
  Result<Value> GetStats();
  /// Prometheus text exposition (the GET /metrics endpoint).
  Result<std::string> GetMetrics();
  /// The node's /replication/status: role ("leader"/"follower"/"none") and,
  /// on a follower, appliedSeq/leaderSeq/lag. Admission-exempt server-side,
  /// so it works even when the tenant's rate budget is exhausted.
  Result<Value> ReplicationStatus();
  /// Raw JSON endpoint call (tenant/auth headers attached). Escape hatch
  /// for endpoints without a typed wrapper; ReplicaSetClient uses it to
  /// probe nodes uniformly.
  Result<Value> CallEndpoint(const std::string& path, const Value& body,
                             int* http_status = nullptr) {
    return CallJson(path, body, http_status);
  }

  // ---- execution (Table I: run / run_multiprocess / run_dynamic) ----
  RunOutcome Run(int64_t workflow_id, const Value& input,
                 const LineCallback& on_line = nullptr,
                 const std::vector<Resource>& resources = {},
                 bool verbose = false);
  RunOutcome RunMultiprocess(int64_t workflow_id, const Value& input,
                             int processes = 4,
                             const LineCallback& on_line = nullptr,
                             const std::vector<Resource>& resources = {},
                             bool verbose = false);
  RunOutcome RunDynamic(int64_t workflow_id, const Value& input,
                        const LineCallback& on_line = nullptr,
                        const std::vector<Resource>& resources = {},
                        bool verbose = false);
  /// Runs an unregistered spec directly (used by benches).
  RunOutcome RunSpec(const Value& spec, const std::string& mapping,
                     const Value& input, int processes = 4,
                     const LineCallback& on_line = nullptr,
                     const std::vector<Resource>& resources = {},
                     bool verbose = false);
  /// Runs with a caller-built /execute request body ("spec"/"workflowId",
  /// "mapping", "input", and any run option the wire format accepts — e.g.
  /// "max_retries"/"retry_backoff_ms" for the fault-containment policy).
  RunOutcome RunRaw(Value request_body, const LineCallback& on_line = nullptr,
                    const std::vector<Resource>& resources = {});

  /// Uploads resources explicitly (normally automatic inside Run*).
  Status UploadResources(const std::vector<Resource>& resources);

 private:
  Result<Value> CallJson(const std::string& path, const Value& body,
                         int* http_status = nullptr);
  RunOutcome RunInternal(Value request_body, const LineCallback& on_line,
                         const std::vector<Resource>& resources);

  std::shared_ptr<net::HttpConnection> conn_;
  std::string token_;
  std::string tenant_;
};

}  // namespace laminar::client
