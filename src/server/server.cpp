#include "server/server.hpp"

#include <cmath>
#include <mutex>
#include <type_traits>

#include "common/clock.hpp"
#include "common/json.hpp"
#include "common/log.hpp"
#include "dataflow/mapping.hpp"
#include "net/multipart.hpp"
#include "net/tcp.hpp"
#include "pycode/parser.hpp"
#include "telemetry/telemetry.hpp"

namespace laminar::server {
namespace {

int StatusToHttp(const Status& st) {
  switch (st.code()) {
    case StatusCode::kOk: return 200;
    case StatusCode::kInvalidArgument: return 400;
    case StatusCode::kParseError: return 400;
    case StatusCode::kPermissionDenied: return 401;
    case StatusCode::kNotFound: return 404;
    case StatusCode::kAlreadyExists: return 409;
    case StatusCode::kFailedPrecondition: return 428;
    case StatusCode::kResourceExhausted: return 429;
    case StatusCode::kUnavailable: return 503;
    case StatusCode::kDeadlineExceeded: return 408;
    case StatusCode::kInternal: return 500;
  }
  return 500;
}

Value ErrorBody(const Status& st) {
  Value body = Value::MakeObject();
  body["error"] = st.ToString();
  return body;
}

search::SearchTarget ParseTarget(const Value& body) {
  return body.GetString("target", "pe") == "workflow"
             ? search::SearchTarget::kWorkflow
             : search::SearchTarget::kPe;
}

/// Tenant resolution (ROADMAP item 3): an explicit `"tenant"` body field
/// wins, then the `x-laminar-tenant` header; requests naming neither run as
/// the default tenant, preserving all pre-tenancy behavior.
Result<std::string> ResolveTenant(const net::HttpRequest& request,
                                  const Value& body) {
  std::string tenant = body.GetString("tenant");
  if (tenant.empty()) tenant = request.headers.GetString("x-laminar-tenant");
  if (tenant.empty()) return std::string(kDefaultTenant);
  if (!ValidTenantName(tenant)) {
    return Status::InvalidArgument(
        "invalid tenant name '" + tenant + "' (want [A-Za-z0-9._-], 1-64 chars)");
  }
  return tenant;
}

/// Visibility rule for registry rows: default-tenant rows are shared with
/// everyone (the pre-tenancy registry keeps working for all callers), the
/// default tenant sees everything (it doubles as the operator view), and
/// otherwise rows are private to their owning tenant.
bool TenantCanSee(const std::string& requester, const std::string& row_tenant) {
  if (requester == kDefaultTenant) return true;
  std::string_view owner = registry::RowTenant(row_tenant);
  return owner == kDefaultTenant || owner == requester;
}

/// Boundary validation of /execute run options: every
/// numeric knob is type-, range- and finiteness-checked *before* any value
/// is cast into RunOptions, so NaN/negative deadlines or zero batch sizes
/// can never reach the mapping layer's int64 casts and divide-style loops.
/// Errors name the offending field so clients can self-correct.
Status ValidateRunOptions(const Value& body) {
  auto bad = [](std::string_view field, std::string_view why) {
    return Status::InvalidArgument("invalid run option '" + std::string(field) +
                                   "': " + std::string(why));
  };
  // Integer bounds also require a whole number.
  auto check = [&](std::string_view field, auto lo, auto hi) -> Status {
    constexpr bool integer = std::is_integral_v<decltype(lo)>;
    const Value& v = body.at(field);
    if (v.is_null()) return Status::Ok();  // absent -> default applies
    if (!v.is_number()) {
      return bad(field, integer ? "must be an integer" : "must be a number");
    }
    const double d = v.as_double();
    if (!std::isfinite(d)) {
      return bad(field, integer ? "must be an integer" : "must be finite");
    }
    if (integer && d != std::floor(d)) return bad(field, "must be an integer");
    if (d < static_cast<double>(lo) || d > static_cast<double>(hi)) {
      return bad(field, "out of range [" + std::to_string(lo) + ", " +
                            std::to_string(hi) + "]");
    }
    return Status::Ok();
  };
  // Durations: finite and non-negative (0 = disabled). The upper bound is
  // ~285 years in ms — far past meaningful, but it keeps ms->us conversions
  // comfortably inside int64.
  constexpr double kMaxMs = 9.0e12;
  for (std::string_view f :
       {"deadline_ms", "send_batch_max_delay_ms", "retry_backoff_ms"}) {
    Status st = check(f, 0.0, kMaxMs);
    if (!st.ok()) return st;
  }
  // Counts: strictly positive and bounded.
  for (std::string_view f : {"processes", "initial_workers", "max_workers"}) {
    Status st = check(f, 1, 4096);
    if (!st.ok()) return st;
  }
  for (std::string_view f : {"send_batch_size", "recv_batch_size"}) {
    Status st = check(f, 1, 1 << 20);
    if (!st.ok()) return st;
  }
  Status st = check("max_retries", 0, 1000);
  if (!st.ok()) return st;
  return check("priority", -100, 100);
}

/// Class name of the first class definition in the code (the registered PE's
/// canonical name when the client did not provide one).
std::string ExtractClassName(const std::string& code) {
  Result<pycode::NodePtr> parsed = pycode::ParseLenient(code);
  if (!parsed.ok()) return {};
  std::string name;
  parsed.value()->Visit([&](const pycode::Node& n) {
    if (!name.empty() || n.leaf || n.kind != "class_def") return;
    bool saw_kw = false;
    for (const auto& c : n.children) {
      if (c->leaf && c->token.IsKeyword("class")) {
        saw_kw = true;
        continue;
      }
      if (saw_kw && c->leaf && c->token.type == pycode::TokenType::kName) {
        name = c->token.text;
        return;
      }
    }
  });
  return name;
}

/// Counts one ingest phase into laminar_server_ingest_total and times it
/// into laminar_server_ingest_ms for as long as it lives. encode = the
/// shared-lock prepare work (summaries, embeddings, SPT featurization),
/// commit = the exclusive-lock row insert + index upsert.
class IngestPhase {
 public:
  explicit IngestPhase(const char* phase)
      : span_(std::string("ingest.") + phase,
              &telemetry::MetricsRegistry::Global().GetHistogram(
                  "laminar_server_ingest_ms", Label(phase))) {
    telemetry::MetricsRegistry::Global()
        .GetCounter("laminar_server_ingest_total", Label(phase))
        .Inc();
  }

 private:
  static std::string Label(const char* phase) {
    return std::string("phase=\"") + phase + '"';
  }
  telemetry::ScopedSpan span_;
};

void Reply(net::StreamResponder& out, int status, const Value& body) {
  out.SendChunk(body.ToJson());
  out.End(status);
}

void ReplyError(net::StreamResponder& out, const Status& st) {
  Reply(out, StatusToHttp(st), ErrorBody(st));
}

/// Whether `tenant` may see search hit `id` of `target`.
bool HitVisible(registry::Repository& repo, const std::string& tenant,
                search::SearchTarget target, int64_t id) {
  if (tenant == kDefaultTenant) return true;
  if (target == search::SearchTarget::kWorkflow) {
    Result<registry::WorkflowRecord> wf = repo.GetWorkflow(id);
    return wf.ok() && TenantCanSee(tenant, wf->tenant);
  }
  Result<registry::PeRecord> pe = repo.GetPe(id);
  return pe.ok() && TenantCanSee(tenant, pe->tenant);
}

/// {"hits":[...]} over the hits `tenant` may see; recommendation hits also
/// carry their similar code and occurrence count.
template <typename Hit>
Value HitsJson(registry::Repository& repo, const std::string& tenant,
               search::SearchTarget target, const std::vector<Hit>& hits) {
  Value arr = Value::MakeArray();
  for (const Hit& hit : hits) {
    if (!HitVisible(repo, tenant, target, hit.id)) continue;
    Value h = Value::MakeObject();
    h["id"] = hit.id;
    h["name"] = hit.name;
    h["description"] = hit.description;
    h["score"] = hit.score;
    if constexpr (std::is_same_v<Hit, search::RecommendationHit>) {
      h["similarCode"] = hit.similar_code;
      h["occurrences"] = static_cast<int64_t>(hit.occurrences);
    }
    arr.push_back(std::move(h));
  }
  Value resp = Value::MakeObject();
  resp["hits"] = std::move(arr);
  return resp;
}

size_t Limit(const Value& body, int64_t fallback = 0) {
  return static_cast<size_t>(body.GetInt("limit", fallback));
}

// ── Route policy columns (see the table in LaminarServer::FindRoute).
enum class Body { kJson, kRaw };
/// On a follower: kAlways serves; kServe serves subject to the
/// max_replica_lag_ms 503; the kRefuse* kinds answer 421 + the leader's
/// address and differ only in the reason they give.
enum class Follower { kAlways, kServe, kRefuse, kRefuseUpload, kRefuseChained };
/// kRateGated resolves the tenant and spends one of its rate tokens.
enum class Admission { kExempt, kRateGated };
/// The registry lock held around the handler; kSelf handlers lock mu_
/// themselves where they need it (two-phase ingest, off-lock disk writes,
/// streamed runs) or not at all.
enum class Lock { kShared, kExclusive, kSelf };

std::string_view RefusalReason(Follower follower) {
  switch (follower) {
    case Follower::kRefuseUpload:
      return "replica is read-only; upload resources to the leader";
    case Follower::kRefuseChained:
      // A follower has no WAL of its own to ship.
      return "this node is itself a replica; replicate from the leader";
    default:
      return "replica is read-only; send mutations and /execute to the leader";
  }
}

/// A handler's answer: the 200 body, an error status (replied with its HTTP
/// code), or Responded() once the handler wrote its own response — a
/// stream, a raw body, or a success other than 200.
using Answer = Result<Value>;
Answer Responded() { return Value(); }

/// What a handler is called with. `tenant` is empty on admission-exempt
/// routes.
struct Call {
  const net::HttpRequest& request;
  const Value& body;
  const std::string& tenant;
  net::StreamResponder& out;
};

}  // namespace

struct LaminarServer::Route {
  std::string_view path;  ///< also the metrics label
  Body body;
  Follower follower;
  Admission admission;
  Lock lock;
  Answer (*handler)(LaminarServer& self, const Call& call);
};

LaminarServer::LaminarServer(ServerConfig config)
    : config_(std::move(config)),
      repo_(db_),
      search_(repo_, config_.search),
      engine_(config_.engine),
      admission_(config_.tenant_quotas, config_.tenant_overrides),
      run_queue_(config_.run_workers > 0 ? config_.run_workers
                                         : config_.engine.max_concurrent,
                 config_.run_queue_depth) {
  if (config_.ingest_threads > 0) {
    ingest_pool_ = std::make_unique<ThreadPool>(config_.ingest_threads);
  }
  Status st = registry::CreateLaminarSchema(db_);
  if (!st.ok()) {
    log::Error("server", "schema creation failed: " + st.ToString());
  }
  if (!config_.replica_of.empty() && !config_.wal_path.empty()) {
    log::Warn("server",
              "--replica-of set: ignoring wal_path/snapshot_path (a replica "
              "is not an origin; its registry is rebuilt from the leader)");
    config_.wal_path.clear();
    config_.snapshot_path.clear();
  }
  if (!config_.wal_path.empty()) {
    registry::WalOptions wal_options;
    if (config_.wal_fsync == "interval") {
      wal_options.fsync = registry::WalFsyncMode::kInterval;
    } else if (config_.wal_fsync == "per_record") {
      wal_options.fsync = registry::WalFsyncMode::kPerRecord;
    } else {
      if (config_.wal_fsync != "none" && !config_.wal_fsync.empty()) {
        log::Warn("server", "unknown wal_fsync '" + config_.wal_fsync +
                                "', using \"none\"");
      }
      wal_options.fsync = registry::WalFsyncMode::kNone;
    }
    wal_options.fsync_interval_ms = config_.wal_fsync_interval_ms;
    Status rec =
        db_.Recover(config_.snapshot_path, config_.wal_path, wal_options);
    if (!rec.ok()) {
      log::Error("server", "registry recovery failed: " + rec.ToString());
    }
    st = search_.ReindexAll(ingest_pool_.get());
    if (!st.ok()) {
      log::Error("server", "post-recovery reindex failed: " + st.ToString());
    }
    // Leader side of replication: ship every committed WAL record into the
    // hub ring the moment it is appended (the observer runs under the WAL
    // mutex, so the ring sees records strictly in sequence order).
    repl_hub_ = std::make_unique<ReplicationHub>(
        config_.wal_path, db_.wal_status().appended_seq);
    db_.SetWalObserver([hub = repl_hub_.get()](uint64_t seq,
                                               const std::string& line) {
      hub->Publish(seq, line);
    });
  }
  Result<int64_t> uid = repo_.CreateUser(config_.default_user, "laminar");
  if (uid.ok()) {
    default_user_id_ = uid.value();
  } else {
    // Recovered registries already contain the default user.
    Result<registry::UserRecord> user =
        repo_.GetUserByName(config_.default_user);
    default_user_id_ = user.ok() ? user->id : 1;
  }
  if (!config_.replica_of.empty()) {
    Result<std::pair<std::string, uint16_t>> leader =
        net::ParseHostPort(config_.replica_of);
    if (!leader.ok()) {
      log::Error("server", "invalid --replica-of '" + config_.replica_of +
                               "': " + leader.status().ToString());
    } else {
      FollowerConfig fc;
      fc.leader_host = leader->first;
      fc.leader_port = leader->second;
      ReplicationFollower::Hooks hooks;
      hooks.bootstrap = [this](const std::string& doc) {
        return BootstrapFromSnapshot(doc);
      };
      hooks.apply = [this](const std::vector<Value>& records) {
        return ApplyReplicatedRecords(records);
      };
      repl_follower_ =
          std::make_unique<ReplicationFollower>(fc, std::move(hooks));
      repl_follower_->Start();
    }
  }
}

net::StreamHandler LaminarServer::HandlerFn() {
  return [this](const net::HttpRequest& req, net::StreamResponder& out) {
    Handle(req, out);
  };
}

int64_t LaminarServer::AuthUser(const net::HttpRequest& request) {
  std::string token = request.headers.GetString("authorization");
  std::shared_lock lock(mu_);
  if (!token.empty()) {
    auto it = tokens_.find(token);
    if (it != tokens_.end()) return it->second;
  }
  return default_user_id_;
}

Value LaminarServer::PeToJson(const registry::PeRecord& pe,
                              bool with_code) const {
  Value v = Value::MakeObject();
  v["peId"] = pe.id;
  v["peName"] = pe.name;
  v["description"] = pe.description;
  v["peType"] = pe.type;
  if (with_code) v["code"] = pe.code;
  return v;
}

Value LaminarServer::WorkflowToJson(const registry::WorkflowRecord& wf,
                                    bool with_code) const {
  Value v = Value::MakeObject();
  v["workflowId"] = wf.id;
  v["workflowName"] = wf.name;
  v["description"] = wf.description;
  v["entryPoint"] = wf.entry_point;
  if (with_code) v["code"] = wf.code;
  return v;
}

Result<LaminarServer::PreparedPeReg> LaminarServer::PreparePeRegistration(
    const Value& pe_obj, const std::string& tenant) const {
  PreparedPeReg prepared;
  registry::PeRecord& pe = prepared.record;
  pe.tenant = tenant;
  pe.code = pe_obj.GetString("code");
  if (pe.code.empty()) {
    return Status::InvalidArgument("PE registration requires 'code'");
  }
  pe.name = pe_obj.GetString("name");
  if (pe.name.empty()) pe.name = ExtractClassName(pe.code);
  if (pe.name.empty()) {
    return Status::InvalidArgument("cannot determine PE name from code");
  }
  pe.description = pe_obj.GetString("description");
  if (pe.description.empty()) {
    // §IV-C: auto-generate from the full class context.
    pe.description =
        codet5_.Summarize(pe.code, embed::DescriptionContext::kFullClass);
  }
  pe.type = pe_obj.GetString("type", "IterativePE");
  // One encode + one SPT featurization, shared by the stored columns and
  // the search indexes.
  prepared.index = search_.PreparePe(pe.name, pe.description,
                                     /*stored_embedding_json=*/"", pe.code);
  pe.description_embedding = embed::ToJson(prepared.index.text_embedding);
  if (prepared.index.has_features) {
    pe.spt_embedding = spt::FeatureBagToJson(prepared.index.features);
  }
  return prepared;
}

Result<int64_t> LaminarServer::CommitPeRegistration(PreparedPeReg prepared) {
  Result<int64_t> id = InsertPeRow(prepared);
  if (id.ok()) search_.CommitPe(id.value(), std::move(prepared.index));
  return id;
}

Result<int64_t> LaminarServer::InsertPeRow(PreparedPeReg& prepared) {
  // Authoritative quota check: this runs under the exclusive lock, so the
  // check-then-insert is atomic even when the shared-lock advisory check
  // was overtaken by another registration.
  const std::string& tenant = prepared.record.tenant;
  Status quota =
      admission_.AdmitPes(tenant, repo_.RowsOwnedBy(tenant).pes, 1);
  if (!quota.ok()) return quota;
  return repo_.CreatePe(std::move(prepared.record));
}

Result<uint64_t> LaminarServer::BootstrapFromSnapshot(
    const std::string& snapshot_doc) {
  std::unique_lock lock(mu_);
  Result<uint64_t> seq = db_.LoadFromText(snapshot_doc);
  if (!seq.ok()) return seq;
  Status st = search_.ReindexAll(ingest_pool_.get());
  if (!st.ok()) return st;
  // The snapshot replaced every row, including the default user's.
  Result<registry::UserRecord> user = repo_.GetUserByName(config_.default_user);
  if (user.ok()) default_user_id_ = user->id;
  return seq;
}

Status LaminarServer::ApplyReplicatedRecords(
    const std::vector<Value>& records) {
  std::unique_lock lock(mu_);
  bool full_reindex = false;
  for (const Value& record : records) {
    const std::string table = record.GetString("table");
    const std::string op = record.GetString("op");
    const int64_t id = record.GetInt("id", 0);
    const bool pe = table == registry::kPeTable;
    const bool indexed = pe || table == registry::kWorkflowTable;
    Status st = db_.ApplyWalRecord(record);
    if (!st.ok()) return st;
    if (op == "clear") {
      // Rebuilding after the batch covers every table's clear at once.
      full_reindex = true;
      continue;
    }
    if (!indexed) continue;
    // Incremental index maintenance mirrors what the leader's registration
    // paths do, reading the freshly applied row back from the repository —
    // stored embeddings are preferred over re-encoding, so a follower's
    // vectors are bit-identical to the leader's (the parity gate's basis).
    auto add = [&] {
      (void)(pe ? search_.AddPe(id) : search_.AddWorkflow(id));
    };
    auto remove = [&] {
      pe ? search_.RemovePe(id) : search_.RemoveWorkflow(id);
    };
    if (op == "insert") {
      add();
    } else if (op == "update") {
      remove();
      add();
    } else if (op == "erase") {
      remove();
    }
  }
  if (full_reindex) {
    search_.Clear();
    Status st = search_.ReindexAll(ingest_pool_.get());
    if (!st.ok()) return st;
  }
  return Status::Ok();
}

Value LaminarServer::ReplicationStatusJson() const {
  Value v = Value::MakeObject();
  if (repl_follower_ != nullptr) {
    v["role"] = "follower";
    v["leader"] = config_.replica_of;
    ReplicationFollower::StatusSnapshot s = repl_follower_->status();
    v["connected"] = s.connected;
    v["bootstrapped"] = s.bootstrapped;
    v["appliedSeq"] = static_cast<int64_t>(s.applied_seq);
    v["leaderSeq"] = static_cast<int64_t>(s.leader_seq);
    v["lagSeq"] = static_cast<int64_t>(
        s.leader_seq > s.applied_seq ? s.leader_seq - s.applied_seq : 0);
    v["lagMs"] = s.last_record_lag_ms;
    v["freshWithinMs"] =
        s.last_fresh_wall_ms > 0
            ? static_cast<int64_t>(NowWallMillis() - s.last_fresh_wall_ms)
            : static_cast<int64_t>(-1);
    v["recordsApplied"] = static_cast<int64_t>(s.records_applied);
    v["bytesReceived"] = static_cast<int64_t>(s.bytes_received);
    v["bootstraps"] = static_cast<int64_t>(s.bootstraps);
    v["gaps"] = static_cast<int64_t>(s.gaps);
    v["maxReplicaLagMs"] = config_.max_replica_lag_ms;
  } else if (repl_hub_ != nullptr) {
    v["role"] = "leader";
    v["headSeq"] = static_cast<int64_t>(repl_hub_->head_seq());
    v["fetches"] = static_cast<int64_t>(repl_hub_->fetches());
    v["recordsShipped"] = static_cast<int64_t>(repl_hub_->records_shipped());
  } else {
    v["role"] = "none";
  }
  return v;
}

void LaminarServer::HandleExecute(const Value& body, int64_t user_id,
                                  const std::string& tenant,
                                  net::StreamResponder& out) {
  // Reject malformed run options with 400 + the field name before anything
  // is cast into RunOptions.
  if (Status valid = ValidateRunOptions(body); !valid.ok()) {
    ReplyError(out, valid);
    return;
  }
  engine::ExecuteRequest req;
  int64_t workflow_id = body.GetInt("workflowId", 0);
  {
    std::shared_lock lock(mu_);  // only reads the workflow record
    if (workflow_id != 0) {
      Result<registry::WorkflowRecord> wf = repo_.GetWorkflow(workflow_id);
      if (!wf.ok()) {
        Reply(out, 404, ErrorBody(wf.status()));
        return;
      }
      Result<Value> spec = json::Parse(wf->entry_point);
      if (!spec.ok()) {
        ReplyError(out, Status::Internal("workflow has no executable spec"));
        return;
      }
      req.workflow_spec = std::move(spec.value());
      req.workflow_code = wf->code;
    } else if (body.contains("spec")) {
      req.workflow_spec = body.at("spec");
    } else {
      ReplyError(out, Status::InvalidArgument(
                          "execute requires 'workflowId' or 'spec'"));
      return;
    }
  }
  req.mapping = body.GetString("mapping", "simple");
  if (body.contains("input")) req.run_options.input = body.at("input");
  req.run_options.num_processes =
      static_cast<int>(body.GetInt("processes", 4));
  req.run_options.verbose = body.GetBool("verbose", false);
  // Dynamic-mapping pool and data-plane knobs; defaults come from the
  // RunOptions defaults so server and library cannot drift apart.
  const dataflow::RunOptions defaults;
  req.run_options.max_workers =
      static_cast<int>(body.GetInt("max_workers", 8));
  req.run_options.initial_workers = static_cast<int>(
      body.GetInt("initial_workers", defaults.initial_workers));
  req.run_options.send_batch_size = static_cast<int>(
      body.GetInt("send_batch_size", defaults.send_batch_size));
  req.run_options.recv_batch_size = static_cast<int>(
      body.GetInt("recv_batch_size", defaults.recv_batch_size));
  req.run_options.send_batch_max_delay_ms = body.GetDouble(
      "send_batch_max_delay_ms", defaults.send_batch_max_delay_ms);
  req.run_options.deadline_ms = body.GetDouble("deadline_ms", 0.0);
  req.run_options.max_retries =
      static_cast<int>(body.GetInt("max_retries", 0));
  req.run_options.retry_backoff_ms = body.GetDouble("retry_backoff_ms", 0.0);
  for (const Value& r : body.at("resources").as_array()) {
    engine::ResourceRef ref;
    ref.name = r.GetString("name");
    ref.content_hash = static_cast<uint64_t>(r.GetInt("hash"));
    req.resources.push_back(std::move(ref));
  }

  // §IV-F: answer with the missing-resource list before anything runs.
  std::vector<engine::ResourceRef> missing =
      engine_.MissingResources(req.resources);
  if (!missing.empty()) {
    Value resp = Value::MakeObject();
    Value arr = Value::MakeArray();
    for (const engine::ResourceRef& m : missing) {
      Value e = Value::MakeObject();
      e["name"] = m.name;
      e["hash"] = static_cast<int64_t>(m.content_hash);
      arr.push_back(std::move(e));
    }
    resp["missing"] = std::move(arr);
    Reply(out, 428, resp);
    return;
  }

  // Tenant-fair bounded dispatch: acquire a run slot before touching the
  // engine. Rejections (queue depth / concurrency caps) come back as 429
  // with a retryAfterMs hint; a deadline that expires while queued is 408.
  const TenantQuotas& quotas = admission_.QuotasFor(tenant);
  engine::FairRunQueue::AcquireOptions acquire;
  acquire.weight = quotas.weight;
  acquire.max_concurrent = quotas.max_concurrent_runs;
  acquire.max_queued = quotas.max_queued_runs;
  acquire.priority = static_cast<int>(body.GetInt("priority", 0));
  acquire.deadline_us =
      dataflow::DeadlineMicrosFromNow(req.run_options.deadline_ms);
  double retry_after_ms = 0.0;
  Result<engine::FairRunQueue::Ticket> ticket =
      run_queue_.Acquire(tenant, acquire, &retry_after_ms);
  if (!ticket.ok()) {
    Value err = ErrorBody(ticket.status());
    if (ticket.status().code() == StatusCode::kResourceExhausted) {
      err["retryAfterMs"] = retry_after_ms;
    }
    Reply(out, StatusToHttp(ticket.status()), err);
    return;
  }
  // Non-default tenants get their broker run keys under t:<tenant>:wf:N:*,
  // so DelPrefix cleanup and any future per-tenant introspection can never
  // cross namespaces. The default tenant keeps the legacy wf:N:* keys.
  if (tenant != kDefaultTenant) {
    req.run_options.run_scope = "t:" + tenant + ":";
  }

  int64_t execution_id = 0;
  if (workflow_id != 0) {
    std::scoped_lock lock(mu_);
    Result<int64_t> eid =
        repo_.CreateExecution(workflow_id, user_id, req.mapping);
    if (eid.ok()) execution_id = eid.value();
  }

  // §IV-E: stream stdout lines as response chunks the moment they appear.
  engine::ExecuteStats stats;
  Result<dataflow::RunResult> result = engine_.Execute(
      req,
      [&out](const std::string& line) { out.SendChunk(line + "\n"); },
      &stats);
  admission_.RecordRunOutcome(tenant, result.ok());
  ticket->Release();  // free the run slot before the (possibly slow) reply

  Value end = Value::MakeObject();
  // Process-wide totals straight from the telemetry registry — the same
  // numbers /stats serves, so the stream and the endpoint cannot diverge.
  end["totals"] = engine::ExecutionTotalsJson();
  // Fault-containment summary: present on success and failure alike, so a
  // partial failure reaches the client as structured data (counts + sample
  // errors) rather than a dropped connection.
  end["failedTuples"] = static_cast<int64_t>(stats.failed_tuples);
  end["retries"] = static_cast<int64_t>(stats.retries);
  end["dlqDepth"] = static_cast<int64_t>(stats.dlq_depth);
  Value samples = Value::MakeArray();
  for (const std::string& e : stats.error_samples) samples.push_back(e);
  end["errorSamples"] = std::move(samples);
  if (!result.ok()) {
    end["error"] = result.status().ToString();
    end["tuples"] = static_cast<int64_t>(stats.tuples);
    end["runMs"] = stats.run_ms;
    if (execution_id != 0) {
      std::scoped_lock lock(mu_);
      (void)repo_.FinishExecution(execution_id, "failed",
                                  result.status().ToString(), 0);
    }
    out.SendChunk(std::string(kEndMarker) + end.ToJson());
    out.End(StatusToHttp(result.status()));
    return;
  }
  end["tuples"] = static_cast<int64_t>(stats.tuples);
  end["lines"] = static_cast<int64_t>(stats.lines);
  end["coldStart"] = stats.cold_start;
  end["runMs"] = stats.run_ms;
  end["peakWorkers"] = stats.peak_workers;
  end["executionId"] = execution_id;
  if (execution_id != 0) {
    std::string output;
    for (const std::string& line : result->output_lines) {
      output += line;
      output += '\n';
    }
    std::scoped_lock lock(mu_);
    (void)repo_.FinishExecution(
        execution_id, "succeeded", output,
        static_cast<int64_t>(result->output_lines.size()));
  }
  out.SendChunk(std::string(kEndMarker) + end.ToJson());
  out.End(200);
}

void LaminarServer::Handle(const net::HttpRequest& request,
                           net::StreamResponder& out) {
  const Route* route = FindRoute(request.path);
  // Unknown paths share the path="other" label so the label set stays
  // bounded.
  auto& reg = telemetry::MetricsRegistry::Global();
  std::string label = "path=\"";
  label += route != nullptr ? route->path : "other";
  label += '"';
  reg.GetCounter("laminar_server_requests_total", label).Inc();
  telemetry::ScopedSpan span(
      "server.request", &reg.GetHistogram("laminar_server_request_ms", label));
  if (route == nullptr) {
    ReplyError(out,
               Status::NotFound("unknown endpoint '" + request.path + "'"));
    return;
  }

  Value body = Value::MakeObject();
  if (route->body == Body::kJson && !request.body.empty()) {
    Result<Value> parsed = json::Parse(request.body);
    if (!parsed.ok()) {
      ReplyError(out, parsed.status());
      return;
    }
    body = std::move(parsed.value());
  }

  if (repl_follower_ != nullptr && route->follower != Follower::kAlways) {
    if (route->follower != Follower::kServe) {
      Value err = ErrorBody(Status::FailedPrecondition(
          std::string(RefusalReason(route->follower))));
      err["leader"] = config_.replica_of;
      Reply(out, 421, err);
      return;
    }
    if (config_.max_replica_lag_ms > 0 &&
        !repl_follower_->IsFresh(config_.max_replica_lag_ms)) {
      ReplicationFollower::StatusSnapshot s = repl_follower_->status();
      Value err = ErrorBody(Status::Unavailable(
          "replica staleness exceeds maxReplicaLagMs"));
      err["maxReplicaLagMs"] = config_.max_replica_lag_ms;
      err["appliedSeq"] = static_cast<int64_t>(s.applied_seq);
      err["leaderSeq"] = static_cast<int64_t>(s.leader_seq);
      Reply(out, 503, err);
      return;
    }
  }

  // The token bucket refuses with 429 + retryAfterMs before any lock is
  // taken, so a flooding tenant burns its own budget, not server threads.
  std::string tenant;
  if (route->admission == Admission::kRateGated) {
    Result<std::string> resolved = ResolveTenant(request, body);
    if (!resolved.ok()) {
      ReplyError(out, resolved.status());
      return;
    }
    tenant = std::move(resolved.value());
    double retry_after_ms = 0.0;
    if (Status admit = admission_.AdmitRequest(tenant, &retry_after_ms);
        !admit.ok()) {
      Value err = ErrorBody(admit);
      err["retryAfterMs"] = retry_after_ms;
      Reply(out, 429, err);
      return;
    }
  }

  std::shared_lock read_lock(mu_, std::defer_lock);
  std::unique_lock write_lock(mu_, std::defer_lock);
  if (route->lock == Lock::kShared) read_lock.lock();
  if (route->lock == Lock::kExclusive) write_lock.lock();
  Answer answer = route->handler(*this, Call{request, body, tenant, out});
  if (!answer.ok()) {
    ReplyError(out, answer.status());
  } else if (!answer->is_null()) {
    Reply(out, 200, answer.value());
  }
}

// The route table: one row per endpoint, all POST with a JSON body unless
// the row says kRaw. Handle() applies the columns in order — body parsing,
// follower gate, admission, lock — and then calls the handler.
const LaminarServer::Route* LaminarServer::FindRoute(std::string_view path) {
  using enum Body;
  using enum Follower;
  using enum Admission;
  using enum Lock;
  using Self = LaminarServer;

  // Handlers shared by an endpoint and its alias.
  static constexpr auto get_pe = [](Self& self, const Call& c) -> Answer {
    Result<registry::PeRecord> pe =
        c.body.contains("id")
            ? self.repo_.GetPe(c.body.GetInt("id"))
            : self.repo_.GetPeByName(c.body.GetString("name"));
    if (!pe.ok()) return pe.status();
    if (!TenantCanSee(c.tenant, pe->tenant)) {
      return Status::NotFound("no visible PE");
    }
    return self.PeToJson(pe.value(), /*with_code=*/true);
  };
  static constexpr auto get_wf = [](Self& self, const Call& c) -> Answer {
    Result<registry::WorkflowRecord> wf =
        c.body.contains("id")
            ? self.repo_.GetWorkflow(c.body.GetInt("id"))
            : self.repo_.GetWorkflowByName(c.body.GetString("name"));
    if (!wf.ok()) return wf.status();
    if (!TenantCanSee(c.tenant, wf->tenant)) {
      return Status::NotFound("no visible workflow");
    }
    return self.WorkflowToJson(wf.value(), /*with_code=*/true);
  };
  // Encode off-lock; the code and SPT indexes depend only on the unchanged
  // code, so the commit is a row update plus one text upsert.
  static constexpr auto update_description =
      [](Self& self, const Call& c, search::SearchTarget target) -> Answer {
    const int64_t id = c.body.GetInt("id");
    std::string description = c.body.GetString("description");
    embed::Vector embedding;
    {
      IngestPhase phase("encode");
      std::shared_lock lock(self.mu_);  // excludes Clear()'s engine swap
      embedding = self.search_.text_encoder().EncodeText(description);
    }
    Value fields = Value::MakeObject();
    fields["description"] = description;
    fields["descriptionEmbedding"] = embed::ToJson(embedding);
    Status st;
    {
      IngestPhase phase("commit");
      std::scoped_lock lock(self.mu_);
      const bool pe = target == search::SearchTarget::kPe;
      st = pe ? self.repo_.UpdatePe(id, fields)
              : self.repo_.UpdateWorkflow(id, fields);
      if (st.ok() && pe) {
        self.search_.UpdatePeDescription(id, std::move(description),
                                         std::move(embedding));
      } else if (st.ok()) {
        self.search_.UpdateWorkflowDescription(id, std::move(description),
                                               std::move(embedding));
      }
    }
    if (!st.ok()) return st;
    return Value::MakeObject();
  };
  // /replication/snapshot and /replication/fetch need the leader's WAL ring.
  static constexpr auto no_hub = [] {
    return Status::Unavailable(
        "replication requires a write-ahead log (start the leader with a "
        "wal_path)");
  };

  // Liveness probe: never rate-limited, so monitors keep working when a
  // tenant floods the server.
  static constexpr auto health = [](Self&, const Call&) -> Answer {
    Value resp = Value::MakeObject();
    resp["status"] = "ok";
    return resp;
  };
  // Prometheus text exposition (plain text, not a JSON reply).
  static constexpr auto metrics = [](Self&, const Call& c) -> Answer {
    c.out.SendChunk(telemetry::MetricsRegistry::Global().RenderPrometheus());
    c.out.End(200);
    return Responded();
  };
  // Replication is admission-exempt: per-tenant rate caps must never
  // throttle the shipping stream that keeps replicas fresh, and status
  // must stay observable under load.
  static constexpr auto repl_status = [](Self& self, const Call&) -> Answer {
    return self.ReplicationStatusJson();
  };
  // Same two-phase discipline as /registry/save: capture under a shared
  // lock, serialize off-lock. The body IS the raw snapshot document, the
  // exact bytes WriteSnapshot would persist, so followers reuse
  // Database::LoadFromText unchanged.
  static constexpr auto snapshot = [](Self& self, const Call& c) -> Answer {
    if (self.repl_hub_ == nullptr) return no_hub();
    registry::Database::Snapshot snapshot;
    {
      std::shared_lock lock(self.mu_);
      snapshot = self.db_.CaptureSnapshot();
    }
    c.out.SendChunk(self.db_.SerializeSnapshot(snapshot));
    c.out.End(200);
    return Responded();
  };
  static constexpr auto fetch = [](Self& self, const Call& c) -> Answer {
    if (self.repl_hub_ == nullptr) return no_hub();
    const uint64_t from_seq =
        static_cast<uint64_t>(c.body.GetInt("fromSeq", 0));
    const size_t max_records =
        static_cast<size_t>(c.body.GetInt("maxRecords", 512));
    const int wait_ms = static_cast<int>(c.body.GetInt("waitMs", 0));
    ReplicationHub::FetchResult fetched =
        self.repl_hub_->Fetch(from_seq, max_records, wait_ms);
    Value resp = Value::MakeObject();
    Value lines = Value::MakeArray();
    for (std::string& line : fetched.lines) {
      lines.push_back(Value(std::move(line)));
    }
    resp["lines"] = std::move(lines);
    resp["headSeq"] = static_cast<int64_t>(fetched.head_seq);
    resp["needSnapshot"] = fetched.need_snapshot;
    return resp;
  };
  static constexpr auto execute = [](Self& self, const Call& c) -> Answer {
    self.HandleExecute(c.body, self.AuthUser(c.request), c.tenant, c.out);
    return Responded();
  };
  // Multipart body; the tenant comes from the header alone here, as
  // there is no JSON body to carry the field.
  static constexpr auto upload = [](Self& self, const Call& c) -> Answer {
    Result<std::vector<net::FilePart>> parts =
        net::DecodeMultipart(c.request.body);
    if (!parts.ok()) return parts.status();
    Value resp = Value::MakeObject();
    int64_t stored = 0;
    for (net::FilePart& part : parts.value()) {
      self.engine_.PutResource(part.name, std::move(part.content));
      ++stored;
    }
    resp["stored"] = stored;
    return resp;
  };
  static constexpr auto new_user = [](Self& self, const Call& c) -> Answer {
    Result<int64_t> id = self.repo_.CreateUser(
        c.body.GetString("userName"), c.body.GetString("password"));
    if (!id.ok()) return id.status();
    Value resp = Value::MakeObject();
    resp["userId"] = id.value();
    return resp;
  };
  // A mutation: login mints a token.
  static constexpr auto login = [](Self& self, const Call& c) -> Answer {
    Result<registry::UserRecord> user =
        self.repo_.GetUserByName(c.body.GetString("userName"));
    if (!user.ok() || user->password != c.body.GetString("password")) {
      return Status::PermissionDenied("bad username or password");
    }
    std::string token = "tok-" + std::to_string(self.next_token_++);
    self.tokens_[token] = user->id;
    Value resp = Value::MakeObject();
    resp["token"] = token;
    resp["userId"] = user->id;
    return resp;
  };
  // ── Ingest endpoints are two-phase. The expensive phase (CodeT5
  // summaries, UniXcoder/ReACC encodes, SPT parse+featurization) runs on
  // the request thread under only a *shared* lock, so concurrent
  // registrations overlap their model inference (and every search) and
  // serialize only on the short exclusive commit (row insert +
  // precomputed-vector upsert). The shared hold is still required: the
  // encoders are const, but /registry/load and /registry/remove_all
  // replace them via search_.Clear() under the exclusive lock, and the
  // prepare must not overlap that swap.
  static constexpr auto register_pe = [](Self& self, const Call& c) -> Answer {
    Result<PreparedPeReg> prepared = [&]() -> Result<PreparedPeReg> {
      std::shared_lock lock(self.mu_);
      // Advisory quota check before the expensive encode, under the shared
      // lock so no commit changes the count while it is read; the commit
      // re-checks authoritatively under the exclusive lock.
      if (Status quota = self.admission_.AdmitPes(
              c.tenant, self.repo_.RowsOwnedBy(c.tenant).pes, 1);
          !quota.ok()) {
        return quota;
      }
      IngestPhase phase("encode");
      return self.PreparePeRegistration(c.body, c.tenant);
    }();
    if (!prepared.ok()) return prepared.status();
    // Response fields, captured before the commit consumes the record:
    // the exclusive lock drops before the reply, so a repository
    // read-back here could race a concurrent /pes/remove of the new id.
    registry::PeRecord reply_record;
    reply_record.name = prepared->record.name;
    reply_record.description = prepared->record.description;
    reply_record.type = prepared->record.type;
    Result<int64_t> id = [&]() -> Result<int64_t> {
      IngestPhase phase("commit");
      std::scoped_lock lock(self.mu_);
      return self.CommitPeRegistration(std::move(prepared.value()));
    }();
    if (!id.ok()) return id.status();
    reply_record.id = id.value();
    return self.PeToJson(reply_record, /*with_code=*/false);
  };
  static constexpr auto describe_pe = [](Self& self, const Call& c) -> Answer {
    return update_description(self, c, search::SearchTarget::kPe);
  };
  static constexpr auto remove_pe = [](Self& self, const Call& c) -> Answer {
    int64_t id = c.body.GetInt("id");
    // Look up the record first: cross-tenant removals 404 like any
    // other invisible row.
    Result<registry::PeRecord> pe = self.repo_.GetPe(id);
    if (!pe.ok() || !TenantCanSee(c.tenant, pe->tenant)) {
      return pe.ok() ? Status::NotFound("no PE with id " + std::to_string(id))
                     : pe.status();
    }
    Status st = self.repo_.RemovePe(id);
    if (!st.ok()) return st;
    self.search_.RemovePe(id);
    return Value::MakeObject();
  };
  static constexpr auto register_wf = [](Self& self, const Call& c) -> Answer {
    const Value& body = c.body;
    const std::string& tenant = c.tenant;
    registry::WorkflowRecord wf;
    wf.user_id = self.AuthUser(c.request);
    wf.tenant = tenant;
    // Phase 1: prepare every member PE, synthesize the workflow
    // description from the *prepared* PE descriptions (identical to
    // what the commit will store), then encode/featurize the workflow.
    std::vector<PreparedPeReg> member_pes;
    std::vector<std::string> pe_descriptions;
    search::SearchService::PreparedWorkflow wf_index;
    {
      std::shared_lock lock(self.mu_);  // excludes Clear()'s engine swap
      // Advisory quota checks before any model inference runs, under the
      // shared lock so no commit changes the counts while they are read;
      // the exclusive commit section re-checks both authoritatively.
      const registry::TenantRows owned = self.repo_.RowsOwnedBy(tenant);
      Status quota = self.admission_.AdmitWorkflows(tenant, owned.workflows, 1);
      if (quota.ok()) {
        quota = self.admission_.AdmitPes(
            tenant, owned.pes, static_cast<int64_t>(body.at("pes").size()));
      }
      if (!quota.ok()) return quota;
      wf.name = body.GetString("name");
      wf.code = body.GetString("code");
      wf.entry_point = body.at("spec").is_object()
                           ? body.at("spec").ToJson()
                           : body.GetString("spec");
      if (wf.name.empty()) {
        return Status::InvalidArgument("workflow requires 'name'");
      }
      IngestPhase phase("encode");
      for (const Value& pe_obj : body.at("pes").as_array()) {
        Result<PreparedPeReg> prepared =
            self.PreparePeRegistration(pe_obj, tenant);
        if (!prepared.ok()) return prepared.status();
        pe_descriptions.push_back(prepared->record.description);
        member_pes.push_back(std::move(prepared.value()));
      }
      wf.description = body.GetString("description");
      if (wf.description.empty()) {
        // §IV-C: workflow descriptions synthesized from their PEs.
        wf.description =
            self.codet5_.SummarizeWorkflow(wf.name, pe_descriptions);
      }
      wf_index = self.search_.PrepareWorkflow(
          wf.name, wf.description, /*stored_embedding_json=*/"", wf.code);
      wf.description_embedding = embed::ToJson(wf_index.text_embedding);
      if (!wf.code.empty()) {
        Result<spt::FeatureBag> features =
            self.search_.aroma().Featurize(wf.code);
        if (features.ok()) {
          wf.spt_embedding = spt::FeatureBagToJson(features.value());
        }
      }
    }
    // Phase 2: one exclusive section commits the PEs, the workflow
    // row, the membership links and the precomputed workflow vectors.
    Value resp = Value::MakeObject();
    {
      IngestPhase phase("commit");
      std::scoped_lock lock(self.mu_);
      std::vector<int64_t> pe_ids;
      pe_ids.reserve(member_pes.size());
      for (PreparedPeReg& prepared : member_pes) {
        Result<int64_t> pe_id =
            self.CommitPeRegistration(std::move(prepared));
        if (!pe_id.ok()) return pe_id.status();
        pe_ids.push_back(pe_id.value());
      }
      if (Status quota = self.admission_.AdmitWorkflows(
              tenant, self.repo_.RowsOwnedBy(tenant).workflows, 1);
          !quota.ok()) {
        return quota;
      }
      Result<int64_t> wf_id = self.repo_.CreateWorkflow(wf);
      if (!wf_id.ok()) return wf_id.status();
      for (int64_t pe_id : pe_ids) {
        (void)self.repo_.LinkPe(wf_id.value(), pe_id);  // both just made
      }
      self.search_.CommitWorkflow(wf_id.value(), std::move(wf_index));
      resp["workflowId"] = wf_id.value();
      Value ids = Value::MakeArray();
      for (int64_t pe_id : pe_ids) ids.push_back(pe_id);
      resp["peIds"] = std::move(ids);
    }
    return resp;
  };
  static constexpr auto workflow_pes = [](Self& self, const Call& c) -> Answer {
    Value resp = Value::MakeObject();
    Value arr = Value::MakeArray();
    for (const registry::PeRecord& pe :
         self.repo_.PesOfWorkflow(c.body.GetInt("id"))) {
      arr.push_back(self.PeToJson(pe, /*with_code=*/false));
    }
    resp["pes"] = std::move(arr);
    return resp;
  };
  static constexpr auto executions = [](Self& self, const Call& c) -> Answer {
    Value resp = Value::MakeObject();
    Value arr = Value::MakeArray();
    for (const registry::ExecutionRecord& e :
         self.repo_.ExecutionsOfWorkflow(c.body.GetInt("id"))) {
      Value x = Value::MakeObject();
      x["executionId"] = e.id;
      x["mapping"] = e.mapping;
      x["status"] = e.status;
      x["startedAtMs"] = e.started_at_ms;
      x["finishedAtMs"] = e.finished_at_ms;
      arr.push_back(std::move(x));
    }
    resp["executions"] = std::move(arr);
    return resp;
  };
  static constexpr auto describe_wf = [](Self& self, const Call& c) -> Answer {
    return update_description(self, c, search::SearchTarget::kWorkflow);
  };
  static constexpr auto remove_wf = [](Self& self, const Call& c) -> Answer {
    int64_t id = c.body.GetInt("id");
    Result<registry::WorkflowRecord> wf = self.repo_.GetWorkflow(id);
    if (!wf.ok() || !TenantCanSee(c.tenant, wf->tenant)) {
      return wf.ok() ? Status::NotFound("no workflow with id " +
                                        std::to_string(id))
                     : wf.status();
    }
    Status st = self.repo_.RemoveWorkflow(id);
    if (!st.ok()) return st;
    self.search_.RemoveWorkflow(id);
    return Value::MakeObject();
  };
  static constexpr auto list = [](Self& self, const Call& c) -> Answer {
    Value resp = Value::MakeObject();
    Value pes = Value::MakeArray();
    for (const registry::PeRecord& pe : self.repo_.AllPes()) {
      if (!TenantCanSee(c.tenant, pe.tenant)) continue;
      pes.push_back(self.PeToJson(pe, /*with_code=*/false));
    }
    Value wfs = Value::MakeArray();
    for (const registry::WorkflowRecord& wf : self.repo_.AllWorkflows()) {
      if (!TenantCanSee(c.tenant, wf.tenant)) continue;
      wfs.push_back(self.WorkflowToJson(wf, /*with_code=*/false));
    }
    resp["pes"] = std::move(pes);
    resp["workflows"] = std::move(wfs);
    return resp;
  };
  static constexpr auto clear = [](Self& self, const Call&) -> Answer {
    (void)self.repo_.RemoveAll();
    self.search_.Clear();
    return Value::MakeObject();
  };
  // Capture under a shared lock (row copies, or cached text for tables
  // unchanged since the last save), then serialize and write with no
  // lock held: searches and registrations keep flowing during disk I/O.
  static constexpr auto save = [](Self& self, const Call& c) -> Answer {
    std::string file = c.body.GetString("path");
    if (file.empty()) return Status::InvalidArgument("save requires 'path'");
    registry::Database::Snapshot snapshot;
    {
      std::shared_lock lock(self.mu_);
      snapshot = self.db_.CaptureSnapshot();
    }
    Status st = self.db_.WriteSnapshot(std::move(snapshot), file);
    if (!st.ok()) return st;
    return Value::MakeObject();
  };
  static constexpr auto load = [](Self& self, const Call& c) -> Answer {
    Status st = self.db_.LoadFromFile(c.body.GetString("path"));
    if (st.ok()) st = self.search_.ReindexAll(self.ingest_pool_.get());
    if (!st.ok()) return st;
    Value resp = Value::MakeObject();
    resp["pes"] = self.repo_.PeCount();
    resp["workflows"] = self.repo_.WorkflowCount();
    return resp;
  };
  static constexpr auto bulk = [](Self& self, const Call& c) -> Answer {
    if (!c.body.at("pes").is_array() || c.body.at("pes").size() == 0) {
      return Status::InvalidArgument(
          "bulk_register requires a non-empty 'pes' array");
    }
    const auto& pe_objs = c.body.at("pes").as_array();
    const size_t n = pe_objs.size();
    std::vector<std::unique_ptr<PreparedPeReg>> prepared(n);
    std::vector<std::string> prepare_errors(n);
    {
      IngestPhase phase("encode");
      // Items are independent and prepare touches only const encoder
      // state, so the fan-out needs no per-item locking. The shared
      // lock held across the whole fan-out keeps the exclusive-lock
      // holders that replace the engines (search_.Clear() from
      // /registry/load and /registry/remove_all) out until every pool
      // worker is done reading them.
      std::shared_lock lock(self.mu_);
      ParallelFor(self.ingest_pool_.get(), n, [&](size_t i) {
        Result<PreparedPeReg> r =
            self.PreparePeRegistration(pe_objs[i], c.tenant);
        if (r.ok()) {
          prepared[i] =
              std::make_unique<PreparedPeReg>(std::move(r.value()));
        } else {
          prepare_errors[i] = r.status().ToString();
        }
      });
    }
    Value ids = Value::MakeArray();
    Value errors = Value::MakeArray();
    int64_t registered = 0;
    int64_t quota_rejected = 0;
    auto record_error = [&errors](size_t index,
                                  const std::string& message) {
      Value e = Value::MakeObject();
      e["index"] = static_cast<int64_t>(index);
      e["error"] = message;
      errors.push_back(std::move(e));
    };
    {
      IngestPhase phase("commit");
      std::scoped_lock lock(self.mu_);
      // Bulk mode: the vector indexes defer per-Upsert ANN graph
      // maintenance across the commit; EndBulkIndexing then builds each
      // graph once, fanning the level inserts over the ingest pool. Rows
      // are inserted one by one (ids stay in request order); the search
      // state then commits as one batch whose row writes use the pool.
      self.search_.BeginBulkIndexing();
      std::vector<search::SearchService::PeCommit> commits;
      commits.reserve(n);
      for (size_t i = 0; i < n; ++i) {
        if (prepared[i] == nullptr) {
          record_error(i, prepare_errors[i]);
          continue;
        }
        Result<int64_t> id = self.InsertPeRow(*prepared[i]);
        if (!id.ok()) {
          if (id.status().code() == StatusCode::kResourceExhausted) {
            ++quota_rejected;
          }
          record_error(i, id.status().ToString());
          continue;
        }
        commits.push_back({id.value(), std::move(prepared[i]->index)});
        ids.push_back(id.value());
        ++registered;
      }
      self.search_.CommitPes(commits, self.ingest_pool_.get());
      Stopwatch build_watch;
      self.search_.EndBulkIndexing(self.ingest_pool_.get());
      // Same gauge ReindexAll sets: the latest bulk index-build time.
      telemetry::MetricsRegistry::Global()
          .GetGauge("laminar_search_bulk_build_ms")
          .Set(static_cast<int64_t>(build_watch.ElapsedMillis()));
    }
    Value resp = Value::MakeObject();
    resp["peIds"] = std::move(ids);
    resp["registered"] = registered;
    resp["errors"] = std::move(errors);
    // Per-item quota errors ride in `errors`; only a batch where
    // *nothing* registered because of quotas is itself a 429 (so
    // partial successes stay 200 and the client can inspect which
    // items were rejected).
    if (registered == 0 && quota_rejected > 0) {
      Reply(c.out, 429, resp);
      return Responded();
    }
    return resp;
  };
  // Search hits are post-filtered to rows the tenant may see; the shared
  // lock keeps those repository lookups consistent with the index.
  static constexpr auto literal = [](Self& self, const Call& c) -> Answer {
    const search::SearchTarget target = ParseTarget(c.body);
    return HitsJson(self.repo_, c.tenant, target,
                    self.search_.LiteralSearch(c.body.GetString("term"),
                                               target, Limit(c.body)));
  };
  static constexpr auto semantic = [](Self& self, const Call& c) -> Answer {
    const search::SearchTarget target = ParseTarget(c.body);
    return HitsJson(self.repo_, c.tenant, target,
                    self.search_.SemanticSearch(c.body.GetString("query"),
                                                target, Limit(c.body)));
  };
  static constexpr auto code_search = [](Self& self, const Call& c) -> Answer {
    const search::SearchTarget target = ParseTarget(c.body);
    const std::string code = c.body.GetString("code");
    if (c.body.GetString("embedding_type", "spt") == "llm") {
      return HitsJson(self.repo_, c.tenant, target,
                      self.search_.CodeSearchLlm(code, target, Limit(c.body)));
    }
    Result<std::vector<search::RecommendationHit>> recs =
        self.search_.CodeRecommendation(code, target, Limit(c.body));
    if (!recs.ok()) return recs.status();
    return HitsJson(self.repo_, c.tenant, target, recs.value());
  };
  static constexpr auto complete = [](Self& self, const Call& c) -> Answer {
    Result<std::vector<spt::Completion>> completions =
        self.search_.CodeCompletion(c.body.GetString("code"),
                                    Limit(c.body, 3));
    if (!completions.ok()) return completions.status();
    Value resp = Value::MakeObject();
    Value arr = Value::MakeArray();
    for (const spt::Completion& comp : completions.value()) {
      Value h = Value::MakeObject();
      h["id"] = comp.snippet_id;
      Result<registry::PeRecord> pe = self.repo_.GetPe(comp.snippet_id);
      if (pe.ok() && !TenantCanSee(c.tenant, pe->tenant)) continue;
      if (pe.ok()) h["name"] = pe->name;
      h["score"] = comp.score;
      h["continuation"] = comp.continuation;
      arr.push_back(std::move(h));
    }
    resp["completions"] = std::move(arr);
    return resp;
  };
  static constexpr auto stats = [](Self& self, const Call&) -> Answer {
    Value resp = Value::MakeObject();
    resp["pes"] = self.repo_.PeCount();
    resp["workflows"] = self.repo_.WorkflowCount();
    auto cache = self.engine_.resource_cache().stats();
    resp["cache"]["hits"] = static_cast<int64_t>(cache.hits);
    resp["cache"]["misses"] = static_cast<int64_t>(cache.misses);
    resp["cache"]["bytesStored"] = static_cast<int64_t>(cache.bytes_stored);
    auto broker_stats = self.engine_.broker().stats();
    resp["broker"]["pushes"] = static_cast<int64_t>(broker_stats.pushes);
    resp["broker"]["pops"] = static_cast<int64_t>(broker_stats.pops);
    resp["engine"]["warmInstances"] = self.engine_.warm_instances();
    auto query_cache = self.search_.query_cache_stats();
    resp["queryCache"]["hits"] = static_cast<int64_t>(query_cache.hits);
    resp["queryCache"]["misses"] = static_cast<int64_t>(query_cache.misses);
    resp["queryCache"]["entries"] =
        static_cast<int64_t>(query_cache.entries);
    // Vector-index tier: the configured scan/ANN knobs plus a
    // per-index footprint snapshot, so operators can see which indexes have
    // switched onto the ANN graph path and what it costs in memory.
    const auto& vopts = self.search_.config().vector_index;
    Value vi = Value::MakeObject();
    vi["parallelThreshold"] =
        static_cast<int64_t>(vopts.parallel_threshold);
    vi["maxThreads"] = static_cast<int64_t>(vopts.max_threads);
    vi["strategy"] = std::string(search::ToString(vopts.strategy));
    vi["annThreshold"] = static_cast<int64_t>(vopts.ann_threshold);
    vi["hnswM"] = static_cast<int64_t>(vopts.hnsw.M);
    vi["hnswEfConstruction"] =
        static_cast<int64_t>(vopts.hnsw.ef_construction);
    vi["hnswEfSearch"] = static_cast<int64_t>(vopts.hnsw.ef_search);
    vi["recallProbeInterval"] =
        static_cast<int64_t>(vopts.recall_probe_interval);
    vi["quantize"] = vopts.quantize;
    vi["rerankOverfetch"] = vopts.rerank_overfetch;
    resp["search"]["vectorIndex"] = std::move(vi);
    Value indexes = Value::MakeObject();
    for (const auto& [name, istats] : self.search_.IndexStats()) {
      Value one = Value::MakeObject();
      one["rows"] = static_cast<int64_t>(istats.rows);
      one["nodes"] = static_cast<int64_t>(istats.nodes);
      one["dims"] = static_cast<int64_t>(istats.dims);
      one["bytes"] = static_cast<int64_t>(istats.bytes);
      one["graphBytes"] = static_cast<int64_t>(istats.graph_bytes);
      one["quantBytes"] = static_cast<int64_t>(istats.quant_bytes);
      one["ann"] = istats.ann;
      one["quantized"] = istats.quantized;
      one["compactions"] = static_cast<int64_t>(istats.compactions);
      one["graphBuilds"] = static_cast<int64_t>(istats.graph_builds);
      indexes[name] = std::move(one);
    }
    resp["search"]["indexes"] = std::move(indexes);
    // Per-tenant slice (ROADMAP item 3): boundary-admission counters and the
    // tables' row counts, merged with the run queue's scheduling snapshot,
    // keyed by tenant name. The
    // runsSucceeded/runsFailed counters reconcile with the ##END## totals
    // each tenant's /execute streams observed.
    Value tenants = self.admission_.StatsJson(self.repo_.TenantRowCounts());
    for (const auto& [name, qs] : self.run_queue_.Snapshot()) {
      Value& t = tenants[name];
      t["runsAdmitted"] = static_cast<int64_t>(qs.admitted);
      t["runsRejected"] = static_cast<int64_t>(qs.rejected);
      t["runsDeadlineExpired"] = static_cast<int64_t>(qs.deadline_expired);
      t["running"] = qs.running;
      t["queued"] = qs.queued;
      t["vtime"] = qs.vtime;
    }
    resp["tenants"] = std::move(tenants);
    resp["runQueue"]["slots"] = self.run_queue_.slots();
    resp["runQueue"]["queued"] = static_cast<int64_t>(self.run_queue_.queued());
    {
      // Durability visibility: how far the log has been
      // appended vs how far it is known durable on disk.
      registry::WalStatus ws = self.db_.wal_status();
      Value wal = Value::MakeObject();
      wal["enabled"] = ws.enabled;
      wal["fsyncMode"] = ws.fsync_mode;
      wal["appendedSeq"] = static_cast<int64_t>(ws.appended_seq);
      wal["durableSeq"] = static_cast<int64_t>(ws.durable_seq);
      wal["records"] = static_cast<int64_t>(ws.records);
      wal["bytes"] = static_cast<int64_t>(ws.bytes);
      resp["wal"] = std::move(wal);
    }
    resp["replication"] = self.ReplicationStatusJson();
    // Process-wide counters, gauges and histograms (engine and ingest
    // totals, transport, SIMD tier) come from the registry /metrics
    // renders, so the two cannot disagree.
    auto& reg = telemetry::MetricsRegistry::Global();
    resp["metrics"] = reg.RenderJson();
    resp["trace"] = reg.trace().ToJson();
    return resp;
  };

  static const Route kRoutes[] = {
      {"/health", kJson, kAlways, kExempt, kSelf, health},
      {"/metrics", kRaw, kAlways, kExempt, kSelf, metrics},
      {"/replication/status", kJson, kAlways, kExempt, kSelf, repl_status},
      {"/replication/snapshot", kJson, kRefuseChained, kExempt, kSelf,
       snapshot},
      {"/replication/fetch", kJson, kRefuseChained, kExempt, kSelf, fetch},
      {"/execute", kJson, kRefuse, kRateGated, kSelf, execute},
      {"/resources/upload", kRaw, kRefuseUpload, kRateGated, kSelf, upload},
      {"/users/register", kJson, kRefuse, kRateGated, kExclusive, new_user},
      {"/users/login", kJson, kRefuse, kRateGated, kExclusive, login},
      {"/pes/register", kJson, kRefuse, kRateGated, kSelf, register_pe},
      {"/pes/get", kJson, kServe, kRateGated, kShared, get_pe},
      {"/pes/describe", kJson, kServe, kRateGated, kShared, get_pe},
      {"/pes/update_description", kJson, kRefuse, kRateGated, kSelf,
       describe_pe},
      {"/pes/remove", kJson, kRefuse, kRateGated, kExclusive, remove_pe},
      {"/workflows/register", kJson, kRefuse, kRateGated, kSelf, register_wf},
      {"/workflows/get", kJson, kServe, kRateGated, kShared, get_wf},
      {"/workflows/describe", kJson, kServe, kRateGated, kShared, get_wf},
      {"/workflows/pes", kJson, kServe, kRateGated, kShared, workflow_pes},
      {"/workflows/executions", kJson, kServe, kRateGated, kShared, executions},
      {"/workflows/update_description", kJson, kRefuse, kRateGated, kSelf,
       describe_wf},
      {"/workflows/remove", kJson, kRefuse, kRateGated, kExclusive, remove_wf},
      {"/registry/list", kJson, kServe, kRateGated, kShared, list},
      {"/registry/remove_all", kJson, kRefuse, kRateGated, kExclusive, clear},
      {"/registry/save", kJson, kRefuse, kRateGated, kSelf, save},
      {"/registry/load", kJson, kRefuse, kRateGated, kExclusive, load},
      {"/registry/bulk_register", kJson, kRefuse, kRateGated, kSelf, bulk},
      {"/search/literal", kJson, kServe, kRateGated, kShared, literal},
      {"/search/semantic", kJson, kServe, kRateGated, kShared, semantic},
      {"/search/code", kJson, kServe, kRateGated, kShared, code_search},
      {"/search/complete", kJson, kServe, kRateGated, kShared, complete},
      {"/stats", kJson, kServe, kRateGated, kShared, stats},
  };
  for (const Route& route : kRoutes) {
    if (route.path == path) return &route;
  }
  return nullptr;
}

}  // namespace laminar::server
