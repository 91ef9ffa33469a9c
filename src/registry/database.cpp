#include "registry/database.hpp"

#include <fcntl.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <chrono>
#include <condition_variable>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <thread>

#include "common/clock.hpp"
#include "common/json.hpp"

namespace laminar::registry {
namespace {

/// Writes `text` to a uniquely named temp file next to `path` and renames
/// it over `path`. POSIX rename is atomic within a filesystem, so readers
/// (and a crash at any point) observe either the old complete file or the
/// new complete file — never a torn mix. The temp name carries a
/// process-wide counter: saves run off-lock, so two concurrent writers to
/// the same destination must never share a temp file (one could otherwise
/// rename the other's half-written bytes into place).
Status WriteFileAtomic(const std::string& path, const std::string& text) {
  static std::atomic<uint64_t> tmp_counter{0};
  const std::string tmp =
      path + ".tmp." +
      std::to_string(tmp_counter.fetch_add(1, std::memory_order_relaxed));
  {
    std::ofstream out(tmp, std::ios::trunc);
    if (!out) {
      return Status::Unavailable("cannot open '" + tmp + "' for write");
    }
    out << text;
    out.flush();
    if (!out.good()) {
      std::remove(tmp.c_str());
      return Status::Unavailable("write to '" + tmp + "' failed");
    }
  }
  if (std::rename(tmp.c_str(), path.c_str()) != 0) {
    std::remove(tmp.c_str());
    return Status::Unavailable("rename '" + tmp + "' -> '" + path +
                               "' failed");
  }
  return Status::Ok();
}

/// write(2) with EINTR retry until the whole buffer is out. Failures are
/// swallowed (like the previous ofstream-based writer); durability beyond
/// the page cache is the fsync policy's job, not the append's.
void WriteAllFd(int fd, std::string_view data) {
  size_t off = 0;
  while (off < data.size()) {
    ssize_t n = ::write(fd, data.data() + off, data.size() - off);
    if (n < 0) {
      if (errno == EINTR) continue;
      return;
    }
    off += static_cast<size_t>(n);
  }
}

}  // namespace

/// Append-only mutation log. One JSON object per line:
///   {"seq":N,"ts":MS,"table":"...","op":"insert|update|erase|clear","id":N,
///    "data":{...}}
/// (`ts` is wall-clock milliseconds at append time, so a replica applying
/// the record can report replication lag across processes.)
///
/// Appends are serialized by an internal mutex (registry mutations already
/// hold the owner's exclusive lock; compaction runs off-lock concurrently
/// with nothing but other persistence calls). `muted` suppresses logging
/// while the database itself replays the log.
///
/// Writes go through a raw O_APPEND fd so the durability modes are real:
/// kPerRecord fsyncs inside the append, kInterval runs a background flusher
/// that fsyncs on a cadence while holding only `file_mu_` — appends (under
/// `mu_`) never wait on the disk. `file_mu_` guards the fd's lifetime:
/// anything that closes/reopens it (Compact, destruction) holds both locks.
class Database::WalWriter : public WalSink {
 public:
  WalWriter(std::string path, WalOptions options)
      : path_(std::move(path)), options_(options) {}

  ~WalWriter() override {
    {
      std::scoped_lock lock(mu_);
      stopping_ = true;
    }
    flush_cv_.notify_all();
    if (flusher_.joinable()) flusher_.join();
    std::scoped_lock lock(mu_, file_mu_);
    CloseFdLocked();
  }

  Status Open() {
    std::scoped_lock lock(mu_, file_mu_);
    fd_ = ::open(path_.c_str(), O_WRONLY | O_CREAT | O_APPEND, 0644);
    if (fd_ < 0) {
      return Status::Unavailable("cannot open WAL '" + path_ +
                                 "' for append");
    }
    if (options_.fsync == WalFsyncMode::kInterval && !flusher_.joinable()) {
      flusher_ = std::thread([this] { FlusherLoop(); });
    }
    return Status::Ok();
  }

  void Append(const std::string& table, std::string_view op, int64_t id,
              const Value* payload) override {
    std::scoped_lock lock(mu_);
    if (muted_ || fd_ < 0) return;
    const uint64_t seq = next_seq_++;
    Value record = Value::MakeObject();
    record["seq"] = static_cast<int64_t>(seq);
    record["ts"] = NowWallMillis();
    record["table"] = table;
    record["op"] = std::string(op);
    if (id != 0) record["id"] = id;
    if (payload != nullptr) record["data"] = *payload;
    std::string line = record.ToJson();
    line += '\n';
    WriteAllFd(fd_, line);
    appended_seq_ = seq;
    ++records_;
    bytes_ += line.size();
    if (options_.fsync == WalFsyncMode::kPerRecord) {
      ::fsync(fd_);
      if (seq > durable_seq_) durable_seq_ = seq;
    }
    if (observer_) {
      line.pop_back();  // observers get the record without the newline
      observer_(seq, line);
    }
  }

  /// Drops every record with seq <= `covered_seq` (they are contained in
  /// the snapshot just written). Rewrites via tmp + rename like snapshots.
  /// Refuses on mid-file corruption — rewriting would silently drop the
  /// intact records after the corrupt one (a torn final line is fine).
  Status Compact(uint64_t covered_seq) {
    std::scoped_lock lock(mu_, file_mu_);
    std::string kept;
    {
      std::ifstream in(path_);
      std::string line;
      uint64_t line_no = 0;
      uint64_t bad_line = 0;
      while (in && std::getline(in, line)) {
        ++line_no;
        if (line.empty()) continue;
        if (bad_line != 0) {
          return Status::ParseError(
              "WAL '" + path_ + "' corrupt at line " +
              std::to_string(bad_line) +
              ": intact records follow, refusing to compact");
        }
        Result<Value> record = json::Parse(line);
        if (!record.ok()) {
          bad_line = line_no;  // torn tail unless more records follow
          continue;
        }
        if (static_cast<uint64_t>(record->GetInt("seq", 0)) > covered_seq) {
          kept += line;
          kept += '\n';
        }
      }
    }
    CloseFdLocked();
    Status st = WriteFileAtomic(path_, kept);
    fd_ = ::open(path_.c_str(), O_WRONLY | O_CREAT | O_APPEND, 0644);
    if (st.ok() && fd_ < 0) {
      st = Status::Unavailable("cannot reopen WAL '" + path_ + "'");
    }
    // Everything <= covered_seq is durable via the snapshot just written.
    if (st.ok() && covered_seq > durable_seq_) durable_seq_ = covered_seq;
    return st;
  }

  void SetMuted(bool muted) {
    std::scoped_lock lock(mu_);
    muted_ = muted;
  }

  void SetObserver(WalObserver observer) {
    std::scoped_lock lock(mu_);
    observer_ = std::move(observer);
  }

  void EnsureSeqAbove(uint64_t seq) {
    std::scoped_lock lock(mu_);
    if (next_seq_ <= seq) next_seq_ = seq + 1;
  }

  uint64_t LastAssignedSeq() {
    std::scoped_lock lock(mu_);
    return next_seq_ - 1;
  }

  WalStatus StatusNow() {
    std::scoped_lock lock(mu_);
    WalStatus status;
    status.enabled = true;
    status.fsync_mode = options_.fsync == WalFsyncMode::kPerRecord
                            ? "per_record"
                            : options_.fsync == WalFsyncMode::kInterval
                                  ? "interval"
                                  : "none";
    status.appended_seq = appended_seq_ != 0 ? appended_seq_ : next_seq_ - 1;
    status.durable_seq = durable_seq_;
    status.records = records_;
    status.bytes = bytes_;
    return status;
  }

  const std::string& path() const { return path_; }

 private:
  void CloseFdLocked() {
    if (fd_ >= 0) {
      ::close(fd_);
      fd_ = -1;
    }
  }

  void FlusherLoop() {
    std::unique_lock lock(mu_);
    while (!stopping_) {
      flush_cv_.wait_for(
          lock, std::chrono::milliseconds(
                    std::max(1, options_.fsync_interval_ms)));
      if (stopping_) break;
      const uint64_t target = appended_seq_;
      if (target <= durable_seq_ || fd_ < 0) continue;
      lock.unlock();
      {
        // fd_ is stable under file_mu_ alone; appends proceed meanwhile.
        std::scoped_lock file_lock(file_mu_);
        if (fd_ >= 0) ::fsync(fd_);
      }
      lock.lock();
      if (target > durable_seq_) durable_seq_ = target;
    }
  }

  std::string path_;
  WalOptions options_;
  std::mutex mu_;
  std::mutex file_mu_;  ///< fd lifetime; held (without mu_) during fsync
  std::condition_variable flush_cv_;
  std::thread flusher_;
  bool stopping_ = false;
  int fd_ = -1;
  bool muted_ = false;
  uint64_t next_seq_ = 1;
  uint64_t appended_seq_ = 0;
  uint64_t durable_seq_ = 0;
  uint64_t records_ = 0;
  uint64_t bytes_ = 0;
  WalObserver observer_;
};

Database::Database() = default;

Database::~Database() = default;

Status Database::CreateTable(TableSchema schema) {
  if (GetTable(schema.name) != nullptr) {
    return Status::AlreadyExists("table '" + schema.name + "' already exists");
  }
  for (const ForeignKeySpec& fk : schema.foreign_keys) {
    if (GetTable(fk.ref_table) == nullptr) {
      return Status::InvalidArgument("foreign key references unknown table '" +
                                     fk.ref_table + "'");
    }
  }
  std::string name = schema.name;
  tables_.emplace_back(name, std::make_unique<Table>(std::move(schema)));
  table_slots_[name] = tables_.size() - 1;
  if (wal_ != nullptr) tables_.back().second->SetWalSink(wal_.get());
  return Status::Ok();
}

Table* Database::GetTable(const std::string& name) {
  auto it = table_slots_.find(name);
  return it == table_slots_.end() ? nullptr : tables_[it->second].second.get();
}

const Table* Database::GetTable(const std::string& name) const {
  auto it = table_slots_.find(name);
  return it == table_slots_.end() ? nullptr : tables_[it->second].second.get();
}

std::vector<std::string> Database::TableNames() const {
  std::vector<std::string> names;
  names.reserve(tables_.size());
  for (const auto& [n, t] : tables_) names.push_back(n);
  return names;
}

Status Database::CheckForeignKeys(const Table& table, const Row& row) const {
  for (const ForeignKeySpec& fk : table.schema().foreign_keys) {
    const Value& v = row.at(fk.column);
    if (v.is_null()) continue;
    const Table* ref = GetTable(fk.ref_table);
    if (ref == nullptr || !ref->Exists(v.as_int())) {
      return Status::InvalidArgument(
          "foreign key violation: " + table.schema().name + "." + fk.column +
          " -> " + fk.ref_table + " id " + std::to_string(v.as_int()));
    }
  }
  return Status::Ok();
}

Result<int64_t> Database::Insert(const std::string& table, Row row) {
  Table* t = GetTable(table);
  if (t == nullptr) return Status::NotFound("no table '" + table + "'");
  Status st = CheckForeignKeys(*t, row);
  if (!st.ok()) return st;
  return t->Insert(std::move(row));
}

Status Database::Update(const std::string& table, int64_t id,
                        const Row& fields) {
  Table* t = GetTable(table);
  if (t == nullptr) return Status::NotFound("no table '" + table + "'");
  Status st = CheckForeignKeys(*t, fields);
  if (!st.ok()) return st;
  return t->Update(id, fields);
}

Status Database::Erase(const std::string& table, int64_t id) {
  Table* t = GetTable(table);
  if (t == nullptr) return Status::NotFound("no table '" + table + "'");
  // Refuse while referenced.
  for (const auto& [name, other] : tables_) {
    for (const ForeignKeySpec& fk : other->schema().foreign_keys) {
      if (fk.ref_table != table) continue;
      std::vector<Row> refs = other->FindBy(fk.column, Value(id));
      if (!refs.empty()) {
        return Status::FailedPrecondition(
            "row " + std::to_string(id) + " of '" + table +
            "' is still referenced by table '" + name + "'");
      }
    }
  }
  if (!t->Erase(id)) {
    return Status::NotFound("no row " + std::to_string(id) + " in '" + table +
                            "'");
  }
  return Status::Ok();
}

std::string Database::Dump() const {
  Value root = Value::MakeObject();
  for (const auto& [name, table] : tables_) {
    root[name] = table->ToJson();
  }
  return root.ToJsonPretty();
}

Database::Snapshot Database::CaptureSnapshot() const {
  Snapshot snapshot;
  snapshot.tables.reserve(tables_.size());
  if (wal_ != nullptr) snapshot.wal_seq = wal_->LastAssignedSeq();
  std::scoped_lock lock(persist_mu_);
  for (const auto& [name, table] : tables_) {
    Snapshot::TableSnap snap;
    snap.name = name;
    snap.version = table->version();
    auto cached = serialized_cache_.find(name);
    if (cached != serialized_cache_.end() &&
        cached->second.first == snap.version) {
      snap.cached = true;
      snap.text = cached->second.second;  // clean table: reuse, no row copy
    } else {
      snap.data = table->ToJson();  // dirty table: copy rows only
    }
    snapshot.tables.push_back(std::move(snap));
  }
  return snapshot;
}

std::string Database::SerializeSnapshot(Snapshot& snapshot) const {
  // Serialize dirty tables outside any registry lock — this is the
  // expensive part of a save and it touches only the captured copies.
  for (Snapshot::TableSnap& snap : snapshot.tables) {
    if (!snap.cached) snap.text = snap.data.ToJson();
  }
  std::string doc = "{\n\"__wal_seq\": " + std::to_string(snapshot.wal_seq);
  for (const Snapshot::TableSnap& snap : snapshot.tables) {
    doc += ",\n";
    doc += Value(snap.name).ToJson();
    doc += ": ";
    doc += snap.text;
  }
  doc += "\n}\n";
  return doc;
}

Status Database::WriteSnapshot(Snapshot snapshot,
                               const std::string& path) const {
  std::string doc = SerializeSnapshot(snapshot);
  Status st = WriteFileAtomic(path, doc);
  if (!st.ok()) return st;
  {
    std::scoped_lock lock(persist_mu_);
    for (Snapshot::TableSnap& snap : snapshot.tables) {
      serialized_cache_[snap.name] = {snap.version, std::move(snap.text)};
    }
  }
  // Everything up to wal_seq is now durable — but only in THIS file.
  // Compacting is safe only when the snapshot is the one Recover() will
  // read at next boot; after a save to any other path, records between the
  // recovery snapshot's sequence and wal_seq exist nowhere else, so the
  // log must keep them.
  if (wal_ != nullptr && !recovery_snapshot_path_.empty() &&
      path == recovery_snapshot_path_) {
    return wal_->Compact(snapshot.wal_seq);
  }
  return Status::Ok();
}

Status Database::SaveToFile(const std::string& path) const {
  return WriteSnapshot(CaptureSnapshot(), path);
}

Status Database::LoadTables(const Value& doc) {
  // Check every table before replacing any, so a bad row in the last table
  // cannot leave the earlier ones already replaced.
  for (auto& [name, table] : tables_) {
    if (Status st = table->CheckRows(doc.at(name)); !st.ok()) return st;
  }
  for (auto& [name, table] : tables_) {
    const Value& table_obj = doc.at(name);
    if (table_obj.is_null()) continue;  // table absent in snapshot
    if (Status st = table->LoadRows(table_obj); !st.ok()) return st;
  }
  return Status::Ok();
}

Result<uint64_t> Database::LoadFromText(const std::string& text) {
  Result<Value> parsed = json::Parse(text);
  if (!parsed.ok()) return parsed.status();
  if (Status st = LoadTables(parsed.value()); !st.ok()) return st;
  const uint64_t snapshot_seq =
      static_cast<uint64_t>(parsed->GetInt("__wal_seq", 0));
  if (wal_ != nullptr) wal_->EnsureSeqAbove(snapshot_seq);
  return snapshot_seq;
}

Status Database::LoadFromFile(const std::string& path) {
  std::ifstream in(path);
  if (!in) return Status::NotFound("cannot open '" + path + "'");
  std::stringstream buffer;
  buffer << in.rdbuf();
  Result<uint64_t> snapshot_seq = LoadFromText(buffer.str());
  if (!snapshot_seq.ok()) return snapshot_seq.status();
  if (wal_ != nullptr) {
    return ReplayWal(wal_->path(), snapshot_seq.value());
  }
  return Status::Ok();
}

Status Database::EnableWal(const std::string& path, WalOptions options) {
  if (wal_ != nullptr && wal_->path() == path) return Status::Ok();
  auto writer = std::make_unique<WalWriter>(path, options);
  Status st = writer->Open();
  if (!st.ok()) return st;
  wal_ = std::move(writer);
  if (wal_observer_) wal_->SetObserver(wal_observer_);
  for (auto& [name, table] : tables_) table->SetWalSink(wal_.get());
  return Status::Ok();
}

void Database::DisableWal() {
  for (auto& [name, table] : tables_) table->SetWalSink(nullptr);
  wal_.reset();
}

bool Database::wal_enabled() const { return wal_ != nullptr; }

std::string Database::wal_path() const {
  return wal_ != nullptr ? wal_->path() : std::string();
}

WalStatus Database::wal_status() const {
  return wal_ != nullptr ? wal_->StatusNow() : WalStatus{};
}

void Database::SetWalObserver(WalObserver observer) {
  wal_observer_ = std::move(observer);
  if (wal_ != nullptr) wal_->SetObserver(wal_observer_);
}

Status Database::Recover(const std::string& snapshot_path,
                         const std::string& wal_path,
                         WalOptions wal_options) {
  uint64_t snapshot_seq = 0;
  if (!snapshot_path.empty() && std::filesystem::exists(snapshot_path)) {
    std::ifstream in(snapshot_path);
    std::stringstream buffer;
    buffer << in.rdbuf();
    Result<Value> parsed = json::Parse(buffer.str());
    if (!parsed.ok()) return parsed.status();
    if (Status st = LoadTables(parsed.value()); !st.ok()) return st;
    snapshot_seq = static_cast<uint64_t>(parsed->GetInt("__wal_seq", 0));
  }
  recovery_snapshot_path_ = snapshot_path;
  // Enable the log BEFORE replaying, exactly like LoadFromFile: the replay
  // then advances the live writer's sequence past the snapshot and every
  // record it applies (the sink is muted during replay, so nothing is
  // re-appended). Replaying first would leave the fresh writer at seq 1,
  // and every post-recovery mutation would reuse sequence numbers the
  // snapshot already covers — silently skipped by the next recovery's
  // suffix filter, and compacted away as if durable.
  Status st = EnableWal(wal_path, wal_options);
  if (!st.ok()) return st;
  wal_->EnsureSeqAbove(snapshot_seq);
  return ReplayWal(wal_path, snapshot_seq);
}

Status Database::ReplayWal(const std::string& path, uint64_t min_seq) {
  std::ifstream in(path);
  if (!in) return Status::Ok();  // no log yet: nothing to replay
  if (wal_ != nullptr) wal_->SetMuted(true);
  uint64_t max_seq = min_seq;
  uint64_t last_good_seq = 0;
  uint64_t line_no = 0;
  uint64_t bad_line = 0;  // first unparseable line (0 = none seen)
  Status st = Status::Ok();
  std::string line;
  while (std::getline(in, line)) {
    ++line_no;
    if (line.empty()) continue;
    if (bad_line != 0) {
      // Intact records AFTER an unparseable one: that is not a crash
      // mid-append but mid-file corruption. Replaying past the hole would
      // silently drop committed mutations, so recovery must fail loudly.
      st = Status::ParseError(
          "WAL '" + path + "' corrupt at line " + std::to_string(bad_line) +
          " (last good seq " + std::to_string(last_good_seq) +
          "): intact records follow the corrupt one");
      break;
    }
    Result<Value> record = json::Parse(line);
    // A torn trailing line is the expected shape of a crash mid-append:
    // tolerated, as long as nothing parseable comes after it.
    if (!record.ok()) {
      bad_line = line_no;
      continue;
    }
    const uint64_t seq = static_cast<uint64_t>(record->GetInt("seq", 0));
    last_good_seq = seq;
    if (seq <= min_seq) continue;  // covered by the loaded snapshot
    st = ApplyWalRecord(record.value());
    if (!st.ok()) break;
    if (seq > max_seq) max_seq = seq;
  }
  if (wal_ != nullptr) {
    wal_->EnsureSeqAbove(max_seq);
    wal_->SetMuted(false);
  }
  return st;
}

Status Database::ApplyWalRecord(const Value& record) {
  const std::string table_name = record.GetString("table");
  Table* table = GetTable(table_name);
  if (table == nullptr) {
    return Status::ParseError("WAL record references unknown table '" +
                              table_name + "'");
  }
  const std::string op = record.GetString("op");
  const int64_t id = record.GetInt("id", 0);
  if (op == "insert") return table->RestoreRow(record.at("data"));
  if (op == "update") return table->Update(id, record.at("data"));
  if (op == "erase") {
    (void)table->Erase(id);  // already-gone rows are not a replay failure
    return Status::Ok();
  }
  if (op == "clear") {
    table->Clear();
    return Status::Ok();
  }
  return Status::ParseError("WAL record has unknown op '" + op + "'");
}

}  // namespace laminar::registry
