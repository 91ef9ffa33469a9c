// Embedded relational database: named tables + foreign-key enforcement +
// whole-database JSON persistence. Stands in for the MySQL instance behind
// the Laminar registry (DESIGN.md substitution table).
//
// Persistence model (ISSUE 5):
//  * Snapshots are two-phase. CaptureSnapshot() runs under the caller's
//    *read* lock and only copies row data (or reuses cached serialized text
//    for tables unchanged since the last snapshot — per-table dirty tracking
//    via Table::version()). WriteSnapshot() then serializes and writes
//    OUTSIDE any registry lock, to a uniquely named temp file + atomic
//    rename, so a crash mid-save can never corrupt the previous snapshot
//    and concurrent searches never wait on disk I/O.
//  * An optional write-ahead log (EnableWal) appends every committed
//    mutation as one JSON line tagged with a monotonic sequence number.
//    Snapshots embed the sequence they cover ("__wal_seq"); LoadFromFile
//    replays only the WAL suffix past that point, so a crash between
//    snapshots loses nothing. WriteSnapshot compacts the log down to the
//    un-snapshotted suffix.
//
// Locking contract: table reads/mutations are guarded by the owner's lock
// (the server's shared_mutex). The persistence caches and the WAL stream
// have their own internal mutex, so CaptureSnapshot/WriteSnapshot may run
// from concurrent readers.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>
#include <vector>

#include "registry/table.hpp"

namespace laminar::registry {

/// How aggressively WAL appends reach stable storage. The default (kNone)
/// leaves flushing to the OS page cache — appends are crash-consistent with
/// respect to the *process* (write(2) completes before the commit returns)
/// but a machine crash can lose the tail. kInterval runs a background
/// flusher that fsyncs every `fsync_interval_ms`; kPerRecord fsyncs inside
/// every append (durable but slowest).
enum class WalFsyncMode { kNone, kInterval, kPerRecord };

struct WalOptions {
  WalFsyncMode fsync = WalFsyncMode::kNone;
  int fsync_interval_ms = 50;  ///< cadence for WalFsyncMode::kInterval
};

/// Observable WAL state for /stats and /replication/status: how far the log
/// has been written vs how far it is known durable on disk.
struct WalStatus {
  bool enabled = false;
  std::string fsync_mode = "none";
  uint64_t appended_seq = 0;  ///< last sequence handed to write(2)
  uint64_t durable_seq = 0;   ///< last sequence covered by fsync/snapshot
  uint64_t records = 0;       ///< records appended by this process
  uint64_t bytes = 0;         ///< bytes appended by this process
};

/// Fires once per appended record, under the WAL's internal mutex, with the
/// exact line written to disk (no trailing newline). Observers see records
/// in sequence order; they must not call back into the Database.
using WalObserver = std::function<void(uint64_t seq, const std::string& line)>;

class Database {
 public:
  Database();
  ~Database();

  Status CreateTable(TableSchema schema);
  Table* GetTable(const std::string& name);
  const Table* GetTable(const std::string& name) const;
  std::vector<std::string> TableNames() const;

  /// Insert with foreign-key checks (Table::Insert alone does not see other
  /// tables).
  Result<int64_t> Insert(const std::string& table, Row row);
  /// Update with foreign-key checks on any changed FK columns.
  Status Update(const std::string& table, int64_t id, const Row& fields);
  /// Erase, refusing while other rows still reference this one.
  Status Erase(const std::string& table, int64_t id);

  /// Serializes every table (schema names + rows) to pretty JSON.
  std::string Dump() const;

  /// Phase 1 of a save: copy-on-read capture of every table, cheap enough
  /// to run under a shared lock. Tables unchanged since the last
  /// WriteSnapshot reuse their cached serialized text instead of copying.
  struct Snapshot {
    struct TableSnap {
      std::string name;
      uint64_t version = 0;
      bool cached = false;  ///< `text` reused from the serialization cache
      std::string text;     ///< serialized table JSON (cached tables)
      Value data;           ///< copied table JSON (dirty tables)
    };
    std::vector<TableSnap> tables;
    uint64_t wal_seq = 0;  ///< last mutation sequence the snapshot covers
  };
  Snapshot CaptureSnapshot() const;

  /// Serializes a captured snapshot to the exact document WriteSnapshot
  /// persists ("__wal_seq" + every table). Runs outside any registry lock;
  /// mutates `snapshot` only by filling dirty tables' serialized text. Used
  /// directly by replication leaders to answer /replication/snapshot.
  std::string SerializeSnapshot(Snapshot& snapshot) const;

  /// Phase 2: serializes dirty tables, assembles the document, writes a
  /// unique temp file and renames it over `path`. Runs outside any registry
  /// lock; refreshes the serialization cache on success. The WAL is
  /// compacted only when `path` is the recovery snapshot path declared via
  /// Recover() — a save anywhere else must leave the log intact, because
  /// its records are the only durable copy the next Recover() can see.
  Status WriteSnapshot(Snapshot snapshot, const std::string& path) const;

  /// CaptureSnapshot + WriteSnapshot in one call (callers that do not split
  /// phases across lock scopes). Atomic like WriteSnapshot.
  Status SaveToFile(const std::string& path) const;

  /// Restores rows into the already-created tables of this database, then
  /// replays the enabled WAL's suffix (records newer than the snapshot). A
  /// snapshot with a malformed row is refused before any table changes.
  Status LoadFromFile(const std::string& path);

  /// Restores rows from an in-memory snapshot document (the exact bytes a
  /// WriteSnapshot produced — e.g. received over the wire during replica
  /// bootstrap). Returns the "__wal_seq" the snapshot covers. Does NOT
  /// replay any local WAL; callers that want suffix replay use
  /// LoadFromFile/Recover.
  Result<uint64_t> LoadFromText(const std::string& text);

  /// Opens `path` for appending one JSON line per committed mutation.
  /// Does not replay — see Recover(). Idempotent per path (options of the
  /// already-open writer are kept).
  Status EnableWal(const std::string& path, WalOptions options = {});
  void DisableWal();
  bool wal_enabled() const;
  /// Empty when no WAL is enabled.
  std::string wal_path() const;
  /// Durability counters (zeroed defaults when no WAL is enabled).
  WalStatus wal_status() const;
  /// Registers the per-append hook (replication leaders feed their shipping
  /// ring from it). Applies to the current writer and any future EnableWal.
  void SetWalObserver(WalObserver observer);

  /// Applies one WAL record (insert/update/erase/clear) to the named table.
  /// Public because a read replica applies records received from its leader
  /// through exactly the recovery path; on a replica no local WAL is
  /// enabled, so applying is never re-logged.
  Status ApplyWalRecord(const Value& record);

  /// Crash recovery in one call: loads `snapshot_path` when it exists (a
  /// missing snapshot is not an error — first boot), enables the WAL (seeded
  /// past the snapshot's sequence), then replays the suffix of `wal_path`.
  /// Also records `snapshot_path` as the recovery snapshot: only snapshots
  /// written back to that path compact the WAL (see WriteSnapshot).
  /// `wal_options` configures the durability mode of the WAL it enables.
  Status Recover(const std::string& snapshot_path, const std::string& wal_path,
                 WalOptions wal_options = {});

 private:
  class WalWriter;

  Status CheckForeignKeys(const Table& table, const Row& row) const;
  /// Replaces the rows of every table the snapshot document names (tables
  /// it lacks keep theirs). Checks all of them first: on error nothing is
  /// replaced.
  Status LoadTables(const Value& doc);
  /// Applies records with seq > min_seq. A torn trailing line (crash mid-
  /// append) ends the replay without error, but an unparseable record with
  /// intact records after it is mid-file corruption: the replay fails
  /// loudly, reporting the offending line and the last good sequence, so a
  /// half-applied registry never masquerades as a clean recovery.
  Status ReplayWal(const std::string& path, uint64_t min_seq);

  std::vector<std::pair<std::string, std::unique_ptr<Table>>> tables_;
  /// name -> index into tables_; lookup is O(1), creation order (which
  /// persistence and FK checks rely on) stays in the vector.
  std::unordered_map<std::string, size_t> table_slots_;

  /// Serialization cache: table name -> (version, serialized text). Guarded
  /// by persist_mu_ (its own lock — snapshot writers run off the registry
  /// lock and concurrent captures run under shared locks).
  mutable std::mutex persist_mu_;
  mutable std::unordered_map<std::string, std::pair<uint64_t, std::string>>
      serialized_cache_;

  std::unique_ptr<WalWriter> wal_;
  WalObserver wal_observer_;
  /// The snapshot path Recover() reads at boot. WriteSnapshot compacts the
  /// WAL only when writing here (empty: never compact).
  std::string recovery_snapshot_path_;
};

}  // namespace laminar::registry
