// WAL-shipping registry replication (ROADMAP item 2's distribution half).
//
// One leader binary ships its per-mutation JSON WAL to N read-only
// followers over the existing framed TCP transport; followers bootstrap
// from a leader snapshot and then tail the log, applying every record
// through the registry's recovery path and reindexing search incrementally,
// so `/search/*`, `/pes/get`, `/workflows/get` and `/stats` are served from
// any replica while all mutations stay on the leader.
//
// Protocol (three POST endpoints on the leader, admission-exempt like
// /health — a bench's per-tenant rate caps must never throttle the
// replication stream itself):
//   /replication/snapshot {}            -> the raw snapshot document (the
//       same bytes WriteSnapshot persists, "__wal_seq" embedded)
//   /replication/fetch {fromSeq,maxRecords?,waitMs?} ->
//       {lines:[...], headSeq, needSnapshot} — WAL lines with
//       seq > fromSeq, long-polling up to waitMs when the follower is
//       caught up; needSnapshot=true when fromSeq predates what the leader
//       still has (ring evicted + WAL compacted), telling the follower to
//       re-bootstrap
//   /replication/status {}              -> role, sequences, lag counters
//
// The long-lived framed stream is the follower's persistent HttpConnection:
// each fetch is one bounded request/response on it, so disconnects are
// detected by the normal codec EOF path and the follower reconnects with
// the capped-backoff TcpConnect.
//
// Leader side: ReplicationHub — an in-memory ring of the most recent
// (seq, line) records fed by the Database's WAL observer (called under the
// WAL mutex, so publishing preserves sequence order), with a WAL-file
// fallback for fetches that start behind the ring; consecutive fallback
// reads resume at the byte offset where the previous one stopped, so a
// follower catching up from the file parses each line about once. The
// ring is bounded by a record count and by kRingByteBudget bytes of line
// text, whichever binds first: a PE record carries its ~17 KB stored
// embedding, so a count bound alone would let 8,192 records pin ~160 MB on
// a leader.
//
// Follower side: ReplicationFollower — one background thread owning the
// leader connection: bootstrap (snapshot -> Database::LoadFromText ->
// search reindex), then the tail loop. Sequence contiguity is asserted on
// every applied batch; a gap (which the protocol should never produce)
// forces a re-bootstrap rather than a silently diverged replica. The
// follower runs with NO local WAL, so applying is never re-logged and a
// restarted follower always re-bootstraps from the leader.
//
// Telemetry (process-wide):
//   laminar_repl_records_total{role="leader"|"follower"}
//   laminar_repl_bytes_total{role="leader"|"follower"}
//   laminar_repl_lag_ms      (histogram, follower: apply time - record ts)
//   laminar_repl_lag_seq     (gauge, follower: leader head - applied)
#pragma once

#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <ios>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "common/status.hpp"
#include "common/value.hpp"
#include "net/http.hpp"

namespace laminar::server {

/// Leader-side shipping buffer. Publish() is called from the Database's
/// WAL observer (under the WAL mutex — strictly in sequence order);
/// Fetch() serves follower long-polls.
class ReplicationHub {
 public:
  /// Line bytes the ring may hold. The newest record always stays, even
  /// alone over budget, so a caught-up follower is served from memory.
  static constexpr size_t kRingByteBudget = size_t{16} << 20;

  /// `wal_path` is the fallback source for fetches older than the ring;
  /// `head_seq` seeds the newest-known sequence (the WAL's last assigned
  /// sequence after recovery). `ring_capacity` bounds buffered records.
  ReplicationHub(std::string wal_path, uint64_t head_seq,
                 size_t ring_capacity = 8192);

  void Publish(uint64_t seq, std::string line);

  struct FetchResult {
    std::vector<std::string> lines;  ///< WAL records, ascending seq
    uint64_t head_seq = 0;           ///< newest sequence the leader assigned
    /// True when records past `from_seq` are gone from both the ring and
    /// the (compacted) WAL file: the follower must re-bootstrap.
    bool need_snapshot = false;
  };

  /// Records with seq > from_seq, at most max_records. Blocks up to
  /// `wait_ms` when the caller is already caught up (long-poll).
  FetchResult Fetch(uint64_t from_seq, size_t max_records, int wait_ms);

  uint64_t head_seq() const;
  /// Buffered records and their line bytes.
  size_t ring_records() const;
  size_t ring_bytes() const;
  /// Fetches served / records shipped (for /replication/status).
  uint64_t fetches() const;
  uint64_t records_shipped() const;

 private:
  const std::string wal_path_;
  const size_t capacity_;
  /// Where a WAL-file read stopped: `offset` is the byte offset of the line
  /// holding record `seq` (seq 0: no read yet, start at the top).
  struct WalCursor {
    uint64_t seq = 0;
    std::streamoff offset = 0;
  };
  struct WalRead {
    std::vector<std::string> lines;  ///< records from_seq + 1 on, in order
    bool need_snapshot = false;      ///< the file skips past from_seq + 1
    bool parse_failure = false;      ///< stopped at a half-written tail
    bool stale_cursor = false;       ///< `at` no longer holds its record
    WalCursor next;                  ///< just past the last line read
  };
  /// Reads up to `max_records` WAL-file records past `from_seq`, starting at
  /// `at` (which must not lie past from_seq + 1) instead of the first line.
  WalRead ReadWal(uint64_t from_seq, size_t max_records, WalCursor at) const;

  mutable std::mutex mu_;
  std::condition_variable cv_;
  std::deque<std::pair<uint64_t, std::string>> ring_;
  WalCursor wal_cursor_;  ///< end of the last WAL-file read
  size_t ring_bytes_ = 0;  ///< sum of ring_ line sizes
  uint64_t head_seq_ = 0;
  uint64_t fetches_ = 0;
  uint64_t records_shipped_ = 0;
};

struct FollowerConfig {
  std::string leader_host = "127.0.0.1";
  uint16_t leader_port = 0;
  /// Long-poll hold the follower asks the leader for per fetch.
  int fetch_wait_ms = 1000;
  /// Per-fetch record cap (bounds the exclusive-lock apply batch).
  size_t fetch_max_records = 512;
  /// Per-attempt connect timeout and retry budget for (re)connects.
  int connect_timeout_ms = 10'000;
  int connect_attempts = 10;
};

/// Background replication client: owns the leader connection and drives
/// bootstrap + tail. The owning server supplies the two hooks that touch
/// registry state; both are invoked from the follower thread and must do
/// their own (exclusive) locking.
class ReplicationFollower {
 public:
  struct Hooks {
    /// Loads a snapshot document into the registry, reindexes search, and
    /// returns the "__wal_seq" the snapshot covers.
    std::function<Result<uint64_t>(const std::string& snapshot_doc)> bootstrap;
    /// Applies one fetch batch of parsed WAL records (ascending seq,
    /// contiguity already verified) and maintains the search indexes.
    std::function<Status(const std::vector<Value>& records)> apply;
  };

  ReplicationFollower(FollowerConfig config, Hooks hooks);
  ~ReplicationFollower();

  void Start();
  void Stop();

  struct StatusSnapshot {
    bool connected = false;
    bool bootstrapped = false;
    uint64_t applied_seq = 0;
    uint64_t leader_seq = 0;  ///< head the last fetch response reported
    uint64_t records_applied = 0;
    uint64_t bytes_received = 0;
    uint64_t bootstraps = 0;  ///< snapshot loads (1 + forced re-bootstraps)
    uint64_t gaps = 0;        ///< sequence-contiguity violations observed
    /// Wall-clock ms when the follower last confirmed it was caught up
    /// (applied_seq == leader head); 0 until first confirmed.
    int64_t last_fresh_wall_ms = 0;
    /// Lag of the most recently applied record (apply time - record ts).
    double last_record_lag_ms = 0.0;
  };
  StatusSnapshot status() const;

  /// Bounded-staleness contract: fresh means the follower confirmed it was
  /// caught up with the leader within the last `max_lag_ms` milliseconds.
  /// An un-bootstrapped (or never-confirmed) follower is infinitely stale.
  bool IsFresh(int64_t max_lag_ms) const;

 private:
  void Loop();
  /// One leader session: connect, bootstrap if needed, tail until error.
  void RunSession();

  const FollowerConfig config_;
  const Hooks hooks_;
  std::thread thread_;
  mutable std::mutex mu_;
  std::condition_variable stop_cv_;
  bool stopping_ = false;
  StatusSnapshot state_;
  /// The session's connection while one is live — Stop() closes it so a
  /// blocked long-poll Call returns immediately. Guarded by mu_.
  net::HttpConnection* live_conn_ = nullptr;
};

}  // namespace laminar::server
