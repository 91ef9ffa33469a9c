// The open-loop load generator and the end-to-end run.
//
// One process drives the spawned server: the calling thread is the only
// sender, and each of the load sockets has one reader thread that
// stamps frames as they arrive. Arrivals are Poisson at the offered rate on
// a schedule fixed before the phase starts, so a slow server never slows
// the schedule; every latency is measured from the request's due time.
#pragma once

#include <atomic>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "report.hpp"
#include "server_proc.hpp"
#include "wire.hpp"
#include "workload.hpp"

namespace e2e {

struct RunContext {
  BenchConfig config;
  Corpus corpus;
  std::string serve_bin;
  std::string work_dir;
  std::string source_digest;
  uint64_t seed = 0;
  double seconds = 0;  ///< length of the measured phase
  int nproc = 1;
  /// Load connections, each with one reader thread. With the sending
  /// thread, the generator uses 1 + connections threads.
  int connections = 1;
};

/// A spawned, seeded server with its load connections.
struct Seeded {
  std::unique_ptr<ServerProcess> server;
  std::vector<std::unique_ptr<WireConn>> conns;
  std::string data_dir;  ///< snapshot/WAL directory, removed by Close()
  double setup_s = 0;
  double setup_rss_mb = 0;  ///< server VmHWM once seeded
  void Close();
  ~Seeded() { Close(); }
};

/// Spawns laminar_serve, seeds the corpus over TCP and waits for the first
/// workload request to succeed; `setup_s` covers all of it.
laminar::Result<std::unique_ptr<Seeded>> SpawnAndSeed(const RunContext& ctx,
                                                      int rep);

/// One open-loop phase: the requests sent and what came back.
struct Phase {
  double rps = 0;
  double seconds = 0;
  std::vector<Request> requests;
  std::vector<Slot> slots;
  std::vector<uint8_t> ok;  ///< response passed ResponseOk
  size_t written = 0;
  /// Requests sent but not yet answered, sampled at every send.
  std::vector<uint32_t> backlog;
  bool drained = true;

  /// Latencies (ms from due time) of one request class; a failed, refused
  /// or malformed response counts as +inf. For kRun, `first_line` selects
  /// the first streamed line instead of the END frame.
  std::vector<double> Latencies(Kind kind, bool first_line = false) const;
  std::vector<double> Latencies(const std::string& path) const;
  /// Failed, refused or malformed responses (all classes).
  size_t Failures() const;
  /// Sender lateness (sent - due) in ms.
  std::vector<double> Lateness() const;
  /// How much the backlog grew over the phase: its mean over the last
  /// quarter of sends minus its mean over the second quarter.
  double BacklogGrowth() const;
};

class OpenLoop {
 public:
  OpenLoop(const RunContext& ctx, std::vector<std::unique_ptr<WireConn>>* conns)
      : ctx_(ctx), conns_(conns) {}
  /// Sends `rps` workload requests per second (plus health probes) for
  /// `seconds`, then waits for every response.
  Phase Run(RequestStream& stream, double rps, double seconds,
            uint64_t arrival_seed);

 private:
  const RunContext& ctx_;
  std::vector<std::unique_ptr<WireConn>>* conns_;
  uint64_t next_base_ = 0;
};

/// Per-endpoint server-side means from two /metrics scrapes
/// (laminar_server_request_ms _sum/_count deltas).
std::map<std::string, double> ServerMeans(const std::string& before,
                                          const std::string& after);

/// Traffic actually sent: mix shares, repeat share, bytes, health RTT and
/// generator lateness, added to `report` under the gen./net. names.
void ReportTraffic(const Phase& phase, const RunContext& ctx, Report* report);

/// Endpoint names as metric-name suffixes ("/search/semantic" ->
/// "search_semantic").
std::string EndpointTag(const std::string& path);

/// The end-to-end run (--trace 0). Returns the exit code.
int RunEndToEnd(const RunContext& ctx, const std::vector<std::string>& keys);

}  // namespace e2e
