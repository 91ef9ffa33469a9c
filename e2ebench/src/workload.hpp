// Workload definitions: the fixed settings read from workloads.json, the
// corpus each workload seeds, the seeded request streams the load phases
// send, and the fixed probe set the correctness gate checks.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "common/rng.hpp"
#include "common/status.hpp"
#include "common/value.hpp"
#include "dataset/generator.hpp"

namespace e2e {

/// Request classes the metrics are split by.
enum class Kind { kRead, kWrite, kRun, kHealth };
const char* KindName(Kind kind);

struct Request {
  std::string path;
  std::string body;
  Kind kind = Kind::kRead;
  /// Identity of the query text, for the repeat share (0 = not a query).
  uint64_t key = 0;
  int mapping = -1;   ///< /execute: index into kMappings
  int workflow = -1;  ///< /execute: index into WorkloadConfig::inputs
};

inline constexpr const char* kMappings[] = {"simple", "multi", "dynamic"};

/// /health probes per second, interleaved into every phase.
inline constexpr double kHealthRps = 5;
/// A run is invalid when the sender's lateness p99 exceeds this share of
/// the latency limit.
inline constexpr double kLateFrac = 0.4;
/// PEs per /registry/bulk_register request at set-up.
inline constexpr size_t kBulkChunk = 500;
/// Process count asked of the multi mapping (capped at nproc).
inline constexpr int kMaxProcesses = 4;

/// Settings of one workload, fixed in workloads.json and never retuned.
struct WorkloadConfig {
  std::string name;
  size_t variants = 0;  ///< PEs per dataset family (30 families)
  std::vector<std::pair<std::string, double>> mix;  ///< endpoint -> share
  double fixed_rps = 0;   ///< offered rate of the measured phase
  double limit_ms = 0;    ///< p99 limit of the limited class
  Kind limited = Kind::kRead;  ///< reads, or first lines for kRun
  std::vector<double> ladder;  ///< rate ladder, multiples of fixed_rps
  bool wal = false;       ///< server runs with --snapshot/--wal
  std::map<std::string, int64_t> inputs;  ///< workflow -> producer input
  /// Workflows whose output depends on the order a stateful PE receives
  /// tuples in. The dynamic mapping feeds such a PE from parallel workers
  /// with no order across them, so which lines it prints varies from run to
  /// run; the gate checks only that such a run completes.
  std::vector<std::string> order_dependent;
};

struct BenchConfig {
  WorkloadConfig workload;
  int setup_reps = 1;
  double warmup_s = 0;
  double step_s = 0;      ///< ladder step length
  int bisect_steps = 0;
  size_t trace_requests = 0;
};

/// Reads workloads.json. `smoke` selects the tiny-corpus settings.
laminar::Result<BenchConfig> LoadConfig(const std::string& path,
                                        const std::string& workload,
                                        bool smoke);

/// The PEs (search workloads) or workflows (stream_exec) seeded at set-up.
struct Corpus {
  std::vector<laminar::dataset::PeExample> pes;
  /// /registry/bulk_register bodies, in id order (ids 1..pes.size()).
  std::vector<std::string> bulk_bodies;
  /// /workflows/register bodies (stream_exec), in id order.
  std::vector<std::string> workflow_bodies;
};
Corpus BuildCorpus(const BenchConfig& config);

/// One seeded stream of workload requests. `phase` keeps the streams of the
/// warm-up, ladder and measured phases independent; the traced run replays
/// the measured phase's stream.
class RequestStream {
 public:
  RequestStream(const BenchConfig& config, const Corpus& corpus,
                uint64_t seed, uint64_t phase);
  Request Next();

 private:
  const BenchConfig& config_;
  const Corpus& corpus_;
  laminar::Rng rng_;
  std::string name_tag_;
  std::vector<std::string> queries_;     ///< semantic query pool
  std::vector<double> zipf_cdf_;
  std::vector<laminar::dataset::PeExample> fresh_;  ///< registrations
  std::vector<size_t> code_order_;       ///< code queries, no repeats
  size_t fresh_next_ = 0;
  size_t code_next_ = 0;
  uint64_t count_ = 0;
};

/// The /health probe interleaved into every phase.
Request HealthRequest();

/// The fixed probe set of the correctness gate (independent of the seed).
std::vector<Request> ProbeSet(const BenchConfig& config, const Corpus& corpus);

/// True when `request` runs an order-dependent workflow on the dynamic
/// mapping (see WorkloadConfig::order_dependent).
bool OrderDependentRun(const WorkloadConfig& workload, const Request& request);

/// Canonical form of a response for comparison with the reference: hit
/// names, order and scores; the PE record; or the sorted stdout lines of a
/// run. Empty when the response is malformed.
std::string Canonical(const Request& request, int status,
                      const std::string& body);

/// Structural check of one load-phase response: status 200 and the
/// endpoint's expected shape.
bool ResponseOk(const Request& request, int status, const std::string& body);

/// Id the server assigned in a /pes/register reply (0 if none).
int64_t RegisteredId(const std::string& body);

}  // namespace e2e
