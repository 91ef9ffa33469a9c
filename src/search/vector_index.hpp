// Read-optimized dense vector index for the search hot path (ROADMAP: the
// query path must run as fast as the hardware allows under concurrent
// traffic).
//
// Design, in the shape Serverless-Lucene-style read-optimized indexes take
// (PAPERS.md): embeddings are L2-normalized once at insert time so cosine
// similarity degenerates to a plain dot product, and rows live in one flat
// structure-of-arrays float block (row-major, `dims` floats per row) with a
// parallel id side-array. A query is then a single linear pass over
// contiguous memory — no per-pair norm recomputation, no hash-map pointer
// chasing — scored with a 4x-unrolled dot kernel and reduced with a bounded
// top-k min-heap instead of a full sort. Corpora past `parallel_threshold`
// rows are scanned in shards on std::thread workers, each keeping a local
// heap, merged at the end.
//
// Past `ann_threshold` rows the exact scan stops scaling (O(N·d) per query
// cannot carry a million-PE corpus), so the index also carries a pluggable
// strategy: `flat` keeps the dense exact scan, `hnsw` routes TopK through a
// laminar::ann::HnswIndex graph over the *same* row storage, and `auto`
// (default) starts flat and switches to hnsw once the row count crosses the
// threshold (one-way: once a graph is built it stays, so the policy never
// thrashes around the boundary). The ANN path is two-stage — graph beam
// search for candidates, then an exact dot-product rerank through the same
// unrolled kernel — so every returned score is bit-identical to what the
// flat scan computes for that id, and ties break identically. In hnsw mode
// rows are append-only with tombstoned removals (graph nodes must keep
// their row binding); compaction rebuilds dense storage and the graph once
// tombstones exceed `max_dead_fraction`.
//
// Quantization (ISSUE 10): with `quantize` on, the index also keeps an SQ8
// mirror of the row block — int8 codes plus a per-row affine (scale,
// offset), ~0.28x the float32 bytes — kept in sync through every mutation.
// Candidate generation (the flat scan's first pass and the HNSW beam
// traversal) then scores against the mirror with the dispatched int8
// kernel, and an over-fetched exact float32 rerank (`rerank_overfetch * k`
// candidates) recomputes every returned score with the same dispatched
// float kernel the unquantized paths run. Quantization therefore changes
// *which* ids can be missed (recall), never the score attached to a
// returned id — the bit-identical contract holds in every mode.
//
// Row storage is a RowBlock (below) grown with realloc rather than a
// std::vector<float>: new rows are never zero-filled, and growing a large
// block remaps its pages instead of copying them. UpsertBatch commits a
// whole registration batch at once: slots are assigned serially, the block
// grows once, and the rows (plus their SQ8 mirror rows) are normalized and
// written in parallel over a caller-supplied pool. The result is
// bit-identical to upserting the same rows one at a time.
//
// Concurrency contract: all const methods are safe to call concurrently
// with each other (the server's shared-lock read path relies on this);
// mutations (Upsert/UpsertBatch/Remove/Clear/Begin+EndBulk) require
// external exclusive locking, which the server's write path provides.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "ann/hnsw.hpp"
#include "simd/sq8.hpp"

namespace laminar {
class ThreadPool;
}

namespace laminar::telemetry {
class Counter;
class Gauge;
class Histogram;
}  // namespace laminar::telemetry

namespace laminar::search {

struct ScoredId {
  int64_t id = 0;
  float score = 0.0f;
};

/// Which top-k engine a VectorIndex runs queries through.
enum class IndexStrategy {
  kFlat,  ///< exact scan only, regardless of corpus size
  kHnsw,  ///< ANN graph from the first row
  kAuto,  ///< flat until `ann_threshold` rows, then hnsw (one-way switch)
};

const char* ToString(IndexStrategy strategy);
/// Parses "flat" | "hnsw" | "auto" (anything else -> kAuto).
IndexStrategy ParseIndexStrategy(std::string_view name);

struct VectorIndexOptions {
  /// Row count above which the exact TopK shards the scan across threads.
  size_t parallel_threshold = 4096;
  /// Upper bound on scan shards (also bounded by hardware_concurrency).
  size_t max_threads = 8;
  /// flat | hnsw | auto (see IndexStrategy).
  IndexStrategy strategy = IndexStrategy::kAuto;
  /// Live-row count at which kAuto builds the ANN graph.
  size_t ann_threshold = 32768;
  /// HNSW graph shape (M / ef_construction / ef_search / seed).
  ann::HnswConfig hnsw;
  /// Tombstone fraction that triggers compaction in hnsw mode.
  double max_dead_fraction = 0.25;
  /// Every Nth ANN query also runs the exact scan and records the id
  /// overlap into laminar_ann_recall_probe_* counters (0 disables probes).
  size_t recall_probe_interval = 1024;
  /// Maintain the SQ8 int8 mirror and route candidate generation through it
  /// (see the header comment). Returned scores stay bit-identical to the
  /// unquantized paths; only recall can differ, bounded by the rerank
  /// over-fetch below.
  bool quantize = false;
  /// Over-fetch factor for the exact rerank when quantize is on: the
  /// candidate stage keeps ceil(rerank_overfetch * k) approximate winners
  /// (and widens the HNSW beam to at least that), then the float kernel
  /// reranks them and truncates to k. Values < 1 are treated as 1.
  double rerank_overfetch = 4.0;
  /// Telemetry label (`index="<label>"`) for laminar_ann_* metrics; empty
  /// leaves the metrics unlabelled (standalone/test indexes).
  std::string label;
};

/// Row-major float storage grown with realloc. Floats are trivially
/// copyable, so glibc grows a large (mmap-backed) block by remapping its
/// pages rather than copying them, and fresh rows are not zero-filled the
/// way std::vector::resize fills them: every row is written before any
/// reader can reach it.
class RowBlock {
 public:
  RowBlock() = default;
  RowBlock(const RowBlock&) = delete;
  RowBlock& operator=(const RowBlock&) = delete;
  ~RowBlock();

  float* data() { return data_; }
  const float* data() const { return data_; }
  /// Allocated floats.
  size_t capacity() const { return capacity_; }
  /// Ensures room for `floats`. A block that must grow at least doubles, so
  /// row-at-a-time appends stay amortized O(1). Throws std::bad_alloc.
  void Reserve(size_t floats);
  /// Reallocates to exactly `floats` (releasing the block at 0).
  void ShrinkTo(size_t floats);

 private:
  float* data_ = nullptr;
  size_t capacity_ = 0;
};

/// Point-in-time footprint/shape snapshot for /stats.
struct VectorIndexStats {
  size_t rows = 0;         ///< live rows (excludes tombstones)
  size_t nodes = 0;        ///< stored rows including tombstones
  size_t dims = 0;
  size_t bytes = 0;        ///< row + id + tombstone storage (capacity)
  size_t graph_bytes = 0;  ///< HNSW graph footprint (0 while flat)
  size_t quant_bytes = 0;  ///< SQ8 mirror footprint (0 when quantize off)
  bool ann = false;        ///< true once queries route through the graph
  bool quantized = false;  ///< true while the SQ8 mirror serves candidates
  uint64_t compactions = 0;
  uint64_t graph_builds = 0;
};

class VectorIndex {
 public:
  using Options = VectorIndexOptions;

  explicit VectorIndex(size_t dims, Options options = {});

  /// Inserts or replaces the row for `id`. The embedding is copied and
  /// L2-normalized; a zero vector or a vector of the wrong dimensionality
  /// is stored as an all-zero row, which scores 0 against every query —
  /// the same result the legacy embed::Cosine path produced for zero or
  /// size-mismatched pairs. In hnsw mode a replace tombstones the old row
  /// and appends a fresh one (graph nodes are immutable bindings).
  void Upsert(int64_t id, std::span<const float> embedding);

  /// Upserts `rows[i]` for `ids[i]`, in order, with the same final state as
  /// that sequence of Upsert calls (Upsert is a batch of one). New ids in
  /// flat mode take the batch path: slots are assigned serially, the row
  /// block grows once, and the rows are normalized and written (and
  /// quantized, with quantize on) over `pool` via ParallelFor; a null pool
  /// writes them on the calling thread. Ids already stored are rewritten in
  /// place; in hnsw mode, and for the rows after an auto-mode batch crosses
  /// `ann_threshold`, each row is tombstone-then-append. `ids` and `rows`
  /// must have the same length.
  void UpsertBatch(std::span<const int64_t> ids,
                   std::span<const std::span<const float>> rows,
                   ThreadPool* pool);

  /// Removes the row. Flat mode swap-and-pops (order is not preserved) and
  /// returns capacity to the allocator after large churn; hnsw mode
  /// tombstones the node and compacts once `max_dead_fraction` of stored
  /// rows are dead. Returns false when the id was never inserted.
  bool Remove(int64_t id);

  void Clear();

  /// Suspends per-Upsert graph maintenance (bulk ingest fast path). Between
  /// BeginBulk and EndBulk, Upsert/Remove only touch row storage; EndBulk
  /// then builds the ANN graph once, fanned out over `pool` via
  /// ParallelFor. Safe to call in flat mode (EndBulk is then a no-op).
  void BeginBulk();
  void EndBulk(ThreadPool* pool);

  size_t size() const { return ids_.size() - dead_count_; }
  bool empty() const { return size() == 0; }
  size_t dims() const { return dims_; }
  const Options& options() const { return options_; }
  /// True once queries route through the ANN graph.
  bool ann_active() const { return ann_active_; }
  /// True while candidate generation runs against the SQ8 mirror.
  bool quantize_active() const { return options_.quantize; }

  /// Turns the SQ8 mirror on or off at runtime (a mutation: external
  /// exclusive locking required). Enabling on a populated index quantizes
  /// every stored row; disabling drops the mirror and returns queries to
  /// the pure float paths. Benches use this to measure float vs SQ8 over
  /// one set of rows and one built graph.
  void SetQuantize(bool on);

  /// Test hook: re-quantizes every live row and compares against the
  /// stored mirror. True when the mirror is bit-exact (or quantize is off).
  bool DebugQuantConsistent() const;

  /// Test hook: the stored (normalized) row for `id`, empty when absent.
  std::span<const float> DebugRow(int64_t id) const;

  VectorIndexStats stats() const;

  /// Top `k` rows by cosine similarity against `query` (which is normalized
  /// internally; callers pass raw encoder output). Results are sorted by
  /// score descending, ties broken by ascending id — the exact order the
  /// legacy full-sort path produced. k >= size() returns every row. In hnsw
  /// mode the graph proposes candidates and the exact kernel reranks, so
  /// returned (id, score) pairs are bit-identical to the flat scan's values
  /// for those ids; k >= size() falls back to the exact scan outright.
  std::vector<ScoredId> TopK(std::span<const float> query, size_t k) const;

  /// Reference implementation retained for benches, parity tests and recall
  /// probes: scores every live row, fully sorts, truncates. Exact in every
  /// mode.
  std::vector<ScoredId> BruteForceTopK(std::span<const float> query,
                                       size_t k) const;

 private:
  /// Normalizes `query` into `scratch` and returns a view of it (empty for
  /// zero/mismatched queries). The scratch buffers are thread_local in the
  /// implementation — TopK and BruteForceTopK each own one, so the per-query
  /// heap allocation the old signature forced is gone while nested calls
  /// (the recall probe runs BruteForceTopK inside TopK) and concurrent
  /// const callers stay safe.
  std::span<const float> NormalizedQuery(std::span<const float> query,
                                         std::vector<float>& scratch) const;
  /// Bounded top-k scan over all slots, sharded past parallel_threshold;
  /// `score_at(slot) -> float` supplies the per-row score (exact float or
  /// SQ8 approximate). Results are sorted by (score desc, id asc).
  template <typename ScoreAt>
  std::vector<ScoredId> ScanTopK(size_t k, const ScoreAt& score_at) const;
  template <typename ScoreAt>
  void ScoreRange(size_t begin, size_t end, size_t k, const ScoreAt& score_at,
                  std::vector<ScoredId>& heap) const;
  std::vector<ScoredId> ExactTopK(std::span<const float> q, size_t k) const;
  /// Quantized flat path: SQ8 candidate scan, exact over-fetched rerank.
  std::vector<ScoredId> QuantFlatTopK(std::span<const float> q,
                                      size_t k) const;
  std::vector<ScoredId> AnnTopK(std::span<const float> raw_query,
                                std::span<const float> q, size_t k) const;
  /// All live rows at score 0 in ascending-id order (zero/mismatched query).
  std::vector<ScoredId> ZeroQueryTopK(size_t k) const;
  float* RowAt(size_t slot) { return rows_.data() + slot * dims_; }
  const float* RowAt(size_t slot) const { return rows_.data() + slot * dims_; }
  /// hnsw-mode upsert of one row: tombstones the id's old node, appends a
  /// fresh one and, outside bulk mode, links it into the graph.
  void UpsertAnnRow(int64_t id, std::span<const float> embedding);
  void WriteRow(float* row, std::span<const float> embedding) const;
  /// Batch tail of UpsertBatch: grows the block (and the SQ8 mirror) for
  /// the slots appended from `first` on, then writes slot first + j from
  /// `rows[source[j]]` over `pool`.
  void WriteAppendedRows(size_t first, const std::vector<size_t>& source,
                         std::span<const std::span<const float>> rows,
                         ThreadPool* pool);
  /// Switches an auto-strategy index onto the graph path (builds it).
  void ActivateAnn(ThreadPool* pool);
  /// Full graph (re)build over current rows; records build telemetry.
  void BuildGraph(ThreadPool* pool);
  /// Drops tombstoned rows, re-densifies storage, rebuilds the graph.
  void Compact(ThreadPool* pool);
  void MaybeCompact(ThreadPool* pool);
  void EnsureAnnTelemetry();
  void EnsureQuantTelemetry();
  /// (Re)quantizes the row at `slot` into the SQ8 mirror; no-op with
  /// quantize off. Grows the mirror arrays as needed.
  void QuantizeSlot(size_t slot);
  /// Quantizes the row at `slot` into mirror arrays already sized for it.
  /// Touches only that slot's entries, so distinct slots may run in
  /// parallel.
  void QuantizeInto(size_t slot);
  void SetQuantBytesGauge();
  /// Quantizes every stored slot (SetQuantize(true) on a populated index,
  /// Compact's rebuild).
  void RebuildQuantMirror();
  bool QuantReady() const {
    return options_.quantize && qcodes_.size() == ids_.size() * dims_;
  }
  /// ceil(rerank_overfetch * k), the candidate depth the rerank consumes.
  size_t RerankDepth(size_t k) const;
  simd::Sq8View QuantView() const {
    return {qcodes_.data(), qscales_.data(), qoffsets_.data(), dims_};
  }

  size_t dims_;
  Options options_;
  RowBlock rows_;  ///< node_count * dims_ floats, row-major, unit rows
  std::vector<int64_t> ids_;
  std::unordered_map<int64_t, size_t> slot_of_;  ///< id -> live slot/node
  std::vector<uint8_t> dead_;  ///< hnsw mode: 1 = tombstoned node
  // SQ8 mirror (populated only with options_.quantize on): node-major int8
  // codes plus the per-row affine side arrays — see simd/sq8.hpp.
  std::vector<int8_t> qcodes_;
  std::vector<float> qscales_;
  std::vector<float> qoffsets_;
  size_t dead_count_ = 0;
  bool ann_active_ = false;
  bool bulk_ = false;
  uint64_t compactions_ = 0;
  uint64_t graph_builds_ = 0;
  std::unique_ptr<ann::HnswIndex> hnsw_;
  /// Rolling ANN-query tick driving the every-Nth recall probe.
  mutable std::atomic<uint64_t> probe_tick_{0};
  // laminar_ann_* handles, resolved once at graph activation.
  telemetry::Histogram* build_ms_ = nullptr;
  telemetry::Histogram* search_ms_ = nullptr;
  telemetry::Gauge* graph_bytes_gauge_ = nullptr;
  telemetry::Counter* probes_total_ = nullptr;
  telemetry::Counter* probe_hits_ = nullptr;
  telemetry::Counter* probe_expected_ = nullptr;
  // laminar_quant_* handles, resolved when the SQ8 mirror first activates.
  telemetry::Gauge* quant_bytes_gauge_ = nullptr;
  telemetry::Counter* quant_searches_ = nullptr;
  telemetry::Counter* quant_rerank_rows_ = nullptr;
};

}  // namespace laminar::search
