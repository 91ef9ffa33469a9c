#include "search/vector_index.hpp"

#include <algorithm>
#include <cmath>
#include <cstdlib>
#include <cstring>
#include <mutex>
#include <new>
#include <thread>
#include <unordered_set>

#include "common/clock.hpp"
#include "common/thread_pool.hpp"
#include "embed/embedding.hpp"
#include "simd/simd.hpp"
#include "telemetry/telemetry.hpp"

namespace laminar::search {
namespace {

/// The legacy ranking order: score descending, ties broken by ascending id.
inline bool Better(const ScoredId& a, const ScoredId& b) {
  if (a.score != b.score) return a.score > b.score;
  return a.id < b.id;
}

/// Bounded min-heap insert: `heap` is a std::*_heap ordered by Better, so
/// the front is the worst retained candidate. O(log k) per displacement,
/// O(1) for the common no-op case of a candidate worse than the floor.
inline void HeapPush(std::vector<ScoredId>& heap, size_t k, ScoredId cand) {
  if (heap.size() < k) {
    heap.push_back(cand);
    std::push_heap(heap.begin(), heap.end(), Better);
    return;
  }
  if (!Better(cand, heap.front())) return;
  std::pop_heap(heap.begin(), heap.end(), Better);
  heap.back() = cand;
  std::push_heap(heap.begin(), heap.end(), Better);
}

/// Flat-mode capacity shrink policy: once live rows drop to a quarter of
/// the allocated capacity (and the allocation is big enough to matter),
/// return the slack to the allocator so a million-row index that churns
/// down to thousands doesn't pin the high-water mark forever.
constexpr size_t kShrinkMinCapacity = 1024;

/// hnsw mode never compacts below this many tombstones — rebuilding a tiny
/// graph on every few removes would cost more than the dead rows do.
constexpr size_t kCompactMinDead = 64;

// Per-thread query scratch. TopK and BruteForceTopK own separate buffers
// because the ANN recall probe runs BruteForceTopK *inside* TopK while
// TopK's normalized query is still live; the SQ8 query scratch is shared by
// the quantized paths, which never nest.
std::vector<float>& TopKScratch() {
  thread_local std::vector<float> buf;
  return buf;
}

std::vector<float>& BruteForceScratch() {
  thread_local std::vector<float> buf;
  return buf;
}

simd::Sq8Query& Sq8Scratch() {
  thread_local simd::Sq8Query q;
  return q;
}

}  // namespace

const char* ToString(IndexStrategy strategy) {
  switch (strategy) {
    case IndexStrategy::kFlat:
      return "flat";
    case IndexStrategy::kHnsw:
      return "hnsw";
    case IndexStrategy::kAuto:
      break;
  }
  return "auto";
}

IndexStrategy ParseIndexStrategy(std::string_view name) {
  if (name == "flat") return IndexStrategy::kFlat;
  if (name == "hnsw") return IndexStrategy::kHnsw;
  return IndexStrategy::kAuto;
}

RowBlock::~RowBlock() { std::free(data_); }

void RowBlock::Reserve(size_t floats) {
  if (floats <= capacity_) return;
  const size_t grown = std::max(floats, capacity_ * 2);
  void* p = std::realloc(data_, grown * sizeof(float));
  if (p == nullptr) throw std::bad_alloc();
  data_ = static_cast<float*>(p);
  capacity_ = grown;
}

void RowBlock::ShrinkTo(size_t floats) {
  if (floats >= capacity_) return;
  if (floats == 0) {
    std::free(data_);
    data_ = nullptr;
    capacity_ = 0;
    return;
  }
  void* p = std::realloc(data_, floats * sizeof(float));
  if (p == nullptr) return;  // the old block is still valid, just larger
  data_ = static_cast<float*>(p);
  capacity_ = floats;
}

VectorIndex::VectorIndex(size_t dims, Options options)
    : dims_(dims), options_(std::move(options)) {
  // One process-wide gauge recording which kernel tier queries run on:
  // laminar_simd_dispatch{tier="<name>"} = 1.
  static std::once_flag dispatch_once;
  std::call_once(dispatch_once, [] {
    const std::string labels =
        std::string("tier=\"") + simd::TierName(simd::ActiveTier()) + "\"";
    telemetry::MetricsRegistry::Global()
        .GetGauge("laminar_simd_dispatch", labels)
        .Set(1);
  });
  if (options_.strategy == IndexStrategy::kHnsw) {
    ann_active_ = true;
    hnsw_ = std::make_unique<ann::HnswIndex>(dims_, options_.hnsw);
    EnsureAnnTelemetry();
  }
  if (options_.quantize) EnsureQuantTelemetry();
}

void VectorIndex::WriteRow(float* row,
                           std::span<const float> embedding) const {
  const float norm =
      embedding.size() == dims_ ? embed::Norm(embedding) : 0.0f;
  if (norm > 0.0f) {
    for (size_t i = 0; i < dims_; ++i) row[i] = embedding[i] / norm;
  } else {
    // Zero or size-mismatched input: an all-zero row scores 0 against every
    // query, matching what embed::Cosine returned for such pairs.
    std::fill(row, row + dims_, 0.0f);
  }
}

void VectorIndex::QuantizeSlot(size_t slot) {
  if (!options_.quantize) return;
  if (qcodes_.size() < ids_.size() * dims_) {
    qcodes_.resize(ids_.size() * dims_);
    qscales_.resize(ids_.size());
    qoffsets_.resize(ids_.size());
  }
  QuantizeInto(slot);
  SetQuantBytesGauge();
}

void VectorIndex::QuantizeInto(size_t slot) {
  simd::QuantizeRow(RowAt(slot), dims_, qcodes_.data() + slot * dims_,
                    &qscales_[slot], &qoffsets_[slot]);
}

void VectorIndex::SetQuantBytesGauge() {
  if (quant_bytes_gauge_ != nullptr) {
    quant_bytes_gauge_->Set(static_cast<int64_t>(
        qcodes_.size() + (qscales_.size() + qoffsets_.size()) *
                             sizeof(float)));
  }
}

void VectorIndex::RebuildQuantMirror() {
  if (!options_.quantize) return;
  qcodes_.resize(ids_.size() * dims_);
  qscales_.resize(ids_.size());
  qoffsets_.resize(ids_.size());
  qcodes_.shrink_to_fit();
  qscales_.shrink_to_fit();
  qoffsets_.shrink_to_fit();
  for (size_t slot = 0; slot < ids_.size(); ++slot) QuantizeInto(slot);
  SetQuantBytesGauge();
}

void VectorIndex::SetQuantize(bool on) {
  if (options_.quantize == on) return;
  options_.quantize = on;
  if (on) {
    EnsureQuantTelemetry();
    RebuildQuantMirror();
    return;
  }
  qcodes_.clear();
  qcodes_.shrink_to_fit();
  qscales_.clear();
  qscales_.shrink_to_fit();
  qoffsets_.clear();
  qoffsets_.shrink_to_fit();
  if (quant_bytes_gauge_ != nullptr) quant_bytes_gauge_->Set(0);
}

bool VectorIndex::DebugQuantConsistent() const {
  if (!options_.quantize) return true;
  if (qcodes_.size() != ids_.size() * dims_ ||
      qscales_.size() != ids_.size() || qoffsets_.size() != ids_.size()) {
    return false;
  }
  std::vector<int8_t> codes(dims_);
  for (size_t slot = 0; slot < ids_.size(); ++slot) {
    float scale = 0.0f, offset = 0.0f;
    simd::QuantizeRow(RowAt(slot), dims_, codes.data(), &scale, &offset);
    if (scale != qscales_[slot] || offset != qoffsets_[slot]) return false;
    if (dims_ != 0 && std::memcmp(codes.data(), qcodes_.data() + slot * dims_,
                                  dims_) != 0) {
      return false;
    }
  }
  return true;
}

std::span<const float> VectorIndex::DebugRow(int64_t id) const {
  auto it = slot_of_.find(id);
  if (it == slot_of_.end()) return {};
  return {RowAt(it->second), dims_};
}

size_t VectorIndex::RerankDepth(size_t k) const {
  const double f =
      options_.rerank_overfetch < 1.0 ? 1.0 : options_.rerank_overfetch;
  return static_cast<size_t>(std::ceil(f * static_cast<double>(k)));
}

void VectorIndex::Upsert(int64_t id, std::span<const float> embedding) {
  UpsertBatch({&id, 1}, {&embedding, 1}, nullptr);
}

void VectorIndex::UpsertBatch(std::span<const int64_t> ids,
                              std::span<const std::span<const float>> rows,
                              ThreadPool* pool) {
  const size_t n = std::min(ids.size(), rows.size());
  size_t i = 0;
  if (!ann_active_) {
    // Serial slot assignment, in batch order. source[j] is the batch index
    // whose row lands in appended slot first + j; a repeat of an id
    // appended earlier in this batch overwrites its entry (last write wins,
    // as with per-row upserts). Rows of ids stored before the batch are
    // rewritten in place right away.
    const size_t first = ids_.size();
    const bool auto_switch =
        options_.strategy == IndexStrategy::kAuto && !bulk_;
    bool crossed = false;
    std::vector<size_t> source;
    while (i < n && !crossed) {
      auto [it, inserted] = slot_of_.try_emplace(ids[i], ids_.size());
      if (inserted) {
        ids_.push_back(ids[i]);
        source.push_back(i);
      } else if (it->second >= first) {
        source[it->second - first] = i;
      } else {
        WriteRow(RowAt(it->second), rows[i]);
        QuantizeSlot(it->second);
      }
      ++i;
      // An auto index switches onto the graph right after the row that
      // reaches the threshold, as it would row by row; the rest of the
      // batch then takes the per-row hnsw path below.
      crossed = auto_switch && ids_.size() >= options_.ann_threshold;
    }
    WriteAppendedRows(first, source, rows, pool);
    if (crossed) ActivateAnn(nullptr);
  }
  for (; i < n; ++i) UpsertAnnRow(ids[i], rows[i]);
}

void VectorIndex::UpsertAnnRow(int64_t id, std::span<const float> embedding) {
  // Rows are append-only here (graph nodes keep their row binding), so a
  // replace tombstones the old node and appends a fresh one for the id.
  auto it = slot_of_.find(id);
  if (it != slot_of_.end()) {
    dead_[it->second] = 1;
    ++dead_count_;
    it->second = ids_.size();
  } else {
    slot_of_.emplace(id, ids_.size());
  }
  ids_.push_back(id);
  rows_.Reserve(ids_.size() * dims_);
  dead_.push_back(0);
  WriteRow(RowAt(ids_.size() - 1), embedding);
  QuantizeSlot(ids_.size() - 1);
  if (!bulk_) {
    // Incremental link-in; skipped when the graph is stale (mid-bulk inserts
    // that never saw EndBulk) — queries fall back to the exact scan then.
    if (hnsw_->node_count() + 1 == ids_.size()) {
      hnsw_->Add(rows_.data());
      if (graph_bytes_gauge_ != nullptr) {
        graph_bytes_gauge_->Set(
            static_cast<int64_t>(hnsw_->memory_bytes()));
      }
    }
    MaybeCompact(nullptr);
  }
}

void VectorIndex::WriteAppendedRows(size_t first,
                                    const std::vector<size_t>& source,
                                    std::span<const std::span<const float>> rows,
                                    ThreadPool* pool) {
  if (source.empty()) return;
  rows_.Reserve(ids_.size() * dims_);
  const bool quant = options_.quantize;
  if (quant) {
    qcodes_.resize(ids_.size() * dims_);
    qscales_.resize(ids_.size());
    qoffsets_.resize(ids_.size());
  }
  ParallelFor(pool, source.size(), [&](size_t j) {
    const size_t slot = first + j;
    WriteRow(RowAt(slot), rows[source[j]]);
    if (quant) QuantizeInto(slot);
  });
  if (quant) SetQuantBytesGauge();
}

bool VectorIndex::Remove(int64_t id) {
  auto it = slot_of_.find(id);
  if (it == slot_of_.end()) return false;
  if (ann_active_) {
    dead_[it->second] = 1;
    ++dead_count_;
    slot_of_.erase(it);
    if (!bulk_) MaybeCompact(nullptr);
    return true;
  }
  const size_t slot = it->second;
  const size_t last = ids_.size() - 1;
  const bool quant = QuantReady();
  if (slot != last) {
    ids_[slot] = ids_[last];
    std::memcpy(RowAt(slot), RowAt(last), dims_ * sizeof(float));
    if (quant) {
      std::copy(qcodes_.begin() + last * dims_,
                qcodes_.begin() + (last + 1) * dims_,
                qcodes_.begin() + slot * dims_);
      qscales_[slot] = qscales_[last];
      qoffsets_[slot] = qoffsets_[last];
    }
    slot_of_[ids_[slot]] = slot;
  }
  ids_.pop_back();
  if (quant) {
    qcodes_.resize(qcodes_.size() - dims_);
    qscales_.pop_back();
    qoffsets_.pop_back();
  }
  slot_of_.erase(it);
  if (ids_.capacity() >= kShrinkMinCapacity &&
      ids_.size() * 4 <= ids_.capacity()) {
    ids_.shrink_to_fit();
    rows_.ShrinkTo(ids_.size() * dims_);
    qcodes_.shrink_to_fit();
    qscales_.shrink_to_fit();
    qoffsets_.shrink_to_fit();
  }
  return true;
}

void VectorIndex::Clear() {
  ids_.clear();
  slot_of_.clear();
  dead_.clear();
  qcodes_.clear();
  qscales_.clear();
  qoffsets_.clear();
  dead_count_ = 0;
  bulk_ = false;
  if (options_.strategy != IndexStrategy::kHnsw) ann_active_ = false;
  if (hnsw_) hnsw_->Clear();
  if (graph_bytes_gauge_ != nullptr) graph_bytes_gauge_->Set(0);
  if (quant_bytes_gauge_ != nullptr) quant_bytes_gauge_->Set(0);
}

void VectorIndex::BeginBulk() { bulk_ = true; }

void VectorIndex::EndBulk(ThreadPool* pool) {
  bulk_ = false;
  if (!ann_active_) {
    if (options_.strategy == IndexStrategy::kAuto &&
        ids_.size() >= options_.ann_threshold) {
      ActivateAnn(pool);
    }
    return;
  }
  if (dead_count_ >= kCompactMinDead &&
      static_cast<double>(dead_count_) >
          options_.max_dead_fraction * static_cast<double>(ids_.size())) {
    Compact(pool);  // re-densifies and rebuilds the graph in one pass
    return;
  }
  if (hnsw_->node_count() != ids_.size()) BuildGraph(pool);
}

void VectorIndex::ActivateAnn(ThreadPool* pool) {
  if (ann_active_) return;
  ann_active_ = true;
  if (!hnsw_) hnsw_ = std::make_unique<ann::HnswIndex>(dims_, options_.hnsw);
  EnsureAnnTelemetry();
  dead_.assign(ids_.size(), 0);
  dead_count_ = 0;
  BuildGraph(pool);
}

void VectorIndex::BuildGraph(ThreadPool* pool) {
  Stopwatch timer;
  hnsw_->Build(rows_.data(), ids_.size(), pool);
  ++graph_builds_;
  if (build_ms_ != nullptr) build_ms_->Observe(timer.ElapsedMillis());
  if (graph_bytes_gauge_ != nullptr) {
    graph_bytes_gauge_->Set(static_cast<int64_t>(hnsw_->memory_bytes()));
  }
}

void VectorIndex::Compact(ThreadPool* pool) {
  // Live rows slide down in place: a row only ever moves to a lower slot,
  // so source and destination never overlap.
  size_t live = 0;
  for (size_t slot = 0; slot < ids_.size(); ++slot) {
    if (dead_[slot] != 0) continue;
    if (live != slot) {
      ids_[live] = ids_[slot];
      std::memcpy(RowAt(live), RowAt(slot), dims_ * sizeof(float));
    }
    ++live;
  }
  ids_.resize(live);
  ids_.shrink_to_fit();
  rows_.ShrinkTo(live * dims_);
  slot_of_.clear();
  slot_of_.reserve(ids_.size());
  for (size_t slot = 0; slot < ids_.size(); ++slot) {
    slot_of_.emplace(ids_[slot], slot);
  }
  dead_.assign(ids_.size(), 0);
  dead_count_ = 0;
  ++compactions_;
  RebuildQuantMirror();
  BuildGraph(pool);
}

void VectorIndex::MaybeCompact(ThreadPool* pool) {
  if (!ann_active_ || ids_.empty()) return;
  if (dead_count_ < kCompactMinDead) return;
  if (static_cast<double>(dead_count_) <=
      options_.max_dead_fraction * static_cast<double>(ids_.size())) {
    return;
  }
  Compact(pool);
}

void VectorIndex::EnsureAnnTelemetry() {
  if (search_ms_ != nullptr) return;
  const std::string labels =
      options_.label.empty() ? std::string()
                             : "index=\"" + options_.label + "\"";
  auto& registry = telemetry::MetricsRegistry::Global();
  build_ms_ = &registry.GetHistogram("laminar_ann_build_ms", labels);
  search_ms_ = &registry.GetHistogram("laminar_ann_search_ms", labels);
  graph_bytes_gauge_ = &registry.GetGauge("laminar_ann_graph_bytes", labels);
  probes_total_ =
      &registry.GetCounter("laminar_ann_recall_probes_total", labels);
  probe_hits_ =
      &registry.GetCounter("laminar_ann_recall_probe_hits_total", labels);
  probe_expected_ =
      &registry.GetCounter("laminar_ann_recall_probe_expected_total", labels);
}

void VectorIndex::EnsureQuantTelemetry() {
  if (quant_bytes_gauge_ != nullptr) return;
  const std::string labels =
      options_.label.empty() ? std::string()
                             : "index=\"" + options_.label + "\"";
  auto& registry = telemetry::MetricsRegistry::Global();
  quant_bytes_gauge_ = &registry.GetGauge("laminar_quant_bytes", labels);
  quant_searches_ =
      &registry.GetCounter("laminar_quant_searches_total", labels);
  quant_rerank_rows_ =
      &registry.GetCounter("laminar_quant_rerank_rows_total", labels);
}

VectorIndexStats VectorIndex::stats() const {
  VectorIndexStats s;
  s.rows = size();
  s.nodes = ids_.size();
  s.dims = dims_;
  s.bytes = rows_.capacity() * sizeof(float) +
            ids_.capacity() * sizeof(int64_t) + dead_.capacity() +
            slot_of_.size() *
                (sizeof(int64_t) + sizeof(size_t) + sizeof(void*));
  s.graph_bytes = (ann_active_ && hnsw_) ? hnsw_->memory_bytes() : 0;
  s.quant_bytes =
      qcodes_.capacity() +
      (qscales_.capacity() + qoffsets_.capacity()) * sizeof(float);
  s.ann = ann_active_;
  s.quantized = QuantReady();
  s.compactions = compactions_;
  s.graph_builds = graph_builds_;
  return s;
}

std::span<const float> VectorIndex::NormalizedQuery(
    std::span<const float> query, std::vector<float>& scratch) const {
  if (query.size() != dims_) return {};
  float norm = embed::Norm(query);
  if (norm <= 0.0f) return {};
  scratch.resize(dims_);
  for (size_t i = 0; i < dims_; ++i) scratch[i] = query[i] / norm;
  return {scratch.data(), dims_};
}

template <typename ScoreAt>
void VectorIndex::ScoreRange(size_t begin, size_t end, size_t k,
                             const ScoreAt& score_at,
                             std::vector<ScoredId>& heap) const {
  const uint8_t* dead = dead_.empty() ? nullptr : dead_.data();
  for (size_t slot = begin; slot < end; ++slot) {
    if (dead != nullptr && dead[slot] != 0) continue;
    HeapPush(heap, k, {ids_[slot], score_at(slot)});
  }
}

template <typename ScoreAt>
std::vector<ScoredId> VectorIndex::ScanTopK(size_t k,
                                            const ScoreAt& score_at) const {
  const size_t n = ids_.size();
  size_t hw = std::thread::hardware_concurrency();
  if (hw == 0) hw = 1;
  size_t threads = std::min(options_.max_threads, hw);
  std::vector<ScoredId> heap;
  if (n < options_.parallel_threshold || threads <= 1) {
    heap.reserve(std::min(k, n));
    ScoreRange(0, n, k, score_at, heap);
  } else {
    const size_t chunk = (n + threads - 1) / threads;
    std::vector<std::vector<ScoredId>> local(threads);
    std::vector<std::thread> workers;
    workers.reserve(threads);
    for (size_t t = 0; t < threads; ++t) {
      size_t begin = t * chunk;
      size_t end = std::min(begin + chunk, n);
      if (begin >= end) break;
      workers.emplace_back([this, &score_at, &local, t, begin, end, k] {
        local[t].reserve(std::min(k, end - begin));
        ScoreRange(begin, end, k, score_at, local[t]);
      });
    }
    for (std::thread& w : workers) w.join();
    for (std::vector<ScoredId>& shard : local) {
      for (ScoredId cand : shard) HeapPush(heap, k, cand);
    }
  }
  std::sort(heap.begin(), heap.end(), Better);
  return heap;
}

std::vector<ScoredId> VectorIndex::ZeroQueryTopK(size_t k) const {
  // Zero or size-mismatched query: every row scores 0, so the legacy order
  // is simply ascending id.
  std::vector<ScoredId> out;
  out.reserve(size());
  const uint8_t* dead = dead_.empty() ? nullptr : dead_.data();
  for (size_t slot = 0; slot < ids_.size(); ++slot) {
    if (dead != nullptr && dead[slot] != 0) continue;
    out.push_back({ids_[slot], 0.0f});
  }
  std::sort(out.begin(), out.end(), Better);
  if (out.size() > k) out.resize(k);
  return out;
}

std::vector<ScoredId> VectorIndex::ExactTopK(std::span<const float> q,
                                             size_t k) const {
  const float* query = q.data();
  const float* rows = rows_.data();
  const size_t dims = dims_;
  return ScanTopK(k, [query, rows, dims](size_t slot) {
    return simd::Dot(query, rows + slot * dims, dims);
  });
}

std::vector<ScoredId> VectorIndex::QuantFlatTopK(std::span<const float> q,
                                                 size_t k) const {
  // Candidate pass over the SQ8 mirror (4x less memory streamed than the
  // float rows), over-fetched so the exact rerank below can recover rows the
  // quantization mis-ranked near the boundary.
  const size_t depth = RerankDepth(k);
  if (depth >= size()) return ExactTopK(q, k);
  simd::Sq8Query& q8 = Sq8Scratch();
  simd::QuantizeQuery(q.data(), dims_, &q8);
  if (q8.scale == 0.0f) return ExactTopK(q, k);
  const simd::Sq8View view = QuantView();
  const simd::Sq8Query* q8p = &q8;
  std::vector<ScoredId> cands = ScanTopK(depth, [q8p, view](size_t slot) {
    return simd::Sq8Score(*q8p, view, slot);
  });
  // Exact rerank: every returned score is recomputed with the dispatched
  // float kernel over the original rows, so (id, score) pairs are
  // bit-identical to what the unquantized scan returns for those ids.
  for (ScoredId& c : cands) {
    const size_t slot = slot_of_.find(c.id)->second;
    c.score = simd::Dot(q.data(), RowAt(slot), dims_);
  }
  std::sort(cands.begin(), cands.end(), Better);
  if (cands.size() > k) cands.resize(k);
  if (quant_searches_ != nullptr) {
    quant_searches_->Inc();
    quant_rerank_rows_->Inc(static_cast<int64_t>(std::min(depth, size())));
  }
  return cands;
}

std::vector<ScoredId> VectorIndex::AnnTopK(std::span<const float> raw_query,
                                           std::span<const float> q,
                                           size_t k) const {
  Stopwatch timer;
  const size_t ef = std::max(options_.hnsw.ef_search, k);
  std::vector<ann::Candidate> cands;
  const uint8_t* dead = dead_.empty() ? nullptr : dead_.data();
  bool quant_used = false;
  if (QuantReady()) {
    // Quantized traversal: the beam walks the SQ8 mirror with the int8
    // kernel, widened to at least the rerank depth so the exact rerank has
    // enough over-fetch to absorb quantization mis-rankings.
    simd::Sq8Query& q8 = Sq8Scratch();
    simd::QuantizeQuery(q.data(), dims_, &q8);
    if (q8.scale != 0.0f) {
      const size_t qef = std::max(ef, RerankDepth(k));
      hnsw_->SearchSq8(QuantView(), q8, dead, qef, cands);
      quant_used = true;
    }
  }
  if (!quant_used) {
    hnsw_->Search(rows_.data(), dead, q.data(), ef, cands);
  }
  // Exact rerank: the graph only *proposes* ids — every returned score is
  // recomputed right here with the same kernel over the same rows the flat
  // scan reads, so (id, score) pairs are bit-identical to the exact path.
  std::vector<ScoredId> out;
  out.reserve(cands.size());
  for (const ann::Candidate& c : cands) {
    const float* row = RowAt(static_cast<size_t>(c.node));
    out.push_back({ids_[static_cast<size_t>(c.node)],
                   simd::Dot(q.data(), row, dims_)});
  }
  std::sort(out.begin(), out.end(), Better);
  if (out.size() > k) out.resize(k);
  if (search_ms_ != nullptr) search_ms_->Observe(timer.ElapsedMillis());
  if (quant_used && quant_searches_ != nullptr) {
    quant_searches_->Inc();
    quant_rerank_rows_->Inc(static_cast<int64_t>(cands.size()));
  }

  const size_t interval = options_.recall_probe_interval;
  if (interval > 0 && probes_total_ != nullptr &&
      probe_tick_.fetch_add(1, std::memory_order_relaxed) % interval ==
          interval - 1) {
    // Recall probe: run the exact scan for the same query and count how many
    // of its ids the ANN result contains. Scraped as hits/expected, this is
    // a live recall@k estimate with ~1/interval overhead.
    std::vector<ScoredId> want = BruteForceTopK(raw_query, k);
    std::unordered_set<int64_t> want_ids;
    want_ids.reserve(want.size());
    for (const ScoredId& w : want) want_ids.insert(w.id);
    uint64_t hits = 0;
    for (const ScoredId& g : out) hits += want_ids.count(g.id);
    probes_total_->Inc();
    probe_expected_->Inc(want.size());
    probe_hits_->Inc(hits);
  }
  return out;
}

std::vector<ScoredId> VectorIndex::TopK(std::span<const float> query,
                                        size_t k) const {
  if (k == 0 || size() == 0) return {};
  std::span<const float> q = NormalizedQuery(query, TopKScratch());
  if (q.empty()) return ZeroQueryTopK(k);
  // The ANN path needs a current graph (bulk ingest leaves it stale until
  // EndBulk) and only pays off below full retrieval; otherwise scan.
  if (ann_active_ && hnsw_ != nullptr &&
      hnsw_->node_count() == ids_.size() && k < size()) {
    return AnnTopK(query, q, k);
  }
  if (QuantReady()) return QuantFlatTopK(q, k);
  return ExactTopK(q, k);
}

std::vector<ScoredId> VectorIndex::BruteForceTopK(std::span<const float> query,
                                                  size_t k) const {
  if (k == 0 || size() == 0) return {};
  std::span<const float> q = NormalizedQuery(query, BruteForceScratch());
  std::vector<ScoredId> out;
  out.reserve(size());
  const uint8_t* dead = dead_.empty() ? nullptr : dead_.data();
  for (size_t slot = 0; slot < ids_.size(); ++slot) {
    if (dead != nullptr && dead[slot] != 0) continue;
    float score = q.empty() ? 0.0f
                            : simd::Dot(q.data(), RowAt(slot), dims_);
    out.push_back({ids_[slot], score});
  }
  std::sort(out.begin(), out.end(), Better);
  if (out.size() > k) out.resize(k);
  return out;
}

}  // namespace laminar::search
