// VectorIndex parity and property tests (ISSUE 2): the flat SoA top-k path
// must return the same ids and scores (fp-tolerant) as the legacy
// brute-force path — embed::Cosine per pair over a hash map, full sort,
// truncate — across randomized corpora including ties, k > corpus, zero
// vectors and dimension mismatches. Plus LRU query-cache behaviour.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstring>
#include <set>
#include <span>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "common/rng.hpp"
#include "common/thread_pool.hpp"
#include "embed/embedding.hpp"
#include "search/query_cache.hpp"
#include "search/vector_index.hpp"

namespace laminar::search {
namespace {

constexpr float kTol = 1e-4f;

embed::Vector RandomVector(Rng& rng, size_t dims) {
  embed::Vector v(dims);
  for (float& x : v) x = static_cast<float>(rng.NextDouble() * 2.0 - 1.0);
  return v;
}

/// The pre-rebuild ranking, verbatim: cosine against every stored vector
/// (norms recomputed per pair), full sort by (score desc, id asc), truncate.
std::vector<ScoredId> LegacyTopK(
    const std::unordered_map<int64_t, embed::Vector>& docs,
    const embed::Vector& query, size_t k) {
  std::vector<ScoredId> hits;
  hits.reserve(docs.size());
  for (const auto& [id, vec] : docs) {
    hits.push_back({id, embed::Cosine(query, vec)});
  }
  std::sort(hits.begin(), hits.end(), [](const ScoredId& a, const ScoredId& b) {
    if (a.score != b.score) return a.score > b.score;
    return a.id < b.id;
  });
  if (hits.size() > k) hits.resize(k);
  return hits;
}

/// Order-sensitive comparison that tolerates fp noise between the two
/// score formulas: scores must match elementwise within kTol, and ids must
/// match exactly except inside runs of near-equal scores, where the two
/// paths may legitimately order differently — there the id sets must match.
void ExpectParity(const std::vector<ScoredId>& got,
                  const std::vector<ScoredId>& want) {
  ASSERT_EQ(got.size(), want.size());
  for (size_t i = 0; i < got.size(); ++i) {
    EXPECT_NEAR(got[i].score, want[i].score, kTol) << "rank " << i;
  }
  size_t i = 0;
  while (i < want.size()) {
    // Extend the tie window while adjacent reference scores are within tol.
    size_t j = i + 1;
    while (j < want.size() &&
           std::abs(want[j].score - want[j - 1].score) <= kTol) {
      ++j;
    }
    std::multiset<int64_t> got_ids, want_ids;
    for (size_t r = i; r < j; ++r) {
      got_ids.insert(got[r].id);
      want_ids.insert(want[r].id);
    }
    EXPECT_EQ(got_ids, want_ids) << "tie window [" << i << "," << j << ")";
    i = j;
  }
}

TEST(VectorIndexParity, RandomizedCorporaMatchLegacyBruteForce) {
  for (uint64_t seed : {1ULL, 2ULL, 3ULL, 4ULL}) {
    Rng rng(seed);
    const size_t dims = static_cast<size_t>(rng.NextInt(4, 96));
    const size_t docs = static_cast<size_t>(rng.NextInt(1, 180));
    VectorIndex index(dims);
    std::unordered_map<int64_t, embed::Vector> legacy;
    embed::Vector dup;  // reused verbatim to force exact score ties
    for (size_t i = 0; i < docs; ++i) {
      int64_t id = static_cast<int64_t>(i + 1);
      embed::Vector v;
      double kind = rng.NextDouble();
      if (kind < 0.08) {
        v.assign(dims, 0.0f);  // zero vector
      } else if (kind < 0.16 && !dup.empty()) {
        v = dup;  // exact duplicate -> guaranteed tie
      } else if (kind < 0.22) {
        v = RandomVector(rng, dims + 3);  // dimension mismatch
      } else {
        v = RandomVector(rng, dims);
        if (dup.empty()) dup = v;
      }
      index.Upsert(id, v);
      legacy.emplace(id, std::move(v));
    }
    for (size_t k : {size_t{1}, size_t{5}, docs / 2 + 1, docs, docs + 7}) {
      if (k == 0) continue;
      embed::Vector q = RandomVector(rng, dims);
      ExpectParity(index.TopK(q, k), LegacyTopK(legacy, q, k));
      // The retained brute-force reference path must agree too.
      ExpectParity(index.BruteForceTopK(q, k), LegacyTopK(legacy, q, k));
    }
    // Zero query: legacy scores everything 0 -> ascending-id order.
    embed::Vector zero(dims, 0.0f);
    ExpectParity(index.TopK(zero, docs), LegacyTopK(legacy, zero, docs));
  }
}

TEST(VectorIndexParity, ShardedScanMatchesSerialScan) {
  Rng rng(99);
  const size_t dims = 32;
  VectorIndexOptions serial;
  serial.parallel_threshold = static_cast<size_t>(-1);
  VectorIndexOptions sharded;
  sharded.parallel_threshold = 1;  // force the threaded path
  sharded.max_threads = 4;
  VectorIndex a(dims, serial);
  VectorIndex b(dims, sharded);
  for (int64_t id = 1; id <= 500; ++id) {
    embed::Vector v = RandomVector(rng, dims);
    a.Upsert(id, v);
    b.Upsert(id, v);
  }
  for (int trial = 0; trial < 8; ++trial) {
    embed::Vector q = RandomVector(rng, dims);
    std::vector<ScoredId> want = a.TopK(q, 17);
    std::vector<ScoredId> got = b.TopK(q, 17);
    ASSERT_EQ(got.size(), want.size());
    for (size_t i = 0; i < got.size(); ++i) {
      EXPECT_EQ(got[i].id, want[i].id);
      EXPECT_FLOAT_EQ(got[i].score, want[i].score);
    }
  }
}

TEST(VectorIndex, KLargerThanCorpusReturnsEveryRow) {
  Rng rng(7);
  VectorIndex index(8);
  for (int64_t id = 1; id <= 5; ++id) index.Upsert(id, RandomVector(rng, 8));
  EXPECT_EQ(index.TopK(RandomVector(rng, 8), 50).size(), 5u);
}

TEST(VectorIndex, EmptyIndexAndZeroK) {
  VectorIndex index(8);
  embed::Vector q(8, 1.0f);
  EXPECT_TRUE(index.TopK(q, 3).empty());
  index.Upsert(1, q);
  EXPECT_TRUE(index.TopK(q, 0).empty());
}

TEST(VectorIndex, UpsertReplacesInPlace) {
  VectorIndex index(4);
  embed::Vector a = {1.0f, 0.0f, 0.0f, 0.0f};
  embed::Vector b = {0.0f, 1.0f, 0.0f, 0.0f};
  index.Upsert(1, a);
  index.Upsert(2, b);
  ASSERT_EQ(index.size(), 2u);
  index.Upsert(1, b);  // replace, not insert
  EXPECT_EQ(index.size(), 2u);
  std::vector<ScoredId> hits = index.TopK(b, 2);
  EXPECT_NEAR(hits[0].score, 1.0f, kTol);
  EXPECT_NEAR(hits[1].score, 1.0f, kTol);
  EXPECT_EQ(hits[0].id, 1);  // tie broken by ascending id
}

TEST(VectorIndex, RemoveSwapAndPopKeepsRemainingRows) {
  Rng rng(21);
  VectorIndex index(16);
  std::unordered_map<int64_t, embed::Vector> legacy;
  for (int64_t id = 1; id <= 30; ++id) {
    embed::Vector v = RandomVector(rng, 16);
    index.Upsert(id, v);
    legacy.emplace(id, std::move(v));
  }
  for (int64_t id : {3, 30, 1, 17}) {
    EXPECT_TRUE(index.Remove(id));
    legacy.erase(id);
  }
  EXPECT_FALSE(index.Remove(3));  // already gone
  EXPECT_EQ(index.size(), legacy.size());
  embed::Vector q = RandomVector(rng, 16);
  ExpectParity(index.TopK(q, 30), LegacyTopK(legacy, q, 30));
}

TEST(VectorIndex, ChurnReturnsCapacityToTheAllocator) {
  Rng rng(55);
  const size_t dims = 32;
  VectorIndexOptions opts;
  opts.strategy = IndexStrategy::kFlat;
  VectorIndex index(dims, opts);
  for (int64_t id = 1; id <= 6000; ++id) {
    index.Upsert(id, RandomVector(rng, dims));
  }
  const size_t peak = index.stats().bytes;
  for (int64_t id = 1; id <= 5900; ++id) {
    ASSERT_TRUE(index.Remove(id));
  }
  ASSERT_EQ(index.size(), 100u);
  const size_t after = index.stats().bytes;
  // The index must not pin its high-water allocation after heavy churn.
  // The shrink policy stops once capacity drops under its 1024-slot floor
  // (shrinking tiny blocks buys nothing), so the bound is that floor's
  // footprint — still an order of magnitude under the 6000-row peak.
  const size_t floor_bytes =
      1024 * (dims * sizeof(float) + sizeof(int64_t));
  EXPECT_LT(after, floor_bytes) << "capacity pinned after churn";
  EXPECT_LT(after * 10, peak);
  // The survivors still rank correctly after the shrink.
  embed::Vector q = RandomVector(rng, dims);
  std::vector<ScoredId> hits = index.TopK(q, 100);
  EXPECT_EQ(hits.size(), 100u);
  for (const ScoredId& s : hits) EXPECT_GT(s.id, 5900);
}

TEST(VectorIndex, NormalizesAtInsertSoCosineIsDot) {
  VectorIndex index(3);
  embed::Vector big = {10.0f, 0.0f, 0.0f};  // large magnitude, same direction
  embed::Vector small = {0.0f, 0.1f, 0.0f};
  index.Upsert(1, big);
  index.Upsert(2, small);
  embed::Vector q = {2.0f, 0.0f, 0.0f};
  std::vector<ScoredId> hits = index.TopK(q, 2);
  ASSERT_EQ(hits.size(), 2u);
  EXPECT_EQ(hits[0].id, 1);
  EXPECT_NEAR(hits[0].score, 1.0f, kTol);   // cosine, not raw dot
  EXPECT_NEAR(hits[1].score, 0.0f, kTol);
}

// ---- query-embedding cache ----

TEST(QueryEmbeddingCache, HitsAndMissesAreCounted) {
  QueryEmbeddingCache cache(4);
  int encodes = 0;
  auto encode = [&] {
    ++encodes;
    return embed::Vector{1.0f, 2.0f};
  };
  embed::Vector first = cache.GetOrCompute("m", "query", encode);
  embed::Vector second = cache.GetOrCompute("m", "query", encode);
  EXPECT_EQ(encodes, 1);
  EXPECT_EQ(first, second);
  auto stats = cache.stats();
  EXPECT_EQ(stats.hits, 1u);
  EXPECT_EQ(stats.misses, 1u);
  EXPECT_EQ(stats.entries, 1u);
}

TEST(QueryEmbeddingCache, KeyIncludesModel) {
  QueryEmbeddingCache cache(4);
  int encodes = 0;
  auto encode = [&] {
    ++encodes;
    return embed::Vector{1.0f};
  };
  cache.GetOrCompute("unixcoder", "q", encode);
  cache.GetOrCompute("reacc", "q", encode);
  EXPECT_EQ(encodes, 2);  // same text, different model -> distinct entries
}

TEST(QueryEmbeddingCache, EvictsLeastRecentlyUsed) {
  QueryEmbeddingCache cache(2);
  int encodes = 0;
  auto encode = [&] {
    ++encodes;
    return embed::Vector{1.0f};
  };
  cache.GetOrCompute("m", "a", encode);
  cache.GetOrCompute("m", "b", encode);
  cache.GetOrCompute("m", "a", encode);  // refresh a
  cache.GetOrCompute("m", "c", encode);  // evicts b
  EXPECT_EQ(encodes, 3);
  cache.GetOrCompute("m", "a", encode);  // still cached
  EXPECT_EQ(encodes, 3);
  cache.GetOrCompute("m", "b", encode);  // was evicted -> re-encoded
  EXPECT_EQ(encodes, 4);
}

TEST(QueryEmbeddingCache, ZeroCapacityDisablesCaching) {
  QueryEmbeddingCache cache(0);
  int encodes = 0;
  auto encode = [&] {
    ++encodes;
    return embed::Vector{1.0f};
  };
  cache.GetOrCompute("m", "q", encode);
  cache.GetOrCompute("m", "q", encode);
  EXPECT_EQ(encodes, 2);
  EXPECT_EQ(cache.stats().misses, 2u);
  EXPECT_EQ(cache.stats().entries, 0u);
}

TEST(QueryEmbeddingCache, ClearDuringEncodeDoesNotResurrectStaleEntry) {
  // Regression (bugfix): a miss encodes outside the lock; if Clear() runs
  // in that window (registry reload replacing the encoders), the in-flight
  // result must be handed to its caller but NOT stored — otherwise the
  // freshly emptied cache is repopulated with a pre-Clear embedding.
  QueryEmbeddingCache cache(4);
  embed::Vector got = cache.GetOrCompute("m", "q", [&] {
    cache.Clear();  // deterministic mid-encode Clear
    return embed::Vector{1.0f, 2.0f};
  });
  EXPECT_EQ(got, (embed::Vector{1.0f, 2.0f}));  // caller still gets a result
  EXPECT_EQ(cache.stats().entries, 0u);         // but nothing was resurrected
  // The next lookup is a real miss that does get cached.
  int encodes = 0;
  cache.GetOrCompute("m", "q", [&] {
    ++encodes;
    return embed::Vector{3.0f};
  });
  EXPECT_EQ(encodes, 1);
  EXPECT_EQ(cache.stats().entries, 1u);
}

TEST(QueryEmbeddingCache, ChurnStressConcurrentLookupsAndClears) {
  // Readers hammer a small key space while two threads Clear() in a loop:
  // under TSan this races GetOrCompute's unlock-encode-relock window
  // against Clear; the invariants are no crash, entries bounded by
  // capacity, and hits + misses equal to the number of lookups.
  constexpr int kReaders = 6;
  constexpr int kLookupsPerReader = 400;
  QueryEmbeddingCache cache(8);
  std::atomic<bool> stop{false};
  std::vector<std::thread> clearers;
  for (int i = 0; i < 2; ++i) {
    clearers.emplace_back([&] {
      while (!stop.load()) {
        cache.Clear();
        std::this_thread::yield();
      }
    });
  }
  std::vector<std::thread> readers;
  for (int r = 0; r < kReaders; ++r) {
    readers.emplace_back([&, r] {
      for (int i = 0; i < kLookupsPerReader; ++i) {
        std::string text = "q" + std::to_string((r + i) % 12);
        embed::Vector v = cache.GetOrCompute("m", text, [&] {
          return embed::Vector{static_cast<float>((r + i) % 12)};
        });
        ASSERT_EQ(v.size(), 1u);
        ASSERT_EQ(v[0], static_cast<float>((r + i) % 12));
      }
    });
  }
  for (auto& t : readers) t.join();
  stop.store(true);
  for (auto& t : clearers) t.join();

  auto stats = cache.stats();
  EXPECT_EQ(stats.hits + stats.misses,
            static_cast<uint64_t>(kReaders) * kLookupsPerReader);
  EXPECT_LE(stats.entries, cache.capacity());
}

// UpsertBatch must leave an index bit-identical to the same rows upserted
// one at a time: every stored row, the SQ8 mirror, the graph (through TopK
// ids and scores) and the shape counters.

/// One mutation stream, replayed either per row or in batches.
struct Stream {
  std::vector<int64_t> ids;
  std::vector<embed::Vector> rows;
};

/// `n` upserts over ids 1..id_space: later upserts repeat earlier ids, and
/// some rows are zero or have the wrong dimensionality.
Stream MakeStream(Rng& rng, size_t n, size_t dims, int64_t id_space) {
  Stream s;
  for (size_t i = 0; i < n; ++i) {
    s.ids.push_back(1 + static_cast<int64_t>(rng.NextBelow(
                            static_cast<uint64_t>(id_space))));
    const uint64_t kind = rng.NextBelow(20);
    if (kind == 0) {
      s.rows.push_back(embed::Vector(dims, 0.0f));
    } else if (kind == 1) {
      s.rows.push_back(RandomVector(rng, dims + 1));
    } else {
      s.rows.push_back(RandomVector(rng, dims));
    }
  }
  return s;
}

void ApplyPerRow(VectorIndex& index, const Stream& s) {
  for (size_t i = 0; i < s.ids.size(); ++i) index.Upsert(s.ids[i], s.rows[i]);
}

/// Replays `s` through UpsertBatch in batches of varying size.
void ApplyBatched(VectorIndex& index, const Stream& s, ThreadPool* pool,
                  Rng& rng) {
  size_t begin = 0;
  while (begin < s.ids.size()) {
    const size_t len = std::min<size_t>(s.ids.size() - begin,
                                        1 + rng.NextBelow(300));
    std::vector<std::span<const float>> rows;
    for (size_t i = begin; i < begin + len; ++i) rows.emplace_back(s.rows[i]);
    index.UpsertBatch(std::span(s.ids).subspan(begin, len), rows, pool);
    begin += len;
  }
}

void ExpectIdentical(const VectorIndex& got, const VectorIndex& want,
                     int64_t id_space, Rng& rng) {
  ASSERT_EQ(got.size(), want.size());
  const VectorIndexStats gs = got.stats();
  const VectorIndexStats ws = want.stats();
  EXPECT_EQ(gs.nodes, ws.nodes);
  EXPECT_EQ(gs.ann, ws.ann);
  EXPECT_EQ(gs.graph_builds, ws.graph_builds);
  EXPECT_EQ(gs.compactions, ws.compactions);
  EXPECT_EQ(gs.quantized, ws.quantized);
  EXPECT_TRUE(got.DebugQuantConsistent());
  EXPECT_TRUE(want.DebugQuantConsistent());
  for (int64_t id = 1; id <= id_space; ++id) {
    std::span<const float> a = got.DebugRow(id);
    std::span<const float> b = want.DebugRow(id);
    ASSERT_EQ(a.size(), b.size()) << "id " << id;
    if (!a.empty()) {
      EXPECT_EQ(std::memcmp(a.data(), b.data(), a.size_bytes()), 0)
          << "row of id " << id;
    }
  }
  for (int q = 0; q < 8; ++q) {
    const embed::Vector query = RandomVector(rng, got.dims());
    for (size_t k : {1u, 10u, 50u}) {
      const std::vector<ScoredId> a = got.TopK(query, k);
      const std::vector<ScoredId> b = want.TopK(query, k);
      ASSERT_EQ(a.size(), b.size());
      for (size_t i = 0; i < a.size(); ++i) {
        EXPECT_EQ(a[i].id, b[i].id) << "rank " << i;
        EXPECT_EQ(std::memcmp(&a[i].score, &b[i].score, sizeof(float)), 0)
            << "rank " << i;
      }
    }
  }
}

/// Runs one stream both ways under `opts` and compares the results.
void CheckBatchParity(const VectorIndexOptions& opts, ThreadPool* pool,
                      uint64_t seed, size_t n, int64_t id_space,
                      bool bulk = false) {
  SCOPED_TRACE("seed " + std::to_string(seed));
  const size_t dims = 24;
  Rng rng(seed);
  const Stream s = MakeStream(rng, n, dims, id_space);
  VectorIndex per_row(dims, opts);
  VectorIndex batched(dims, opts);
  if (bulk) {
    per_row.BeginBulk();
    batched.BeginBulk();
  }
  ApplyPerRow(per_row, s);
  ApplyBatched(batched, s, pool, rng);
  if (bulk) {
    // A pooled graph build links nodes in a thread-dependent order, so two
    // pooled builds over the same rows can differ; the serial build is the
    // deterministic reference both indexes are held to.
    per_row.EndBulk(nullptr);
    batched.EndBulk(nullptr);
  }
  ExpectIdentical(batched, per_row, id_space, rng);
}

TEST(UpsertBatch, FlatMatchesPerRowUpserts) {
  VectorIndexOptions opts;
  opts.strategy = IndexStrategy::kFlat;
  CheckBatchParity(opts, nullptr, 1, 1500, 900);
  ThreadPool pool(3);
  CheckBatchParity(opts, &pool, 2, 1500, 900);
}

TEST(UpsertBatch, QuantizedMatchesPerRowUpserts) {
  VectorIndexOptions opts;
  opts.strategy = IndexStrategy::kFlat;
  opts.quantize = true;
  CheckBatchParity(opts, nullptr, 3, 1500, 900);
  ThreadPool pool(3);
  CheckBatchParity(opts, &pool, 4, 1500, 900);
}

TEST(UpsertBatch, RepeatedAndExistingIdsInOneBatch) {
  // Every id repeats many times, so batches mix rows already stored,
  // rows appended earlier in the same batch, and fresh ids.
  VectorIndexOptions opts;
  opts.strategy = IndexStrategy::kFlat;
  opts.quantize = true;
  ThreadPool pool(2);
  CheckBatchParity(opts, &pool, 5, 2000, 40);
}

TEST(UpsertBatch, AutoModeBatchCrossingAnnThreshold) {
  VectorIndexOptions opts;
  opts.strategy = IndexStrategy::kAuto;
  opts.ann_threshold = 350;
  ThreadPool pool(3);
  // Outside bulk mode the switch happens on the row that reaches the
  // threshold, mid-batch; the rest of that batch links in incrementally.
  CheckBatchParity(opts, &pool, 6, 900, 700);
  opts.quantize = true;
  CheckBatchParity(opts, &pool, 7, 900, 700);
  // In bulk mode the graph is built once, by EndBulk.
  CheckBatchParity(opts, &pool, 8, 900, 700, /*bulk=*/true);
}

TEST(UpsertBatch, HnswModeKeepsTombstoneThenAppend) {
  VectorIndexOptions opts;
  opts.strategy = IndexStrategy::kHnsw;
  ThreadPool pool(3);
  // A small id space forces replacements (tombstones) and compactions.
  CheckBatchParity(opts, &pool, 9, 800, 150);
  CheckBatchParity(opts, &pool, 10, 800, 150, /*bulk=*/true);
}

TEST(UpsertBatch, EmptyBatchIsANoOp) {
  VectorIndex index(8);
  index.UpsertBatch({}, {}, nullptr);
  EXPECT_EQ(index.size(), 0u);
  EXPECT_EQ(index.stats().bytes, VectorIndex(8).stats().bytes);
}

}  // namespace
}  // namespace laminar::search
