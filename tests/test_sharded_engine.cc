// Sharded scatter-gather tests: a ShardedEngine over ANY shard count must
// answer bit-identically (ids and scores) to the core/ reference ranking
// TopK(MappedRanking(...)) over the same live database — or, with the lossy
// containment prefilter on, to a fresh 1-shard engine over it — through
// tie-heavy score distributions, k larger than any shard, shards emptied by
// removals, interleaved churn, and snapshot/reload cycles that change the
// shard count.

#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <utility>
#include <vector>

#include "common/logging.h"
#include "common/sync.h"
#include "core/index.h"
#include "core/index_io.h"
#include "core/mapper.h"
#include "datasets/chemgen.h"
#include "server/sharded_engine.h"
#include "test_util.h"

namespace gdim {
namespace {

using testing_util::ReferenceBatch;
using testing_util::ReferenceTopK;
using testing_util::Sharded;

class ShardedEngineTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    ChemGenOptions gen;
    gen.num_graphs = 40;
    gen.num_families = 6;
    gen.min_vertices = 8;
    gen.max_vertices = 14;
    db_ = new GraphDatabase(GenerateChemDatabase(gen));
    // >= 64 queries so QueryBatch crosses ParallelFor's serial threshold
    // and the thread-determinism assertions actually spawn workers.
    queries_ = new GraphDatabase(GenerateChemQueries(gen, 70));
    IndexOptions opts;
    opts.mining.min_support = 0.15;
    opts.mining.max_edges = 4;
    opts.selector = "DSPM";
    opts.p = 30;
    opts.dspm.max_iters = 10;
    auto built = GraphSearchIndex::Build(*db_, opts);
    GDIM_CHECK(built.ok()) << built.status().ToString();
    index_ = new PersistedIndex();
    index_->features = built->dimension();
    index_->db_bits = built->mapped_database();
  }

  static void TearDownTestSuite() {
    delete db_;
    delete queries_;
    delete index_;
    db_ = nullptr;
    queries_ = nullptr;
    index_ = nullptr;
  }

  static GraphDatabase* db_;
  static GraphDatabase* queries_;
  static PersistedIndex* index_;
};

GraphDatabase* ShardedEngineTest::db_ = nullptr;
GraphDatabase* ShardedEngineTest::queries_ = nullptr;
PersistedIndex* ShardedEngineTest::index_ = nullptr;

TEST_F(ShardedEngineTest, AnyShardCountMatchesSingleEngineBitForBit) {
  for (int shards : {1, 2, 4, 7}) {
    for (int threads : {1, 8}) {
      auto engine =
          ShardedEngine::FromIndex(*index_, Sharded(shards, threads));
      ASSERT_TRUE(engine.ok()) << engine.status().ToString();
      EXPECT_EQ(engine->num_shards(), shards);
      EXPECT_EQ(engine->num_graphs(),
                static_cast<int>(index_->db_bits.size()));
      for (int k : {0, 3, 1000}) {
        EXPECT_EQ(engine->QueryBatch(*queries_, {.k = k}),
                  ReferenceBatch(*queries_, *index_, k))
            << "shards=" << shards << " threads=" << threads << " k=" << k;
      }
    }
  }
}

TEST_F(ShardedEngineTest, ScatterStatsAggregateAcrossShards) {
  auto engine = ShardedEngine::FromIndex(*index_, Sharded(4));
  ASSERT_TRUE(engine.ok());
  ServeQueryStats stats;
  const Ranking top = engine->Query((*queries_)[0], {.k = 5}, &stats);
  EXPECT_EQ(static_cast<int>(top.size()), 5);
  // Full scans in every shard sum to the whole database.
  EXPECT_EQ(stats.scanned, engine->num_graphs());
  EXPECT_FALSE(stats.prefiltered);
  EXPECT_GT(stats.latency_ms, 0.0);
}

TEST_F(ShardedEngineTest, InterleavedChurnStaysIdenticalToSingleEngine) {
  FeatureMapper mapper(index_->features);
  for (int shards : {1, 2, 4, 7}) {
    for (int threads : {1, 8}) {
      for (bool prefilter : {false, true}) {
        SCOPED_TRACE("shards=" + std::to_string(shards) +
                     " threads=" + std::to_string(threads) +
                     " prefilter=" + std::to_string(prefilter));
        auto sharded = ShardedEngine::FromIndex(
            *index_, Sharded(shards, threads, prefilter));
        ASSERT_TRUE(sharded.ok());
        // This test body is the engine's single writer.
        ScopedRole writer(&sharded->writer_role());
        // The live database in id order, mutated in lockstep.
        PersistedIndex live = *index_;
        for (size_t i = 0; i < live.db_bits.size(); ++i) {
          live.ids.push_back(static_cast<int>(i));
        }
        const auto remove = [&](int id) {
          ASSERT_TRUE(sharded->Remove(id).ok()) << "id=" << id;
          const auto it =
              std::lower_bound(live.ids.begin(), live.ids.end(), id);
          ASSERT_TRUE(it != live.ids.end() && *it == id);
          live.db_bits.erase(live.db_bits.begin() + (it - live.ids.begin()));
          live.ids.erase(it);
        };

        // The id sequence must be the unsharded one: 40, 41, ...
        for (int id : {1, 5, 19, 38}) remove(id);
        for (int i = 0; i < 10; ++i) {
          const Graph& g = (*queries_)[static_cast<size_t>(i)];
          auto id = sharded->Insert(g);
          ASSERT_TRUE(id.ok());
          EXPECT_EQ(*id, 40 + i);
          live.ids.push_back(*id);
          live.db_bits.push_back(mapper.Map(g));
        }
        sharded->Compact();
        for (int id : {0, 2, 40, 44}) remove(id);  // 40/44 were inserted
        EXPECT_EQ(sharded->Remove(5).code(), StatusCode::kNotFound);  // twice
        EXPECT_EQ(sharded->Remove(-3).code(), StatusCode::kNotFound);
        EXPECT_EQ(sharded->Remove(9999).code(), StatusCode::kNotFound);

        EXPECT_EQ(sharded->alive_ids(), live.ids);
        EXPECT_EQ(sharded->num_graphs(), static_cast<int>(live.ids.size()));
        // The lossy prefilter is part of the configuration under test, so
        // with it on the oracle is a fresh 1-shard engine over the live set.
        auto fresh =
            ShardedEngine::FromIndex(live, Sharded(1, 1, prefilter));
        ASSERT_TRUE(fresh.ok());
        for (int k : {0, 3, 1000}) {
          EXPECT_EQ(sharded->QueryBatch(*queries_, {.k = k}),
                    prefilter ? fresh->QueryBatch(*queries_, {.k = k})
                              : ReferenceBatch(*queries_, live, k))
              << "k=" << k;
        }
      }
    }
  }
}

TEST_F(ShardedEngineTest, SnapshotReloadsUnderAnyShardCount) {
  auto sharded = ShardedEngine::FromIndex(*index_, Sharded(4));
  ASSERT_TRUE(sharded.ok());
  ScopedRole writer(&sharded->writer_role());
  for (int id : {0, 7, 13}) ASSERT_TRUE(sharded->Remove(id).ok());
  for (int i = 0; i < 5; ++i) {
    ASSERT_TRUE(sharded->Insert((*queries_)[static_cast<size_t>(i)]).ok());
  }
  const std::string path =
      ::testing::TempDir() + "/gdim_sharded_snapshot.idx2";
  ASSERT_TRUE(sharded->Snapshot(path).ok());

  const std::vector<Ranking> expected =
      sharded->QueryBatch(*queries_, {.k = 6});
  const std::vector<int> expected_ids = sharded->alive_ids();
  EXPECT_EQ(expected,
            ReferenceBatch(*queries_, sharded->ToPersistedIndex(), 6));
  // The snapshot is shard-count independent: reload as engines of other
  // counts (the single-node case included), all bit-identical.
  for (int shards : {1, 2, 7}) {
    auto reloaded = ShardedEngine::Open(path, Sharded(shards));
    ASSERT_TRUE(reloaded.ok());
    ScopedRole reloaded_writer(&reloaded->writer_role());
    EXPECT_EQ(reloaded->alive_ids(), expected_ids);
    EXPECT_EQ(reloaded->QueryBatch(*queries_, {.k = 6}), expected)
        << "shards=" << shards;
    // The persisted id counter survives: the next insert gets the same id
    // everywhere, never a re-issued one.
    auto id = reloaded->Insert((*queries_)[9]);
    ASSERT_TRUE(id.ok());
    EXPECT_EQ(*id, 45);  // 40 initial + 5 inserted, removals don't recycle
  }
}

TEST_F(ShardedEngineTest, RejectsBadShardCountsAndBadIds) {
  EXPECT_FALSE(ShardedEngine::FromIndex(*index_, Sharded(0)).ok());
  EXPECT_FALSE(ShardedEngine::FromIndex(*index_, Sharded(-2)).ok());
  EXPECT_EQ(ShardedEngine::FromIndex(*index_, Sharded(0)).status().code(),
            StatusCode::kInvalidArgument);

  PersistedIndex bad = *index_;
  bad.ids.resize(bad.db_bits.size());
  for (size_t i = 0; i < bad.ids.size(); ++i) {
    bad.ids[i] = static_cast<int>(bad.ids.size() - i);  // descending
  }
  EXPECT_EQ(ShardedEngine::FromIndex(std::move(bad), Sharded(2))
                .status()
                .code(),
            StatusCode::kInvalidArgument);
}

// ---------------------------------------------------------------------------
// Controlled-index tests: single-vertex features make fingerprints exact
// label sets, so tie structure and shard occupancy are fully scripted.

/// p single-vertex features; each row is one of a handful of patterns, so
/// scores collapse onto very few distinct values (maximal tie pressure on
/// the merge).
PersistedIndex TieHeavyIndex(int rows) {
  const int kLabels = 6;
  PersistedIndex index;
  for (LabelId r = 0; r < kLabels; ++r) {
    Graph f;
    f.AddVertex(r);
    index.features.push_back(f);
  }
  const std::vector<std::vector<uint8_t>> patterns = {
      {1, 1, 0, 0, 0, 0}, {0, 0, 1, 1, 0, 0}, {1, 0, 1, 0, 1, 0},
      {0, 1, 0, 1, 0, 1},
  };
  for (int i = 0; i < rows; ++i) {
    index.db_bits.push_back(patterns[static_cast<size_t>(i) %
                                     patterns.size()]);
  }
  return index;
}

TEST(ShardedEngineTieTest, TieHeavyMergePreservesIdOrder) {
  const PersistedIndex index = TieHeavyIndex(40);
  const std::vector<std::vector<uint8_t>> probes = {
      {1, 1, 0, 0, 0, 0}, {0, 0, 0, 0, 0, 0}, {1, 1, 1, 1, 1, 1},
      {1, 0, 0, 0, 0, 1},
  };
  for (int shards : {1, 2, 4, 7}) {
    for (int threads : {1, 8}) {
      auto engine =
          ShardedEngine::FromIndex(index, Sharded(shards, threads));
      ASSERT_TRUE(engine.ok());
      for (const auto& probe : probes) {
        for (int k : {1, 5, 39, 40, 100}) {
          EXPECT_EQ(engine->QueryMapped(probe, {.k = k}),
                    ReferenceTopK(probe, index, k))
              << "shards=" << shards << " threads=" << threads
              << " k=" << k;
        }
      }
    }
  }
}

TEST(ShardedEngineTieTest, KLargerThanAnyShardsLiveRows) {
  const PersistedIndex index = TieHeavyIndex(10);
  // 7 shards over 10 rows: every shard holds 1-2 rows, far below k.
  auto engine = ShardedEngine::FromIndex(index, Sharded(7));
  ASSERT_TRUE(engine.ok());
  const std::vector<uint8_t> probe = {1, 0, 1, 0, 0, 0};
  for (int k : {8, 10, 50}) {
    const Ranking got = engine->QueryMapped(probe, {.k = k});
    EXPECT_EQ(got, ReferenceTopK(probe, index, k)) << "k=" << k;
    EXPECT_EQ(got.size(), std::min<size_t>(static_cast<size_t>(k), 10u));
  }
}

TEST(ShardedEngineTieTest, ShardsEmptiedByRemovalsStillMerge) {
  const PersistedIndex index = TieHeavyIndex(12);
  auto engine = ShardedEngine::FromIndex(index, Sharded(4));
  ASSERT_TRUE(engine.ok());
  ScopedRole engine_writer(&engine->writer_role());
  // Remove every id ≡ 1 and ≡ 2 (mod 4): shards 1 and 2 end up empty.
  PersistedIndex live;
  for (int id = 0; id < 12; ++id) {
    if (id % 4 == 1 || id % 4 == 2) {
      ASSERT_TRUE(engine->Remove(id).ok());
    } else {
      live.ids.push_back(id);
      live.db_bits.push_back(index.db_bits[static_cast<size_t>(id)]);
    }
  }
  // Shard of id = id % 4, so no live id left means shards 1 and 2 are empty.
  EXPECT_EQ(engine->alive_ids(), live.ids);
  const std::vector<uint8_t> probe = {0, 1, 1, 0, 0, 0};
  for (int k : {3, 6, 12}) {
    EXPECT_EQ(engine->QueryMapped(probe, {.k = k}),
              ReferenceTopK(probe, live, k))
        << "k=" << k;
  }

  // Empty the database entirely: queries answer cleanly with nothing.
  for (int id = 0; id < 12; ++id) {
    if (id % 4 == 0 || id % 4 == 3) {
      ASSERT_TRUE(engine->Remove(id).ok());
    }
  }
  EXPECT_EQ(engine->num_graphs(), 0);
  EXPECT_TRUE(engine->QueryMapped(probe, {.k = 5}).empty());
  engine->Compact();
  EXPECT_TRUE(engine->QueryMapped(probe, {.k = 5}).empty());
}

TEST(ShardedEngineTieTest, EpochSumsShardMutationsAndFreezeIsStable) {
  const PersistedIndex index = TieHeavyIndex(12);
  auto engine = ShardedEngine::FromIndex(index, Sharded(4));
  ASSERT_TRUE(engine.ok());
  ScopedRole writer(&engine->writer_role());
  EXPECT_EQ(engine->epoch(), 0u);
  const std::vector<uint8_t> probe = {1, 0, 1, 0, 0, 0};
  engine->QueryMapped(probe, {.k = 5});
  EXPECT_EQ(engine->epoch(), 0u);  // queries never bump

  const std::vector<uint8_t> row = {1, 1, 0, 0, 0, 0};
  ASSERT_TRUE(engine->InsertMapped(row).ok());
  EXPECT_EQ(engine->epoch(), 1u);
  ASSERT_TRUE(engine->Remove(3).ok());
  EXPECT_EQ(engine->epoch(), 2u);
  EXPECT_FALSE(engine->Remove(3).ok());  // failed ops leave it alone
  EXPECT_EQ(engine->epoch(), 2u);
  // Compact bumps once per shard that did work; monotonic either way.
  engine->Compact();
  EXPECT_GT(engine->epoch(), 2u);
  const uint64_t settled = engine->epoch();
  engine->Compact();  // global no-op
  EXPECT_EQ(engine->epoch(), settled);

  // Freeze + WriteSnapshot equals the synchronous snapshot bit for bit,
  // and the capture survives mutations applied after it.
  const FrozenShardedState frozen = engine->Freeze();
  EXPECT_EQ(frozen.epoch, settled);
  ASSERT_TRUE(engine->InsertMapped(row).ok());
  ASSERT_TRUE(engine->Remove(0).ok());
  engine->Compact();
  const std::string from_frozen =
      ::testing::TempDir() + "/gdim_frozen_snap.idx2";
  ASSERT_TRUE(ShardedEngine::WriteSnapshot(frozen, from_frozen).ok());
  auto reloaded = ShardedEngine::Open(from_frozen);
  ASSERT_TRUE(reloaded.ok()) << reloaded.status().ToString();
  std::vector<int> frozen_ids;
  for (const FrozenEngineState& shard : frozen.shards) {
    for (const auto& [id, words] : shard.LiveRowWords()) {
      (void)words;
      frozen_ids.push_back(id);
    }
  }
  std::sort(frozen_ids.begin(), frozen_ids.end());
  EXPECT_EQ(reloaded->alive_ids(), frozen_ids);
  for (int k : {1, 6, 20}) {
    // The reloaded capture answers like the engine did at freeze time: it
    // must still contain id 0 (removed after) and not the second insert.
    const Ranking got = reloaded->QueryMapped(probe, {.k = k});
    for (const RankedResult& r : got) EXPECT_NE(r.id, 13);
  }
}

TEST(ShardedEngineTieTest, ToPersistedIndexRoundTripsThroughSingleShard) {
  const PersistedIndex index = TieHeavyIndex(12);
  auto engine = ShardedEngine::FromIndex(index, Sharded(3));
  ASSERT_TRUE(engine.ok());
  ScopedRole writer(&engine->writer_role());
  ASSERT_TRUE(engine->Remove(4).ok());
  const std::vector<uint8_t> row = {1, 1, 1, 0, 0, 0};
  ASSERT_TRUE(engine->InsertMapped(row).ok());

  const PersistedIndex persisted = engine->ToPersistedIndex();
  EXPECT_EQ(persisted.next_id, engine->next_id());
  auto rebuilt = ShardedEngine::FromIndex(persisted);
  ASSERT_TRUE(rebuilt.ok()) << rebuilt.status().ToString();
  EXPECT_EQ(rebuilt->alive_ids(), engine->alive_ids());
  const std::vector<uint8_t> probe = {1, 1, 0, 0, 0, 1};
  for (int k : {1, 6, 20}) {
    EXPECT_EQ(rebuilt->QueryMapped(probe, {.k = k}),
              engine->QueryMapped(probe, {.k = k}));
    EXPECT_EQ(engine->QueryMapped(probe, {.k = k}),
              ReferenceTopK(probe, persisted, k));
  }
}

}  // namespace
}  // namespace gdim
