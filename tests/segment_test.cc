// Unit tests for the live-update segment subsystem: DeltaSegment
// visibility, FrozenSegment tombstones, SegmentManager snapshots and
// compaction, and SegmentedEngine's query surface (docs/SEGMENTS.md).
#include <algorithm>
#include <atomic>
#include <chrono>
#include <initializer_list>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "core/engine.h"
#include "data/query.h"
#include "segment/delta_segment.h"
#include "segment/frozen_segment.h"
#include "segment/segmented_engine.h"

namespace wsk {
namespace {

SpatialObject MakeObject(ObjectId id, double x, double y,
                         std::initializer_list<TermId> terms) {
  SpatialObject o;
  o.id = id;
  o.loc = Point{x, y};
  std::vector<TermId> sorted(terms);
  std::sort(sorted.begin(), sorted.end());
  o.doc = KeywordSet::FromSorted(std::move(sorted));
  return o;
}

TEST(DeltaSegmentTest, VisibilityRule) {
  DeltaSegment delta(8);
  const uint32_t a = delta.Add(MakeObject(1, 0, 0, {0}), /*add_seq=*/1);
  delta.Add(MakeObject(2, 1, 1, {0, 1}), /*add_seq=*/2);

  EXPECT_EQ(delta.FindVisible(1, 0), nullptr);  // not yet added at seq 0
  ASSERT_NE(delta.FindVisible(1, 1), nullptr);
  EXPECT_EQ(delta.FindVisible(2, 1), nullptr);
  EXPECT_NE(delta.FindVisible(2, 2), nullptr);

  delta.MarkDeleted(a, /*del_seq=*/3);
  ASSERT_NE(delta.FindVisible(1, 2), nullptr);  // old snapshots keep seeing it
  EXPECT_EQ(delta.FindVisible(1, 3), nullptr);
  EXPECT_NE(delta.FindVisible(2, 3), nullptr);
}

TEST(DeltaSegmentTest, SupersededVersionResolution) {
  DeltaSegment delta(8);
  const uint32_t v1 = delta.Add(MakeObject(7, 0, 0, {0}), /*add_seq=*/1);
  delta.MarkDeleted(v1, /*del_seq=*/2);
  delta.Add(MakeObject(7, 5, 5, {1}), /*add_seq=*/2);  // same mutation

  const SpatialObject* old_version = delta.FindVisible(7, 1);
  ASSERT_NE(old_version, nullptr);
  EXPECT_EQ(old_version->loc.x, 0.0);
  const SpatialObject* new_version = delta.FindVisible(7, 2);
  ASSERT_NE(new_version, nullptr);
  EXPECT_EQ(new_version->loc.x, 5.0);
  size_t visible = 0;  // never two versions at once
  delta.ForEachVisible(2, [&visible](const DeltaSegment::Entry&) {
    ++visible;
  });
  EXPECT_EQ(visible, 1u);
}

TEST(FrozenSegmentTest, ShadowSemantics) {
  std::vector<SpatialObject> objects = {
      MakeObject(0, 0, 0, {0}),
      MakeObject(1, 1, 0, {1}),
      MakeObject(2, 0, 1, {0, 1}),
  };
  RetiredIoAccumulator retired;
  StatusOr<std::shared_ptr<FrozenSegment>> built = FrozenSegment::Build(
      objects, /*diagonal=*/2.0, IndexPair::Options{}, nullptr, &retired);
  ASSERT_TRUE(built.ok()) << built.status().ToString();
  std::shared_ptr<FrozenSegment> segment = std::move(built).value();

  EXPECT_EQ(segment->num_objects(), 3u);
  ASSERT_NE(segment->Find(1), nullptr);
  EXPECT_EQ(segment->Find(9), nullptr);
  EXPECT_TRUE(segment->VisibleAt(1, 0));

  EXPECT_TRUE(segment->Shadow(1, /*del_seq=*/5));
  EXPECT_FALSE(segment->Shadow(1, 7));  // earlier tombstone wins
  EXPECT_FALSE(segment->Shadow(9, 5));  // absent id
  EXPECT_EQ(segment->shadow_total(), 1u);

  EXPECT_TRUE(segment->VisibleAt(1, 4));   // before the tombstone
  EXPECT_FALSE(segment->VisibleAt(1, 5));  // at and after
  EXPECT_TRUE(segment->VisibleAt(0, 5));   // the others stay visible
  EXPECT_TRUE(segment->VisibleAt(2, 5));

  // Retirement folds I/O into the accumulator exactly once.
  segment.reset();
  EXPECT_EQ(retired.segments_retired.load(), 1u);
  EXPECT_GT(retired.Total().setr_physical + retired.Total().setr_logical, 0u);
}

// Shared fixture state: a small clustered dataset with an interned query.
struct LiveFixture {
  SegmentedEngine::Config config;
  std::unique_ptr<SegmentedEngine> engine;
  SpatialKeywordQuery query;

  explicit LiveFixture(uint32_t delta_capacity = 4,
                       bool auto_merge = false) {
    Dataset seed;
    for (int i = 0; i < 30; ++i) {
      const double x = (i % 6) * 1.0;
      const double y = (i / 6) * 1.0;
      std::vector<std::string> kw = {"base", "kw" + std::to_string(i % 5)};
      seed.Add(Point{x, y}, kw);
    }
    query.loc = Point{2.0, 2.0};
    query.doc = seed.vocabulary().InternAll({"base", "kw1"});
    query.k = 5;
    query.alpha = 0.5;

    config.node_capacity = 8;
    config.delta_capacity = delta_capacity;
    config.auto_merge = auto_merge;
    StatusOr<std::unique_ptr<SegmentedEngine>> built =
        SegmentedEngine::Build(seed, config);
    EXPECT_TRUE(built.ok()) << built.status().ToString();
    engine = std::move(built).value();
  }

  // Reference dataset mirroring the engine's current logical state.
  Dataset Rebuild() const {
    Dataset reference;
    reference.vocabulary() = engine->vocabulary().CloneDictionary();
    reference.OverrideDiagonal(engine->diagonal());
    SegmentManager::Snapshot snap = engine->GetSnapshot();
    // Collect ids from all layers, then add in ascending id order.
    std::vector<const SpatialObject*> objects;
    for (const auto& frozen : snap.view->frozen) {
      for (const SpatialObject& o : frozen->objects()) {
        if (frozen->VisibleAt(o.id, snap.seq)) objects.push_back(&o);
      }
    }
    const auto collect = [&objects](const DeltaSegment::Entry& e) {
      objects.push_back(&e.object);
    };
    for (const auto& sealed : snap.view->sealed) {
      sealed->ForEachVisible(snap.seq, collect);
    }
    snap.view->active->ForEachVisible(snap.seq, collect);
    std::sort(objects.begin(), objects.end(),
              [](const SpatialObject* a, const SpatialObject* b) {
                return a->id < b->id;
              });
    for (const SpatialObject* o : objects) {
      reference.AddWithId(o->id, o->loc, o->doc);
    }
    return reference;
  }
};

void ExpectTopKEqual(const std::vector<ScoredObject>& got,
                     const std::vector<ScoredObject>& want) {
  ASSERT_EQ(got.size(), want.size());
  for (size_t i = 0; i < got.size(); ++i) {
    EXPECT_EQ(got[i].id, want[i].id) << "position " << i;
    EXPECT_EQ(got[i].score, want[i].score) << "position " << i;  // bit exact
  }
}

TEST(SegmentedEngineTest, SeededStateMatchesBruteForce) {
  LiveFixture fx;
  StatusOr<std::vector<ScoredObject>> got = fx.engine->TopK(fx.query);
  ASSERT_TRUE(got.ok()) << got.status().ToString();
  Dataset reference = fx.Rebuild();
  ExpectTopKEqual(got.value(), BruteForceTopK(reference, fx.query));
  EXPECT_EQ(fx.engine->segment_counters().live_objects, 30u);
}

TEST(SegmentedEngineTest, InsertUpdateDeleteVisibility) {
  LiveFixture fx;
  // Insert right at the query location with both query keywords: must win.
  StatusOr<ObjectId> id =
      fx.engine->Insert(Point{2.0, 2.0}, {"base", "kw1"});
  ASSERT_TRUE(id.ok()) << id.status().ToString();
  StatusOr<std::vector<ScoredObject>> topk = fx.engine->TopK(fx.query);
  ASSERT_TRUE(topk.ok());
  ASSERT_FALSE(topk.value().empty());
  EXPECT_EQ(topk.value().front().id, id.value());

  // Update it far away with unrelated keywords: drops out of the top-k.
  ASSERT_TRUE(fx.engine->Update(id.value(), Point{100.0, 100.0}, {"elsewhere"})
                  .ok());
  topk = fx.engine->TopK(fx.query);
  ASSERT_TRUE(topk.ok());
  for (const ScoredObject& r : topk.value()) EXPECT_NE(r.id, id.value());

  // Rank still resolves the updated version; delete removes it entirely.
  EXPECT_TRUE(fx.engine->Rank(fx.query, id.value()).ok());
  ASSERT_TRUE(fx.engine->Delete(id.value()).ok());
  EXPECT_FALSE(fx.engine->Rank(fx.query, id.value()).ok());
  EXPECT_FALSE(fx.engine->Delete(id.value()).ok());  // already gone

  // After all that churn the engine still matches a from-scratch rebuild.
  Dataset reference = fx.Rebuild();
  topk = fx.engine->TopK(fx.query);
  ASSERT_TRUE(topk.ok());
  ExpectTopKEqual(topk.value(), BruteForceTopK(reference, fx.query));
}

TEST(SegmentedEngineTest, RankMatchesBruteForceAcrossMutationsAndMerge) {
  LiveFixture fx;
  const auto expect_ranks = [&fx](const char* phase) {
    SCOPED_TRACE(phase);
    const Dataset reference = fx.Rebuild();
    for (const SpatialObject& o : reference.objects()) {
      StatusOr<uint32_t> rank = fx.engine->Rank(fx.query, o.id);
      ASSERT_TRUE(rank.ok()) << rank.status().ToString();
      EXPECT_EQ(rank.value(), BruteForceRank(reference, fx.query, o.id))
          << "object " << o.id;
    }
  };
  expect_ranks("seeded");
  // Inserts land in the delta (delta_capacity 4 rotates some into sealed
  // deltas); deletes tombstone frozen objects and delta objects alike.
  StatusOr<ObjectId> near = fx.engine->Insert(Point{2.0, 2.1}, {"base", "kw1"});
  ASSERT_TRUE(near.ok());
  for (int i = 0; i < 6; ++i) {
    const std::string kw = "kw" + std::to_string(i);
    ASSERT_TRUE(fx.engine->Insert(Point{0.5 * i, 3.0}, {"base", kw}).ok());
  }
  ASSERT_TRUE(fx.engine->Delete(7).ok());
  ASSERT_TRUE(fx.engine->Delete(13).ok());
  ASSERT_TRUE(fx.engine->Delete(near.value()).ok());
  ASSERT_TRUE(fx.engine->Update(2, Point{2.0, 1.9}, {"base", "kw1"}).ok());
  expect_ranks("after mutations");
  ASSERT_TRUE(fx.engine->ForceMerge().ok());
  expect_ranks("after merge");
  EXPECT_FALSE(fx.engine->Rank(fx.query, 7).ok());  // deleted
}

TEST(SegmentedEngineTest, SnapshotIsolation) {
  LiveFixture fx;
  SegmentManager::Snapshot before = fx.engine->GetSnapshot();
  const size_t count_before = fx.engine->manager()->live_objects();

  StatusOr<ObjectId> inserted = fx.engine->Insert(Point{0.5, 0.5}, {"base"});
  ASSERT_TRUE(inserted.ok());
  ASSERT_TRUE(fx.engine->Delete(0).ok());

  // The old snapshot is immune to both mutations.
  const SnapshotStore store_again(&fx.engine->vocabulary(), before, 0);
  EXPECT_NE(store_again.FindObject(0), nullptr);
  EXPECT_EQ(store_again.FindObject(inserted.value()), nullptr);

  SegmentManager::Snapshot after = fx.engine->GetSnapshot();
  const SnapshotStore store_after(&fx.engine->vocabulary(), after, 0);
  EXPECT_EQ(store_after.FindObject(0), nullptr);
  EXPECT_NE(store_after.FindObject(inserted.value()), nullptr);
  EXPECT_EQ(fx.engine->manager()->live_objects(), count_before);  // +1 -1
}

TEST(SegmentedEngineTest, ForceMergeCompactsAndPreservesAnswers) {
  LiveFixture fx(/*delta_capacity=*/4, /*auto_merge=*/false);
  for (int i = 0; i < 10; ++i) {  // forces several rotations
    ASSERT_TRUE(
        fx.engine->Insert(Point{1.0 + 0.1 * i, 2.0}, {"base", "kw1"}).ok());
  }
  ASSERT_TRUE(fx.engine->Delete(3).ok());
  StatusOr<std::vector<ScoredObject>> before = fx.engine->TopK(fx.query);
  ASSERT_TRUE(before.ok());

  ASSERT_TRUE(fx.engine->ForceMerge().ok());
  SegmentCountersSnapshot counters = fx.engine->segment_counters();
  EXPECT_TRUE(counters.valid);
  EXPECT_EQ(counters.frozen_segments, 1u);
  EXPECT_EQ(counters.delta_objects, 0u);
  EXPECT_GE(counters.merges, 1u);
  EXPECT_EQ(counters.live_objects, 30u + 10u - 1u);

  StatusOr<std::vector<ScoredObject>> after = fx.engine->TopK(fx.query);
  ASSERT_TRUE(after.ok());
  ExpectTopKEqual(after.value(), before.value());

  // The compacted tree is bit-identical to a from-scratch build: compare a
  // why-not answer against a static engine over the rebuilt reference.
  Dataset reference = fx.Rebuild();
  WhyNotEngine::Config cfg;
  cfg.node_capacity = 8;
  StatusOr<std::unique_ptr<WhyNotEngine>> static_engine =
      WhyNotEngine::Build(&reference, cfg);
  ASSERT_TRUE(static_engine.ok());
  const std::vector<ObjectId> missing = {after.value().back().id};
  WhyNotOptions options;
  for (WhyNotAlgorithm algorithm :
       {WhyNotAlgorithm::kBasic, WhyNotAlgorithm::kAdvanced,
        WhyNotAlgorithm::kKcrBased}) {
    SCOPED_TRACE(WhyNotAlgorithmName(algorithm));
    StatusOr<WhyNotResult> live =
        fx.engine->Answer(algorithm, fx.query, missing, options);
    StatusOr<WhyNotResult> expect =
        static_engine.value()->Answer(algorithm, fx.query, missing, options);
    ASSERT_TRUE(live.ok()) << live.status().ToString();
    ASSERT_TRUE(expect.ok()) << expect.status().ToString();
    EXPECT_EQ(live.value().refined.penalty, expect.value().refined.penalty);
    EXPECT_TRUE(live.value().refined.doc == expect.value().refined.doc);
    EXPECT_EQ(live.value().refined.k, expect.value().refined.k);
  }
}

TEST(SegmentedEngineTest, TombstoneOnlyStateStillCompacts) {
  LiveFixture fx;
  ASSERT_TRUE(fx.engine->Delete(5).ok());  // only a frozen tombstone
  ASSERT_TRUE(fx.engine->ForceMerge().ok());
  SegmentManager::Snapshot snap = fx.engine->GetSnapshot();
  ASSERT_EQ(snap.view->frozen.size(), 1u);
  // The rebuilt frozen segment excludes the deleted object physically.
  EXPECT_EQ(snap.view->frozen[0]->num_objects(), 29u);
  EXPECT_EQ(snap.view->frozen[0]->shadow_total(), 0u);
}

// Background compaction runs once per sealed delta: writes that land in
// the active delta while a merge runs, fewer than fill it, do not queue a
// second pass (which would rotate and rebuild the shard for a few objects).
TEST(SegmentedEngineTest, AutoMergeRunsOncePerSealedDelta) {
  LiveFixture fx(/*delta_capacity=*/4, /*auto_merge=*/true);
  SegmentedEngine* engine = fx.engine.get();
  std::atomic<int> passes{0};
  engine->manager()->set_before_swap_hook([engine, &passes] {
    if (passes.fetch_add(1) > 0) return;
    for (int i = 0; i < 2; ++i) {
      EXPECT_TRUE(engine->Insert(Point{3.0, 3.0 + 0.1 * i}, {"base"}).ok());
    }
  });
  for (int i = 0; i < 5; ++i) {  // the fifth seals the full active delta
    ASSERT_TRUE(engine->Insert(Point{1.0 + 0.1 * i, 2.0}, {"base"}).ok());
  }
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(60);
  while (engine->segment_counters().merges == 0) {
    ASSERT_LT(std::chrono::steady_clock::now(), deadline);
    std::this_thread::yield();
  }
  const SegmentCountersSnapshot counters = engine->segment_counters();
  EXPECT_EQ(counters.frozen_segments, 1u);
  EXPECT_EQ(counters.delta_objects, 2u);  // the hook's writes wait
  EXPECT_EQ(counters.live_objects, 30u + 5u + 2u);
  // A second pass would already be queued; the destructor waits for it.
  fx.engine.reset();
  EXPECT_EQ(passes.load(), 1);
}

TEST(SegmentedEngineTest, IoCountersMonotoneAcrossMerge) {
  LiveFixture fx;
  ASSERT_TRUE(fx.engine->TopK(fx.query).ok());
  const BackendIoSnapshot before = fx.engine->io_snapshot();
  for (int i = 0; i < 6; ++i) {
    ASSERT_TRUE(fx.engine->Insert(Point{0.1 * i, 0.2}, {"base"}).ok());
  }
  ASSERT_TRUE(fx.engine->ForceMerge().ok());
  ASSERT_TRUE(fx.engine->TopK(fx.query).ok());
  const BackendIoSnapshot after = fx.engine->io_snapshot();
  EXPECT_GE(after.setr_physical, before.setr_physical);
  EXPECT_GE(after.setr_logical, before.setr_logical);
  EXPECT_GE(after.kcr_physical, before.kcr_physical);
  EXPECT_GE(after.kcr_logical, before.kcr_logical);
}

TEST(SegmentedEngineTest, DatasetVersionAdvancesPerMutation) {
  LiveFixture fx;
  const uint64_t v0 = fx.engine->dataset_version();
  ASSERT_TRUE(fx.engine->Insert(Point{0, 0}, {"base"}).ok());
  const uint64_t v1 = fx.engine->dataset_version();
  EXPECT_GT(v1, v0);
  ASSERT_TRUE(fx.engine->Delete(1).ok());
  EXPECT_GT(fx.engine->dataset_version(), v1);
  // Merges are not mutations: the version is the logical state's identity.
  const uint64_t v2 = fx.engine->dataset_version();
  ASSERT_TRUE(fx.engine->ForceMerge().ok());
  EXPECT_EQ(fx.engine->dataset_version(), v2);
}

TEST(SegmentedEngineTest, VocabularyTracksLogicalCorpus) {
  LiveFixture fx;
  StatusOr<ObjectId> id = fx.engine->Insert(Point{1, 1}, {"fresh", "base"});
  ASSERT_TRUE(id.ok());
  Dataset reference = fx.Rebuild();  // re-records every visible document
  EXPECT_EQ(fx.engine->vocabulary().DocumentFrequencies(),
            reference.vocabulary().DocumentFrequencies());
  ASSERT_TRUE(fx.engine->Delete(id.value()).ok());
  Dataset reference2 = fx.Rebuild();
  EXPECT_EQ(fx.engine->vocabulary().DocumentFrequencies(),
            reference2.vocabulary().DocumentFrequencies());
}

TEST(SegmentedEngineTest, ReadOnlyBackendRejectsMutations) {
  Dataset seed;
  seed.Add(Point{0, 0}, std::vector<std::string>{"a"});
  WhyNotEngine::Config cfg;
  StatusOr<std::unique_ptr<WhyNotEngine>> engine =
      WhyNotEngine::Build(&seed, cfg);
  ASSERT_TRUE(engine.ok());
  const QueryBackend* backend = engine.value().get();
  EXPECT_EQ(backend->Insert(Point{1, 1}, {"b"}).status().code(),
            StatusCode::kFailedPrecondition);
  EXPECT_EQ(backend->Delete(0).code(), StatusCode::kFailedPrecondition);
  EXPECT_FALSE(backend->segment_counters().valid);
  EXPECT_EQ(backend->dataset_version(), 0u);
}

}  // namespace
}  // namespace wsk
