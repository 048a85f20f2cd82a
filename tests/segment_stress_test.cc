// Concurrent ingest stress (docs/SEGMENTS.md): writer threads mutate while
// reader threads query and the background worker compacts. Runs under TSan
// in CI via the `stress` label. Checks:
//   * readers never observe torn state (top-k is well-formed and every
//     returned id resolves in the reader's own snapshot),
//   * aggregate I/O counters are monotone across merges and retirements
//     (no dip, no double count),
//   * after the dust settles the engine matches a brute-force rebuild of
//     the logically-final object set, document frequencies included,
//   * epoch reclamation actually retires superseded segments.
#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "data/query.h"
#include "segment/segmented_engine.h"

namespace wsk {
namespace {

constexpr int kNumWriters = 2;
constexpr int kNumReaders = 2;
constexpr int kOpsPerWriter = 1500;
constexpr int kSeedObjects = 200;

std::vector<std::string> KeywordsFor(uint64_t v) {
  return {"base", "w" + std::to_string(v % 12),
          "w" + std::to_string((v / 12) % 12)};
}

Point LocationFor(uint64_t v) {
  return Point{static_cast<double>(v % 37) * 0.5,
               static_cast<double>((v / 37) % 37) * 0.5};
}

struct ObjectRecord {
  Point loc;
  std::vector<std::string> keywords;
};

TEST(SegmentStressTest, ConcurrentIngestQueriesAndMerge) {
  Dataset seed;
  for (int i = 0; i < kSeedObjects; ++i) {
    seed.Add(LocationFor(i * 7 + 1), KeywordsFor(i * 13 + 5));
  }
  SpatialKeywordQuery query;
  query.loc = Point{9.0, 9.0};
  query.doc = seed.vocabulary().InternAll({"base", "w3"});
  query.k = 10;

  SegmentedEngine::Config config;
  config.node_capacity = 16;
  config.delta_capacity = 64;  // frequent rotations -> frequent merges
  config.auto_merge = true;
  StatusOr<std::unique_ptr<SegmentedEngine>> built =
      SegmentedEngine::Build(seed, config);
  ASSERT_TRUE(built.ok()) << built.status().ToString();
  SegmentedEngine* engine = built.value().get();

  std::atomic<bool> writers_done{false};
  std::atomic<int> failures{0};
  const auto note_failure = [&failures](const char* what) {
    ADD_FAILURE() << what;
    failures.fetch_add(1);
  };

  // Writers only mutate objects they inserted themselves, so each local
  // ledger is exact without cross-thread coordination.
  std::vector<std::map<ObjectId, ObjectRecord>> ledgers(kNumWriters);
  std::vector<uint64_t> writer_inserts(kNumWriters, 0);
  std::vector<uint64_t> writer_updates(kNumWriters, 0);
  std::vector<uint64_t> writer_deletes(kNumWriters, 0);

  std::vector<std::thread> threads;
  for (int w = 0; w < kNumWriters; ++w) {
    threads.emplace_back([&, w]() {
      Rng rng(0x5eed0000 + w);
      std::map<ObjectId, ObjectRecord>& mine = ledgers[w];
      std::vector<ObjectId> live;
      for (int op = 0; op < kOpsPerWriter; ++op) {
        const uint64_t r = rng.Next();
        const int kind = live.empty() ? 0 : static_cast<int>(r % 4);
        if (kind <= 1) {  // insert
          const ObjectRecord record{LocationFor(r >> 8),
                                    KeywordsFor(r >> 20)};
          StatusOr<ObjectId> id =
              engine->Insert(record.loc, record.keywords);
          if (!id.ok()) {
            note_failure("insert failed");
            return;
          }
          mine[id.value()] = record;
          live.push_back(id.value());
          ++writer_inserts[w];
        } else if (kind == 2) {  // update one of ours
          const ObjectId id = live[(r >> 8) % live.size()];
          const ObjectRecord record{LocationFor(r >> 16),
                                    KeywordsFor(r >> 28)};
          if (!engine->Update(id, record.loc, record.keywords).ok()) {
            note_failure("update failed");
            return;
          }
          mine[id] = record;
          ++writer_updates[w];
        } else {  // delete one of ours
          const size_t pos = (r >> 8) % live.size();
          const ObjectId id = live[pos];
          live.erase(live.begin() + pos);
          if (!engine->Delete(id).ok()) {
            note_failure("delete failed");
            return;
          }
          mine.erase(id);
          ++writer_deletes[w];
        }
      }
    });
  }

  for (int r = 0; r < kNumReaders; ++r) {
    threads.emplace_back([&, r]() {
      Rng rng(0xbeef0000 + r);
      BackendIoSnapshot last_io = engine->io_snapshot();
      // A floor of iterations guarantees real overlap even if the writers
      // outpace reader startup.
      for (int iter = 0;
           iter < 50 || !writers_done.load(std::memory_order_acquire);
           ++iter) {
        // A top-k must be well-formed and internally consistent with the
        // reader's own snapshot semantics.
        StatusOr<std::vector<ScoredObject>> topk = engine->TopK(query);
        if (!topk.ok()) {
          note_failure("top-k failed mid-ingest");
          return;
        }
        const std::vector<ScoredObject>& results = topk.value();
        if (results.size() > query.k) {
          note_failure("top-k returned more than k results");
          return;
        }
        for (size_t i = 1; i < results.size(); ++i) {
          const bool ordered =
              results[i - 1].score > results[i].score ||
              (results[i - 1].score == results[i].score &&
               results[i - 1].id < results[i].id);
          if (!ordered) {
            note_failure("top-k order violated (torn read?)");
            return;
          }
        }
        // Seed ids below the writers' range are never mutated: always
        // resolvable in any snapshot.
        const SnapshotStore store(&engine->vocabulary(),
                                  engine->GetSnapshot(), 0);
        const ObjectId probe =
            static_cast<ObjectId>(rng.Next() % kSeedObjects);
        if (store.FindObject(probe) == nullptr) {
          note_failure("seed object vanished from a snapshot");
          return;
        }
        // Aggregate I/O counters never dip, even while merges retire
        // segments concurrently.
        const BackendIoSnapshot io = engine->io_snapshot();
        if (io.setr_physical < last_io.setr_physical ||
            io.kcr_physical < last_io.kcr_physical ||
            io.setr_logical < last_io.setr_logical ||
            io.kcr_logical < last_io.kcr_logical) {
          note_failure("I/O counters dipped across a merge");
          return;
        }
        last_io = io;
      }
    });
  }

  for (int i = 0; i < kNumWriters; ++i) threads[i].join();
  writers_done.store(true, std::memory_order_release);
  for (size_t i = kNumWriters; i < threads.size(); ++i) threads[i].join();
  ASSERT_EQ(failures.load(), 0);

  ASSERT_TRUE(engine->ForceMerge().ok());

  // Counters reconcile exactly with the writers' ledgers.
  uint64_t total_inserts = 0, total_updates = 0, total_deletes = 0;
  size_t expected_live = kSeedObjects;
  for (int w = 0; w < kNumWriters; ++w) {
    total_inserts += writer_inserts[w];
    total_updates += writer_updates[w];
    total_deletes += writer_deletes[w];
    expected_live += ledgers[w].size();
  }
  const SegmentCountersSnapshot counters = engine->segment_counters();
  ASSERT_TRUE(counters.valid);
  EXPECT_EQ(counters.inserts, total_inserts);
  EXPECT_EQ(counters.updates, total_updates);
  EXPECT_EQ(counters.deletes, total_deletes);
  EXPECT_EQ(counters.live_objects, expected_live);
  EXPECT_EQ(counters.frozen_segments, 1u);
  EXPECT_EQ(counters.delta_objects, 0u);
  // Compaction ran and epoch reclamation retired the superseded segments.
  EXPECT_GE(counters.merges, 1u);
  EXPECT_GE(counters.segments_retired, counters.merges);

  // Final differential check: rebuild the logically-final dataset from the
  // ledgers and compare answers bit for bit.
  Dataset reference;
  reference.vocabulary() = engine->vocabulary().CloneDictionary();
  reference.OverrideDiagonal(engine->diagonal());
  std::map<ObjectId, ObjectRecord> final_state;
  for (int i = 0; i < kSeedObjects; ++i) {
    final_state[static_cast<ObjectId>(i)] =
        ObjectRecord{LocationFor(i * 7 + 1), KeywordsFor(i * 13 + 5)};
  }
  for (const auto& ledger : ledgers) {
    for (const auto& [id, record] : ledger) final_state[id] = record;
  }
  for (const auto& [id, record] : final_state) {
    reference.AddWithId(id, record.loc,
                        reference.vocabulary().InternAll(record.keywords));
  }
  EXPECT_EQ(engine->vocabulary().DocumentFrequencies(),
            reference.vocabulary().DocumentFrequencies());

  StatusOr<std::vector<ScoredObject>> got = engine->TopK(query);
  ASSERT_TRUE(got.ok()) << got.status().ToString();
  const std::vector<ScoredObject> want = BruteForceTopK(reference, query);
  ASSERT_EQ(got.value().size(), want.size());
  for (size_t i = 0; i < want.size(); ++i) {
    EXPECT_EQ(got.value()[i].id, want[i].id) << "position " << i;
    EXPECT_EQ(got.value()[i].score, want[i].score) << "position " << i;
  }
}

}  // namespace
}  // namespace wsk
