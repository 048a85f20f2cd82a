// Floor-bounded traversal (docs/ALGORITHMS.md, AdvancedBS rank floor): a
// TopKIterator given a score floor must emit exactly the objects of the
// unfloored stream that score above the floor, in the same order, and
// RankFromIndex (which passes min_score as the floor) must return the
// rank, `exceeded` flag and dominator list of the plain unfloored loop it
// replaced. Checked over a SetR-tree, a KcR-tree and a live
// MergedTopKSource (two segments with tombstones plus delta objects), with
// random queries across all similarity models and random floors —
// including floors exactly equal to object scores and to alpha, the edge
// of the leaf scorer's disjoint skip.
#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <memory>
#include <optional>
#include <unordered_set>
#include <vector>

#include "common/rng.h"
#include "core/whynot_common.h"
#include "core/whynot_kcr.h"
#include "data/generator.h"
#include "index/kcr_tree.h"
#include "index/setr_tree.h"
#include "observability/trace.h"
#include "index/merged_source.h"
#include "test_util.h"

namespace wsk {
namespace {

using internal::RankFromIndex;
using testing::TempFile;

constexpr double kNoFloor = -std::numeric_limits<double>::infinity();

class HiddenIds : public ObjectVisibility {
 public:
  bool IsVisible(ObjectId id) const override { return !hidden.count(id); }
  std::unordered_set<ObjectId> hidden;
};

// One index file: temp path, pager and buffer pool.
struct IndexFile {
  explicit IndexFile(const std::string& tag)
      : file(tag),
        pager(Pager::Create(file.path()).value()),
        pool(std::make_unique<BufferPool>(pager.get(), 4u << 20)) {}
  TempFile file;
  std::unique_ptr<Pager> pager;
  std::unique_ptr<BufferPool> pool;
};

std::vector<ScoredObject> Drain(const TopKSource& source,
                                const SpatialKeywordQuery& query,
                                double floor, TraceRecorder* trace = nullptr) {
  TopKIterator it(&source, query, nullptr, trace, floor);
  std::vector<ScoredObject> out;
  std::optional<ScoredObject> next;
  for (;;) {
    EXPECT_TRUE(it.Next(&next).ok());
    if (!next) break;
    out.push_back(*next);
  }
  return out;
}

// The rank loop as it ran before the iterator took a floor: stream the
// unfloored iterator until the first object not strictly above min_score.
uint32_t ReferenceRank(const TopKSource& source,
                       const SpatialKeywordQuery& query, double min_score,
                       int64_t limit, bool* exceeded,
                       std::vector<ObjectId>* dominators, uint64_t* nodes) {
  *exceeded = false;
  TopKIterator it(&source, query);
  uint32_t strictly_better = 0;
  std::optional<ScoredObject> next;
  for (;;) {
    EXPECT_TRUE(it.Next(&next).ok());
    if (!next || next->score <= min_score) break;
    ++strictly_better;
    dominators->push_back(next->id);
    if (limit > 0 && static_cast<int64_t>(strictly_better) + 1 > limit) {
      *exceeded = true;
      break;
    }
  }
  *nodes = it.num_expanded();
  return strictly_better + 1;
}

class FloorPropertyTest : public ::testing::Test {
 protected:
  void SetUp() override {
    GeneratorConfig config;
    config.num_objects = 600;
    config.vocab_size = 100;
    config.seed = 1515;
    dataset_ = GenerateDataset(config);
    Rng rng(77);
    // Exact duplicates make equal scores, so floors land on ties.
    for (int i = 0; i < 25; ++i) {
      const SpatialObject o =
          dataset_.object(static_cast<ObjectId>(rng.NextUint64(600)));
      dataset_.Add(o.loc, o.doc);
    }
    const double diagonal = dataset_.diagonal();
    const uint32_t n = static_cast<uint32_t>(dataset_.size());

    SetRTree::Options setr_options;
    setr_options.capacity = 6;
    KcrTree::Options kcr_options;
    kcr_options.capacity = 6;
    setr_ = SetRTree::BulkLoad(dataset_, setr_file_.pool.get(), setr_options)
                .value();
    kcr_ = KcrTree::BulkLoad(dataset_, kcr_file_.pool.get(), kcr_options)
               .value();

    // Live snapshot: segment A holds ids [0, 2n/3), segment B ids
    // [n/3, n). The overlap is split by parity so each id is visible at
    // most once, and each segment tombstones a further ~15% of its ids.
    std::vector<SpatialObject> a_objects;
    std::vector<SpatialObject> b_objects;
    for (uint32_t id = 0; id < n; ++id) {
      const SpatialObject& o = dataset_.object(id);
      const bool in_a = id < 2 * n / 3;
      const bool in_b = id >= n / 3;
      if (in_a) a_objects.push_back(o);
      if (in_b) b_objects.push_back(o);
      if (in_a && in_b) {
        (id % 2 == 0 ? hidden_a_ : hidden_b_).hidden.insert(id);
      }
      if (rng.NextBool(0.15)) {
        (in_b ? hidden_b_ : hidden_a_).hidden.insert(id);
      }
    }
    seg_a_ = SetRTree::BulkLoadObjects(a_objects, diagonal,
                                       seg_a_file_.pool.get(), setr_options)
                 .value();
    seg_b_ = KcrTree::BulkLoadObjects(b_objects, diagonal,
                                      seg_b_file_.pool.get(), kcr_options)
                 .value();
    for (uint32_t i = 0; i < 30; ++i) {
      SpatialObject o = dataset_.object(static_cast<ObjectId>(
          rng.NextUint64(n)));
      o.id = n + i;
      if (i % 2 == 1) o.loc = Point{rng.NextDouble(), rng.NextDouble()};
      delta_.push_back(o);
    }
    std::vector<const SpatialObject*> extras;
    for (const SpatialObject& o : delta_) extras.push_back(&o);
    merged_ = std::make_unique<MergedTopKSource>(
        std::vector<MergedSegment>{{seg_a_.get(), &hidden_a_},
                                   {seg_b_.get(), &hidden_b_}},
        std::move(extras), diagonal);
  }

  SpatialKeywordQuery RandomQuery(Rng& rng, int i) const {
    constexpr SimilarityModel kModels[] = {SimilarityModel::kJaccard,
                                           SimilarityModel::kDice,
                                           SimilarityModel::kOverlap};
    SpatialKeywordQuery q;
    const SpatialObject& anchor =
        dataset_.object(static_cast<ObjectId>(rng.NextUint64(600)));
    // Sometimes sit exactly on an object (SDist 0).
    q.loc = i % 5 == 0 ? anchor.loc
                       : Point{rng.NextDouble(), rng.NextDouble()};
    std::vector<TermId> terms;
    for (TermId t : anchor.doc) {
      if (rng.NextBool(0.6)) terms.push_back(t);
    }
    const size_t extra = rng.NextUint64(3);
    for (size_t t = 0; t < extra; ++t) {
      terms.push_back(static_cast<TermId>(rng.NextUint64(100)));
    }
    // Every seventh query exceeds the kernel's 64-term cap (scalar path).
    if (i % 7 == 3) {
      for (TermId t = 0; t < 70; ++t) terms.push_back(t);
    }
    if (terms.empty()) terms.push_back(anchor.doc.terms()[0]);
    q.doc = KeywordSet(std::move(terms));
    q.alpha = rng.NextDouble(0.05, 0.95);
    q.model = kModels[i % 3];
    q.k = 10;
    return q;
  }

  // Floors worth probing for one query given its unfloored stream.
  std::vector<double> Floors(Rng& rng, const SpatialKeywordQuery& q,
                             const std::vector<ScoredObject>& stream) const {
    std::vector<double> floors = {
        kNoFloor, q.alpha, std::nextafter(q.alpha, kNoFloor),
        std::nextafter(q.alpha, 2.0)};
    if (stream.empty()) return floors;
    const double hi = stream.front().score;
    const double lo = stream.back().score;
    floors.push_back(rng.NextDouble(lo - 0.01, hi + 0.01));
    floors.push_back(lo - 1.0);  // drops nothing
    floors.push_back(hi);        // drops everything
    for (int j = 0; j < 4; ++j) {
      floors.push_back(stream[rng.NextUint64(stream.size())].score);
    }
    floors.push_back(stream[std::min<size_t>(50, stream.size() - 1)].score);
    return floors;
  }

  void CheckSource(const TopKSource& source, uint64_t seed) {
    Rng rng(seed);
    for (int i = 0; i < 42; ++i) {
      const SpatialKeywordQuery q = RandomQuery(rng, i);
      const std::vector<ScoredObject> stream = Drain(source, q, kNoFloor);
      for (const double floor : Floors(rng, q, stream)) {
        SCOPED_TRACE(::testing::Message()
                     << "query " << i << " alpha " << q.alpha << " floor "
                     << floor);
        std::vector<ScoredObject> expected;
        for (const ScoredObject& o : stream) {
          if (floor == kNoFloor || o.score > floor) expected.push_back(o);
        }
        const std::vector<ScoredObject> floored = Drain(source, q, floor);
        ASSERT_EQ(floored.size(), expected.size());
        for (size_t e = 0; e < expected.size(); ++e) {
          ASSERT_EQ(floored[e].id, expected[e].id) << "position " << e;
          ASSERT_EQ(floored[e].score, expected[e].score) << "position " << e;
        }
        for (const int64_t limit : {int64_t{0}, int64_t{1},
                                    static_cast<int64_t>(
                                        2 + rng.NextUint64(40))}) {
          bool ref_exceeded = false;
          std::vector<ObjectId> ref_dominators;
          uint64_t ref_nodes = 0;
          const uint32_t ref_rank =
              ReferenceRank(source, q, floor, limit, &ref_exceeded,
                            &ref_dominators, &ref_nodes);
          bool exceeded = false;
          std::vector<ObjectId> dominators;
          uint64_t nodes = 0;
          const uint32_t rank =
              RankFromIndex(source, q, floor, limit, &exceeded, &dominators,
                            nullptr, nullptr, &nodes)
                  .value();
          EXPECT_EQ(rank, ref_rank) << "limit " << limit;
          EXPECT_EQ(exceeded, ref_exceeded) << "limit " << limit;
          EXPECT_EQ(dominators, ref_dominators) << "limit " << limit;
          EXPECT_LE(nodes, ref_nodes) << "limit " << limit;
        }
      }
    }
  }

  Dataset dataset_;
  IndexFile setr_file_{"floor_setr"};
  IndexFile kcr_file_{"floor_kcr"};
  IndexFile seg_a_file_{"floor_seg_a"};
  IndexFile seg_b_file_{"floor_seg_b"};
  std::unique_ptr<SetRTree> setr_;
  std::unique_ptr<KcrTree> kcr_;
  std::unique_ptr<SetRTree> seg_a_;
  std::unique_ptr<KcrTree> seg_b_;
  HiddenIds hidden_a_;
  HiddenIds hidden_b_;
  std::vector<SpatialObject> delta_;
  std::unique_ptr<MergedTopKSource> merged_;
};

TEST_F(FloorPropertyTest, SetRTree) { CheckSource(*setr_, 11); }

TEST_F(FloorPropertyTest, KcrTree) { CheckSource(*kcr_, 12); }

TEST_F(FloorPropertyTest, MergedSourceWithTombstones) {
  CheckSource(*merged_, 13);
}

// A floor below every score drops nothing: the traversal and all of its
// counters match the unfloored one exactly. A floor above the best score
// still examines (and counts) the objects of every leaf it opens.
TEST_F(FloorPropertyTest, CountersAccountForDroppedEntries) {
  Rng rng(14);
  for (const TopKSource* source :
       {static_cast<const TopKSource*>(setr_.get()),
        static_cast<const TopKSource*>(kcr_.get())}) {
    const SpatialKeywordQuery q = RandomQuery(rng, 1);
    TraceRecorder plain(0);
    TraceRecorder low(0);
    TraceRecorder high(0);
    const std::vector<ScoredObject> stream = Drain(*source, q, kNoFloor,
                                                   &plain);
    ASSERT_FALSE(stream.empty());
    Drain(*source, q, stream.back().score - 1.0, &low);
    for (size_t c = 0; c < kNumTraceCounters; ++c) {
      EXPECT_EQ(low.counter(static_cast<TraceCounter>(c)),
                plain.counter(static_cast<TraceCounter>(c)))
          << "counter " << c;
    }
    EXPECT_TRUE(Drain(*source, q, stream.front().score, &high).empty());
    EXPECT_GE(high.counter(TraceCounter::kNodesVisited), 1u);
    EXPECT_EQ(high.counter(TraceCounter::kNodesSeen),
              high.counter(TraceCounter::kNodesVisited) +
                  high.counter(TraceCounter::kNodesPruned));
    EXPECT_EQ(plain.counter(TraceCounter::kLeafObjectsScored),
              dataset_.size());
  }
}

}  // namespace
}  // namespace wsk
