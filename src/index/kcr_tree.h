// KcR-tree: the Keyword-count R-tree of Section V-A.
//
// An R-tree whose non-leaf entries carry, besides the child MBR, the number
// of objects in the child's subtree (cnt) and a pointer to its keyword-count
// map (pcm). Those summaries let the bound-and-prune algorithm estimate,
// for a candidate keyword set, how many objects under a node dominate the
// missing object (MaxDom / MinDom, see dom_bounds.h) without unfolding it.
//
// The storage scheme mirrors the SetR-tree: fixed node slots plus a blob
// store for the maps; the metadata page additionally records the root's own
// cnt / MBR / kcm so a traversal can bound the whole tree before the first
// node access (Algorithm 3, lines 2-6).
#ifndef WSK_INDEX_KCR_TREE_H_
#define WSK_INDEX_KCR_TREE_H_

#include <memory>
#include <vector>

#include "common/geometry.h"
#include "common/status.h"
#include "data/dataset.h"
#include "data/query.h"
#include "index/dom_bounds.h"
#include "index/keyword_count_map.h"
#include "index/topk.h"
#include "index/setr_tree.h"  // NodeStat
#include "storage/blob_store.h"
#include "storage/buffer_pool.h"
#include "storage/node_cache.h"
#include "storage/node_codec_v2.h"
#include "text/similarity.h"

namespace wsk {

class KcrTree : public TopKSource {
 public:
  struct Options {
    uint32_t capacity = 100;
    SimilarityModel model = SimilarityModel::kJaccard;
    // Node format for newly built trees; see SetRTree::Options::format.
    // v2 is bulk-load only and immutable; Open() detects the format from
    // the meta page. The root kcm stays a blob in both formats.
    uint8_t format = kNodeFormatV1;
  };

  struct LeafEntry {
    ObjectId object = kInvalidObjectId;
    Point loc;
    BlobRef keywords;  // pks
  };

  struct InnerEntry {
    PageId child = kInvalidPageId;
    Rect mbr;
    uint32_t cnt = 0;  // objects in the child's subtree
    BlobRef kcm;       // pcm
  };

  struct Node {
    bool is_leaf = true;
    std::vector<LeafEntry> leaf_entries;
    std::vector<InnerEntry> inner_entries;

    size_t size() const {
      return is_leaf ? leaf_entries.size() : inner_entries.size();
    }
    Rect ComputeMbr() const;
  };

  static StatusOr<std::unique_ptr<KcrTree>> BulkLoad(
      const Dataset& dataset, BufferPool* pool, const Options& options);
  // Explicit object list + pinned diagonal (segment build path); ids are
  // preserved as given and need not be dense.
  static StatusOr<std::unique_ptr<KcrTree>> BulkLoadObjects(
      const std::vector<SpatialObject>& objects, double diagonal,
      BufferPool* pool, const Options& options);
  static StatusOr<std::unique_ptr<KcrTree>> CreateEmpty(
      BufferPool* pool, double diagonal, const Options& options);
  static StatusOr<std::unique_ptr<KcrTree>> Open(BufferPool* pool);

  Status Insert(const SpatialObject& object);

  // Removes the object (matched by id; `loc` guides the descent). Ancestor
  // counts and keyword-count maps are recomputed; emptied nodes are
  // unlinked (lazy deletion, no min-fill enforcement). Returns NotFound if
  // the object is absent.
  Status Remove(ObjectId object, Point loc);

  Status Finalize();

  // TopKSource (used to determine R(m, q), Algorithm 4 line 1):
  PageId SearchRoot() const override;
  // Leaves go through the shared floor-aware ScoreLeaf (leaf_scorer.h).
  Status ExpandNode(PageId node, const SpatialKeywordQuery& query,
                    double floor, bool use_cache,
                    std::vector<SearchEntry>* out,
                    uint64_t* objects_scored) const override;
  // One decode + one footprint per object for the whole batch; bit-exact
  // per-query entries (docs/BATCHING.md).
  Status ExpandNodeBatch(PageId node,
                         const SpatialKeywordQuery* const* queries,
                         std::vector<SearchEntry>* const* outs, size_t count,
                         bool use_cache) const override;

  // A node decoded all the way down: the structural entries plus every
  // entry payload materialized from the blob store, and the
  // query-independent dominator statistics precomputed per child. Immutable
  // once built — this is the unit the NodeCache shares across queries.
  struct DecodedNode {
    Node node;
    // Leaf nodes: decoded keyword set per leaf entry (same index).
    std::vector<KeywordSet> leaf_docs;
    // Inner nodes: decoded count map + suffix-histogram stats per child
    // (same index). child_stats[i] points into child_kcms[i], which is why
    // both live together inside one shared, immutable allocation.
    std::vector<KeywordCountMap> child_kcms;
    std::vector<NodeDomStats> child_stats;
    size_t memory_bytes = 0;  // cache charge estimate
  };

  // Attaches a shared decoded-node cache (not owned). Call after bulk load;
  // the tree registers itself under a fresh cache tree-id. Pass nullptr to
  // detach.
  void AttachNodeCache(NodeCache* cache);

  // This tree's key namespace in the attached cache (0 = never attached).
  // Segment retirement uses it to drop the tree's entries (EraseTree).
  uint32_t cache_tree_id() const { return cache_tree_id_; }

  // Reads a fully materialized node, through the cache when one is attached
  // and `use_cache` is true. With `use_cache` false the read behaves
  // exactly like the uncached path (no lookup, no insert, no counters), so
  // differential runs can replay both paths.
  StatusOr<std::shared_ptr<const DecodedNode>> ReadDecodedNode(
      PageId page, bool use_cache = true) const;

  double diagonal() const { return diagonal_; }
  uint32_t height() const { return height_; }
  uint64_t num_objects() const { return num_objects_; }
  uint32_t pages_per_node() const { return pages_per_node_; }
  const Options& options() const { return options_; }

  // Root summary for Algorithm 3's initial bounds.
  const Rect& root_mbr() const { return root_mbr_; }
  uint32_t root_cnt() const { return root_cnt_; }
  StatusOr<KeywordCountMap> ReadRootKcm() const;

  // For v2 trees the returned entries carry empty BlobRefs — payloads are
  // inline; use ReadDecodedNode for them.
  StatusOr<Node> ReadNode(PageId page) const;
  StatusOr<KeywordSet> ReadKeywordSet(const BlobRef& ref) const;
  StatusOr<KeywordCountMap> ReadKcm(const BlobRef& ref) const;

  // Layout facts of one node without materializing payloads.
  StatusOr<NodeStat> StatNode(PageId page) const;

 private:
  KcrTree(BufferPool* pool, const Options& options, double diagonal);

  struct Summary {
    Rect mbr;
    KeywordCountMap kcm;
    uint32_t cnt = 0;
  };

  struct ChildUpdate {
    Summary updated;
    bool split = false;
    PageId new_child = kInvalidPageId;
    Summary sibling;
  };

  PageId AllocateNodeSlot();
  StatusOr<std::shared_ptr<const DecodedNode>> MaterializeNode(
      PageId page) const;
  StatusOr<std::shared_ptr<const DecodedNode>> MaterializeNodeV2(
      PageId page) const;
  // v2 write path: encodes the node with its payloads inline (leaves:
  // per-entry docs; inner: per-entry count maps) and appends it to fresh
  // pages.
  StatusOr<PageId> AppendNodeV2(
      const Node& node, const std::vector<const KeywordSet*>& docs,
      const std::vector<const KeywordCountMap*>& kcms,
      bool children_are_leaves);
  Status WriteNode(PageId page, const Node& node);
  StatusOr<BlobRef> WriteKeywordSet(const KeywordSet& set);
  StatusOr<BlobRef> WriteKcm(const KeywordCountMap& map);
  Status WriteMeta();
  Status ReadMeta();

  StatusOr<Summary> ComputeSummary(const Node& node) const;
  Status InsertInto(PageId page, uint32_t level, const SpatialObject& object,
                    BlobRef keywords_ref, ChildUpdate* out);

  struct RemoveUpdate {
    bool found = false;
    bool now_empty = false;
    Summary updated;
  };
  Status RemoveFrom(PageId page, uint32_t level, ObjectId object, Point loc,
                    RemoveUpdate* out);
  void QuadraticSplit(Node* node, Node* sibling) const;

  BufferPool* const pool_;
  NodeCache* cache_ = nullptr;  // not owned; see AttachNodeCache
  uint32_t cache_tree_id_ = 0;
  mutable BlobStore blobs_;
  // First-touch body-checksum ledger for v2 records (v2 trees are
  // immutable, so one clean verification per record is enough).
  mutable ChecksumLedger checksum_ledger_;
  Options options_;
  uint32_t pages_per_node_ = 0;
  PageId meta_page_ = kInvalidPageId;
  PageId root_ = kInvalidPageId;
  uint32_t height_ = 0;
  uint64_t num_objects_ = 0;
  double diagonal_ = 1.0;
  Rect root_mbr_;
  uint32_t root_cnt_ = 0;
  BlobRef root_kcm_;
};

}  // namespace wsk

#endif  // WSK_INDEX_KCR_TREE_H_
