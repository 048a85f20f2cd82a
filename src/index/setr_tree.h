// SetR-tree: the disk-resident hybrid index of Section IV-B.
//
// A variant of the IR-tree. Leaf entries are (object, point, pks) where
// pks points at the object's keyword set; non-leaf entries are
// (child, mbr, pku, pki) where pku/pki point at the union / intersection of
// all keyword sets in the child's subtree. Theorem 1 turns those two sets
// into an upper bound on the ranking score of any object below a node,
// which drives best-first top-k search (TopKSource).
//
// Storage layout: node slots of `pages_per_node` consecutive 4 KiB pages;
// keyword payloads live in a BlobStore and are written adjacent to the node
// that references them ("stored sequentially on disk", Section IV-B). A
// metadata page (page 0) persists the tree header so an index file can be
// reopened.
#ifndef WSK_INDEX_SETR_TREE_H_
#define WSK_INDEX_SETR_TREE_H_

#include <memory>
#include <vector>

#include "common/geometry.h"
#include "common/status.h"
#include "data/dataset.h"
#include "data/query.h"
#include "index/topk.h"
#include "storage/blob_store.h"
#include "storage/buffer_pool.h"
#include "storage/node_cache.h"
#include "storage/node_codec_v2.h"
#include "text/keyword_set.h"
#include "text/similarity.h"

namespace wsk {

// Per-node layout facts for introspection (wsk_cli inspect).
struct NodeStat {
  bool is_leaf = true;
  uint32_t entries = 0;
  uint32_t record_bytes = 0;  // serialized bytes before page padding
  uint32_t record_pages = 0;  // pages the record occupies on disk
};

class SetRTree : public TopKSource {
 public:
  struct Options {
    uint32_t capacity = 100;  // max entries per node (Section VII-A1)
    SimilarityModel model = SimilarityModel::kJaccard;
    // Node format for newly built trees. v1 (default) is the fixed-slot
    // dynamic format (Insert/Remove supported, payloads in the blob
    // store); v2 is the compact static format (varint/delta-packed,
    // checksummed, payloads inline) — bulk-load only, immutable after
    // Finalize. Open() reads the format from the meta page, so either
    // kind of file reopens transparently.
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
    BlobRef union_set;  // pku
    BlobRef inter_set;  // pki
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

  // Builds the tree bottom-up with Sort-Tile-Recursive packing; the normal
  // path for the (static) experiment datasets. The buffer pool's pager must
  // be fresh (no pages allocated yet).
  static StatusOr<std::unique_ptr<SetRTree>> BulkLoad(
      const Dataset& dataset, BufferPool* pool, const Options& options);

  // STR-packs an explicit object list (ids are preserved as given, need not
  // be dense) with a pinned SDist normalizer — the segment build path,
  // where every tree of a live dataset must share one diagonal.
  static StatusOr<std::unique_ptr<SetRTree>> BulkLoadObjects(
      const std::vector<SpatialObject>& objects, double diagonal,
      BufferPool* pool, const Options& options);

  // An empty tree ready for Insert(); `diagonal` is the SDist normalizer.
  static StatusOr<std::unique_ptr<SetRTree>> CreateEmpty(
      BufferPool* pool, double diagonal, const Options& options);

  // Reopens a finalized index file.
  static StatusOr<std::unique_ptr<SetRTree>> Open(BufferPool* pool);

  // Dynamic insertion with Guttman quadratic splits; union/intersection
  // summaries along the root path are updated incrementally.
  Status Insert(const SpatialObject& object);

  // Removes the object (matched by id; `loc` guides the descent and must
  // equal the stored location). Ancestor summaries are recomputed; nodes
  // that empty out are unlinked (no re-insertion/min-fill enforcement —
  // lazy deletion, as is common for mostly-static workloads). Returns
  // NotFound if the object is not in the tree.
  Status Remove(ObjectId object, Point loc);

  // Flushes blobs, the metadata page, and all dirty buffers. Must be called
  // after building/inserting and before reading (or reopening).
  Status Finalize();

  // TopKSource:
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

  // A node decoded all the way down: structural entries plus every keyword
  // payload materialized from the blob store (object docs for leaves,
  // union/intersection summaries for inner nodes). Immutable once built —
  // the unit the NodeCache shares across queries.
  struct DecodedNode {
    Node node;
    std::vector<KeywordSet> leaf_docs;     // leaves: per-entry doc
    std::vector<KeywordSet> child_union;   // inner: per-entry pku
    std::vector<KeywordSet> child_inter;   // inner: per-entry pki
    size_t memory_bytes = 0;               // cache charge estimate
  };

  // Attaches a shared decoded-node cache (not owned). Call after bulk load;
  // pass nullptr to detach.
  void AttachNodeCache(NodeCache* cache);

  // This tree's key namespace in the attached cache (0 = never attached).
  // Segment retirement uses it to drop the tree's entries (EraseTree).
  uint32_t cache_tree_id() const { return cache_tree_id_; }

  // Reads a fully materialized node, through the cache when attached and
  // `use_cache` is true; with `use_cache` false the read is byte-identical
  // to the uncached path (no lookup/insert/counters).
  StatusOr<std::shared_ptr<const DecodedNode>> ReadDecodedNode(
      PageId page, bool use_cache = true) const;

  double diagonal() const { return diagonal_; }
  uint32_t height() const { return height_; }  // 0 = empty, 1 = leaf root
  uint64_t num_objects() const { return num_objects_; }
  uint32_t pages_per_node() const { return pages_per_node_; }
  const Options& options() const { return options_; }

  // Introspection (tests and the why-not algorithms). For v2 trees the
  // returned entries carry empty BlobRefs — payloads are inline; use
  // ReadDecodedNode for them.
  StatusOr<Node> ReadNode(PageId page) const;
  StatusOr<KeywordSet> ReadKeywordSet(const BlobRef& ref) const;

  // Layout facts of one node without materializing payloads.
  StatusOr<NodeStat> StatNode(PageId page) const;

 private:
  SetRTree(BufferPool* pool, const Options& options, double diagonal);

  // Summary of a subtree as seen from its parent entry.
  struct Summary {
    Rect mbr;
    KeywordSet uni;
    KeywordSet inter;
  };

  // Result of inserting into a child subtree.
  struct ChildUpdate {
    Summary updated;  // new summary of the original child
    bool split = false;
    PageId new_child = kInvalidPageId;
    Summary sibling;  // summary of the split-off sibling
  };

  PageId AllocateNodeSlot();
  StatusOr<std::shared_ptr<const DecodedNode>> MaterializeNode(
      PageId page) const;
  StatusOr<std::shared_ptr<const DecodedNode>> MaterializeNodeV2(
      PageId page) const;
  // v2 write path: encodes the node with its keyword payloads inline
  // (leaves: `primary` = per-entry docs; inner: `primary` = unions,
  // `secondary` = intersections) and appends it to fresh pages.
  StatusOr<PageId> AppendNodeV2(const Node& node,
                                const std::vector<const KeywordSet*>& primary,
                                const std::vector<const KeywordSet*>& secondary,
                                bool children_are_leaves);
  Status WriteNode(PageId page, const Node& node);
  StatusOr<BlobRef> WriteKeywordSet(const KeywordSet& set);
  Status WriteMeta();
  Status ReadMeta();

  // Recomputes a node's summary by reading its entry payloads.
  StatusOr<Summary> ComputeSummary(const Node& node) const;

  Status InsertInto(PageId page, uint32_t level, const SpatialObject& object,
                    BlobRef keywords_ref, ChildUpdate* out);

  // Result of removing from a subtree: whether the object was found there
  // and the subtree's new state.
  struct RemoveUpdate {
    bool found = false;
    bool now_empty = false;
    Summary updated;  // valid when found && !now_empty
  };
  Status RemoveFrom(PageId page, uint32_t level, ObjectId object, Point loc,
                    RemoveUpdate* out);

  // Splits `node` (which has exactly capacity+1 entries) in place, moving
  // part of the entries into `*sibling` (Guttman quadratic split).
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
};

}  // namespace wsk

#endif  // WSK_INDEX_SETR_TREE_H_
