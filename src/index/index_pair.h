// IndexPair: the SetR-tree and the KcR-tree over one object table, each in
// its own paged file with its own buffer pool (docs/STORAGE.md "Index
// files").
//
// The one owner of tree files: WhyNotEngine holds one over its dataset and
// every FrozenSegment holds one over its object table. Build creates both
// files, STR-packs both trees, optionally maps the finalized files
// read-only and attaches the borrowed node cache. Destruction erases both
// trees from that cache, closes both files and removes them.
#ifndef WSK_INDEX_INDEX_PAIR_H_
#define WSK_INDEX_INDEX_PAIR_H_

#include <memory>
#include <string>
#include <vector>

#include "common/status.h"
#include "data/dataset.h"
#include "index/kcr_tree.h"
#include "index/setr_tree.h"
#include "storage/buffer_pool.h"
#include "storage/io_stats.h"
#include "storage/node_cache.h"
#include "storage/pager.h"
#include "text/similarity.h"

namespace wsk {

class IndexPair {
 public:
  // The defaults suit sealed files: the compact v2 node format served from
  // a read-only mapping. WhyNotEngine::Config restates the paper's setup
  // (v1, buffered reads) so its physical-read counts keep the published
  // I/O accounting (docs/STORAGE.md "v2 node format & mmap").
  struct Options {
    std::string work_dir = "/tmp";  // both files land here
    uint32_t page_size = kDefaultPageSize;
    size_t buffer_bytes = 4u << 20;  // per tree file
    uint32_t node_capacity = 100;
    SimilarityModel model = SimilarityModel::kJaccard;
    uint8_t node_format = kNodeFormatV2;
    // Switch both pagers to mmap-backed reads once the build finalizes.
    // Falls back silently to buffered pread when the platform (or an empty
    // file) cannot map; the bytes read are the same.
    bool mmap_reads = true;
  };

  // Builds both trees over `objects` (ids preserved, need not be dense),
  // scoring with the pinned SDist normalizer `diagonal`. `node_cache`
  // (optional, borrowed) is attached to both trees and must outlive the
  // pair.
  static StatusOr<std::unique_ptr<IndexPair>> Build(
      const std::vector<SpatialObject>& objects, double diagonal,
      const Options& options, NodeCache* node_cache);

  ~IndexPair();
  IndexPair(const IndexPair&) = delete;
  IndexPair& operator=(const IndexPair&) = delete;

  const SetRTree& setr() const { return *setr_.tree; }
  const KcrTree& kcr() const { return *kcr_.tree; }
  const Pager& setr_pager() const { return *setr_.pager; }
  const Pager& kcr_pager() const { return *kcr_.pager; }
  IoStats& setr_io() const { return setr_.pager->io_stats(); }
  IoStats& kcr_io() const { return kcr_.pager->io_stats(); }

  // Both files' cumulative counters.
  BackendIoSnapshot io_snapshot() const {
    return BackendIoSnapshot(setr_io(), kcr_io());
  }

  // Drops both buffer pools' pages (cold-cache runs) and zeroes both
  // files' counters. Neither may race a query over the pair.
  Status InvalidatePools() const;
  void ResetIoStats() const;

 private:
  // One tree's file, pager, pool and tree; closed in that reverse order
  // before the file is removed.
  template <typename Tree>
  struct TreeFile {
    ~TreeFile();
    // Creates the file `kind` names under options.work_dir and packs the
    // tree into it.
    Status Build(const char* kind, const std::vector<SpatialObject>& objects,
                 double diagonal, const Options& options);

    std::string path;
    std::unique_ptr<Pager> pager;
    std::unique_ptr<BufferPool> pool;
    std::unique_ptr<Tree> tree;
  };

  IndexPair() = default;

  TreeFile<SetRTree> setr_;
  TreeFile<KcrTree> kcr_;
  NodeCache* node_cache_ = nullptr;
};

}  // namespace wsk

#endif  // WSK_INDEX_INDEX_PAIR_H_
