#include "index/index_pair.h"

#include <atomic>
#include <cstdio>

#include <unistd.h>

namespace wsk {

namespace {

std::string UniqueIndexPath(const std::string& work_dir, const char* kind) {
  static std::atomic<uint64_t> counter{0};
  const uint64_t id = counter.fetch_add(1);
  return work_dir + "/wsk_" + std::to_string(getpid()) + "_" +
         std::to_string(id) + "_" + kind + ".idx";
}

}  // namespace

template <typename Tree>
IndexPair::TreeFile<Tree>::~TreeFile() {
  tree.reset();
  pool.reset();
  pager.reset();
  if (!path.empty()) std::remove(path.c_str());
}

template <typename Tree>
Status IndexPair::TreeFile<Tree>::Build(
    const char* kind, const std::vector<SpatialObject>& objects,
    double diagonal, const Options& options) {
  path = UniqueIndexPath(options.work_dir, kind);
  StatusOr<std::unique_ptr<Pager>> created =
      Pager::Create(path, options.page_size);
  if (!created.ok()) return created.status();
  pager = std::move(created).value();
  pool = std::make_unique<BufferPool>(pager.get(), options.buffer_bytes);
  typename Tree::Options tree_options;
  tree_options.capacity = options.node_capacity;
  tree_options.model = options.model;
  tree_options.format = options.node_format;
  StatusOr<std::unique_ptr<Tree>> built =
      Tree::BulkLoadObjects(objects, diagonal, pool.get(), tree_options);
  if (!built.ok()) return built.status();
  tree = std::move(built).value();
  return Status::Ok();
}

StatusOr<std::unique_ptr<IndexPair>> IndexPair::Build(
    const std::vector<SpatialObject>& objects, double diagonal,
    const Options& options, NodeCache* node_cache) {
  std::unique_ptr<IndexPair> pair(new IndexPair());
  WSK_RETURN_IF_ERROR(pair->setr_.Build("setr", objects, diagonal, options));
  WSK_RETURN_IF_ERROR(pair->kcr_.Build("kcr", objects, diagonal, options));
  if (options.mmap_reads) {
    // Map only once both files are written: mapping the first (with its
    // readahead hint) while the second was still being built made
    // perfbench live-sharded's setup about 25% slower on a 4-vCPU host.
    // A non-OK result keeps the buffered pread path (same bytes, more
    // copies).
    (void)pair->setr_.pager->EnableMappedReads();
    (void)pair->kcr_.pager->EnableMappedReads();
  }
  if (node_cache != nullptr) {
    pair->node_cache_ = node_cache;
    pair->setr_.tree->AttachNodeCache(node_cache);
    pair->kcr_.tree->AttachNodeCache(node_cache);
  }
  return pair;
}

IndexPair::~IndexPair() {
  // Tree ids are never reused, so no later tree can collide with these.
  if (node_cache_ != nullptr) {
    node_cache_->EraseTree(setr_.tree->cache_tree_id());
    node_cache_->EraseTree(kcr_.tree->cache_tree_id());
  }
}

Status IndexPair::InvalidatePools() const {
  WSK_RETURN_IF_ERROR(setr_.pool->InvalidateAll());
  return kcr_.pool->InvalidateAll();
}

void IndexPair::ResetIoStats() const {
  setr_io().Reset();
  kcr_io().Reset();
}

}  // namespace wsk
