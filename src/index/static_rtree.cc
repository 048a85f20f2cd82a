#include "index/static_rtree.h"

#include <algorithm>
#include <string>

#include "index/kcr_tree.h"
#include "index/leaf_scorer.h"
#include "index/setr_tree.h"
#include "index/str_pack.h"

namespace wsk {

void PutKeywordSetV2(std::vector<uint8_t>* body, const KeywordSet& set) {
  const std::vector<TermId>& terms = set.terms();
  PutVarint(body, terms.size());
  PutDeltaU32s(body, terms.data(), terms.size());
}

bool GetKeywordSetV2(CheckedReader* reader, KeywordSet* out) {
  uint32_t count = 0;
  if (!reader->GetVarint32(&count)) return false;
  std::vector<TermId> terms;
  // A corrupt count can be huge; the per-term varints are at least one
  // byte each, so cap the reservation by what could possibly be present.
  terms.reserve(std::min<size_t>(count, reader->remaining()));
  if (!reader->GetDeltaU32s(count, &terms)) return false;
  *out = KeywordSet::FromSorted(std::move(terms));
  return true;
}

namespace {

// v1 slot layout: kind u8 + pad[3] + count u32, then fixed-width entries.
constexpr size_t kHeaderBytes = 8;
constexpr size_t kLeafEntryBytes = 4 + 16 + BlobRef::kSerializedSize;  // 32

template <typename Payload>
constexpr size_t kInnerEntryBytes = 4 + 32 + Payload::kRefBytes;

template <typename Payload>
size_t NodeBytes(uint32_t capacity) {
  return kHeaderBytes +
         static_cast<size_t>(capacity) *
             std::max(kLeafEntryBytes, kInnerEntryBytes<Payload>);
}

template <typename Payload>
void SerializeNode(const typename StaticRTree<Payload>::Node& node,
                   std::vector<uint8_t>* out) {
  ByteWriter writer(out);
  writer.PutU8(node.is_leaf ? 0 : 1);
  writer.PutU8(0);
  writer.PutU8(0);
  writer.PutU8(0);
  writer.PutU32(static_cast<uint32_t>(node.size()));
  uint8_t ref[BlobRef::kSerializedSize];
  for (const RTreeLeafEntry& e : node.leaf_entries) {
    writer.PutU32(e.object);
    writer.PutDouble(e.loc.x);
    writer.PutDouble(e.loc.y);
    e.keywords.Serialize(ref);
    writer.PutBytes(ref, sizeof(ref));
  }
  for (const auto& e : node.inner_entries) {
    writer.PutU32(e.child);
    writer.PutRect(e.mbr);
    Payload::PutRef(&writer, e);
  }
}

// Validates the header before decoding: a corrupted kind byte or entry
// count must surface as Corruption, not as a decode overrun. Parses in
// place over whatever span the caller holds (typically a zero-copy
// NodeView over the pinned page).
template <typename Payload>
StatusOr<typename StaticRTree<Payload>::Node> DeserializeNode(
    PageId page, const uint8_t* data, size_t size) {
  ByteReader reader(data, size);
  typename StaticRTree<Payload>::Node node;
  const uint8_t kind = reader.GetU8();
  if (kind > 1) {
    return Status::Corruption("node " + std::to_string(page) +
                              ": unknown node kind");
  }
  node.is_leaf = kind == 0;
  reader.GetU8();
  reader.GetU8();
  reader.GetU8();
  const uint32_t count = reader.GetU32();
  const size_t entry_bytes =
      node.is_leaf ? kLeafEntryBytes : kInnerEntryBytes<Payload>;
  if (count > (size - kHeaderBytes) / entry_bytes) {
    return Status::Corruption("node " + std::to_string(page) +
                              ": entry count overflows the node");
  }
  if (node.is_leaf) {
    node.leaf_entries.reserve(count);
    for (uint32_t i = 0; i < count; ++i) {
      RTreeLeafEntry e;
      e.object = reader.GetU32();
      e.loc.x = reader.GetDouble();
      e.loc.y = reader.GetDouble();
      e.keywords =
          BlobRef::Deserialize(reader.GetBytes(BlobRef::kSerializedSize));
      node.leaf_entries.push_back(e);
    }
  } else {
    node.inner_entries.reserve(count);
    for (uint32_t i = 0; i < count; ++i) {
      typename StaticRTree<Payload>::InnerEntry e;
      e.child = reader.GetU32();
      e.mbr = reader.GetRect();
      Payload::GetRef(&reader, &e);
      node.inner_entries.push_back(e);
    }
  }
  return node;
}

// Digest of a decoded node's contents, used by the cache's no-mutation
// check (debug builds / sanitizer tests).
template <typename Payload>
uint64_t FingerprintDecodedNode(const void* value) {
  const auto* decoded =
      static_cast<const typename StaticRTree<Payload>::DecodedNode*>(value);
  const auto& node = decoded->node;
  FingerprintHasher hasher;
  hasher.MixU64(node.is_leaf ? 1 : 0);
  hasher.MixU64(node.size());
  for (size_t i = 0; i < node.leaf_entries.size(); ++i) {
    const RTreeLeafEntry& e = node.leaf_entries[i];
    hasher.MixU64(e.object);
    hasher.Mix(&e.loc, sizeof(e.loc));
    const std::vector<TermId>& terms = decoded->leaf_docs[i].terms();
    hasher.Mix(terms.data(), terms.size() * sizeof(TermId));
  }
  for (size_t i = 0; i < node.inner_entries.size(); ++i) {
    const auto& e = node.inner_entries[i];
    hasher.MixU64(e.child);
    hasher.Mix(&e.mbr, sizeof(e.mbr));
    Payload::Mix(&hasher, e, *decoded, i);
  }
  return hasher.digest();
}

Point Center(const Rect& r) {
  return Point{(r.min_x + r.max_x) / 2, (r.min_y + r.max_y) / 2};
}

}  // namespace

template <typename Payload>
StaticRTree<Payload>::StaticRTree(BufferPool* pool, const Options& options,
                                  double diagonal)
    : pool_(pool), blobs_(pool), options_(options), diagonal_(diagonal) {
  const uint32_t page_size = pool->pager()->page_size();
  pages_per_node_ = static_cast<uint32_t>(
      (NodeBytes<Payload>(options.capacity) + page_size - 1) / page_size);
}

template <typename Payload>
StatusOr<std::unique_ptr<StaticRTree<Payload>>> StaticRTree<Payload>::BulkLoad(
    const Dataset& dataset, BufferPool* pool, const Options& options) {
  return BulkLoadObjects(dataset.objects(), dataset.diagonal(), pool, options);
}

template <typename Payload>
StatusOr<std::unique_ptr<StaticRTree<Payload>>>
StaticRTree<Payload>::BulkLoadObjects(const std::vector<SpatialObject>& objects,
                                      double diagonal, BufferPool* pool,
                                      const Options& options) {
  if (options.capacity < 2) {
    return Status::InvalidArgument("node capacity must be at least 2");
  }
  if (options.format != kNodeFormatV1 && options.format != kNodeFormatV2) {
    return Status::InvalidArgument("unknown node format");
  }
  if (options.format == kNodeFormatV2 &&
      options.capacity > kMaxNodeCountV2) {
    return Status::InvalidArgument("v2 node capacity exceeds u16");
  }
  if (pool->pager()->num_pages() != 0) {
    return Status::FailedPrecondition(std::string(Payload::kName) +
                                      " bulk load requires a fresh pager file");
  }
  if (diagonal <= 0.0) {
    return Status::InvalidArgument("diagonal must be positive");
  }
  std::unique_ptr<StaticRTree> tree(new StaticRTree(pool, options, diagonal));
  pool->pager()->AllocatePages(1);  // the meta page
  WSK_RETURN_IF_ERROR(tree->WriteMeta());
  if (objects.empty()) {
    WSK_RETURN_IF_ERROR(tree->Finalize());
    return tree;
  }

  // Level summaries carried up between rounds of STR packing.
  struct Pending {
    PageId page;
    Rect mbr;
    Summary summary;
  };
  const bool v2 = options.format == kNodeFormatV2;

  // --- Leaf level ---
  std::vector<Point> centers;
  centers.reserve(objects.size());
  for (const SpatialObject& o : objects) centers.push_back(o.loc);
  std::vector<std::vector<uint32_t>> groups =
      StrPack(centers, options.capacity);
  std::vector<Pending> level;
  level.reserve(groups.size());
  for (const std::vector<uint32_t>& group : groups) {
    Node node;
    Pending pending;
    std::vector<const KeywordSet*> docs;  // v2: payloads inline in the node
    for (uint32_t idx : group) {
      const SpatialObject& o = objects[idx];
      LeafEntry e{o.id, o.loc, BlobRef{}};
      if (v2) {
        docs.push_back(&o.doc);
      } else {
        StatusOr<BlobRef> written = WriteBlob(&tree->blobs_, o.doc);
        if (!written.ok()) return written.status();
        e.keywords = written.value();
      }
      node.leaf_entries.push_back(e);
      pending.mbr.Extend(o.loc);
      pending.summary.AddDoc(o.doc);
    }
    StatusOr<PageId> page = tree->WriteNewNode(node, docs, {}, false);
    if (!page.ok()) return page.status();
    pending.page = page.value();
    level.push_back(std::move(pending));
  }
  tree->height_ = 1;
  tree->num_objects_ = objects.size();

  // --- Upper levels ---
  bool children_are_leaves = true;
  while (level.size() > 1) {
    centers.clear();
    for (const Pending& p : level) centers.push_back(Center(p.mbr));
    groups = StrPack(centers, options.capacity);
    std::vector<Pending> next;
    next.reserve(groups.size());
    for (const std::vector<uint32_t>& group : groups) {
      Node node;
      node.is_leaf = false;
      Pending pending;
      std::vector<const Summary*> children;  // v2: payloads inline
      for (uint32_t idx : group) {
        const Pending& child = level[idx];
        InnerEntry e;
        if (v2) {
          children.push_back(&child.summary);
        } else {
          StatusOr<typename Payload::Ref> ref =
              Payload::WriteRef(&tree->blobs_, child.summary);
          if (!ref.ok()) return ref.status();
          static_cast<typename Payload::Ref&>(e) = ref.value();
        }
        e.child = child.page;
        e.mbr = child.mbr;
        node.inner_entries.push_back(e);
        pending.mbr.Extend(child.mbr);
        pending.summary.AddChild(child.summary);
      }
      StatusOr<PageId> page =
          tree->WriteNewNode(node, {}, children, children_are_leaves);
      if (!page.ok()) return page.status();
      pending.page = page.value();
      next.push_back(std::move(pending));
    }
    level = std::move(next);
    children_are_leaves = false;
    ++tree->height_;
  }
  tree->root_ = level.front().page;
  WSK_RETURN_IF_ERROR(Payload::SetRoot(&tree->blobs_, level.front().mbr,
                                       level.front().summary, &tree->meta_));
  WSK_RETURN_IF_ERROR(tree->Finalize());
  return tree;
}

template <typename Payload>
StatusOr<std::unique_ptr<StaticRTree<Payload>>> StaticRTree<Payload>::Open(
    BufferPool* pool) {
  std::unique_ptr<StaticRTree> tree(new StaticRTree(pool, Options{}, 1.0));
  WSK_RETURN_IF_ERROR(tree->ReadMeta());
  return tree;
}

template <typename Payload>
StatusOr<PageId> StaticRTree<Payload>::WriteNewNode(
    const Node& node, const std::vector<const KeywordSet*>& docs,
    const std::vector<const Summary*>& children, bool children_are_leaves) {
  std::vector<uint8_t> bytes;
  if (options_.format == kNodeFormatV2) {
    ByteWriter writer(&bytes);
    for (size_t i = 0; i < node.leaf_entries.size(); ++i) {
      const LeafEntry& e = node.leaf_entries[i];
      PutVarint(&bytes, e.object);
      writer.PutDouble(e.loc.x);
      writer.PutDouble(e.loc.y);
      PutKeywordSetV2(&bytes, *docs[i]);
    }
    for (size_t i = 0; i < node.inner_entries.size(); ++i) {
      const InnerEntry& e = node.inner_entries[i];
      PutVarint(&bytes, MakeChildRef(e.child, children_are_leaves));
      writer.PutRect(e.mbr);
      Payload::PutInline(&bytes, *children[i]);
    }
    return AppendNodeRecordV2(pool_, node.is_leaf,
                              static_cast<uint32_t>(node.size()), bytes);
  }
  const PageId page = pool_->pager()->AllocatePages(pages_per_node_);
  SerializeNode<Payload>(node, &bytes);
  bytes.resize(
      static_cast<size_t>(pages_per_node_) * pool_->pager()->page_size(), 0);
  WSK_RETURN_IF_ERROR(
      WriteNodeBytes(pool_, page, pages_per_node_, bytes.data()));
  return page;
}

template <typename Payload>
StatusOr<std::shared_ptr<const typename StaticRTree<Payload>::DecodedNode>>
StaticRTree<Payload>::MaterializeV1(PageId page) const {
  auto decoded = std::make_shared<DecodedNode>();
  {
    StatusOr<NodeView> view = NodeView::Read(pool_, page, pages_per_node_);
    if (!view.ok()) return view.status();
    StatusOr<Node> node = DeserializeNode<Payload>(page, view.value().data(),
                                                   view.value().size());
    if (!node.ok()) return node.status();
    decoded->node = std::move(node).value();
  }  // drop the page pin before the blob reads below
  const Node& node = decoded->node;
  size_t bytes = sizeof(DecodedNode) + node.leaf_entries.size() *
                                           sizeof(LeafEntry) +
                 node.inner_entries.size() * sizeof(InnerEntry);
  decoded->leaf_docs.reserve(node.leaf_entries.size());
  for (const LeafEntry& e : node.leaf_entries) {
    StatusOr<KeywordSet> doc = ReadBlob<KeywordSet>(e.keywords);
    if (!doc.ok()) return doc.status();
    bytes += sizeof(KeywordSet) + doc.value().SerializedSize();
    decoded->leaf_docs.push_back(std::move(doc).value());
  }
  if (!node.is_leaf) {
    decoded->reserve(node.inner_entries.size());
    for (const InnerEntry& e : node.inner_entries) {
      StatusOr<size_t> read = Payload::ReadRef(blobs_, e, decoded.get());
      if (!read.ok()) return read.status();
      bytes += read.value();
    }
    bytes += Payload::Finish(node.inner_entries, decoded.get());
  }
  decoded->memory_bytes = bytes;
  return StatusOr<std::shared_ptr<const DecodedNode>>(std::move(decoded));
}

template <typename Payload>
StatusOr<std::shared_ptr<const typename StaticRTree<Payload>::DecodedNode>>
StaticRTree<Payload>::MaterializeV2(PageId page) const {
  StatusOr<NodeRecordV2> record =
      ReadNodeRecordV2(pool_, page, &checksum_ledger_);
  if (!record.ok()) return record.status();
  const NodeRecordV2& rec = record.value();
  auto corrupt = [page](const char* what) {
    return Status::Corruption("v2 node at page " + std::to_string(page) +
                              ": " + what);
  };
  auto decoded = std::make_shared<DecodedNode>();
  Node& node = decoded->node;
  node.is_leaf = rec.is_leaf();
  CheckedReader reader(rec.body(), rec.body_bytes());
  size_t bytes = sizeof(DecodedNode);
  if (rec.is_leaf()) {
    node.leaf_entries.reserve(rec.count());
    decoded->leaf_docs.reserve(rec.count());
    for (uint32_t i = 0; i < rec.count(); ++i) {
      LeafEntry e;
      uint64_t object = 0;
      if (!reader.GetVarint(&object) || object > 0xffffffffull) {
        return corrupt("bad object id");
      }
      e.object = static_cast<ObjectId>(object);
      if (!reader.GetDouble(&e.loc.x) || !reader.GetDouble(&e.loc.y)) {
        return corrupt("truncated leaf entry");
      }
      KeywordSet doc;
      if (!GetKeywordSetV2(&reader, &doc)) {
        return corrupt("malformed leaf keyword set");
      }
      bytes += sizeof(LeafEntry) + sizeof(KeywordSet) + doc.SerializedSize();
      node.leaf_entries.push_back(e);
      decoded->leaf_docs.push_back(std::move(doc));
    }
  } else {
    const PageId num_pages = pool_->pager()->num_pages();
    node.inner_entries.reserve(rec.count());
    decoded->reserve(rec.count());
    for (uint32_t i = 0; i < rec.count(); ++i) {
      InnerEntry e;
      uint64_t ref = 0;
      if (!reader.GetVarint(&ref)) return corrupt("bad child reference");
      const PageId child = ChildRefPage(ref);
      // Page 0 is the meta page; a child there or past the file is a
      // corrupted reference, caught before anyone tries to follow it.
      if (child == 0 || child >= num_pages || (ref >> 1) > 0xffffffffull) {
        return corrupt("child reference out of range");
      }
      e.child = child;
      if (!reader.GetRect(&e.mbr)) return corrupt("truncated inner entry");
      if (const char* error =
              Payload::GetInline(&reader, &e, decoded.get(), &bytes)) {
        return corrupt(error);
      }
      bytes += sizeof(InnerEntry);
      node.inner_entries.push_back(e);
    }
    bytes += Payload::Finish(node.inner_entries, decoded.get());
  }
  if (reader.remaining() != 0) {
    return corrupt("trailing bytes after the last entry");
  }
  decoded->memory_bytes = bytes;
  return StatusOr<std::shared_ptr<const DecodedNode>>(std::move(decoded));
}

template <typename Payload>
StatusOr<typename StaticRTree<Payload>::Node> StaticRTree<Payload>::ReadNode(
    PageId page) const {
  if (options_.format == kNodeFormatV2) {
    StatusOr<std::shared_ptr<const DecodedNode>> decoded = MaterializeV2(page);
    if (!decoded.ok()) return decoded.status();
    return decoded.value()->node;
  }
  StatusOr<NodeView> view = NodeView::Read(pool_, page, pages_per_node_);
  if (!view.ok()) return view.status();
  return DeserializeNode<Payload>(page, view.value().data(),
                                  view.value().size());
}

template <typename Payload>
StatusOr<NodeStat> StaticRTree<Payload>::StatNode(PageId page) const {
  NodeStat stat;
  if (options_.format == kNodeFormatV2) {
    StatusOr<NodeRecordV2> record =
        ReadNodeRecordV2(pool_, page, &checksum_ledger_);
    if (!record.ok()) return record.status();
    stat.is_leaf = record.value().is_leaf();
    stat.entries = record.value().count();
    stat.record_bytes = kNodeHeaderBytesV2 + record.value().body_bytes();
    stat.record_pages = record.value().pages();
    return stat;
  }
  StatusOr<Node> node = ReadNode(page);
  if (!node.ok()) return node.status();
  stat.is_leaf = node.value().is_leaf;
  stat.entries = static_cast<uint32_t>(node.value().size());
  stat.record_bytes = static_cast<uint32_t>(
      kHeaderBytes +
      node.value().size() *
          (stat.is_leaf ? kLeafEntryBytes : kInnerEntryBytes<Payload>));
  stat.record_pages = pages_per_node_;
  return stat;
}

template <typename Payload>
void StaticRTree<Payload>::AttachNodeCache(NodeCache* cache) {
  cache_ = cache;
  if (cache != nullptr && cache_tree_id_ == 0) {
    cache_tree_id_ = NodeCache::NextTreeId();
  }
}

template <typename Payload>
StatusOr<std::shared_ptr<const typename StaticRTree<Payload>::DecodedNode>>
StaticRTree<Payload>::ReadDecodedNode(PageId page, bool use_cache) const {
  NodeCache* cache = use_cache ? cache_ : nullptr;
  if (cache != nullptr) {
    std::shared_ptr<const DecodedNode> hit =
        cache->LookupAs<DecodedNode>(cache_tree_id_, page);
    IoStats& io = pool_->pager()->io_stats();
    if (hit != nullptr) {
      io.RecordNodeCacheHit();
      return StatusOr<std::shared_ptr<const DecodedNode>>(std::move(hit));
    }
    io.RecordNodeCacheMiss();
  }
  StatusOr<std::shared_ptr<const DecodedNode>> decoded =
      options_.format == kNodeFormatV2 ? MaterializeV2(page)
                                       : MaterializeV1(page);
  if (!decoded.ok()) return decoded.status();
  if (cache != nullptr) {
    // Mapped leaves re-decode straight from the OS page cache with no
    // buffer-pool traffic, so caching them would only evict inner-node
    // skeletons that are worth far more per byte. Keep inner nodes.
    const bool cheap_to_redecode =
        decoded.value()->node.is_leaf && pool_->pager()->mapped();
    if (!cheap_to_redecode) {
      cache->Insert(cache_tree_id_, page, decoded.value(),
                    decoded.value()->memory_bytes,
                    &FingerprintDecodedNode<Payload>);
    }
  }
  return decoded;
}

template <typename Payload>
Status StaticRTree<Payload>::WriteMeta() {
  std::vector<uint8_t> bytes;
  ByteWriter writer(&bytes);
  writer.PutU32(Payload::kMagic);
  writer.PutU32(options_.format);  // meta version == node format
  writer.PutU32(options_.capacity);
  writer.PutU32(pages_per_node_);
  writer.PutU32(root_);
  writer.PutU32(height_);
  writer.PutU64(num_objects_);
  writer.PutDouble(diagonal_);
  writer.PutU8(static_cast<uint8_t>(options_.model));
  Payload::PutMeta(&writer, meta_);
  bytes.resize(pool_->pager()->page_size(), 0);
  return WriteNodeBytes(pool_, /*first=*/0, 1, bytes.data());
}

template <typename Payload>
Status StaticRTree<Payload>::ReadMeta() {
  // Meta pages are single-page by construction: zero-copy view.
  StatusOr<NodeView> view = NodeView::Read(pool_, /*first=*/0, 1);
  if (!view.ok()) return view.status();
  ByteReader reader(view.value().data(), view.value().size());
  if (reader.GetU32() != Payload::kMagic) {
    return Status::Corruption(std::string("not a ") + Payload::kName +
                              " file");
  }
  const uint32_t version = reader.GetU32();
  if (version != kNodeFormatV1 && version != kNodeFormatV2) {
    return Status::Corruption(std::string("unsupported ") + Payload::kName +
                              " version");
  }
  options_.format = static_cast<uint8_t>(version);
  options_.capacity = reader.GetU32();
  pages_per_node_ = reader.GetU32();
  root_ = reader.GetU32();
  height_ = reader.GetU32();
  num_objects_ = reader.GetU64();
  diagonal_ = reader.GetDouble();
  options_.model = static_cast<SimilarityModel>(reader.GetU8());
  Payload::GetMeta(&reader, &meta_);
  return Status::Ok();
}

template <typename Payload>
Status StaticRTree<Payload>::Finalize() {
  WSK_RETURN_IF_ERROR(blobs_.Flush());
  WSK_RETURN_IF_ERROR(WriteMeta());
  return pool_->FlushAll();
}

template <typename Payload>
PageId StaticRTree<Payload>::SearchRoot() const {
  return height_ == 0 ? kInvalidPageId : root_;
}

template <typename Payload>
void StaticRTree<Payload>::AppendInnerEntries(
    const DecodedNode& decoded, const SpatialKeywordQuery& query,
    std::vector<SearchEntry>* out) const {
  const double alpha = query.alpha;
  const std::vector<InnerEntry>& entries = decoded.node.inner_entries;
  for (size_t i = 0; i < entries.size(); ++i) {
    // ST(o, q) <= alpha (1 - MinDist(q, N.mbr)) + (1 - alpha) TextBound
    // for every o under the child.
    const double min_sdist = MinDist(query.loc, entries[i].mbr) / diagonal_;
    const double tsim_bound = Payload::TextBound(decoded, i, query);
    SearchEntry entry;
    entry.bound = alpha * (1.0 - min_sdist) + (1.0 - alpha) * tsim_bound;
    entry.node = entries[i].child;
    out->push_back(entry);
  }
}

template <typename Payload>
Status StaticRTree<Payload>::ExpandNode(
    PageId page, std::span<const ExpandSlot> slots) const {
  StatusOr<std::shared_ptr<const DecodedNode>> read = ReadDecodedNode(page);
  if (!read.ok()) return read.status();
  const DecodedNode& decoded = *read.value();
  if (decoded.node.is_leaf) {
    ScoreLeaf(decoded.node.leaf_entries, decoded.leaf_docs, diagonal_, slots);
    return Status::Ok();
  }
  // Inner nodes: the read and decode are the shared cost; the bound is a
  // per-query computation either way.
  for (const ExpandSlot& slot : slots) {
    AppendInnerEntries(decoded, *slot.query, slot.out);
  }
  return Status::Ok();
}

template class StaticRTree<SetRPayload>;
template class StaticRTree<KcrPayload>;

}  // namespace wsk
