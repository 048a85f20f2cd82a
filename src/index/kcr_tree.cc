#include "index/kcr_tree.h"

#include <algorithm>
#include <limits>
#include <string>

#include "index/leaf_scorer.h"
#include "index/node_codec.h"
#include "index/str_pack.h"

namespace wsk {

namespace {

constexpr uint32_t kMagic = 0x43524b57;  // "WKRC"
constexpr size_t kHeaderBytes = 8;
constexpr size_t kLeafEntryBytes = 4 + 16 + BlobRef::kSerializedSize;  // 32
constexpr size_t kInnerEntryBytes =
    4 + 32 + 4 + BlobRef::kSerializedSize;  // 52

size_t NodeBytes(uint32_t capacity) {
  return kHeaderBytes +
         static_cast<size_t>(capacity) *
             std::max(kLeafEntryBytes, kInnerEntryBytes);
}

void SerializeNode(const KcrTree::Node& node, std::vector<uint8_t>* out) {
  out->clear();
  ByteWriter writer(out);
  writer.PutU8(node.is_leaf ? 0 : 1);
  writer.PutU8(0);
  writer.PutU8(0);
  writer.PutU8(0);
  writer.PutU32(static_cast<uint32_t>(node.size()));
  uint8_t ref[BlobRef::kSerializedSize];
  if (node.is_leaf) {
    for (const KcrTree::LeafEntry& e : node.leaf_entries) {
      writer.PutU32(e.object);
      writer.PutDouble(e.loc.x);
      writer.PutDouble(e.loc.y);
      e.keywords.Serialize(ref);
      writer.PutBytes(ref, sizeof(ref));
    }
  } else {
    for (const KcrTree::InnerEntry& e : node.inner_entries) {
      writer.PutU32(e.child);
      writer.PutRect(e.mbr);
      writer.PutU32(e.cnt);
      e.kcm.Serialize(ref);
      writer.PutBytes(ref, sizeof(ref));
    }
  }
}

// Validates the header before decoding: a corrupted kind byte or entry
// count must surface as Corruption, not as a decode overrun. Parses in
// place over whatever span the caller holds (typically a zero-copy
// NodeView over the pinned page).
StatusOr<KcrTree::Node> DeserializeNode(PageId page, const uint8_t* data,
                                        size_t size) {
  ByteReader reader(data, size);
  KcrTree::Node node;
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
      node.is_leaf ? kLeafEntryBytes : kInnerEntryBytes;
  if (count > (size - kHeaderBytes) / entry_bytes) {
    return Status::Corruption("node " + std::to_string(page) +
                              ": entry count overflows the node");
  }
  if (node.is_leaf) {
    node.leaf_entries.reserve(count);
    for (uint32_t i = 0; i < count; ++i) {
      KcrTree::LeafEntry e;
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
      KcrTree::InnerEntry e;
      e.child = reader.GetU32();
      e.mbr = reader.GetRect();
      e.cnt = reader.GetU32();
      e.kcm = BlobRef::Deserialize(reader.GetBytes(BlobRef::kSerializedSize));
      node.inner_entries.push_back(e);
    }
  }
  return node;
}

// v2 body encoding of one keyword set: varint term count, then the sorted
// ids delta-coded.
void PutKeywordSetV2(std::vector<uint8_t>* body, const KeywordSet& set) {
  const std::vector<TermId>& terms = set.terms();
  PutVarint(body, terms.size());
  PutDeltaU32s(body, terms.data(), terms.size());
}

bool GetKeywordSetV2(CheckedReader* reader, KeywordSet* out) {
  uint32_t count = 0;
  if (!reader->GetVarint32(&count)) return false;
  std::vector<TermId> terms;
  terms.reserve(std::min<size_t>(count, reader->remaining()));
  if (!reader->GetDeltaU32s(count, &terms)) return false;
  *out = KeywordSet::FromSorted(std::move(terms));
  return true;
}

// v2 body encoding of a keyword-count map: varint pair count, then per
// pair the term delta (strictly ascending, like a keyword set) followed by
// its count as a plain varint.
void PutKcmV2(std::vector<uint8_t>* body, const KeywordCountMap& map) {
  const auto& pairs = map.pairs();
  PutVarint(body, pairs.size());
  uint32_t prev = 0;
  for (size_t i = 0; i < pairs.size(); ++i) {
    if (i == 0) {
      PutVarint(body, pairs[0].first);
    } else {
      WSK_CHECK(pairs[i].first > prev);
      PutVarint(body, pairs[i].first - prev);
    }
    prev = pairs[i].first;
    PutVarint(body, pairs[i].second);
  }
}

bool GetKcmV2(CheckedReader* reader, KeywordCountMap* out) {
  uint32_t n = 0;
  if (!reader->GetVarint32(&n)) return false;
  std::vector<std::pair<TermId, uint32_t>> pairs;
  pairs.reserve(std::min<size_t>(n, reader->remaining()));
  uint64_t term = 0;
  for (uint32_t i = 0; i < n; ++i) {
    uint64_t step = 0;
    if (!reader->GetVarint(&step)) return false;
    if (i == 0) {
      term = step;
    } else {
      if (step == 0) return false;  // terms must be strictly ascending
      term += step;
    }
    if (term > 0xffffffffull) return false;
    uint32_t count = 0;
    if (!reader->GetVarint32(&count) || count == 0) return false;
    pairs.emplace_back(static_cast<TermId>(term), count);
  }
  *out = KeywordCountMap::FromSortedPairs(std::move(pairs));
  return true;
}

// Digest of a decoded node's primary payload, used by the cache's
// no-mutation check (debug builds / sanitizer tests).
uint64_t FingerprintDecodedNode(const void* value) {
  const auto* decoded = static_cast<const KcrTree::DecodedNode*>(value);
  FingerprintHasher hasher;
  hasher.MixU64(decoded->node.is_leaf ? 1 : 0);
  hasher.MixU64(decoded->node.size());
  if (decoded->node.is_leaf) {
    for (size_t i = 0; i < decoded->node.leaf_entries.size(); ++i) {
      const KcrTree::LeafEntry& e = decoded->node.leaf_entries[i];
      hasher.MixU64(e.object);
      hasher.Mix(&e.loc, sizeof(e.loc));
      const std::vector<TermId>& terms = decoded->leaf_docs[i].terms();
      hasher.Mix(terms.data(), terms.size() * sizeof(TermId));
    }
  } else {
    for (size_t i = 0; i < decoded->node.inner_entries.size(); ++i) {
      const KcrTree::InnerEntry& e = decoded->node.inner_entries[i];
      hasher.MixU64(e.child);
      hasher.Mix(&e.mbr, sizeof(e.mbr));
      hasher.MixU64(e.cnt);
      const auto& pairs = decoded->child_kcms[i].pairs();
      hasher.Mix(pairs.data(), pairs.size() * sizeof(pairs[0]));
    }
  }
  return hasher.digest();
}

}  // namespace

Rect KcrTree::Node::ComputeMbr() const {
  Rect mbr;
  if (is_leaf) {
    for (const LeafEntry& e : leaf_entries) mbr.Extend(e.loc);
  } else {
    for (const InnerEntry& e : inner_entries) mbr.Extend(e.mbr);
  }
  return mbr;
}

KcrTree::KcrTree(BufferPool* pool, const Options& options, double diagonal)
    : pool_(pool), blobs_(pool), options_(options), diagonal_(diagonal) {
  const uint32_t page_size = pool->pager()->page_size();
  pages_per_node_ = static_cast<uint32_t>(
      (NodeBytes(options.capacity) + page_size - 1) / page_size);
}

StatusOr<std::unique_ptr<KcrTree>> KcrTree::CreateEmpty(
    BufferPool* pool, double diagonal, const Options& options) {
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
    return Status::FailedPrecondition(
        "KcrTree::CreateEmpty requires a fresh pager file");
  }
  if (diagonal <= 0.0) {
    return Status::InvalidArgument("diagonal must be positive");
  }
  std::unique_ptr<KcrTree> tree(new KcrTree(pool, options, diagonal));
  tree->meta_page_ = pool->pager()->AllocatePages(1);
  WSK_RETURN_IF_ERROR(tree->WriteMeta());
  return tree;
}

StatusOr<std::unique_ptr<KcrTree>> KcrTree::BulkLoad(const Dataset& dataset,
                                                     BufferPool* pool,
                                                     const Options& options) {
  return BulkLoadObjects(dataset.objects(), dataset.diagonal(), pool, options);
}

StatusOr<std::unique_ptr<KcrTree>> KcrTree::BulkLoadObjects(
    const std::vector<SpatialObject>& objects, double diagonal,
    BufferPool* pool, const Options& options) {
  StatusOr<std::unique_ptr<KcrTree>> created =
      CreateEmpty(pool, diagonal, options);
  if (!created.ok()) return created.status();
  std::unique_ptr<KcrTree> tree = std::move(created).value();
  if (objects.empty()) {
    WSK_RETURN_IF_ERROR(tree->Finalize());
    return tree;
  }

  struct Pending {
    PageId page;
    Summary summary;
    Point center;
  };

  std::vector<Point> centers;
  centers.reserve(objects.size());
  for (const SpatialObject& o : objects) centers.push_back(o.loc);
  std::vector<std::vector<uint32_t>> groups =
      StrPack(centers, options.capacity);

  const bool v2 = options.format == kNodeFormatV2;
  std::vector<Pending> level;
  level.reserve(groups.size());
  for (const std::vector<uint32_t>& group : groups) {
    Node node;
    node.is_leaf = true;
    Summary summary;
    std::vector<const KeywordSet*> docs;  // v2: payloads inline in the node
    for (uint32_t idx : group) {
      const SpatialObject& o = objects[idx];
      BlobRef ref;
      if (v2) {
        docs.push_back(&o.doc);
      } else {
        StatusOr<BlobRef> written = tree->WriteKeywordSet(o.doc);
        if (!written.ok()) return written.status();
        ref = written.value();
      }
      node.leaf_entries.push_back(LeafEntry{o.id, o.loc, ref});
      summary.mbr.Extend(o.loc);
      summary.kcm.AddDoc(o.doc);
      ++summary.cnt;
    }
    PageId page;
    if (v2) {
      StatusOr<PageId> appended = tree->AppendNodeV2(
          node, docs, {}, /*children_are_leaves=*/false);
      if (!appended.ok()) return appended.status();
      page = appended.value();
    } else {
      page = tree->AllocateNodeSlot();
      WSK_RETURN_IF_ERROR(tree->WriteNode(page, node));
    }
    const Point center{(summary.mbr.min_x + summary.mbr.max_x) / 2,
                       (summary.mbr.min_y + summary.mbr.max_y) / 2};
    level.push_back(Pending{page, std::move(summary), center});
  }
  tree->height_ = 1;
  tree->num_objects_ = objects.size();

  bool children_are_leaves = true;
  while (level.size() > 1) {
    centers.clear();
    for (const Pending& p : level) centers.push_back(p.center);
    groups = StrPack(centers, options.capacity);
    std::vector<Pending> next;
    next.reserve(groups.size());
    for (const std::vector<uint32_t>& group : groups) {
      Node node;
      node.is_leaf = false;
      Summary summary;
      std::vector<const KeywordCountMap*> kcms;
      for (uint32_t idx : group) {
        const Pending& child = level[idx];
        BlobRef kcm_ref;
        if (v2) {
          kcms.push_back(&child.summary.kcm);
        } else {
          StatusOr<BlobRef> kcm = tree->WriteKcm(child.summary.kcm);
          if (!kcm.ok()) return kcm.status();
          kcm_ref = kcm.value();
        }
        node.inner_entries.push_back(InnerEntry{
            child.page, child.summary.mbr, child.summary.cnt, kcm_ref});
        summary.mbr.Extend(child.summary.mbr);
        summary.kcm.Merge(child.summary.kcm);
        summary.cnt += child.summary.cnt;
      }
      PageId page;
      if (v2) {
        StatusOr<PageId> appended =
            tree->AppendNodeV2(node, {}, kcms, children_are_leaves);
        if (!appended.ok()) return appended.status();
        page = appended.value();
      } else {
        page = tree->AllocateNodeSlot();
        WSK_RETURN_IF_ERROR(tree->WriteNode(page, node));
      }
      const Point center{(summary.mbr.min_x + summary.mbr.max_x) / 2,
                         (summary.mbr.min_y + summary.mbr.max_y) / 2};
      next.push_back(Pending{page, std::move(summary), center});
    }
    level = std::move(next);
    children_are_leaves = false;
    ++tree->height_;
  }
  tree->root_ = level.front().page;
  tree->root_mbr_ = level.front().summary.mbr;
  tree->root_cnt_ = level.front().summary.cnt;
  StatusOr<BlobRef> root_kcm = tree->WriteKcm(level.front().summary.kcm);
  if (!root_kcm.ok()) return root_kcm.status();
  tree->root_kcm_ = root_kcm.value();
  WSK_RETURN_IF_ERROR(tree->Finalize());
  return tree;
}

StatusOr<std::unique_ptr<KcrTree>> KcrTree::Open(BufferPool* pool) {
  std::unique_ptr<KcrTree> tree(new KcrTree(pool, Options{}, 1.0));
  tree->meta_page_ = 0;
  WSK_RETURN_IF_ERROR(tree->ReadMeta());
  return tree;
}

PageId KcrTree::AllocateNodeSlot() {
  return pool_->pager()->AllocatePages(pages_per_node_);
}

Status KcrTree::WriteNode(PageId page, const Node& node) {
  WSK_CHECK_MSG(node.size() <= options_.capacity, "node overflow: %zu",
                node.size());
  std::vector<uint8_t> bytes;
  SerializeNode(node, &bytes);
  bytes.resize(static_cast<size_t>(pages_per_node_) *
                   pool_->pager()->page_size(),
               0);
  // Invalidate before the write lands so no reader can re-cache the stale
  // decoding between the store and the erase.
  if (cache_ != nullptr) cache_->Erase(cache_tree_id_, page);
  return WriteNodeBytes(pool_, page, pages_per_node_, bytes.data());
}

StatusOr<PageId> KcrTree::AppendNodeV2(
    const Node& node, const std::vector<const KeywordSet*>& docs,
    const std::vector<const KeywordCountMap*>& kcms,
    bool children_are_leaves) {
  std::vector<uint8_t> body;
  if (node.is_leaf) {
    for (size_t i = 0; i < node.leaf_entries.size(); ++i) {
      const LeafEntry& e = node.leaf_entries[i];
      PutVarint(&body, e.object);
      ByteWriter writer(&body);
      writer.PutDouble(e.loc.x);
      writer.PutDouble(e.loc.y);
      PutKeywordSetV2(&body, *docs[i]);
    }
  } else {
    for (size_t i = 0; i < node.inner_entries.size(); ++i) {
      const InnerEntry& e = node.inner_entries[i];
      PutVarint(&body, MakeChildRef(e.child, children_are_leaves));
      ByteWriter writer(&body);
      writer.PutRect(e.mbr);
      PutVarint(&body, e.cnt);
      PutKcmV2(&body, *kcms[i]);
    }
  }
  return AppendNodeRecordV2(pool_, node.is_leaf,
                            static_cast<uint32_t>(node.size()), body);
}

StatusOr<std::shared_ptr<const KcrTree::DecodedNode>>
KcrTree::MaterializeNodeV2(PageId page) const {
  StatusOr<NodeRecordV2> record = ReadNodeRecordV2(pool_, page, &checksum_ledger_);
  if (!record.ok()) return record.status();
  const NodeRecordV2& rec = record.value();
  auto corrupt = [page](const char* what) {
    return Status::Corruption("v2 node at page " + std::to_string(page) +
                              ": " + what);
  };
  auto decoded = std::make_shared<DecodedNode>();
  decoded->node.is_leaf = rec.is_leaf();
  CheckedReader reader(rec.body(), rec.body_bytes());
  size_t bytes = sizeof(DecodedNode);
  if (rec.is_leaf()) {
    decoded->node.leaf_entries.reserve(rec.count());
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
      decoded->node.leaf_entries.push_back(e);
      decoded->leaf_docs.push_back(std::move(doc));
    }
  } else {
    const PageId num_pages = pool_->pager()->num_pages();
    decoded->node.inner_entries.reserve(rec.count());
    // Fill child_kcms completely before building child_stats: NodeDomStats
    // keeps a pointer to its map, so the vector must never reallocate
    // afterwards.
    decoded->child_kcms.reserve(rec.count());
    for (uint32_t i = 0; i < rec.count(); ++i) {
      InnerEntry e;
      uint64_t ref = 0;
      if (!reader.GetVarint(&ref)) return corrupt("bad child reference");
      const PageId child = ChildRefPage(ref);
      if (child == 0 || child >= num_pages ||
          (ref >> 1) > 0xffffffffull) {
        return corrupt("child reference out of range");
      }
      e.child = child;
      if (!reader.GetRect(&e.mbr)) return corrupt("truncated inner entry");
      if (!reader.GetVarint32(&e.cnt)) return corrupt("bad subtree count");
      KeywordCountMap kcm;
      if (!GetKcmV2(&reader, &kcm)) {
        return corrupt("malformed keyword-count map");
      }
      bytes += sizeof(InnerEntry) + sizeof(KeywordCountMap) +
               kcm.SerializedSize();
      decoded->node.inner_entries.push_back(e);
      decoded->child_kcms.push_back(std::move(kcm));
    }
    decoded->child_stats.reserve(rec.count());
    for (size_t i = 0; i < decoded->node.inner_entries.size(); ++i) {
      const InnerEntry& e = decoded->node.inner_entries[i];
      decoded->child_stats.emplace_back(&decoded->child_kcms[i], e.cnt,
                                        e.mbr);
      bytes += decoded->child_stats.back().MemoryBytes();
    }
  }
  if (reader.remaining() != 0) {
    return corrupt("trailing bytes after the last entry");
  }
  decoded->memory_bytes = bytes;
  return StatusOr<std::shared_ptr<const DecodedNode>>(std::move(decoded));
}

StatusOr<KcrTree::Node> KcrTree::ReadNode(PageId page) const {
  if (options_.format == kNodeFormatV2) {
    StatusOr<std::shared_ptr<const DecodedNode>> decoded =
        MaterializeNodeV2(page);
    if (!decoded.ok()) return decoded.status();
    return decoded.value()->node;
  }
  StatusOr<NodeView> view = NodeView::Read(pool_, page, pages_per_node_);
  if (!view.ok()) return view.status();
  return DeserializeNode(page, view.value().data(), view.value().size());
}

StatusOr<NodeStat> KcrTree::StatNode(PageId page) const {
  NodeStat stat;
  if (options_.format == kNodeFormatV2) {
    StatusOr<NodeRecordV2> record = ReadNodeRecordV2(pool_, page, &checksum_ledger_);
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
      kHeaderBytes + node.value().size() *
                         (stat.is_leaf ? kLeafEntryBytes : kInnerEntryBytes));
  stat.record_pages = pages_per_node_;
  return stat;
}

void KcrTree::AttachNodeCache(NodeCache* cache) {
  cache_ = cache;
  if (cache != nullptr && cache_tree_id_ == 0) {
    cache_tree_id_ = NodeCache::NextTreeId();
  }
}

StatusOr<std::shared_ptr<const KcrTree::DecodedNode>> KcrTree::MaterializeNode(
    PageId page) const {
  auto decoded = std::make_shared<DecodedNode>();
  {
    StatusOr<NodeView> view = NodeView::Read(pool_, page, pages_per_node_);
    if (!view.ok()) return view.status();
    StatusOr<Node> node =
        DeserializeNode(page, view.value().data(), view.value().size());
    if (!node.ok()) return node.status();
    decoded->node = std::move(node).value();
  }  // drop the page pin before the blob reads below
  const Node& node = decoded->node;
  size_t bytes = sizeof(DecodedNode);
  if (node.is_leaf) {
    bytes += node.leaf_entries.size() * sizeof(LeafEntry);
    decoded->leaf_docs.reserve(node.leaf_entries.size());
    for (const LeafEntry& e : node.leaf_entries) {
      StatusOr<KeywordSet> doc = ReadKeywordSet(e.keywords);
      if (!doc.ok()) return doc.status();
      bytes += sizeof(KeywordSet) + doc.value().SerializedSize();
      decoded->leaf_docs.push_back(std::move(doc).value());
    }
  } else {
    bytes += node.inner_entries.size() * sizeof(InnerEntry);
    // Fill child_kcms completely before building child_stats: NodeDomStats
    // keeps a pointer to its map, so the vector must never reallocate
    // afterwards.
    decoded->child_kcms.reserve(node.inner_entries.size());
    for (const InnerEntry& e : node.inner_entries) {
      StatusOr<KeywordCountMap> kcm = ReadKcm(e.kcm);
      if (!kcm.ok()) return kcm.status();
      bytes += sizeof(KeywordCountMap) + kcm.value().SerializedSize();
      decoded->child_kcms.push_back(std::move(kcm).value());
    }
    decoded->child_stats.reserve(node.inner_entries.size());
    for (size_t i = 0; i < node.inner_entries.size(); ++i) {
      const InnerEntry& e = node.inner_entries[i];
      decoded->child_stats.emplace_back(&decoded->child_kcms[i], e.cnt,
                                        e.mbr);
      bytes += decoded->child_stats.back().MemoryBytes();
    }
  }
  decoded->memory_bytes = bytes;
  return StatusOr<std::shared_ptr<const DecodedNode>>(std::move(decoded));
}

StatusOr<std::shared_ptr<const KcrTree::DecodedNode>> KcrTree::ReadDecodedNode(
    PageId page, bool use_cache) const {
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
      options_.format == kNodeFormatV2 ? MaterializeNodeV2(page)
                                       : MaterializeNode(page);
  if (!decoded.ok()) return decoded.status();
  if (cache != nullptr) {
    // Mapped leaves re-decode straight from the OS page cache with no
    // buffer-pool traffic, so caching them would only evict inner-node
    // skeletons that are worth far more per byte. Keep inner nodes.
    const bool cheap_to_redecode =
        decoded.value()->node.is_leaf && pool_->pager()->mapped();
    if (!cheap_to_redecode) {
      cache->Insert(cache_tree_id_, page, decoded.value(),
                    decoded.value()->memory_bytes, &FingerprintDecodedNode);
    }
  }
  return decoded;
}

StatusOr<BlobRef> KcrTree::WriteKeywordSet(const KeywordSet& set) {
  std::vector<uint8_t> bytes;
  set.Serialize(&bytes);
  return blobs_.Append(bytes);
}

StatusOr<BlobRef> KcrTree::WriteKcm(const KeywordCountMap& map) {
  std::vector<uint8_t> bytes;
  map.Serialize(&bytes);
  return blobs_.Append(bytes);
}

StatusOr<KeywordSet> KcrTree::ReadKeywordSet(const BlobRef& ref) const {
  std::vector<uint8_t> bytes;
  WSK_RETURN_IF_ERROR(blobs_.Read(ref, &bytes));
  return KeywordSet::Deserialize(bytes.data(), bytes.size());
}

StatusOr<KeywordCountMap> KcrTree::ReadKcm(const BlobRef& ref) const {
  std::vector<uint8_t> bytes;
  WSK_RETURN_IF_ERROR(blobs_.Read(ref, &bytes));
  return KeywordCountMap::Deserialize(bytes.data(), bytes.size());
}

StatusOr<KeywordCountMap> KcrTree::ReadRootKcm() const {
  if (height_ == 0) return KeywordCountMap();
  return ReadKcm(root_kcm_);
}

Status KcrTree::WriteMeta() {
  std::vector<uint8_t> bytes;
  ByteWriter writer(&bytes);
  writer.PutU32(kMagic);
  writer.PutU32(options_.format);  // meta version == node format
  writer.PutU32(options_.capacity);
  writer.PutU32(pages_per_node_);
  writer.PutU32(root_);
  writer.PutU32(height_);
  writer.PutU64(num_objects_);
  writer.PutDouble(diagonal_);
  writer.PutU8(static_cast<uint8_t>(options_.model));
  writer.PutU32(root_cnt_);
  writer.PutRect(root_mbr_);
  uint8_t ref[BlobRef::kSerializedSize];
  root_kcm_.Serialize(ref);
  writer.PutBytes(ref, sizeof(ref));
  bytes.resize(pool_->pager()->page_size(), 0);
  return WriteNodeBytes(pool_, meta_page_, 1, bytes.data());
}

Status KcrTree::ReadMeta() {
  // Meta pages are single-page by construction: zero-copy view.
  StatusOr<NodeView> view = NodeView::Read(pool_, meta_page_, 1);
  if (!view.ok()) return view.status();
  ByteReader reader(view.value().data(), view.value().size());
  if (reader.GetU32() != kMagic) {
    return Status::Corruption("not a KcR-tree file");
  }
  const uint32_t version = reader.GetU32();
  if (version != kNodeFormatV1 && version != kNodeFormatV2) {
    return Status::Corruption("unsupported KcR-tree version");
  }
  options_.format = static_cast<uint8_t>(version);
  options_.capacity = reader.GetU32();
  pages_per_node_ = reader.GetU32();
  root_ = reader.GetU32();
  height_ = reader.GetU32();
  num_objects_ = reader.GetU64();
  diagonal_ = reader.GetDouble();
  options_.model = static_cast<SimilarityModel>(reader.GetU8());
  root_cnt_ = reader.GetU32();
  root_mbr_ = reader.GetRect();
  root_kcm_ = BlobRef::Deserialize(reader.GetBytes(BlobRef::kSerializedSize));
  return Status::Ok();
}

Status KcrTree::Finalize() {
  WSK_RETURN_IF_ERROR(blobs_.Flush());
  WSK_RETURN_IF_ERROR(WriteMeta());
  return pool_->FlushAll();
}

PageId KcrTree::SearchRoot() const {
  return height_ == 0 ? kInvalidPageId : root_;
}

namespace {

void AppendKcrInnerEntries(const KcrTree::DecodedNode& decoded,
                           double diagonal,
                           const SpatialKeywordQuery& query,
                           std::vector<SearchEntry>* out) {
  const KcrTree::Node& node = decoded.node;
  const double alpha = query.alpha;
  for (size_t i = 0; i < node.inner_entries.size(); ++i) {
    const KcrTree::InnerEntry& e = node.inner_entries[i];
    const KeywordCountMap& kcm = decoded.child_kcms[i];
    // Textual bound from the count map: an object below the child can share
    // at most the number of query terms present in the subtree.
    size_t present = 0;
    for (TermId t : query.doc) {
      if (kcm.CountOf(t) > 0) ++present;
    }
    double tsim_bound;
    switch (query.model) {
      case SimilarityModel::kJaccard:
        // |o ∩ q| <= present and |o ∪ q| >= |q|.
        tsim_bound = query.doc.empty()
                         ? 0.0
                         : static_cast<double>(present) / query.doc.size();
        break;
      case SimilarityModel::kDice:
        // |o.doc| >= 1 whenever the intersection is non-empty.
        tsim_bound = query.doc.empty()
                         ? 0.0
                         : 2.0 * present / (1.0 + query.doc.size());
        break;
      case SimilarityModel::kOverlap:
        tsim_bound = present > 0 ? 1.0 : 0.0;
        break;
      default:
        tsim_bound = 1.0;
        break;
    }
    const double min_sdist = MinDist(query.loc, e.mbr) / diagonal;
    SearchEntry entry;
    entry.bound = alpha * (1.0 - min_sdist) + (1.0 - alpha) * tsim_bound;
    entry.node = e.child;
    out->push_back(entry);
  }
}

}  // namespace

Status KcrTree::ExpandNode(PageId page, const SpatialKeywordQuery& query,
                           double floor, bool use_cache,
                           std::vector<SearchEntry>* out,
                           uint64_t* objects_scored) const {
  StatusOr<std::shared_ptr<const DecodedNode>> read =
      ReadDecodedNode(page, use_cache);
  if (!read.ok()) return read.status();
  const DecodedNode& decoded = *read.value();
  if (decoded.node.is_leaf) {
    *objects_scored += ScoreLeaf(decoded.node.leaf_entries, decoded.leaf_docs,
                                 diagonal_, query, floor, out);
  } else {
    AppendKcrInnerEntries(decoded, diagonal_, query, out);
  }
  return Status::Ok();
}

Status KcrTree::ExpandNodeBatch(PageId page,
                                const SpatialKeywordQuery* const* queries,
                                std::vector<SearchEntry>* const* outs,
                                size_t count, bool use_cache) const {
  if (count == 0) return Status::Ok();
  StatusOr<std::shared_ptr<const DecodedNode>> read =
      ReadDecodedNode(page, use_cache);
  if (!read.ok()) return read.status();
  const DecodedNode& decoded = *read.value();
  const Node& node = decoded.node;
  if (!node.is_leaf) {
    for (size_t qi = 0; qi < count; ++qi) {
      AppendKcrInnerEntries(decoded, diagonal_, *queries[qi], outs[qi]);
    }
    return Status::Ok();
  }
  ScoreLeafBatch(node.leaf_entries, decoded.leaf_docs, diagonal_, queries,
                 outs, count);
  return Status::Ok();
}

StatusOr<KcrTree::Summary> KcrTree::ComputeSummary(const Node& node) const {
  Summary summary;
  if (node.is_leaf) {
    for (const LeafEntry& e : node.leaf_entries) {
      StatusOr<KeywordSet> doc = ReadKeywordSet(e.keywords);
      if (!doc.ok()) return doc.status();
      summary.mbr.Extend(e.loc);
      summary.kcm.AddDoc(doc.value());
      ++summary.cnt;
    }
  } else {
    for (const InnerEntry& e : node.inner_entries) {
      StatusOr<KeywordCountMap> kcm = ReadKcm(e.kcm);
      if (!kcm.ok()) return kcm.status();
      summary.mbr.Extend(e.mbr);
      summary.kcm.Merge(kcm.value());
      summary.cnt += e.cnt;
    }
  }
  return summary;
}

void KcrTree::QuadraticSplit(Node* node, Node* sibling) const {
  sibling->is_leaf = node->is_leaf;
  const size_t total = node->size();
  const size_t min_fill = std::max<size_t>(1, options_.capacity * 2 / 5);

  auto rect_of = [&](size_t i) -> Rect {
    if (node->is_leaf) return Rect::FromPoint(node->leaf_entries[i].loc);
    return node->inner_entries[i].mbr;
  };

  size_t seed_a = 0, seed_b = 1;
  double worst = -1.0;
  for (size_t i = 0; i < total; ++i) {
    for (size_t j = i + 1; j < total; ++j) {
      Rect u = rect_of(i);
      u.Extend(rect_of(j));
      const double waste = u.Area() - rect_of(i).Area() - rect_of(j).Area();
      if (waste > worst) {
        worst = waste;
        seed_a = i;
        seed_b = j;
      }
    }
  }

  std::vector<bool> to_sibling(total, false);
  std::vector<bool> assigned(total, false);
  Rect mbr_a = rect_of(seed_a);
  Rect mbr_b = rect_of(seed_b);
  size_t count_a = 1, count_b = 1;
  assigned[seed_a] = assigned[seed_b] = true;
  to_sibling[seed_b] = true;

  for (size_t remaining = total - 2; remaining > 0; --remaining) {
    size_t pick = total;
    bool pick_b = false;
    if (count_a + remaining == min_fill) {
      for (size_t i = 0; i < total; ++i)
        if (!assigned[i]) {
          pick = i;
          pick_b = false;
          break;
        }
    } else if (count_b + remaining == min_fill) {
      for (size_t i = 0; i < total; ++i)
        if (!assigned[i]) {
          pick = i;
          pick_b = true;
          break;
        }
    } else {
      double best_diff = -1.0;
      for (size_t i = 0; i < total; ++i) {
        if (assigned[i]) continue;
        const double da = mbr_a.Enlargement(rect_of(i));
        const double db = mbr_b.Enlargement(rect_of(i));
        const double diff = std::abs(da - db);
        if (diff > best_diff) {
          best_diff = diff;
          pick = i;
          pick_b = db < da ||
                   (da == db &&
                    (mbr_b.Area() < mbr_a.Area() ||
                     (mbr_a.Area() == mbr_b.Area() && count_b < count_a)));
        }
      }
    }
    WSK_CHECK(pick < total);
    assigned[pick] = true;
    if (pick_b) {
      to_sibling[pick] = true;
      mbr_b.Extend(rect_of(pick));
      ++count_b;
    } else {
      mbr_a.Extend(rect_of(pick));
      ++count_a;
    }
  }

  if (node->is_leaf) {
    std::vector<LeafEntry> keep;
    for (size_t i = 0; i < total; ++i) {
      (to_sibling[i] ? sibling->leaf_entries : keep)
          .push_back(node->leaf_entries[i]);
    }
    node->leaf_entries = std::move(keep);
  } else {
    std::vector<InnerEntry> keep;
    for (size_t i = 0; i < total; ++i) {
      (to_sibling[i] ? sibling->inner_entries : keep)
          .push_back(node->inner_entries[i]);
    }
    node->inner_entries = std::move(keep);
  }
}

Status KcrTree::InsertInto(PageId page, uint32_t level,
                           const SpatialObject& object, BlobRef keywords_ref,
                           ChildUpdate* out) {
  StatusOr<Node> read = ReadNode(page);
  if (!read.ok()) return read.status();
  Node node = std::move(read).value();

  if (level == 1) {
    WSK_CHECK(node.is_leaf);
    node.leaf_entries.push_back(
        LeafEntry{object.id, object.loc, keywords_ref});
  } else {
    WSK_CHECK(!node.is_leaf);
    size_t best = 0;
    double best_enlargement = std::numeric_limits<double>::infinity();
    double best_area = std::numeric_limits<double>::infinity();
    const Rect point_rect = Rect::FromPoint(object.loc);
    for (size_t i = 0; i < node.inner_entries.size(); ++i) {
      const Rect& mbr = node.inner_entries[i].mbr;
      const double enlargement = mbr.Enlargement(point_rect);
      const double area = mbr.Area();
      if (enlargement < best_enlargement ||
          (enlargement == best_enlargement && area < best_area)) {
        best = i;
        best_enlargement = enlargement;
        best_area = area;
      }
    }
    ChildUpdate child_update;
    WSK_RETURN_IF_ERROR(InsertInto(node.inner_entries[best].child, level - 1,
                                   object, keywords_ref, &child_update));
    InnerEntry& entry = node.inner_entries[best];
    entry.mbr = child_update.updated.mbr;
    entry.cnt = child_update.updated.cnt;
    StatusOr<BlobRef> kcm = WriteKcm(child_update.updated.kcm);
    if (!kcm.ok()) return kcm.status();
    entry.kcm = kcm.value();
    if (child_update.split) {
      StatusOr<BlobRef> kcm2 = WriteKcm(child_update.sibling.kcm);
      if (!kcm2.ok()) return kcm2.status();
      node.inner_entries.push_back(
          InnerEntry{child_update.new_child, child_update.sibling.mbr,
                     child_update.sibling.cnt, kcm2.value()});
    }
  }

  out->split = node.size() > options_.capacity;
  if (out->split) {
    Node sibling;
    QuadraticSplit(&node, &sibling);
    StatusOr<Summary> sib_summary = ComputeSummary(sibling);
    if (!sib_summary.ok()) return sib_summary.status();
    out->sibling = std::move(sib_summary).value();
    out->new_child = AllocateNodeSlot();
    WSK_RETURN_IF_ERROR(WriteNode(out->new_child, sibling));
  }
  StatusOr<Summary> summary = ComputeSummary(node);
  if (!summary.ok()) return summary.status();
  out->updated = std::move(summary).value();
  WSK_RETURN_IF_ERROR(WriteNode(page, node));
  return Status::Ok();
}

Status KcrTree::RemoveFrom(PageId page, uint32_t level, ObjectId object,
                           Point loc, RemoveUpdate* out) {
  StatusOr<Node> read = ReadNode(page);
  if (!read.ok()) return read.status();
  Node node = std::move(read).value();
  out->found = false;

  if (level == 1) {
    for (size_t i = 0; i < node.leaf_entries.size(); ++i) {
      if (node.leaf_entries[i].object == object) {
        node.leaf_entries.erase(node.leaf_entries.begin() + i);
        out->found = true;
        break;
      }
    }
  } else {
    for (size_t i = 0; i < node.inner_entries.size(); ++i) {
      InnerEntry& entry = node.inner_entries[i];
      if (!entry.mbr.Contains(loc)) continue;
      RemoveUpdate child_update;
      WSK_RETURN_IF_ERROR(RemoveFrom(entry.child, level - 1, object, loc,
                                     &child_update));
      if (!child_update.found) continue;
      out->found = true;
      if (child_update.now_empty) {
        node.inner_entries.erase(node.inner_entries.begin() + i);
      } else {
        entry.mbr = child_update.updated.mbr;
        entry.cnt = child_update.updated.cnt;
        StatusOr<BlobRef> kcm = WriteKcm(child_update.updated.kcm);
        if (!kcm.ok()) return kcm.status();
        entry.kcm = kcm.value();
      }
      break;
    }
  }
  if (!out->found) return Status::Ok();

  out->now_empty = node.size() == 0;
  if (!out->now_empty) {
    StatusOr<Summary> summary = ComputeSummary(node);
    if (!summary.ok()) return summary.status();
    out->updated = std::move(summary).value();
  }
  return WriteNode(page, node);
}

Status KcrTree::Remove(ObjectId object, Point loc) {
  if (options_.format == kNodeFormatV2) {
    return Status::FailedPrecondition(
        "v2 KcR-trees are immutable; rebuild instead of removing");
  }
  if (height_ == 0) return Status::NotFound("tree is empty");
  RemoveUpdate update;
  WSK_RETURN_IF_ERROR(RemoveFrom(root_, height_, object, loc, &update));
  if (!update.found) return Status::NotFound("object not in the tree");
  --num_objects_;
  if (update.now_empty) {
    root_ = kInvalidPageId;
    height_ = 0;
    root_mbr_ = Rect{};
    root_cnt_ = 0;
    root_kcm_ = BlobRef{};
    WSK_CHECK(num_objects_ == 0);
    return Status::Ok();
  }
  root_mbr_ = update.updated.mbr;
  root_cnt_ = update.updated.cnt;
  StatusOr<BlobRef> root_kcm = WriteKcm(update.updated.kcm);
  if (!root_kcm.ok()) return root_kcm.status();
  root_kcm_ = root_kcm.value();
  return Status::Ok();
}

Status KcrTree::Insert(const SpatialObject& object) {
  if (options_.format == kNodeFormatV2) {
    return Status::FailedPrecondition(
        "v2 KcR-trees are immutable; rebuild instead of inserting");
  }
  StatusOr<BlobRef> keywords = WriteKeywordSet(object.doc);
  if (!keywords.ok()) return keywords.status();

  if (height_ == 0) {
    Node root;
    root.is_leaf = true;
    root.leaf_entries.push_back(
        LeafEntry{object.id, object.loc, keywords.value()});
    root_ = AllocateNodeSlot();
    WSK_RETURN_IF_ERROR(WriteNode(root_, root));
    height_ = 1;
    num_objects_ = 1;
    root_mbr_ = Rect::FromPoint(object.loc);
    root_cnt_ = 1;
    KeywordCountMap kcm = KeywordCountMap::FromDoc(object.doc);
    StatusOr<BlobRef> root_kcm = WriteKcm(kcm);
    if (!root_kcm.ok()) return root_kcm.status();
    root_kcm_ = root_kcm.value();
    return Status::Ok();
  }

  ChildUpdate update;
  WSK_RETURN_IF_ERROR(
      InsertInto(root_, height_, object, keywords.value(), &update));
  Summary root_summary = update.updated;
  if (update.split) {
    Node new_root;
    new_root.is_leaf = false;
    StatusOr<BlobRef> kcm = WriteKcm(update.updated.kcm);
    if (!kcm.ok()) return kcm.status();
    new_root.inner_entries.push_back(InnerEntry{
        root_, update.updated.mbr, update.updated.cnt, kcm.value()});
    StatusOr<BlobRef> kcm2 = WriteKcm(update.sibling.kcm);
    if (!kcm2.ok()) return kcm2.status();
    new_root.inner_entries.push_back(
        InnerEntry{update.new_child, update.sibling.mbr, update.sibling.cnt,
                   kcm2.value()});
    root_ = AllocateNodeSlot();
    WSK_RETURN_IF_ERROR(WriteNode(root_, new_root));
    ++height_;
    root_summary.mbr = update.updated.mbr;
    root_summary.mbr.Extend(update.sibling.mbr);
    root_summary.kcm.Merge(update.sibling.kcm);
    root_summary.cnt = update.updated.cnt + update.sibling.cnt;
  }
  root_mbr_ = root_summary.mbr;
  root_cnt_ = root_summary.cnt;
  StatusOr<BlobRef> root_kcm = WriteKcm(root_summary.kcm);
  if (!root_kcm.ok()) return root_kcm.status();
  root_kcm_ = root_kcm.value();
  ++num_objects_;
  return Status::Ok();
}

}  // namespace wsk
