#include "index/setr_tree.h"

#include <algorithm>
#include <limits>
#include <string>

#include "index/leaf_scorer.h"
#include "index/node_codec.h"
#include "index/str_pack.h"

namespace wsk {

namespace {

constexpr uint32_t kMagic = 0x53524b57;  // "WKRS"
constexpr size_t kHeaderBytes = 8;       // kind u8 + pad[3] + count u32
constexpr size_t kLeafEntryBytes = 4 + 16 + BlobRef::kSerializedSize;   // 32
constexpr size_t kInnerEntryBytes = 4 + 32 + 2 * BlobRef::kSerializedSize;

size_t NodeBytes(uint32_t capacity) {
  return kHeaderBytes +
         static_cast<size_t>(capacity) *
             std::max(kLeafEntryBytes, kInnerEntryBytes);
}

void SerializeNode(const SetRTree::Node& node, std::vector<uint8_t>* out) {
  out->clear();
  ByteWriter writer(out);
  writer.PutU8(node.is_leaf ? 0 : 1);
  writer.PutU8(0);
  writer.PutU8(0);
  writer.PutU8(0);
  writer.PutU32(static_cast<uint32_t>(node.size()));
  if (node.is_leaf) {
    for (const SetRTree::LeafEntry& e : node.leaf_entries) {
      writer.PutU32(e.object);
      writer.PutDouble(e.loc.x);
      writer.PutDouble(e.loc.y);
      uint8_t ref[BlobRef::kSerializedSize];
      e.keywords.Serialize(ref);
      writer.PutBytes(ref, sizeof(ref));
    }
  } else {
    for (const SetRTree::InnerEntry& e : node.inner_entries) {
      writer.PutU32(e.child);
      writer.PutRect(e.mbr);
      uint8_t ref[BlobRef::kSerializedSize];
      e.union_set.Serialize(ref);
      writer.PutBytes(ref, sizeof(ref));
      e.inter_set.Serialize(ref);
      writer.PutBytes(ref, sizeof(ref));
    }
  }
}

// Validates the header before decoding: a corrupted kind byte or entry
// count must surface as Corruption, not as a decode overrun. Parses in
// place over whatever span the caller holds (typically a zero-copy
// NodeView over the pinned page).
StatusOr<SetRTree::Node> DeserializeNode(PageId page, const uint8_t* data,
                                         size_t size) {
  ByteReader reader(data, size);
  SetRTree::Node node;
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
      SetRTree::LeafEntry e;
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
      SetRTree::InnerEntry e;
      e.child = reader.GetU32();
      e.mbr = reader.GetRect();
      e.union_set =
          BlobRef::Deserialize(reader.GetBytes(BlobRef::kSerializedSize));
      e.inter_set =
          BlobRef::Deserialize(reader.GetBytes(BlobRef::kSerializedSize));
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

// The inverse; appends nothing on failure beyond what the reader consumed.
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

// Digest of a decoded node's primary payload, used by the cache's
// no-mutation check (debug builds / sanitizer tests).
uint64_t FingerprintDecodedNode(const void* value) {
  const auto* decoded = static_cast<const SetRTree::DecodedNode*>(value);
  FingerprintHasher hasher;
  hasher.MixU64(decoded->node.is_leaf ? 1 : 0);
  hasher.MixU64(decoded->node.size());
  auto mix_set = [&hasher](const KeywordSet& set) {
    const std::vector<TermId>& terms = set.terms();
    hasher.Mix(terms.data(), terms.size() * sizeof(TermId));
  };
  if (decoded->node.is_leaf) {
    for (size_t i = 0; i < decoded->node.leaf_entries.size(); ++i) {
      const SetRTree::LeafEntry& e = decoded->node.leaf_entries[i];
      hasher.MixU64(e.object);
      hasher.Mix(&e.loc, sizeof(e.loc));
      mix_set(decoded->leaf_docs[i]);
    }
  } else {
    for (size_t i = 0; i < decoded->node.inner_entries.size(); ++i) {
      const SetRTree::InnerEntry& e = decoded->node.inner_entries[i];
      hasher.MixU64(e.child);
      hasher.Mix(&e.mbr, sizeof(e.mbr));
      mix_set(decoded->child_union[i]);
      mix_set(decoded->child_inter[i]);
    }
  }
  return hasher.digest();
}

}  // namespace

Rect SetRTree::Node::ComputeMbr() const {
  Rect mbr;
  if (is_leaf) {
    for (const LeafEntry& e : leaf_entries) mbr.Extend(e.loc);
  } else {
    for (const InnerEntry& e : inner_entries) mbr.Extend(e.mbr);
  }
  return mbr;
}

SetRTree::SetRTree(BufferPool* pool, const Options& options, double diagonal)
    : pool_(pool), blobs_(pool), options_(options), diagonal_(diagonal) {
  const uint32_t page_size = pool->pager()->page_size();
  pages_per_node_ = static_cast<uint32_t>(
      (NodeBytes(options.capacity) + page_size - 1) / page_size);
}

StatusOr<std::unique_ptr<SetRTree>> SetRTree::CreateEmpty(
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
        "SetRTree::CreateEmpty requires a fresh pager file");
  }
  if (diagonal <= 0.0) {
    return Status::InvalidArgument("diagonal must be positive");
  }
  std::unique_ptr<SetRTree> tree(new SetRTree(pool, options, diagonal));
  tree->meta_page_ = pool->pager()->AllocatePages(1);
  WSK_RETURN_IF_ERROR(tree->WriteMeta());
  return tree;
}

StatusOr<std::unique_ptr<SetRTree>> SetRTree::BulkLoad(const Dataset& dataset,
                                                       BufferPool* pool,
                                                       const Options& options) {
  return BulkLoadObjects(dataset.objects(), dataset.diagonal(), pool, options);
}

StatusOr<std::unique_ptr<SetRTree>> SetRTree::BulkLoadObjects(
    const std::vector<SpatialObject>& objects, double diagonal,
    BufferPool* pool, const Options& options) {
  StatusOr<std::unique_ptr<SetRTree>> created =
      CreateEmpty(pool, diagonal, options);
  if (!created.ok()) return created.status();
  std::unique_ptr<SetRTree> tree = std::move(created).value();
  if (objects.empty()) {
    WSK_RETURN_IF_ERROR(tree->Finalize());
    return tree;
  }

  // Level summaries carried up between rounds of STR packing.
  struct Pending {
    PageId page;
    Summary summary;
    Point center;
  };

  // --- Leaf level ---
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
    bool first = true;
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
      summary.uni = summary.uni.Union(o.doc);
      summary.inter = first ? o.doc : summary.inter.Intersect(o.doc);
      first = false;
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

  // --- Upper levels ---
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
      bool first = true;
      std::vector<const KeywordSet*> unis, inters;
      for (uint32_t idx : group) {
        const Pending& child = level[idx];
        BlobRef uni_ref, inter_ref;
        if (v2) {
          unis.push_back(&child.summary.uni);
          inters.push_back(&child.summary.inter);
        } else {
          StatusOr<BlobRef> uni = tree->WriteKeywordSet(child.summary.uni);
          if (!uni.ok()) return uni.status();
          StatusOr<BlobRef> inter = tree->WriteKeywordSet(child.summary.inter);
          if (!inter.ok()) return inter.status();
          uni_ref = uni.value();
          inter_ref = inter.value();
        }
        node.inner_entries.push_back(InnerEntry{child.page, child.summary.mbr,
                                                uni_ref, inter_ref});
        summary.mbr.Extend(child.summary.mbr);
        summary.uni = summary.uni.Union(child.summary.uni);
        summary.inter =
            first ? child.summary.inter
                  : summary.inter.Intersect(child.summary.inter);
        first = false;
      }
      PageId page;
      if (v2) {
        StatusOr<PageId> appended =
            tree->AppendNodeV2(node, unis, inters, children_are_leaves);
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
  WSK_RETURN_IF_ERROR(tree->Finalize());
  return tree;
}

StatusOr<std::unique_ptr<SetRTree>> SetRTree::Open(BufferPool* pool) {
  std::unique_ptr<SetRTree> tree(new SetRTree(pool, Options{}, 1.0));
  tree->meta_page_ = 0;
  WSK_RETURN_IF_ERROR(tree->ReadMeta());
  return tree;
}

PageId SetRTree::AllocateNodeSlot() {
  return pool_->pager()->AllocatePages(pages_per_node_);
}

Status SetRTree::WriteNode(PageId page, const Node& node) {
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

StatusOr<PageId> SetRTree::AppendNodeV2(
    const Node& node, const std::vector<const KeywordSet*>& primary,
    const std::vector<const KeywordSet*>& secondary,
    bool children_are_leaves) {
  std::vector<uint8_t> body;
  if (node.is_leaf) {
    for (size_t i = 0; i < node.leaf_entries.size(); ++i) {
      const LeafEntry& e = node.leaf_entries[i];
      PutVarint(&body, e.object);
      ByteWriter writer(&body);
      writer.PutDouble(e.loc.x);
      writer.PutDouble(e.loc.y);
      PutKeywordSetV2(&body, *primary[i]);
    }
  } else {
    for (size_t i = 0; i < node.inner_entries.size(); ++i) {
      const InnerEntry& e = node.inner_entries[i];
      PutVarint(&body, MakeChildRef(e.child, children_are_leaves));
      ByteWriter writer(&body);
      writer.PutRect(e.mbr);
      PutKeywordSetV2(&body, *primary[i]);
      PutKeywordSetV2(&body, *secondary[i]);
    }
  }
  return AppendNodeRecordV2(pool_, node.is_leaf,
                            static_cast<uint32_t>(node.size()), body);
}

StatusOr<std::shared_ptr<const SetRTree::DecodedNode>>
SetRTree::MaterializeNodeV2(PageId page) const {
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
    decoded->child_union.reserve(rec.count());
    decoded->child_inter.reserve(rec.count());
    for (uint32_t i = 0; i < rec.count(); ++i) {
      InnerEntry e;
      uint64_t ref = 0;
      if (!reader.GetVarint(&ref)) return corrupt("bad child reference");
      const PageId child = ChildRefPage(ref);
      // Page 0 is the meta page; a child there or past the file is a
      // corrupted reference, caught before anyone tries to follow it.
      if (child == 0 || child >= num_pages ||
          (ref >> 1) > 0xffffffffull) {
        return corrupt("child reference out of range");
      }
      e.child = child;
      if (!reader.GetRect(&e.mbr)) return corrupt("truncated inner entry");
      KeywordSet uni, inter;
      if (!GetKeywordSetV2(&reader, &uni) ||
          !GetKeywordSetV2(&reader, &inter)) {
        return corrupt("malformed summary keyword set");
      }
      bytes += sizeof(InnerEntry) + 2 * sizeof(KeywordSet) +
               uni.SerializedSize() + inter.SerializedSize();
      decoded->node.inner_entries.push_back(e);
      decoded->child_union.push_back(std::move(uni));
      decoded->child_inter.push_back(std::move(inter));
    }
  }
  if (reader.remaining() != 0) {
    return corrupt("trailing bytes after the last entry");
  }
  decoded->memory_bytes = bytes;
  return StatusOr<std::shared_ptr<const DecodedNode>>(std::move(decoded));
}

StatusOr<SetRTree::Node> SetRTree::ReadNode(PageId page) const {
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

StatusOr<NodeStat> SetRTree::StatNode(PageId page) const {
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

void SetRTree::AttachNodeCache(NodeCache* cache) {
  cache_ = cache;
  if (cache != nullptr && cache_tree_id_ == 0) {
    cache_tree_id_ = NodeCache::NextTreeId();
  }
}

StatusOr<std::shared_ptr<const SetRTree::DecodedNode>>
SetRTree::MaterializeNode(PageId page) const {
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
    decoded->child_union.reserve(node.inner_entries.size());
    decoded->child_inter.reserve(node.inner_entries.size());
    for (const InnerEntry& e : node.inner_entries) {
      StatusOr<KeywordSet> uni = ReadKeywordSet(e.union_set);
      if (!uni.ok()) return uni.status();
      StatusOr<KeywordSet> inter = ReadKeywordSet(e.inter_set);
      if (!inter.ok()) return inter.status();
      bytes += 2 * sizeof(KeywordSet) + uni.value().SerializedSize() +
               inter.value().SerializedSize();
      decoded->child_union.push_back(std::move(uni).value());
      decoded->child_inter.push_back(std::move(inter).value());
    }
  }
  decoded->memory_bytes = bytes;
  return StatusOr<std::shared_ptr<const DecodedNode>>(std::move(decoded));
}

StatusOr<std::shared_ptr<const SetRTree::DecodedNode>>
SetRTree::ReadDecodedNode(PageId page, bool use_cache) const {
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

StatusOr<BlobRef> SetRTree::WriteKeywordSet(const KeywordSet& set) {
  std::vector<uint8_t> bytes;
  set.Serialize(&bytes);
  return blobs_.Append(bytes);
}

StatusOr<KeywordSet> SetRTree::ReadKeywordSet(const BlobRef& ref) const {
  std::vector<uint8_t> bytes;
  WSK_RETURN_IF_ERROR(blobs_.Read(ref, &bytes));
  return KeywordSet::Deserialize(bytes.data(), bytes.size());
}

Status SetRTree::WriteMeta() {
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
  bytes.resize(pool_->pager()->page_size(), 0);
  return WriteNodeBytes(pool_, meta_page_, 1, bytes.data());
}

Status SetRTree::ReadMeta() {
  // Meta pages are single-page by construction: zero-copy view.
  StatusOr<NodeView> view = NodeView::Read(pool_, meta_page_, 1);
  if (!view.ok()) return view.status();
  ByteReader reader(view.value().data(), view.value().size());
  if (reader.GetU32() != kMagic) {
    return Status::Corruption("not a SetR-tree file");
  }
  const uint32_t version = reader.GetU32();
  if (version != kNodeFormatV1 && version != kNodeFormatV2) {
    return Status::Corruption("unsupported SetR-tree version");
  }
  options_.format = static_cast<uint8_t>(version);
  options_.capacity = reader.GetU32();
  pages_per_node_ = reader.GetU32();
  root_ = reader.GetU32();
  height_ = reader.GetU32();
  num_objects_ = reader.GetU64();
  diagonal_ = reader.GetDouble();
  options_.model = static_cast<SimilarityModel>(reader.GetU8());
  return Status::Ok();
}

Status SetRTree::Finalize() {
  WSK_RETURN_IF_ERROR(blobs_.Flush());
  WSK_RETURN_IF_ERROR(WriteMeta());
  return pool_->FlushAll();
}

PageId SetRTree::SearchRoot() const {
  return height_ == 0 ? kInvalidPageId : root_;
}

namespace {

void AppendInnerEntries(const SetRTree::DecodedNode& decoded, double diagonal,
                        const SpatialKeywordQuery& query,
                        std::vector<SearchEntry>* out) {
  const SetRTree::Node& node = decoded.node;
  const double alpha = query.alpha;
  for (size_t i = 0; i < node.inner_entries.size(); ++i) {
    const SetRTree::InnerEntry& e = node.inner_entries[i];
    const KeywordSet& uni = decoded.child_union[i];
    const KeywordSet& inter = decoded.child_inter[i];
    // Theorem 1: ST(o, q) <= alpha (1 - MinDist(q, N.mbr)) +
    //            (1 - alpha) |N_u ∩ q| / |N_i ∪ q| for every o under N.
    const double min_sdist = MinDist(query.loc, e.mbr) / diagonal;
    const double tsim_bound = NodeSimilarityUpperBound(
        uni.IntersectionSize(query.doc), inter.UnionSize(query.doc),
        inter.size(), query.doc.size(), query.model);
    SearchEntry entry;
    entry.bound = alpha * (1.0 - min_sdist) + (1.0 - alpha) * tsim_bound;
    entry.node = e.child;
    out->push_back(entry);
  }
}

}  // namespace

Status SetRTree::ExpandNode(PageId page, const SpatialKeywordQuery& query,
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
    AppendInnerEntries(decoded, diagonal_, query, out);
  }
  return Status::Ok();
}

Status SetRTree::ExpandNodeBatch(PageId page,
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
    // Inner nodes: the decode is the shared cost; the Theorem 1 bound is a
    // per-query set computation either way.
    for (size_t qi = 0; qi < count; ++qi) {
      AppendInnerEntries(decoded, diagonal_, *queries[qi], outs[qi]);
    }
    return Status::Ok();
  }
  ScoreLeafBatch(node.leaf_entries, decoded.leaf_docs, diagonal_, queries,
                 outs, count);
  return Status::Ok();
}

StatusOr<SetRTree::Summary> SetRTree::ComputeSummary(const Node& node) const {
  Summary summary;
  bool first = true;
  if (node.is_leaf) {
    for (const LeafEntry& e : node.leaf_entries) {
      StatusOr<KeywordSet> doc = ReadKeywordSet(e.keywords);
      if (!doc.ok()) return doc.status();
      summary.mbr.Extend(e.loc);
      summary.uni = summary.uni.Union(doc.value());
      summary.inter = first ? doc.value() : summary.inter.Intersect(doc.value());
      first = false;
    }
  } else {
    for (const InnerEntry& e : node.inner_entries) {
      StatusOr<KeywordSet> uni = ReadKeywordSet(e.union_set);
      if (!uni.ok()) return uni.status();
      StatusOr<KeywordSet> inter = ReadKeywordSet(e.inter_set);
      if (!inter.ok()) return inter.status();
      summary.mbr.Extend(e.mbr);
      summary.uni = summary.uni.Union(uni.value());
      summary.inter = first ? inter.value() : summary.inter.Intersect(inter.value());
      first = false;
    }
  }
  return summary;
}

void SetRTree::QuadraticSplit(Node* node, Node* sibling) const {
  sibling->is_leaf = node->is_leaf;
  const size_t total = node->size();
  const size_t min_fill = std::max<size_t>(1, options_.capacity * 2 / 5);

  auto rect_of = [&](size_t i) -> Rect {
    if (node->is_leaf) return Rect::FromPoint(node->leaf_entries[i].loc);
    return node->inner_entries[i].mbr;
  };

  // Pick the pair of entries that wastes the most area together.
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
    // Force assignment when one side must take everything left to reach
    // the minimum fill.
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
      // Choose the unassigned entry with the greatest preference.
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

  // Materialize the partition.
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

Status SetRTree::InsertInto(PageId page, uint32_t level,
                            const SpatialObject& object, BlobRef keywords_ref,
                            ChildUpdate* out) {
  StatusOr<Node> read = ReadNode(page);
  if (!read.ok()) return read.status();
  Node node = std::move(read).value();

  if (level == 1) {
    WSK_CHECK(node.is_leaf);
    node.leaf_entries.push_back(LeafEntry{object.id, object.loc, keywords_ref});
  } else {
    WSK_CHECK(!node.is_leaf);
    // Guttman descent: least enlargement, then least area, then lowest id.
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
    StatusOr<BlobRef> uni = WriteKeywordSet(child_update.updated.uni);
    if (!uni.ok()) return uni.status();
    StatusOr<BlobRef> inter = WriteKeywordSet(child_update.updated.inter);
    if (!inter.ok()) return inter.status();
    entry.union_set = uni.value();
    entry.inter_set = inter.value();
    if (child_update.split) {
      StatusOr<BlobRef> uni2 = WriteKeywordSet(child_update.sibling.uni);
      if (!uni2.ok()) return uni2.status();
      StatusOr<BlobRef> inter2 = WriteKeywordSet(child_update.sibling.inter);
      if (!inter2.ok()) return inter2.status();
      node.inner_entries.push_back(
          InnerEntry{child_update.new_child, child_update.sibling.mbr,
                     uni2.value(), inter2.value()});
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

Status SetRTree::RemoveFrom(PageId page, uint32_t level, ObjectId object,
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
        StatusOr<BlobRef> uni = WriteKeywordSet(child_update.updated.uni);
        if (!uni.ok()) return uni.status();
        StatusOr<BlobRef> inter = WriteKeywordSet(child_update.updated.inter);
        if (!inter.ok()) return inter.status();
        entry.union_set = uni.value();
        entry.inter_set = inter.value();
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

Status SetRTree::Remove(ObjectId object, Point loc) {
  if (options_.format == kNodeFormatV2) {
    return Status::FailedPrecondition(
        "v2 SetR-trees are immutable; rebuild instead of removing");
  }
  if (height_ == 0) return Status::NotFound("tree is empty");
  RemoveUpdate update;
  WSK_RETURN_IF_ERROR(RemoveFrom(root_, height_, object, loc, &update));
  if (!update.found) return Status::NotFound("object not in the tree");
  --num_objects_;
  if (update.now_empty) {
    root_ = kInvalidPageId;
    height_ = 0;
    WSK_CHECK(num_objects_ == 0);
  }
  return Status::Ok();
}

Status SetRTree::Insert(const SpatialObject& object) {
  if (options_.format == kNodeFormatV2) {
    return Status::FailedPrecondition(
        "v2 SetR-trees are immutable; rebuild instead of inserting");
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
    return Status::Ok();
  }

  ChildUpdate update;
  WSK_RETURN_IF_ERROR(
      InsertInto(root_, height_, object, keywords.value(), &update));
  if (update.split) {
    // Grow the tree: a new root over the old root and its sibling.
    Node new_root;
    new_root.is_leaf = false;
    StatusOr<BlobRef> uni = WriteKeywordSet(update.updated.uni);
    if (!uni.ok()) return uni.status();
    StatusOr<BlobRef> inter = WriteKeywordSet(update.updated.inter);
    if (!inter.ok()) return inter.status();
    new_root.inner_entries.push_back(
        InnerEntry{root_, update.updated.mbr, uni.value(), inter.value()});
    StatusOr<BlobRef> uni2 = WriteKeywordSet(update.sibling.uni);
    if (!uni2.ok()) return uni2.status();
    StatusOr<BlobRef> inter2 = WriteKeywordSet(update.sibling.inter);
    if (!inter2.ok()) return inter2.status();
    new_root.inner_entries.push_back(InnerEntry{update.new_child,
                                                update.sibling.mbr,
                                                uni2.value(), inter2.value()});
    root_ = AllocateNodeSlot();
    WSK_RETURN_IF_ERROR(WriteNode(root_, new_root));
    ++height_;
  }
  ++num_objects_;
  return Status::Ok();
}

}  // namespace wsk
