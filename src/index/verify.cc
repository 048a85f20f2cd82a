#include "index/verify.h"

#include <algorithm>
#include <string>

namespace wsk {

namespace {

Status CorruptionAt(PageId page, const std::string& what) {
  return Status::Corruption("node " + std::to_string(page) + ": " + what);
}

// What a subtree recomputes to: its MBR, its payload summary and its
// object count.
template <typename Payload>
struct Facts {
  Rect mbr;
  typename Payload::Summary summary;
  uint64_t objects = 0;
};

// Payload checks of one inner entry against its recomputed subtree; each
// returns what differs, or nullptr.
const char* CheckEntry(const SetRTree::DecodedNode& decoded, size_t i,
                       const SetRTree::InnerEntry&,
                       const Facts<SetRPayload>& child, VerifyStats* stats) {
  stats->blobs_read += 2;
  if (!(decoded.child_union[i] == child.summary.uni)) {
    return "entry union set differs from subtree";
  }
  if (!std::equal(child.summary.min_len.begin(), child.summary.min_len.end(),
                  decoded.MinLengths(i))) {
    return "entry length codes differ from subtree";
  }
  if (!(decoded.child_inter[i] == child.summary.inter)) {
    return "entry intersection set differs from subtree";
  }
  return nullptr;
}

const char* CheckEntry(const KcrTree::DecodedNode& decoded, size_t i,
                       const KcrTree::InnerEntry& entry,
                       const Facts<KcrPayload>& child, VerifyStats* stats) {
  if (entry.cnt != child.objects) return "entry cnt differs from subtree";
  ++stats->blobs_read;
  if (!(decoded.child_kcms[i] == child.summary.kcm)) {
    return "entry keyword-count map differs";
  }
  return nullptr;
}

// Walks over fully materialized nodes (ReadDecodedNode, uncached), which
// makes the checks format-agnostic: v1 payloads come from the blob store,
// v2 payloads decode inline, and the invariants are identical. blobs_read
// counts verified payloads either way, so expectations carry across
// formats.
template <typename Payload>
Status Walk(const StaticRTree<Payload>& tree, PageId page, uint32_t level,
            VerifyStats* stats, Facts<Payload>* out) {
  // Structural checks run on the bare node before any payload is
  // materialized: a node whose header lies about its kind carries garbage
  // payload references, and dereferencing them must not happen.
  auto head = tree.ReadNode(page);
  if (!head.ok()) return head.status();
  ++stats->nodes_visited;

  if (head.value().size() == 0) return CorruptionAt(page, "empty node");
  if (head.value().size() > tree.options().capacity) {
    return CorruptionAt(page, "fan-out exceeds capacity");
  }
  if (head.value().is_leaf != (level == 1)) {
    return CorruptionAt(page, "leaf flag inconsistent with depth");
  }

  auto read = tree.ReadDecodedNode(page, /*use_cache=*/false);
  if (!read.ok()) return read.status();
  const auto& decoded = *read.value();
  const auto& node = decoded.node;

  Facts<Payload> facts;
  for (size_t i = 0; i < node.leaf_entries.size(); ++i) {
    ++stats->blobs_read;
    ++stats->objects_seen;
    facts.mbr.Extend(node.leaf_entries[i].loc);
    facts.summary.AddDoc(decoded.leaf_docs[i]);
    facts.objects += 1;
  }
  for (size_t i = 0; i < node.inner_entries.size(); ++i) {
    const auto& e = node.inner_entries[i];
    Facts<Payload> child;
    WSK_RETURN_IF_ERROR(Walk(tree, e.child, level - 1, stats, &child));
    if (!e.mbr.ContainsRect(child.mbr)) {
      return CorruptionAt(page, "entry MBR does not contain its subtree");
    }
    if (const char* differs = CheckEntry(decoded, i, e, child, stats)) {
      return CorruptionAt(page, differs);
    }
    facts.mbr.Extend(child.mbr);
    facts.summary.AddChild(child.summary);
    facts.objects += child.objects;
  }
  *out = std::move(facts);
  return Status::Ok();
}

template <typename Payload>
Status VerifyTree(const StaticRTree<Payload>& tree, VerifyStats* stats,
                  Facts<Payload>* facts) {
  VerifyStats local;
  if (stats == nullptr) stats = &local;
  *stats = VerifyStats{};
  if (tree.height() == 0) {
    if (tree.num_objects() != 0) {
      return Status::Corruption("empty tree claims objects");
    }
    return Status::Ok();
  }
  WSK_RETURN_IF_ERROR(
      Walk(tree, tree.SearchRoot(), tree.height(), stats, facts));
  if (facts->objects != tree.num_objects()) {
    return Status::Corruption("reachable objects differ from num_objects");
  }
  return Status::Ok();
}

}  // namespace

Status VerifySetRTree(const SetRTree& tree, VerifyStats* stats) {
  Facts<SetRPayload> facts;
  return VerifyTree(tree, stats, &facts);
}

Status VerifyKcrTree(const KcrTree& tree, VerifyStats* stats) {
  Facts<KcrPayload> facts;
  WSK_RETURN_IF_ERROR(VerifyTree(tree, stats, &facts));
  if (tree.height() == 0) return Status::Ok();
  if (facts.objects != tree.root_cnt()) {
    return Status::Corruption("root cnt differs from reachable objects");
  }
  StatusOr<KeywordCountMap> root_kcm = tree.ReadRootKcm();
  if (!root_kcm.ok()) return root_kcm.status();
  if (!(root_kcm.value() == facts.summary.kcm)) {
    return Status::Corruption("root keyword-count map differs from subtree");
  }
  return Status::Ok();
}

}  // namespace wsk
