#include "index/merged_source.h"

#include <limits>

#include "common/macros.h"

namespace wsk {

MergedTopKSource::MergedTopKSource(std::vector<MergedSegment> segments,
                                   std::vector<const SpatialObject*> extras,
                                   double diagonal, TraceRecorder* trace)
    : segments_(std::move(segments)),
      extras_(std::move(extras)),
      diagonal_(diagonal),
      trace_(trace) {
  WSK_CHECK_MSG(segments_.size() <= kMaxSegments,
                "too many segments for one snapshot");
  for (const MergedSegment& seg : segments_) WSK_CHECK(seg.source != nullptr);
}

PageId MergedTopKSource::SearchRoot() const {
  if (!extras_.empty()) return kVirtualRoot;
  for (const MergedSegment& seg : segments_) {
    if (seg.source->SearchRoot() != kInvalidPageId) return kVirtualRoot;
  }
  return kInvalidPageId;
}

Status MergedTopKSource::ExpandNode(PageId node,
                                    std::span<const ExpandSlot> slots) const {
  if (node == kVirtualRoot) {
    for (const ExpandSlot& slot : slots) {
      // Segment roots at +inf: they are expanded before any object emits,
      // so each segment's own bounds gate the traversal from the first
      // level.
      for (size_t i = 0; i < segments_.size(); ++i) {
        const PageId root = segments_[i].source->SearchRoot();
        if (root == kInvalidPageId) continue;
        WSK_CHECK_MSG(root <= kLocalMask, "segment root outside namespace");
        SearchEntry entry;
        entry.bound = std::numeric_limits<double>::infinity();
        entry.node = static_cast<PageId>((i + 1) << kSegmentShift) | root;
        slot.out->push_back(entry);
      }
      // Delta objects: exact scores, emitted straight into the frontier
      // (the iterator drops those at or below its floor).
      *slot.objects_scored += extras_.size();
      {
        TraceSpan span(trace_, TraceStage::kDeltaScan);
        for (const SpatialObject* object : extras_) {
          SearchEntry entry;
          entry.bound = Score(*object, *slot.query, diagonal_);
          entry.is_object = true;
          entry.object = object->id;
          slot.out->push_back(entry);
        }
      }
      if (trace_ != nullptr) {
        trace_->Add(TraceCounter::kSegmentsVisited,
                    segments_.size() + (extras_.empty() ? 0 : 1));
        trace_->Add(TraceCounter::kDeltaObjectsScanned, extras_.size());
      }
    }
    return Status::Ok();
  }

  const size_t seg_index = (node >> kSegmentShift) - 1;
  WSK_CHECK_MSG(seg_index < segments_.size(), "page outside any segment");
  const MergedSegment& seg = segments_[seg_index];
  std::vector<size_t> starts;
  starts.reserve(slots.size());
  for (const ExpandSlot& slot : slots) starts.push_back(slot.out->size());
  // Objects the segment's leaf scorer examined count as scored even when
  // tombstoned here.
  WSK_RETURN_IF_ERROR(seg.source->ExpandNode(node & kLocalMask, slots));
  for (size_t s = 0; s < slots.size(); ++s) {
    std::vector<SearchEntry>& out = *slots[s].out;
    size_t kept = starts[s];
    for (size_t e = starts[s]; e < out.size(); ++e) {
      SearchEntry entry = out[e];
      if (entry.is_object) {
        if (seg.visibility != nullptr &&
            !seg.visibility->IsVisible(entry.object)) {
          continue;  // tombstoned at this snapshot
        }
      } else {
        WSK_CHECK_MSG(entry.node <= kLocalMask,
                      "child page outside namespace");
        entry.node =
            static_cast<PageId>((seg_index + 1) << kSegmentShift) | entry.node;
      }
      out[kept++] = entry;
    }
    out.resize(kept);
  }
  return Status::Ok();
}

}  // namespace wsk
