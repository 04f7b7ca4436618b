#include "uvm/large_frames.hpp"

#include <cassert>

namespace uvmsim {

void LargeFrameManager::schedule_scan(LargeId l) {
  if (!pending_.insert(l)) return;  // a scan is already queued
  eq_.schedule_in(scan_delay_, [this, l] {
    pending_.erase(l);
    try_coalesce(l);
  });
}

bool LargeFrameManager::candidate(LargeId l, FrameId& base_out) const {
  if (pt_.large_mapped(l)) return false;  // already one big page
  const ChunkId c0 = first_chunk_of_large(l);
  for (u32 k = 0; k < kLargeChunks; ++k) {
    const ChunkEntry* e = chains_.find(c0 + k);
    if (e == nullptr || !e->resident.full() || !e->touched.full() ||
        e->pinned() || e->spilled)
      return false;
  }
  // Physical contiguity on an aligned slot: the FramePool's slot binding
  // makes this the overwhelmingly common layout, but fallback allocations
  // under pressure can scatter a region — then it simply stays small.
  const PageId p0 = first_page_of_large(l);
  const FrameId base = pt_.frame_of(p0);
  if (base == kInvalidFrame || base % kLargePages != 0) return false;
  for (u32 i = 1; i < kLargePages; ++i)
    if (pt_.frame_of(p0 + i) != base + i) return false;
  base_out = base;
  return true;
}

bool LargeFrameManager::try_coalesce(LargeId l) {
  FrameId base = kInvalidFrame;
  if (!candidate(l, base)) return false;
  pt_.promote(l, base);
  ++stats_.coalesces;
  record_event(rec_, EventType::kCoalesce, first_chunk_of_large(l), base, l);
  return true;
}

void LargeFrameManager::splinter(LargeId l, SplinterReason reason) {
  assert(pt_.large_mapped(l));
  pt_.demote(l);
  ++stats_.splinters;
  record_event(rec_, EventType::kSplinter, first_chunk_of_large(l), l,
               static_cast<u64>(reason));
  shootdowns_.large(l);
}

}  // namespace uvmsim
