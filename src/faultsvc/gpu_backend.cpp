#include "faultsvc/gpu_backend.hpp"

#include <algorithm>
#include <cassert>

namespace uvmsim {

GpuDrivenBackend::GpuDrivenBackend(const SystemConfig& sys,
                                   const PolicyConfig& pol,
                                   const FaultTable& faults,
                                   FlightRecorder* rec)
    : FaultServiceBackend(faults, pol, rec),
      queue_depth_(std::max(1u, sys.gpu_fault_queue_depth)),
      per_fault_cycles_(sys.gpu_fault_service_cycles()),
      doorbell_cycles_(sys.gpu_doorbell_cycles()),
      evict_service_cycles_(sys.evict_service_cycles()),
      queues_(std::max(1u, sys.num_sms)) {}

void GpuDrivenBackend::raise(PageId p, u32 sm) {
  const u32 q = sm % static_cast<u32>(queues_.size());
  if (queues_[q].size() >= queue_depth_) {
    // The SM's queue is full: GPUVM's faulting warp keeps replaying until a
    // slot frees. The fault spills to the overflow list (drained into the
    // queue as the handler makes space) so it is never lost.
    ++bstats_.queue_full_stalls;
    overflow_.push_back({p, q});
    record_event(rec_, EventType::kFaultQueueFull, p, q, overflow_.size());
    return;
  }
  queues_[q].push_back(p);
  ++bstats_.faults_enqueued;
  bstats_.max_queue_depth =
      std::max<u64>(bstats_.max_queue_depth, queues_[q].size());
  record_event(rec_, EventType::kFaultEnqueued, p, q, queues_[q].size());
}

u64 GpuDrivenBackend::queued() const {
  u64 n = priority_.size() + overflow_.size();
  for (const auto& dq : queues_) n += dq.size();
  return n;
}

void GpuDrivenBackend::refill_from_overflow() {
  // FIFO over the spill list: an entry whose queue is still full stays and
  // blocks later spills to preserve per-queue order.
  std::size_t kept = 0;
  while (kept < overflow_.size()) {
    const Overflow o = overflow_[kept];
    if (!faults_.pending(o.page)) {  // absorbed while spilled
      overflow_.erase(overflow_.begin() + static_cast<std::ptrdiff_t>(kept));
      continue;
    }
    if (queues_[o.queue].size() >= queue_depth_) {
      ++kept;
      continue;
    }
    queues_[o.queue].push_back(o.page);
    ++bstats_.faults_enqueued;
    bstats_.max_queue_depth =
        std::max<u64>(bstats_.max_queue_depth, queues_[o.queue].size());
    record_event(rec_, EventType::kFaultEnqueued, o.page, o.queue,
                 queues_[o.queue].size());
    overflow_.erase(overflow_.begin() + static_cast<std::ptrdiff_t>(kept));
  }
}

std::vector<PageId> GpuDrivenBackend::take_batch(const TenantTable* tenants) {
  std::vector<PageId> batch;
  TenantId batch_tenant = kNoTenant;
  refill_from_overflow();

  // Requeued leads go first — they were already admitted once.
  while (batch.size() < window_ &&
         drain_one(priority_, batch, tenants, batch_tenant)) {
  }

  // Round-robin over the SM queues, one fault per visit, until the window
  // fills or a full sweep finds nothing drainable.
  const u32 n = static_cast<u32>(queues_.size());
  u32 idle_streak = 0;
  while (batch.size() < window_ && idle_streak < n) {
    if (drain_one(queues_[cursor_], batch, tenants, batch_tenant))
      idle_streak = 0;
    else
      ++idle_streak;
    cursor_ = (cursor_ + 1) % n;
  }

  refill_from_overflow();  // the drain freed queue slots
  return batch;
}

void GpuDrivenBackend::requeue_front(PageId p) {
  assert(faults_.pending(p));
  priority_.push_front(p);
}

Cycle GpuDrivenBackend::reserve_service(Cycle now, PageId lead, u32 faults,
                                        u64 demand_evictions) {
  // One handler, strictly serialized: a pickup that arrives while the
  // handler is busy waits for it — bursts queue instead of overlapping.
  const Cycle start = std::max(now, handler_free_);
  const Cycle busy = doorbell_cycles_ + u64{faults} * per_fault_cycles_ +
                     demand_evictions * evict_service_cycles_;
  handler_free_ = start + busy;
  ++bstats_.handler_pickups;
  bstats_.handler_busy_cycles += busy;
  record_event(rec_, EventType::kGpuFaultServiced, lead, faults, busy);
  return handler_free_;
}

}  // namespace uvmsim
