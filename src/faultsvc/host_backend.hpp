// HostDriverBackend: the classic host-serviced fault path behind the seam.
//
// Queue discipline is one FIFO backlog drained in `fault_batch` windows per
// driver wakeup (a window of 1 is the classic one-fault-per-wakeup driver);
// timing is the paper's fixed host round trip plus any synchronous eviction
// work. It emits no events and keeps FaultBackendStats at zero.
#pragma once

#include <cassert>
#include <deque>

#include "common/config.hpp"
#include "faultsvc/fault_backend.hpp"

namespace uvmsim {

class HostDriverBackend final : public FaultServiceBackend {
 public:
  HostDriverBackend(const SystemConfig& sys, const PolicyConfig& pol,
                    const FaultTable& faults)
      : FaultServiceBackend(faults, pol),
        fault_latency_cycles_(sys.fault_latency_cycles()),
        evict_service_cycles_(sys.evict_service_cycles()) {}

  [[nodiscard]] FaultBackendKind kind() const noexcept override {
    return FaultBackendKind::kHostDriver;
  }

  void raise(PageId p, u32 /*sm*/) override { backlog_.push_back(p); }
  [[nodiscard]] u64 queued() const override { return backlog_.size(); }
  [[nodiscard]] std::vector<PageId> take_batch(
      const TenantTable* tenants) override {
    std::vector<PageId> batch;
    TenantId batch_tenant = kNoTenant;
    while (batch.size() < window_ &&
           drain_one(backlog_, batch, tenants, batch_tenant)) {
    }
    return batch;
  }
  void requeue_front(PageId p) override {
    assert(faults_.pending(p));
    backlog_.push_front(p);
  }

  Cycle reserve_service(Cycle now, PageId /*lead*/, u32 /*faults*/,
                        u64 demand_evictions) override {
    // One fixed round trip per service operation, regardless of how many
    // faults the batch amortises it over (that amortisation is the point of
    // --fault-batch), lengthened by eviction work on the critical path.
    return now + fault_latency_cycles_ + demand_evictions * evict_service_cycles_;
  }

 private:
  std::deque<PageId> backlog_;  ///< raised faults in arrival order
  Cycle fault_latency_cycles_;
  Cycle evict_service_cycles_;
};

}  // namespace uvmsim
