#include "core/system_base.hpp"

#include <algorithm>
#include <utility>

namespace uvmsim {

SystemBase::SystemBase(EngineShape shape)
    : engine_(shape.shards, shape.lookahead, shape.threads),
      trace_(/*staged=*/shape.shards > 1) {}

DeviceStack& SystemBase::add_stack(u32 shard, const SystemConfig& sys,
                                   const PolicyConfig& pol, u64 span_pages,
                                   u64 capacity_pages, u32 device,
                                   std::optional<StackTenancy> tenancy,
                                   Fabric* fabric) {
  stacks_.push_back(std::make_unique<DeviceStack>(engine_.queue(shard), sys, pol,
                                                  span_pages, capacity_pages,
                                                  device, std::move(tenancy),
                                                  fabric));
  trace_.add_recorder(stacks_.back()->recorder());
  return *stacks_.back();
}

RunResult SystemBase::run_and_collect(
    const std::vector<std::unique_ptr<Gpu>>& gpus, Cycle max_cycles) {
  for (const auto& g : gpus) g->launch();
  engine_.run(max_cycles);

  RunResult r;
  r.completed = !gpus.empty();
  Cycle last_finish = 0;
  for (const auto& g : gpus) {
    r.completed = r.completed && g->finished();
    last_finish = std::max(last_finish, g->finish_cycle());
    r.gpu += g->stats();
  }
  Cycle last_now = 0;
  for (u32 s = 0; s < engine_.num_shards(); ++s) {
    const EventQueue& q = engine_.queue(s);
    last_now = std::max(last_now, q.now());
    r.clamped_past += q.clamped_past();
    r.sim.events_executed += q.executed();
    r.sim.event_heap_peak += q.peak_pending();
    r.sim.event_heap_capacity += q.heap_capacity();
    r.sim.oversize_events += q.oversize_events();
  }
  r.cycles = r.completed ? last_finish : last_now;

  UvmDriver& first = stacks_.front()->driver();
  r.eviction_name = first.policy().name();
  r.prefetcher_name = first.prefetcher().name();
  r.large_pages = first.large_pages_enabled();
  r.fault_backend = kFaultBackendNames.name(first.fault_backend().kind());
  r.gpu_fault_backend = first.fault_backend().kind() == FaultBackendKind::kGpuDriven;
  for (const auto& s : stacks_) {
    const UvmDriver& drv = s->driver();
    r.gpu += s->retired_gpu_stats();
    r.capacity_pages += drv.capacity_pages();
    r.driver += drv.stats();
    r.h2d_pages += drv.h2d().units_moved();
    r.d2h_pages += drv.d2h().units_moved();
    r.faultsvc.merge(drv.fault_backend().backend_stats());
    ChainSet& chains = s->driver().chains();
    for (u64 d = 0; d < chains.domains(); ++d)
      r.final_chain_length += chains.chain(d).size();
    r.sim.chain_slab_capacity += chains.total_slab_capacity();
    r.sim.page_table_capacity += drv.page_table().table_capacity();
    r.sim.page_table_load =
        std::max(r.sim.page_table_load, drv.page_table().load_factor());
  }
  r.trace_events_recorded = trace_.events_recorded();

  if (sharded()) {
    r.engine_stats.sharded = true;
    r.engine_stats.shards = engine_.num_shards();
    r.engine_stats.threads = engine_.threads();
    r.engine_stats.lookahead_cycles = engine_.lookahead();
    static_cast<EngineStats&>(r.engine_stats) = engine_.stats();
  }
  trace_.finish(last_now);
  return r;
}

double SystemBase::mean_h2d_utilisation(Cycle cycles) const {
  double sum = 0.0;
  for (const auto& s : stacks_) sum += s->driver().h2d().utilisation(cycles);
  return sum / static_cast<double>(stacks_.size());
}

}  // namespace uvmsim
