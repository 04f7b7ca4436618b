// GPU model: `num_sms` SMs, each running `warps_per_sm` warps over the
// access streams of its slice of the workload (GpuSlice). Each access goes
// through the full translation path of Fig 1:
//
//   L1 TLB (per SM, 1 cy) -> L2 TLB (shared, 10 cy, 2 ports)
//     -> page table walker (64 threads, page walk cache)
//       -> resident: TLB fills + DRAM access
//       -> not resident: replayable far fault via the UVM driver; the warp
//          is descheduled and replays when the page arrives, while the SM's
//          other warps keep executing (Zheng et al.'s far-fault semantics).
//
// After translation the access goes through the data-cache hierarchy of
// Table I: a per-SM 48 KB/6-way L1, the shared 3 MB/16-way L2, then DRAM.
// Caches are physically indexed (line_base: by frame, or by a pseudo-frame
// above all local ones for a page reached remotely over the fabric). Every
// page that leaves the device, or that a fabric peer unmaps, reaches one
// routine, invalidate, through the driver's ShootdownList. It probes only
// what the page's summary (Held) says this Gpu may hold: the L1 TLBs and
// L1Ds of the SMs that reached the page, and the line offsets read at the
// departing copy. A superset is exact, since probing an absent tag changes
// no statistic and no LRU stamp; holds() probes everything, as the
// reference the coherence tests assert through.
//
// Demand touches are reported to the driver on L1 TLB misses (see
// UvmDriver::note_touch for the fidelity argument).
#pragma once

#include <functional>
#include <memory>
#include <vector>

#include "common/config.hpp"
#include "mem/dram.hpp"
#include "mem/set_assoc_cache.hpp"
#include "sim/event_queue.hpp"
#include "tlb/tlb.hpp"
#include "tlb/walker.hpp"
#include "uvm/driver.hpp"
#include "workloads/workload.hpp"

namespace uvmsim {

/// The part of a workload one Gpu runs. Its warp (s, w) is warp
/// warp_base + s * warps_per_sm + w of a total_warps-warp grid (0: the
/// Gpu's own num_sms * warps_per_sm), and every page it reads is moved up
/// by page_base. A fabric device runs its share of one grid; a tenant or
/// fleet job runs the whole grid at its namespace base.
struct GpuSlice {
  u32 warp_base = 0;
  u32 total_warps = 0;
  PageId page_base = 0;
};

class Gpu {
 public:
  /// Warp seeds are drawn from `seed` in local warp order, whatever the
  /// slice.
  Gpu(EventQueue& eq, const SystemConfig& cfg, UvmDriver& driver,
      const Workload& workload, u64 seed, GpuSlice slice = {});
  /// Unregisters this GPU's shootdown handlers from the driver — a fleet
  /// job's Gpu dies while the shared driver keeps serving other jobs.
  ~Gpu();

  Gpu(const Gpu&) = delete;
  Gpu& operator=(const Gpu&) = delete;

  /// Schedule the first step of every warp. Call once, then run the queue.
  void launch();

  [[nodiscard]] bool finished() const noexcept { return live_warps_ == 0; }
  [[nodiscard]] Cycle finish_cycle() const noexcept { return finish_cycle_; }
  /// Completion hook, fired from inside the last warp's finishing event.
  /// The callee must not destroy this Gpu re-entrantly — schedule teardown
  /// onto the event queue instead (fleet_system.cpp does).
  void set_on_finished(std::function<void()> cb) { on_finished_ = std::move(cb); }

  struct Stats {
    u64 accesses = 0;
    u64 l1_tlb_hits = 0;
    u64 l1_tlb_misses = 0;
    u64 l2_tlb_hits = 0;
    u64 l2_tlb_misses = 0;
    u64 far_faults = 0;  ///< warp-level fault events raised to the driver
    u64 l1d_hits = 0;
    u64 l1d_misses = 0;
    u64 l2c_hits = 0;
    u64 l2c_misses = 0;
    /// Hits served by a 2 MB TLB entry (subset of the hit counters above;
    /// always zero when --large-pages is off).
    u64 l1_tlb_large_hits = 0;
    u64 l2_tlb_large_hits = 0;
    // Page-table-walker totals (tlb/walker.hpp): walks that ended on a
    // level-1 large leaf stop one radix level early, so walk_cycles is the
    // metric 2 MB frames are meant to shrink.
    u64 walks_performed = 0;
    u64 walk_cycles = 0;
    u64 large_walks = 0;

    /// Field-wise sum over several Gpus (tenants, devices, fleet jobs). A
    /// new counter must be added here too; tests/core/device_stack_test.cpp
    /// holds the struct size to this list.
    Stats& operator+=(const Stats& s) noexcept {
      accesses += s.accesses;
      l1_tlb_hits += s.l1_tlb_hits;
      l1_tlb_misses += s.l1_tlb_misses;
      l2_tlb_hits += s.l2_tlb_hits;
      l2_tlb_misses += s.l2_tlb_misses;
      far_faults += s.far_faults;
      l1d_hits += s.l1d_hits;
      l1d_misses += s.l1d_misses;
      l2c_hits += s.l2c_hits;
      l2c_misses += s.l2c_misses;
      l1_tlb_large_hits += s.l1_tlb_large_hits;
      l2_tlb_large_hits += s.l2_tlb_large_hits;
      walks_performed += s.walks_performed;
      walk_cycles += s.walk_cycles;
      large_walks += s.large_walks;
      return *this;
    }
  };
  [[nodiscard]] Stats stats() const;
  [[nodiscard]] const PageWalker& walker() const noexcept { return walker_; }

  /// Does any TLB hold a per-page entry for `p`, or any data cache a line
  /// of it at frame `f` (kInvalidFrame: its remote lines)? Read-only: no
  /// statistic or LRU stamp changes.
  [[nodiscard]] bool holds(PageId p, FrameId f) const;

 private:
  struct Warp {
    std::unique_ptr<AccessStream> stream;
    u64 access_count = 0;  ///< drives the deterministic line-offset sequence
  };
  struct Sm {
    std::unique_ptr<Tlb> l1_tlb;
    std::unique_ptr<SetAssocCache> l1d;
    std::vector<Warp> warps;
  };

  /// What this Gpu may hold of one page of its slice, folded to 8 bytes: a
  /// superset whatever the SM count and line size. SM s sets bit s % 32 of
  /// `sms` (its L1 TLB or L1D may hold the page); a line at offset o sets
  /// bit o % 16 of the copy it was read at, `local` (the page's frame) or
  /// `remote` (its pseudo-frame). finish_access sets it: it follows every
  /// L1 TLB fill and makes both cache inserts. invalidate reads and clears
  /// it.
  struct Held {
    u32 sms = 0;
    u16 local = 0;
    u16 remote = 0;
  };

  void warp_step(u32 sm, u32 warp);
  void do_access(u32 sm, u32 warp, PageId page);
  /// Translation resolved (page resident): charge DRAM and move on.
  void finish_access(u32 sm, u32 warp, PageId page, Cycle ready);
  void warp_finished();
  /// The shootdown: drop every translation of `p` and every line of it at
  /// frame `f` (kInvalidFrame: the remote lines of a page a peer unmapped).
  void invalidate(PageId p, FrameId f);
  /// First line tag of page `p` at frame `f`: the tag rule finish_access,
  /// invalidate and holds share. A remote page has no local frame; its
  /// lines sit at pseudo-frame capacity + page, above every local frame.
  [[nodiscard]] u64 line_base(PageId p, FrameId f) const noexcept {
    return (f == kInvalidFrame ? driver_.capacity_pages() + p : f) * lines_per_page_;
  }

  EventQueue& eq_;
  SystemConfig cfg_;
  UvmDriver& driver_;
  Dram dram_;
  Tlb l2_tlb_;
  SetAssocCache l2_cache_;
  PageWalker walker_;
  std::vector<Sm> sms_;
  PageId page_base_;
  std::vector<Held> held_;  ///< one per page of the slice, at page - page_base_
  u32 lines_per_page_;
  u32 live_warps_ = 0;
  Cycle finish_cycle_ = 0;
  u64 shootdown_handle_ = 0;
  std::function<void()> on_finished_;
  u64 accesses_ = 0;
  u64 far_faults_ = 0;
  u64 l1d_hits_ = 0, l1d_misses_ = 0, l2c_hits_ = 0, l2c_misses_ = 0;
};

}  // namespace uvmsim
