// Simulated-system configuration. Defaults reproduce Table I of the paper
// plus the policy constants fixed in §IV-B / §VI-A.
#pragma once

#include <string>

#include "common/names.hpp"
#include "common/types.hpp"

namespace uvmsim {

/// Peer-link graph joining the GPUs of a multi-GPU run (src/fabric).
enum class FabricKind : u8 {
  kPcie,    ///< no peer links: peer traffic is routed through the host
  kRing,    ///< NVLink ring, adjacent devices linked bidirectionally
  kSwitch,  ///< fully connected NVSwitch: every ordered pair linked
};
inline constexpr auto kFabricNames = name_table<FabricKind>({
    {"pcie", FabricKind::kPcie},
    {"ring", FabricKind::kRing},
    {"switch", FabricKind::kSwitch},
});

/// Where a faulted page is homed when it is first brought onto the fabric.
enum class PlacementKind : u8 {
  kFirstTouch,  ///< home = first device to fault any page of the chunk
  kRoundRobin,  ///< home = chunk id modulo device count
  kAffinity,    ///< contiguous chunk ranges, one slice per device
};
inline constexpr auto kPlacementNames = name_table<PlacementKind>({
    {"first-touch", PlacementKind::kFirstTouch},
    {"round-robin", PlacementKind::kRoundRobin},
    {"affinity", PlacementKind::kAffinity},
});

/// Which fault-service backend models the far-fault service path
/// (src/faultsvc, docs/faultsvc.md).
enum class FaultBackendKind : u8 {
  kHostDriver,  ///< classic host round trip: fault_latency_us + FIFO backlog
  kGpuDriven,   ///< GPUVM-style per-SM queues + GPU-resident handler
};
inline constexpr auto kFaultBackendNames = name_table<FaultBackendKind>({
    {"host", FaultBackendKind::kHostDriver},
    {"gpu-driven", FaultBackendKind::kGpuDriven},
});

/// Which simulation engine advances the event queues of a multi-device run
/// (src/sim/sharded_engine.hpp, docs/performance.md).
enum class EngineKind : u8 {
  kSequential,  ///< one EventQueue drives every device (the classic engine)
  kSharded,     ///< per-device shards under conservative barrier windows
};
inline constexpr auto kEngineNames = name_table<EngineKind>({
    {"seq", EngineKind::kSequential},
    {"sharded", EngineKind::kSharded},
});

/// Simulation-engine selection (--engine / --engine-threads). Orthogonal to
/// the simulated system: the sequential default leaves every artefact
/// byte-identical; the sharded engine trades the single global event order
/// for near-linear multi-core scaling on fabric and fleet runs.
struct EngineConfig {
  EngineKind kind = EngineKind::kSequential;
  /// Worker threads for the sharded engine: 0 = hardware_concurrency,
  /// always capped at the shard (device) count.
  u32 threads = 0;
};

/// Multi-GPU fabric parameters (tentpole of src/fabric; gpus == 1 keeps the
/// single-GPU system byte-identical — no fabric object is even built).
struct FabricConfig {
  u32 gpus = 1;                       ///< devices sharing the fabric
  FabricKind topology = FabricKind::kRing;
  PlacementKind placement = PlacementKind::kFirstTouch;
  /// Remote accesses a page absorbs before it migrates to the accessor
  /// (remote map over NVLink below the threshold, migrate at it);
  /// 0 = always migrate (remote access disabled).
  u32 remote_threshold = 4;
  /// Evictions spill to a peer with free frames over NVLink instead of
  /// writing back to host over PCIe (second-chance hop back on re-fault).
  bool spill = false;
  double nvlink_bw_gbps = 25.0;       ///< per peer link, per direction
  double nvlink_latency_us = 0.5;     ///< per-hop remote-access round trip
};

/// GPU core / translation / memory-system parameters (Table I).
struct SystemConfig {
  // --- GPU cores -----------------------------------------------------------
  u32 num_sms = 28;                ///< streaming multiprocessors
  double core_ghz = 1.4;           ///< core clock
  u32 warps_per_sm = 8;            ///< concurrently scheduled warps modelled per SM

  // --- Private L1 TLB (per SM) --------------------------------------------
  u32 l1_tlb_entries = 128;
  u32 l1_tlb_ways = 0;             ///< 0 = fully associative
  Cycle l1_tlb_latency = 1;
  /// 2 MB-entry sub-array, probed only when PolicyConfig::large_pages is on
  /// (one entry maps kLargePages pages; docs/memory.md).
  u32 l1_tlb_large_entries = 16;

  // --- Shared L2 TLB --------------------------------------------------------
  u32 l2_tlb_entries = 512;
  u32 l2_tlb_ways = 16;
  Cycle l2_tlb_latency = 10;
  u32 l2_tlb_ports = 2;
  u32 l2_tlb_large_entries = 64;   ///< 2 MB-entry sub-array (large-pages mode)

  // --- Page table walker ----------------------------------------------------
  u32 walker_threads = 64;         ///< concurrent page-table walks
  u32 page_table_levels = 4;
  Cycle walk_cache_latency = 10;
  u32 walk_cache_bytes = 8 * 1024; ///< 8 KB page walk cache
  u32 walk_cache_ways = 16;
  Cycle walk_memory_latency = 160; ///< per-level access that misses the PWC (L2/DRAM)

  // --- Data caches -----------------------------------------------------------
  u32 l1_cache_bytes = 48 * 1024;  ///< per-SM L1 data cache (Table I)
  u32 l1_cache_ways = 6;
  Cycle l1_cache_latency = 1;
  u32 l2_cache_bytes = 3 * 1024 * 1024;  ///< shared L2 (Table I: 3 MB total)
  u32 l2_cache_ways = 16;
  Cycle l2_cache_latency = 30;
  u32 cache_line_bytes = 128;  ///< one coalesced warp transaction

  // --- DRAM -----------------------------------------------------------------
  u32 dram_channels = 12;
  double dram_bw_gbps = 528.0;     ///< aggregate
  Cycle dram_latency = 120;        ///< load-to-use for a row-buffer-friendly stream

  // --- CPU-GPU interconnect ---------------------------------------------------
  double pcie_bw_gbps = 16.0;        ///< unified-memory migration bandwidth
  double fault_latency_us = 20.0;    ///< end-to-end page fault service time
  /// Driver-side cost of evicting one chunk (page-table updates, unmap,
  /// write-back setup). Charged on the fault's critical path when the
  /// eviction happens synchronously during fault service; pre-eviction
  /// (PolicyConfig::pre_evict_watermark_chunks) moves it off that path.
  double evict_service_us = 2.5;
  /// Per-page cost of a coalesced large-frame write-back, in percent of the
  /// normal per-page PCIe cost: one 2 MB DMA descriptor amortises setup
  /// across 512 pages instead of paying it per chunk (Mosaic's migration
  /// efficiency argument; only used when large-pages mode evicts a whole
  /// frame).
  u32 bulk_dma_percent = 80;
  /// Delay between a region becoming a coalesce candidate and the background
  /// coalesce scan that may promote it — keeps promotion off the fault
  /// critical path (Mosaic's lazy coalescing).
  double coalesce_delay_us = 5.0;

  // --- Fault-service backend (src/faultsvc, docs/faultsvc.md) ---------------
  /// Which backend services far faults. The host driver is the paper's
  /// model (and the default: every artefact stays byte-identical); the
  /// GPU-driven backend models GPUVM (arXiv 2411.05309), where per-SM
  /// memory-resident fault queues feed a GPU-resident handler and the host
  /// round trip disappears from the service path.
  FaultBackendKind fault_backend = FaultBackendKind::kHostDriver;
  /// GPU-driven backend: per-SM bounded fault queue depth. An enqueue that
  /// finds its SM's queue full counts a queue-full stall and overflows to a
  /// spill list drained as queue slots free up (the SM keeps replaying).
  u32 gpu_fault_queue_depth = 32;
  /// GPU-driven backend: per-fault handler service cost (queue pop, page-
  /// table manipulation by the GPU-resident handler). An order of magnitude
  /// below fault_latency_us — GPUVM's core claim.
  double gpu_fault_service_us = 2.0;
  /// GPU-driven backend: doorbell-coalesced pickup cost, charged once per
  /// handler wakeup regardless of how many queued faults it drains.
  double gpu_doorbell_us = 0.5;

  [[nodiscard]] Cycle cycles_per_us() const {
    return static_cast<Cycle>(core_ghz * 1000.0);
  }
  /// 20 us at 1.4 GHz = 28,000 cycles.
  [[nodiscard]] Cycle fault_latency_cycles() const {
    return static_cast<Cycle>(fault_latency_us * core_ghz * 1000.0);
  }
  [[nodiscard]] Cycle evict_service_cycles() const {
    return static_cast<Cycle>(evict_service_us * core_ghz * 1000.0);
  }
  [[nodiscard]] Cycle coalesce_delay_cycles() const {
    return static_cast<Cycle>(coalesce_delay_us * core_ghz * 1000.0);
  }
  [[nodiscard]] Cycle gpu_fault_service_cycles() const {
    return static_cast<Cycle>(gpu_fault_service_us * core_ghz * 1000.0);
  }
  [[nodiscard]] Cycle gpu_doorbell_cycles() const {
    return static_cast<Cycle>(gpu_doorbell_us * core_ghz * 1000.0);
  }
  /// Cycles for one 4 KB page to cross PCIe: 4096 B / 16 GB/s = 256 ns (~359 cy).
  [[nodiscard]] Cycle pcie_page_cycles() const {
    const double ns = static_cast<double>(kPageBytes) / pcie_bw_gbps;
    return static_cast<Cycle>(ns * core_ghz);
  }
  /// Cycles for a page read to be served by DRAM once resident.
  [[nodiscard]] Cycle dram_access_cycles() const { return dram_latency; }
};

/// Pattern-buffer entry deletion scheme (§IV-C, Fig 6).
enum class DeletionScheme : u8 {
  kScheme1,  ///< delete on any pattern mismatch
  kScheme2,  ///< delete only if the *first* lookup of the entry mismatches
};
inline constexpr auto kDeletionNames = name_table<DeletionScheme>({
    {"scheme1", DeletionScheme::kScheme1},
    {"scheme2", DeletionScheme::kScheme2},
});

/// Policy-layer parameters (paper §IV-B and §VI-A defaults).
struct PolicyConfig {
  /// Eviction policy and prefetcher by registered name
  /// (core/policy_registry.hpp; `uvmsim --list-policies` lists them).
  std::string eviction_name = "mhpe";
  std::string prefetch_name = "pattern";

  u32 interval_faults = 64;        ///< interval length, in page faults
  u32 t1_untouch = 32;             ///< T1: per-interval untouch switch threshold
  u32 t2_untouch_first4 = 40;      ///< T2: first-four-intervals switch threshold
  u32 t3_forward_limit = 32;       ///< T3: forward-distance cap
  u32 fd_min = 2;                  ///< forward-distance classification range low
  u32 fd_max = 8;                  ///< forward-distance classification range high
  u32 fd_chain_divisor = 100;      ///< initial fd = clamp(chain/100, fd_min, fd_max)

  u32 wrong_evict_min_entries = 8;   ///< minimum wrong-eviction buffer length
  u32 wrong_evict_chain_divisor = 64;///< buffer = max(8, 8 * chain/64)

  u32 pattern_min_untouch = 8;     ///< only record evicted chunks with >= 8 untouched pages
  /// Pattern-buffer capacity in entries. The §VI-C overhead analysis treats
  /// the buffer as a small fixed structure (hundreds of entries at the
  /// paper's footprints), so the implementation enforces a hard bound with
  /// deterministic FIFO replacement of the oldest recorded entry.
  u32 pattern_buffer_entries = 1024;
  DeletionScheme deletion = DeletionScheme::kScheme2;

  double reserved_fraction = 0.2;  ///< reserved-LRU protected fraction (LRU-20%)
  bool prefetch_when_full = true;  ///< false = disable prefetching under oversubscription
  /// Pre-eviction low watermark, in chunks: after each migration the driver
  /// evicts ahead until this many chunks' worth of frames are free, keeping
  /// eviction work off the next fault's critical path (Ganguly et al.'s
  /// pre-eviction; the paper's baseline "evicts a chunk each time").
  /// 0 disables pre-eviction (evict synchronously on demand).
  u32 pre_evict_watermark_chunks = 1;
  /// How many migration operations the host driver services concurrently
  /// (its fault-batch parallelism). Excess faults queue and are absorbed
  /// into running plans where possible.
  u32 driver_concurrency = 8;
  /// Batch window: pending faults drained per driver wakeup and serviced as
  /// one merged migration (the real driver drains its whole fault buffer
  /// per wakeup). 1 = classic one-fault-per-operation behaviour,
  /// bit-for-bit. Larger windows amortise the 20 us service cost across
  /// queued faults (bench/abl_fault_batch).
  u32 fault_batch = 1;
  u64 seed = 0x5EED;               ///< experiment RNG seed
  /// Transparent 2 MB large frames: background coalescing of fully-resident,
  /// fully-touched aligned 32-chunk runs, splintering under partial eviction
  /// pressure, large-page TLB entries and a 3-probe walk (docs/memory.md).
  /// Off by default — every default-config artefact stays byte-identical.
  bool large_pages = false;

  // HPE-specific knobs (counter-based classification; see policy/hpe.hpp).
  u32 hpe_regular_counter = 12;    ///< counter >= this marks a chunk "well used"
};

}  // namespace uvmsim
