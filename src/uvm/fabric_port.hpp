// FabricPort: the driver stack's view of the multi-GPU fabric.
//
// The port is the dependency seam between src/uvm and src/fabric: the
// driver and its eviction engine talk to this abstract interface, and both
// fabric protocols implement it on one Fabric base (fabric/fabric.hpp) —
// src/fabric depends on src/uvm, never the other way round. A driver built
// without a port in its links (the single-GPU default) behaves bit-for-bit
// as before: every fault is a host fetch and every eviction writes back
// over PCIe.
#pragma once

#include "common/touch_bits.hpp"
#include "common/types.hpp"
#include "uvm/driver_types.hpp"

namespace uvmsim {

/// How the fabric wants a far fault serviced.
enum class FabricRoute : u8 {
  kHostFetch,     ///< page is host-resident and homed here: normal path
  kRemoteAccess,  ///< page resident on a peer, below the migrate threshold
  kPeerFetch,     ///< migrate the page in from the peer that holds it
  kForward,       ///< another device fetches or homes the page: fault there
};

struct FabricDecision {
  FabricRoute route = FabricRoute::kHostFetch;
  u32 device = kHostDevice;  ///< peer / home device for non-host routes
  bool hopback = false;      ///< peer fetch reclaims a spilled victim
  Cycle ready = 0;           ///< kRemoteAccess: cycle its round trip ends
};

class FabricPort {
 public:
  virtual ~FabricPort() = default;

  // --- Fault routing --------------------------------------------------------
  /// Decide how device `dev`'s fault on `p` is serviced, and commit it: a
  /// kPeerFetch decision pins the source chunk until the page lands, and a
  /// kRemoteAccess decision charges its round trip on the fabric.
  virtual FabricDecision route_fault(u32 dev, PageId p) = 0;
  /// Re-raise a fault of `from` on device `to`: the page's home (placement
  /// forwarding), or a peer already fetching the page, whose outstanding
  /// fault it joins. `wake` fires after `to` has the page and the reply
  /// crosses the fabric back.
  virtual void forward_fault(u32 from, u32 to, PageId p, WakeCallback wake) = 0;

  // --- Transfers ------------------------------------------------------------
  /// Reserve link occupancy for `pages` from `src` to `dst` starting no
  /// earlier than `earliest`; returns the completion cycle.
  virtual Cycle reserve_transfer(u32 src, u32 dst, u64 pages, Cycle earliest) = 0;

  // --- Directory maintenance ------------------------------------------------
  /// `p` landed on `dev`. When a peer fetch brought it, the peer that held
  /// it surrenders its (pinned) copy.
  virtual void note_page_mapped(u32 dev, PageId p) = 0;
  virtual void note_page_unmapped(u32 dev, PageId p) = 0;

  // --- Eviction spill -------------------------------------------------------
  /// Move an evicted chunk's `resident` pages from `from` to a peer with
  /// room for them: reserves the link, adopts the chunk there and updates
  /// the directory. Returns the peer, or kHostDevice when none qualifies
  /// (the eviction then writes back to host as usual). The caller has
  /// already unmapped the pages at `from`.
  virtual u32 spill(u32 from, ChunkId c, const TouchBits& resident) = 0;

  // --- Prefetch oracle ------------------------------------------------------
  /// May `dev` bring `p` in from the host right now? False when a peer holds
  /// the page, another device is fetching it (its fault queued or its
  /// migration in flight), or placement homes it elsewhere — prefetch plans
  /// must skip such pages.
  [[nodiscard]] virtual bool host_fetchable(u32 dev, PageId p) const = 0;
};

}  // namespace uvmsim
