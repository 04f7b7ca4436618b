// FabricPort: the driver stack's view of the multi-GPU fabric.
//
// The port is the dependency seam between src/uvm and src/fabric: the
// driver, eviction engine and migration scheduler talk to this abstract
// interface, and both fabric protocols implement it on one Fabric base
// (fabric/fabric.hpp) — src/fabric depends on src/uvm, never the other way
// round. A driver with no attached port (the single-GPU default) behaves
// bit-for-bit as before: every fault is a host fetch and every eviction
// writes back over PCIe.
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
};

class FabricPort {
 public:
  virtual ~FabricPort() = default;

  // --- Fault routing --------------------------------------------------------
  /// Decide how device `dev`'s fault on `p` is serviced. A kPeerFetch
  /// decision pins the source chunk until the page is surrendered.
  virtual FabricDecision route_fault(u32 dev, PageId p) = 0;
  /// Charge one remote access from `dev` to the copy on `owner`; returns the
  /// completion cycle of the round trip.
  virtual Cycle charge_remote(u32 dev, u32 owner, PageId p) = 0;
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
  virtual void note_page_mapped(u32 dev, PageId p) = 0;
  virtual void note_page_unmapped(u32 dev, PageId p) = 0;
  /// A peer fetch completed at its destination: tell the source driver to
  /// surrender its (pinned) copy of `p`.
  virtual void surrender_at(u32 src, PageId p) = 0;

  // --- Eviction spill -------------------------------------------------------
  /// Pick a peer with room for `pages` spilled frames; kHostDevice when no
  /// peer qualifies (the eviction then writes back to host as usual).
  virtual u32 spill_target(u32 from, u64 pages) = 0;
  /// Move an evicted chunk's resident pages from `from` to `dst` over the
  /// fabric: reserves the link, adopts the chunk at `dst` and updates the
  /// directory. The caller has already unmapped the pages at `from`.
  virtual void spill_chunk(u32 from, u32 dst, ChunkId c,
                           const TouchBits& resident) = 0;

  // --- Prefetch oracle ------------------------------------------------------
  /// May `dev` bring `p` in from the host right now? False when a peer holds
  /// the page, another device is fetching it (its fault queued or its
  /// migration in flight), or placement homes it elsewhere — prefetch plans
  /// must skip such pages.
  [[nodiscard]] virtual bool host_fetchable(u32 dev, PageId p) const = 0;
};

}  // namespace uvmsim
