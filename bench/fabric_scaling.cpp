// Multi-GPU fabric scaling: one oversubscribed workload sharded over
// 1/2/4/8 GPUs (docs/fabric.md), across the three link topologies, with
// eviction spill-to-peer on and off.
//
// Not a paper figure — the paper models a single GPU. This bench extends
// its oversubscription model to an NVLink fabric: per-device CPPE stacks
// joined by a link graph, with peer migration, remote mapping and spill.
//
// Reported per configuration:
//   * finish cycles (max over devices) — the scaling headline,
//   * host PCIe traffic (h2d/d2h pages summed over devices) — what the
//     fabric is supposed to relieve,
//   * peer-path counters (remote accesses, peer fetches, spilled pages,
//     hop-backs) — how the relief happens,
//   * per-link utilisation on the busiest link — where the fabric saturates.
//
// Expected shape: on a thrashing workload spill-to-peer converts host
// write-backs into NVLink traffic, so summed d2h drops when --spill is on
// and drops further on topologies with more peer bandwidth (switch > ring).
// `--smoke` runs the 2-GPU ring subset only and fails unless spill cuts
// host write-back (CI's check.sh gate). Engine wall-clock is measured
// like-for-like by the benchmark's fabric4 workload (bench/ledger), not
// here: seq and sharded runs use two different fabric models.
#include <iostream>

#include "bench_common.hpp"

using namespace uvmsim;
using namespace uvmsim::bench;

namespace {

struct FabricCell {
  ExperimentSpec spec;
  RunResult result;
};

FabricCell run_cell(const std::string& workload, double oversub, u32 gpus,
                    FabricKind topo, bool spill) {
  ExperimentSpec s;
  s.workload = workload;
  s.label = std::string(kFabricNames.name(topo)) + (spill ? "+spill" : "");
  s.policy = presets::cppe();
  s.oversub = oversub;
  s.fabric.gpus = gpus;
  s.fabric.topology = topo;
  s.fabric.spill = spill;
  FabricCell cell{s, run_experiment(s).result};
  return cell;
}

void print_rows(const std::vector<FabricCell>& cells) {
  TextTable t({"gpus", "fabric", "spill", "cycles", "h2d", "d2h", "remote",
               "peer in", "spilled", "hopbacks", "busiest link"});
  for (const FabricCell& c : cells) {
    const RunResult& r = c.result;
    std::string busiest = "-";
    double peak = -1.0;
    for (const LinkRunResult& l : r.links)
      if (l.utilisation > peak) {
        peak = l.utilisation;
        busiest = l.name + " " + fmt(l.utilisation * 100, 1) + "%";
      }
    t.add_row({std::to_string(r.gpus), r.fabric,
               c.spec.fabric.spill ? "on" : "off", std::to_string(r.cycles),
               std::to_string(r.h2d_pages), std::to_string(r.d2h_pages),
               std::to_string(r.driver.remote_accesses),
               std::to_string(r.driver.peer_fetches),
               std::to_string(r.driver.pages_spilled),
               std::to_string(r.driver.spill_hopbacks), busiest});
  }
  std::cout << t.str() << "\n";
}

}  // namespace

int main(int argc, char** argv) {
  const bool smoke = parse_smoke(
      argc, argv, "fabric_scaling — multi-GPU topology/placement/spill sweep",
      "2-GPU ring subset only; gate: spill-on completes and reduces host "
      "write-backs vs spill-off");

  print_header("Multi-GPU fabric scaling: topology, placement and spill",
               "NVLink extension (docs/fabric.md) — not a paper figure");

  // NW at 50% fits thrashes a single GPU (Fig 4's knee), so the fabric has
  // host traffic worth relieving.
  const std::string wl = "NW";
  const double oversub = 0.5;

  if (smoke) {
    // CI gate: 2-GPU ring, spill off vs on, assert spill relieves the host
    // write-back path. 75% fits thrashes while leaving the peers transient
    // headroom to absorb spills (at 50% both devices pin their watermark
    // and spill_target rarely finds room).
    const FabricCell off = run_cell(wl, 0.75, 2, FabricKind::kRing, false);
    const FabricCell on = run_cell(wl, 0.75, 2, FabricKind::kRing, true);
    print_rows({off, on});
    if (!off.result.completed || !on.result.completed) {
      std::cout << "SMOKE FAIL: run did not complete\n";
      return 1;
    }
    if (on.result.d2h_pages >= off.result.d2h_pages) {
      std::cout << "SMOKE FAIL: spill did not reduce host write-back ("
                << on.result.d2h_pages << " >= " << off.result.d2h_pages
                << " d2h pages)\n";
      return 1;
    }
    std::cout << "SMOKE OK: spill cut host write-back "
              << off.result.d2h_pages << " -> " << on.result.d2h_pages
              << " d2h pages\n";
    return 0;
  }

  std::cout << "--- GPU-count scaling (ring, spill off/on) ---\n";
  std::vector<FabricCell> scaling;
  for (u32 gpus : {1u, 2u, 4u, 8u})
    for (bool spill : {false, true}) {
      if (gpus == 1 && spill) continue;  // no peer to spill to
      scaling.push_back(run_cell(wl, oversub, gpus, FabricKind::kRing, spill));
    }
  print_rows(scaling);

  std::cout << "--- moderate pressure (2 GPUs, 75% fits): spill headroom ---\n";
  print_rows({run_cell(wl, 0.75, 2, FabricKind::kRing, false),
              run_cell(wl, 0.75, 2, FabricKind::kRing, true)});

  std::cout << "--- topology comparison (4 GPUs) ---\n";
  std::vector<FabricCell> topo;
  for (FabricKind k : {FabricKind::kPcie, FabricKind::kRing, FabricKind::kSwitch})
    for (bool spill : {false, true})
      topo.push_back(run_cell(wl, oversub, 4, k, spill));
  print_rows(topo);

  std::cout
      << "Reading the table: d2h counts host write-backs — spill-to-peer\n"
         "retargets them over NVLink, so 'spilled' rises as d2h falls. The\n"
         "pcie preset has no peer links (spill is a no-op there); switch\n"
         "beats ring as GPU count grows because every peer is one hop.\n";
  return 0;
}
