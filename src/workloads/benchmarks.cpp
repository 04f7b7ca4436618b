#include "workloads/benchmarks.hpp"

#include <stdexcept>

#include "workloads/graph_frontier.hpp"
#include "workloads/patterns.hpp"
#include "workloads/phase_shift.hpp"

namespace uvmsim {

namespace {

/// Factory for the pattern family W, constructed as
/// W(name, abbr, pages, args...).
template <class W, class... Args>
BenchmarkInfo::Factory family(Args... args) {
  return [=](std::string name, std::string abbr, u64 pages) -> std::unique_ptr<Workload> {
    return std::make_unique<W>(std::move(name), std::move(abbr), pages, args...);
  };
}

/// Workloads outside Table II, built by make_benchmark only.
const std::vector<BenchmarkInfo>& extension_table() {
  static const std::vector<BenchmarkInfo> table = {
      // BFR: UVMBench-style BFS frontier traversal — bursty irregular far
      // faults from every SM at once, the pattern GPUVM's GPU-driven paging
      // targets.
      {"BFR", "bfs-frontier", "UVMBench", 36.0, PatternType::kMostlyRepetitive,
       family<GraphFrontierWorkload>()},
      // MLT: ML-training epochs — an activations-streaming forward pass
      // alternating with a weights-hot backward pass over the same buffers.
      {"MLT", "ml-training", "extension", 48.0, PatternType::kStreaming,
       [](std::string name, std::string abbr, u64 pages) -> std::unique_ptr<Workload> {
         std::vector<std::unique_ptr<PatternWorkloadBase>> phases;
         for (int epoch = 0; epoch < 2; ++epoch) {
           phases.push_back(
               std::make_unique<StreamingWorkload>("activations", "ACT", pages, 1.0));
           phases.push_back(std::make_unique<RepetitiveThrashingWorkload>(
               "weights", "WGT", pages, 0.30, 6.0, 0.5, ColdTraffic::kStream));
         }
         return std::make_unique<PhaseShiftWorkload>(std::move(name), std::move(abbr),
                                                     std::move(phases));
       }},
  };
  return table;
}

}  // namespace

u64 scaled_pages(double paper_mb) {
  // 1/4 scale, floor 4 MB: pages = max(1024, paper_MB * 256 / 4).
  const auto pages = static_cast<u64>(paper_mb * 64.0);
  return std::max<u64>(1024, pages);
}

const std::vector<BenchmarkInfo>& benchmark_table() {
  using P = PatternType;
  static const std::vector<BenchmarkInfo> table = {
      // --- Type I: streaming ------------------------------------------------
      {"HOT", "hotspot", "Rodinia", 12.0, P::kStreaming, family<StreamingWorkload>(1.0)},
      {"LEU", "leukocyte", "Rodinia", 5.6, P::kStreaming, family<StreamingWorkload>(1.0)},
      {"2DC", "2DCONV", "Polybench", 128.0, P::kStreaming,
       family<StreamingWorkload>(1.0)},
      {"3DC", "3DCONV", "Polybench", 127.5, P::kStreaming,
       family<StreamingWorkload>(1.0)},
      // --- Type II: partly repetitive ---------------------------------------
      {"BKP", "backprop", "Rodinia", 9.0, P::kPartlyRepetitive,
       family<PartlyRepetitiveWorkload>(1.0, 0.30, 3.0)},
      {"PAT", "pathfinder", "Rodinia", 38.5, P::kPartlyRepetitive,
       family<PartlyRepetitiveWorkload>(1.0, 0.25, 2.0)},
      {"DWT", "dwt2d", "Rodinia", 27.0, P::kPartlyRepetitive,
       family<PartlyRepetitiveWorkload>(1.0, 0.50, 2.0)},
      {"KMN", "kmeans", "Rodinia", 130.0, P::kPartlyRepetitive,
       family<PartlyRepetitiveWorkload>(2.0, 0.05, 8.0)},
      // --- Type III: mostly repetitive (strided / sparse) -------------------
      {"SAD", "sad", "Parboil", 8.5, P::kMostlyRepetitive,
       family<StridedWorkload>(2, 4.0, 0.5, P::kMostlyRepetitive, 0.03)},
      {"NW", "nw", "Rodinia", 32.0, P::kMostlyRepetitive,
       family<StridedWorkload>(2, 8.0, 0.0, P::kMostlyRepetitive, 0.02)},
      {"BFS", "bfs", "Rodinia", 37.2, P::kMostlyRepetitive,
       family<IrregularSparseWorkload>(6, 0.5)},
      {"MVT", "MVT", "Polybench", 64.1, P::kMostlyRepetitive,
       family<StridedWorkload>(4, 10.0, 0.0, P::kMostlyRepetitive, 0.01)},
      {"BIC", "BICG", "Polybench", 64.1, P::kMostlyRepetitive,
       family<StridedWorkload>(4, 10.0, 0.25, P::kMostlyRepetitive, 0.01)},
      // --- Type IV: thrashing -----------------------------------------------
      {"SRD", "srad_v2", "Rodinia", 96.0, P::kThrashing, family<ThrashingWorkload>(6.0)},
      {"HSD", "hotspot3D", "Rodinia", 24.0, P::kThrashing,
       family<ThrashingWorkload>(8.0)},
      {"MRQ", "mri-q", "Parboil", 5.0, P::kThrashing,
       family<ThrashingWorkload>(8.0, /*jitter=*/80, /*shared_pages=*/true,
                                 /*backtrack_prob=*/0.008, /*backtrack_pages=*/120)},
      {"STN", "stencil", "Parboil", 4.0, P::kThrashing, family<ThrashingWorkload>(10.0)},
      // --- Type V: repetitive-thrashing -------------------------------------
      {"HWL", "heartwall", "Rodinia", 40.7, P::kRepetitiveThrashing,
       family<RepetitiveThrashingWorkload>(0.50, 4.0, 1.0, ColdTraffic::kRandom)},
      {"SGM", "sgemm", "Parboil", 12.0, P::kRepetitiveThrashing,
       family<RepetitiveThrashingWorkload>(0.60, 5.0, 2.0, ColdTraffic::kStream)},
      {"HIS", "histo", "Parboil", 13.2, P::kRepetitiveThrashing,
       family<StridedWorkload>(2, 5.0, 1.0, P::kRepetitiveThrashing, 0.02)},
      {"SPV", "spmv", "Parboil", 27.3, P::kRepetitiveThrashing,
       family<RepetitiveThrashingWorkload>(0.20, 6.0, 1.5, ColdTraffic::kFixedSparse)},
      // --- Type VI: region moving -------------------------------------------
      // Region sizes close to the oversubscribed capacity make these
      // capacity-sensitive, which is what lets reserved LRU hurt them (paper
      // Fig 3/9).
      {"B+T", "b+tree", "Rodinia", 34.7, P::kRegionMoving,
       family<RegionMovingWorkload>(0.45, 0.45)},
      {"HYB", "hybridsort", "Rodinia", 104.0, P::kRegionMoving,
       family<RegionMovingWorkload>(0.40, 0.45)},
  };
  return table;
}

std::vector<std::string> benchmark_abbrs() {
  std::vector<std::string> out;
  out.reserve(benchmark_table().size());
  for (const auto& b : benchmark_table()) out.push_back(b.abbr);
  return out;
}

std::unique_ptr<Workload> make_benchmark(std::string_view abbr) {
  for (const auto* table : {&benchmark_table(), &extension_table()})
    for (const BenchmarkInfo& b : *table)
      if (b.abbr == abbr) return b.make(b.name, b.abbr, scaled_pages(b.paper_mb));
  throw std::invalid_argument("unknown benchmark abbreviation: " + std::string(abbr));
}

}  // namespace uvmsim
