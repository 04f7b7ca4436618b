// Parallel sweep runner. Experiments are independent, deterministic
// simulations, so the runner distributes them over a fixed pool of worker
// threads with an atomic work index; results land in spec order regardless
// of scheduling, keeping sweep output bit-reproducible.
#pragma once

#include <vector>

#include "harness/experiment.hpp"

namespace uvmsim {

/// Run every experiment; `threads == 0` uses the hardware concurrency, and
/// the pool never has more workers than specs.
[[nodiscard]] std::vector<LabelledResult> run_sweep(
    const std::vector<ExperimentSpec>& specs, unsigned threads = 0);

}  // namespace uvmsim
