#include "harness/runner.hpp"

#include <algorithm>
#include <atomic>
#include <exception>
#include <thread>

namespace uvmsim {

std::vector<LabelledResult> run_sweep(const std::vector<ExperimentSpec>& specs,
                                      unsigned threads) {
  if (threads == 0) threads = std::max(1u, std::thread::hardware_concurrency());
  threads = std::min<unsigned>(threads, specs.empty() ? 1 : static_cast<unsigned>(specs.size()));

  std::vector<LabelledResult> results(specs.size());
  // run_experiment can throw (a refused spec, an unknown workload): an
  // exception escaping a worker thread would std::terminate the process, so
  // each experiment's exception is captured and the first (in spec order) is
  // rethrown on the calling thread after all workers have joined.
  std::vector<std::exception_ptr> errors(specs.size());
  std::atomic<std::size_t> next{0};

  const auto worker = [&] {
    for (;;) {
      const std::size_t i = next.fetch_add(1, std::memory_order_relaxed);
      if (i >= specs.size()) return;
      try {
        results[i] = run_experiment(specs[i]);
      } catch (...) {
        errors[i] = std::current_exception();
      }
    }
  };

  if (threads <= 1) {
    worker();
  } else {
    std::vector<std::thread> pool;
    pool.reserve(threads);
    for (unsigned t = 0; t < threads; ++t) pool.emplace_back(worker);
    for (auto& th : pool) th.join();
  }
  for (const auto& e : errors)
    if (e) std::rethrow_exception(e);
  return results;
}

}  // namespace uvmsim
