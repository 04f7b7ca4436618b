#include "sim/sharded_engine.hpp"

#include <algorithm>
#include <cassert>
#include <utility>

namespace uvmsim {

ShardedEngine::ShardedEngine(u32 shards, Cycle lookahead, u32 threads)
    : lookahead_(std::max<Cycle>(1, lookahead)) {
  assert(shards >= 1);
  shards_.reserve(shards);
  for (u32 s = 0; s < shards; ++s)
    shards_.push_back(std::make_unique<Shard>(s));

  threads_ = threads == 0 ? std::thread::hardware_concurrency() : threads;
  threads_ = std::min(threads_, shards);
  threads_ = std::max<u32>(1, threads_);

  if (threads_ > 1) {
    // Persistent workers + two reusable barriers: windows are short (one
    // lookahead wide), so per-window thread spawning would dominate.
    window_start_ = std::make_unique<std::barrier<>>(threads_ + 1);
    window_end_ = std::make_unique<std::barrier<>>(threads_ + 1);
    workers_.reserve(threads_);
    for (u32 t = 0; t < threads_; ++t)
      workers_.emplace_back([this] { worker_loop(); });
  }
}

ShardedEngine::~ShardedEngine() {
  if (!workers_.empty()) {
    stop_.store(true, std::memory_order_release);
    window_start_->arrive_and_wait();
    for (std::thread& w : workers_) w.join();
  }
}

void ShardedEngine::post(u32 src, u32 dst, Cycle deliver,
                         std::function<void()> fn) {
  assert(src < shards_.size() && dst < shards_.size());
  // The conservative contract: a message sent during the current window may
  // not land inside it. Senders derive `deliver` from a physical cross-shard
  // latency that is >= the engine lookahead, so this always holds.
  assert(deliver >= horizon_ || stats_.windows == 0);
  Shard& s = *shards_[src];
  s.outbox.push_back({deliver, src, dst, s.send_seq++, std::move(fn)});
}

bool ShardedEngine::prepare_window(Cycle max_cycle) {
  Cycle w = kNeverCycle;
  for (const auto& s : shards_) w = std::min(w, s->queue.next_when());
  for (const ShardMessage& m : staged_) w = std::min(w, m.deliver);
  if (w == kNeverCycle || w > max_cycle) return false;

  Cycle h = w + lookahead_;
  if (h < w) h = kNeverCycle;  // overflow: saturate
  // Same cap contract as EventQueue::run — events with when <= max_cycle
  // execute, so the exclusive horizon may reach max_cycle + 1.
  if (max_cycle != kNeverCycle && h > max_cycle + 1) h = max_cycle + 1;
  horizon_ = h;

  // Inject every message due this window, in (deliver, src, seq) order: the
  // destination queue's (when, seq) tie-break then fixes the interleaving
  // with the shard's own events deterministically.
  std::sort(staged_.begin(), staged_.end(),
            [](const ShardMessage& a, const ShardMessage& b) {
              return a.before(b);
            });
  std::size_t due = 0;
  while (due < staged_.size() && staged_[due].deliver < h) {
    ShardMessage& m = staged_[due];
    shards_[m.dst]->queue.schedule_at(m.deliver,
                                      [f = std::move(m.fn)] { f(); });
    ++stats_.messages;
    ++due;
  }
  staged_.erase(staged_.begin(),
                staged_.begin() + static_cast<std::ptrdiff_t>(due));
  return true;
}

void ShardedEngine::run_shard_window(Shard& s) {
  // horizon_ is exclusive; EventQueue::run's cap is inclusive.
  s.window_executed = s.queue.run(horizon_ - 1);
}

void ShardedEngine::finish_window() {
  ++stats_.windows;
  u32 active = 0;
  Cycle lo = kNeverCycle;
  Cycle hi = 0;
  for (const auto& s : shards_) {
    if (s->window_executed > 0) ++active;
    lo = std::min(lo, s->queue.now());
    hi = std::max(hi, s->queue.now());
  }
  if (active <= 1 && shards_.size() > 1) ++stats_.stall_windows;
  if (hi > lo) stats_.max_skew = std::max<u64>(stats_.max_skew, hi - lo);
  // Shard-id order keeps the staging buffer's contents (and therefore the
  // next window's injection order) independent of worker scheduling.
  for (const auto& s : shards_) {
    for (ShardMessage& m : s->outbox) staged_.push_back(std::move(m));
    s->outbox.clear();
  }
}

void ShardedEngine::worker_loop() {
  while (true) {
    window_start_->arrive_and_wait();
    if (stop_.load(std::memory_order_acquire)) return;
    u32 i;
    while ((i = next_shard_.fetch_add(1, std::memory_order_relaxed)) <
           shards_.size())
      run_shard_window(*shards_[i]);
    window_end_->arrive_and_wait();
  }
}

void ShardedEngine::run(Cycle max_cycle) {
  if (shards_.size() == 1) {
    // Uncoupled system: no windows, no barriers — the sequential kernel
    // verbatim, so single-shard runs are byte-identical to --engine seq.
    shards_[0]->queue.run(max_cycle);
    return;
  }
  while (prepare_window(max_cycle)) {
    if (workers_.empty()) {
      for (const auto& s : shards_) run_shard_window(*s);
    } else {
      next_shard_.store(0, std::memory_order_relaxed);
      window_start_->arrive_and_wait();
      window_end_->arrive_and_wait();
      stats_.barrier_waits += 2;
    }
    finish_window();
  }
}

}  // namespace uvmsim
