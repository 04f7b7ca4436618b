#include "probes.hpp"

#include <chrono>
#include <mutex>
#include <optional>

#include "core/policy_registry.hpp"

namespace uvmsim::ledger {
namespace {

u64 now_ns() noexcept {
  return static_cast<u64>(std::chrono::duration_cast<std::chrono::nanoseconds>(
                              std::chrono::steady_clock::now().time_since_epoch())
                              .count());
}

// Every thread that ever opened a span owns one LayerTotals here; they
// outlive their threads so a joined worker's time is still collected.
std::mutex g_totals_mu;
std::vector<std::unique_ptr<LayerTotals>> g_totals;  // guarded by g_totals_mu

thread_local LayerTotals* t_totals = nullptr;
thread_local Span* t_open = nullptr;
thread_local std::optional<Span> t_shootdown;

LayerTotals& thread_totals() {
  if (t_totals == nullptr) {
    auto owned = std::make_unique<LayerTotals>();
    t_totals = owned.get();
    const std::lock_guard lock(g_totals_mu);
    g_totals.push_back(std::move(owned));
  }
  return *t_totals;
}

constexpr const char* kProbePrefix = "probe:";

class TimedEvictionPolicy final : public EvictionPolicy {
 public:
  TimedEvictionPolicy(std::unique_ptr<EvictionPolicy> inner, ChunkChain& chain)
      : EvictionPolicy(chain), inner_(std::move(inner)) {}

  void on_chunk_inserted(ChunkEntry& e) override {
    const Span s(Layer::kPolicy);
    inner_->on_chunk_inserted(e);
  }
  void on_page_touched(ChunkEntry& e, u32 page_in_chunk) override {
    const Span s(Layer::kPolicy);
    inner_->on_page_touched(e, page_in_chunk);
  }
  void on_fault(PageId page) override {
    const Span s(Layer::kPolicy);
    inner_->on_fault(page);
  }
  void on_interval_boundary() override {
    const Span s(Layer::kPolicy);
    inner_->on_interval_boundary();
  }
  [[nodiscard]] ChunkId select_victim() override {
    const Span s(Layer::kPolicy);
    return inner_->select_victim();
  }
  [[nodiscard]] std::vector<ChunkId> select_victims(u64 max_victims) override {
    const Span s(Layer::kPolicy);
    return inner_->select_victims(max_victims);
  }
  [[nodiscard]] std::vector<ChunkId> select_victims(
      u64 max_victims, const ChunkFilter& allow) override {
    const Span s(Layer::kPolicy);
    return inner_->select_victims(max_victims, allow);
  }
  void on_chunk_evicted(const ChunkEntry& e) override {
    const Span s(Layer::kPolicy);
    inner_->on_chunk_evicted(e);
  }
  [[nodiscard]] InsertPosition insert_position(ChunkId chunk) override {
    const Span s(Layer::kPolicy);
    return inner_->insert_position(chunk);
  }
  [[nodiscard]] bool reorder_on_touch() const override {
    const Span s(Layer::kPolicy);
    return inner_->reorder_on_touch();
  }
  [[nodiscard]] std::string name() const override { return inner_->name(); }
  void set_recorder(FlightRecorder* rec) override { inner_->set_recorder(rec); }

 private:
  std::unique_ptr<EvictionPolicy> inner_;
};

class TimedPrefetcher final : public Prefetcher {
 public:
  explicit TimedPrefetcher(std::unique_ptr<Prefetcher> inner)
      : inner_(std::move(inner)) {}

  [[nodiscard]] std::vector<PageId> plan(PageId faulted,
                                         const ResidencyView& view) override {
    const Span s(Layer::kPrefetch);
    return inner_->plan(faulted, view);
  }
  void on_chunk_evicted(ChunkId chunk, TouchBits touched) override {
    const Span s(Layer::kPrefetch);
    inner_->on_chunk_evicted(chunk, touched);
  }
  void forget_range(PageId base, u64 pages) override {
    const Span s(Layer::kPrefetch);
    inner_->forget_range(base, pages);
  }
  [[nodiscard]] std::string name() const override { return inner_->name(); }
  void set_recorder(FlightRecorder* rec) override { inner_->set_recorder(rec); }

 private:
  std::unique_ptr<Prefetcher> inner_;
};

class TimedStream final : public AccessStream {
 public:
  explicit TimedStream(std::unique_ptr<AccessStream> inner)
      : inner_(std::move(inner)) {}
  bool next(Access& out) override {
    const Span s(Layer::kWorkloads);
    return inner_->next(out);
  }

 private:
  std::unique_ptr<AccessStream> inner_;
};

}  // namespace

const char* layer_name(Layer l) noexcept {
  switch (l) {
    case Layer::kPolicy: return "policy";
    case Layer::kPrefetch: return "prefetch";
    case Layer::kWorkloads: return "workloads";
    case Layer::kShootdown: return "gpu.shootdown";
    case Layer::kObs: return "obs";
  }
  return "?";
}

LayerTotals& LayerTotals::operator+=(const LayerTotals& o) noexcept {
  for (std::size_t i = 0; i < kNumLayers; ++i) {
    ns[i] += o.ns[i];
    child_ns[i] += o.child_ns[i];
    calls[i] += o.calls[i];
  }
  return *this;
}

void reset_layer_totals() {
  const std::lock_guard lock(g_totals_mu);
  for (auto& t : g_totals) *t = LayerTotals{};
}

LayerTotals collect_layer_totals() {
  const std::lock_guard lock(g_totals_mu);
  LayerTotals sum;
  for (const auto& t : g_totals) sum += *t;
  return sum;
}

Span::Span(Layer layer) noexcept
    : layer_(layer), parent_(t_open), start_ns_(now_ns()) {
  t_open = this;
}

Span::~Span() {
  const u64 d = now_ns() - start_ns_;
  LayerTotals& t = thread_totals();
  const auto i = static_cast<std::size_t>(layer_);
  t.ns[i] += d;
  t.child_ns[i] += child_ns_;
  ++t.calls[i];
  if (parent_ != nullptr) parent_->child_ns_ += d;
  t_open = parent_;
}

void register_probes() {
  PolicyRegistry& reg = PolicyRegistry::instance();
  for (const std::string& name : reg.eviction_names())
    reg.register_eviction(kProbePrefix + name,
                          [name](const PolicyConfig& cfg, ChunkChain& chain) {
                            return std::make_unique<TimedEvictionPolicy>(
                                PolicyRegistry::instance().make_eviction(name, cfg, chain),
                                chain);
                          });
  for (const std::string& name : reg.prefetch_names())
    reg.register_prefetch(kProbePrefix + name, [name](const PolicyConfig& cfg) {
      return std::make_unique<TimedPrefetcher>(
          PolicyRegistry::instance().make_prefetch(name, cfg));
    });
}

PolicyConfig probed(PolicyConfig pol) {
  pol.eviction_name = kProbePrefix + eviction_key(pol);
  pol.prefetch_name = kProbePrefix + prefetch_key(pol);
  return pol;
}

std::unique_ptr<AccessStream> TimedWorkload::make_stream(
    const WarpContext& ctx) const {
  return std::make_unique<TimedStream>(inner_->make_stream(ctx));
}

void CountingSink::bracket_shootdowns(UvmDriver& driver) {
  bracketed_ = true;
  (void)driver.add_shootdown_handler([this](PageId, FrameId) {
    t_shootdown.reset();
    ++shootdown_pages_;
  });
}

void CountingSink::emit(const TraceEvent& e) {
  {
    const Span s(Layer::kObs);
    ++by_type_[static_cast<std::size_t>(e.type)];
    if (e.type == EventType::kEvictionChosen ||
        e.type == EventType::kLargeFrameEvicted) {
      untouched_ += e.b;
      evicted_ += e.c;
    }
  }
  // Opened once this sink's own span has closed, so the two never nest.
  if (bracketed_ && e.type == EventType::kShootdownIssued)
    t_shootdown.emplace(Layer::kShootdown);
}

u64 CountingSink::total() const noexcept {
  u64 n = 0;
  for (const u64 c : by_type_) n += c;
  return n;
}

}  // namespace uvmsim::ledger
