// InlineFunction: a move-only callable with fixed inline storage, built for
// the event kernel. The common simulation lambdas (`[this, sm, warp, page]`
// and friends) fit the inline buffer, so scheduling an event performs zero
// heap allocations and invoking it is one indirect call. Captures larger
// than the buffer (e.g. a MigrationBatch moved into a completion event) go
// to the heap through aligned operator new/delete; the event queue counts
// them (oversize_events).
//
// Differences from std::function, chosen deliberately for the hot path:
//   * move-only (no copy — events are scheduled once and consumed once);
//   * invoking an empty InlineFunction is undefined (assert), not a throw;
//   * `is_inline()` is observable so the event queue can count spills.
#pragma once

#include <cassert>
#include <cstddef>
#include <new>
#include <type_traits>
#include <utility>

namespace uvmsim {

/// Inline capture budget for simulation callbacks. 48 bytes holds the
/// largest per-access lambda (`this` + a few ids) with room to spare; see
/// the static_asserts at the call sites in src/gpu/gpu.cpp.
inline constexpr std::size_t kCallbackInlineBytes = 48;

template <class Sig, std::size_t Capacity = kCallbackInlineBytes>
class InlineFunction;  // primary template left undefined

template <class R, class... Args, std::size_t Capacity>
class InlineFunction<R(Args...), Capacity> {
 public:
  /// True when a callable of type F stores inline (no heap allocation).
  template <class F>
  static constexpr bool fits_inline =
      sizeof(F) <= Capacity && alignof(F) <= alignof(std::max_align_t) &&
      std::is_nothrow_move_constructible_v<F>;

  InlineFunction() = default;

  template <class F,
            class = std::enable_if_t<
                !std::is_same_v<std::decay_t<F>, InlineFunction> &&
                std::is_invocable_r_v<R, std::decay_t<F>&, Args...>>>
  InlineFunction(F&& f) {  // NOLINT(google-explicit-constructor)
    using Fn = std::decay_t<F>;
    if constexpr (fits_inline<Fn>) {
      ::new (static_cast<void*>(buf_)) Fn(std::forward<F>(f));
      ops_ = &inline_ops<Fn>;
    } else {
      void* mem = ::operator new(sizeof(Fn), std::align_val_t{alignof(Fn)});
      *reinterpret_cast<Fn**>(buf_) = ::new (mem) Fn(std::forward<F>(f));
      ops_ = &heap_ops<Fn>;
    }
  }

  InlineFunction(InlineFunction&& other) noexcept { move_from(other); }

  InlineFunction& operator=(InlineFunction&& other) noexcept {
    if (this != &other) {
      reset();
      move_from(other);
    }
    return *this;
  }

  InlineFunction(const InlineFunction&) = delete;
  InlineFunction& operator=(const InlineFunction&) = delete;

  ~InlineFunction() { reset(); }

  [[nodiscard]] explicit operator bool() const noexcept {
    return ops_ != nullptr;
  }
  /// False when the capture lives on the heap.
  [[nodiscard]] bool is_inline() const noexcept {
    return ops_ == nullptr || !ops_->on_heap;
  }

  R operator()(Args... args) {
    assert(ops_ != nullptr && "invoking empty InlineFunction");
    return ops_->invoke(buf_, std::forward<Args>(args)...);
  }

  void reset() noexcept {
    if (ops_ != nullptr) {
      ops_->destroy(buf_);
      ops_ = nullptr;
    }
  }

 private:
  struct Ops {
    R (*invoke)(unsigned char*, Args&&...);
    /// Move-construct into dst from src's storage, then destroy src's.
    void (*relocate)(unsigned char* dst, unsigned char* src);
    void (*destroy)(unsigned char*);
    bool on_heap;
  };

  template <class Fn>
  static constexpr Ops inline_ops = {
      /*invoke=*/[](unsigned char* buf, Args&&... args) -> R {
        return (*std::launder(reinterpret_cast<Fn*>(buf)))(
            std::forward<Args>(args)...);
      },
      /*relocate=*/
      [](unsigned char* dst, unsigned char* src) {
        Fn* s = std::launder(reinterpret_cast<Fn*>(src));
        ::new (static_cast<void*>(dst)) Fn(std::move(*s));
        s->~Fn();
      },
      /*destroy=*/
      [](unsigned char* buf) {
        std::launder(reinterpret_cast<Fn*>(buf))->~Fn();
      },
      /*on_heap=*/false,
  };

  template <class Fn>
  static constexpr Ops heap_ops = {
      /*invoke=*/[](unsigned char* buf, Args&&... args) -> R {
        return (**reinterpret_cast<Fn**>(buf))(std::forward<Args>(args)...);
      },
      /*relocate=*/
      [](unsigned char* dst, unsigned char* src) {
        // A heap capture is owned by pointer: relocation is a pointer copy.
        *reinterpret_cast<Fn**>(dst) = *reinterpret_cast<Fn**>(src);
      },
      /*destroy=*/
      [](unsigned char* buf) {
        Fn* f = *reinterpret_cast<Fn**>(buf);
        f->~Fn();
        ::operator delete(f, std::align_val_t{alignof(Fn)});
      },
      /*on_heap=*/true,
  };

  void move_from(InlineFunction& other) noexcept {
    ops_ = other.ops_;
    if (ops_ != nullptr) {
      ops_->relocate(buf_, other.buf_);
      other.ops_ = nullptr;
    }
  }

  alignas(std::max_align_t) unsigned char buf_[Capacity];
  const Ops* ops_ = nullptr;
};

static_assert(sizeof(void*) <= kCallbackInlineBytes,
              "inline buffer must at least hold the heap pointer");

}  // namespace uvmsim
