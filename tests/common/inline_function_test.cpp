#include "common/inline_function.hpp"

#include <gtest/gtest.h>

#include <array>
#include <memory>
#include <utility>

#include "common/types.hpp"

namespace uvmsim {
namespace {

using Fn = InlineFunction<void()>;
using IntFn = InlineFunction<int(int), 16>;

TEST(InlineFunction, EmptyIsFalsey) {
  Fn f;
  EXPECT_FALSE(f);
  EXPECT_TRUE(f.is_inline());
}

TEST(InlineFunction, SmallCaptureStaysInline) {
  int hits = 0;
  Fn f = [&hits] { ++hits; };
  static_assert(Fn::fits_inline<decltype([&hits] { ++hits; })>);
  EXPECT_TRUE(f);
  EXPECT_TRUE(f.is_inline());
  f();
  f();
  EXPECT_EQ(hits, 2);
}

TEST(InlineFunction, ReturnsValueAndTakesArguments) {
  IntFn f = [](int x) { return x * 3; };
  EXPECT_EQ(f(7), 21);
}

TEST(InlineFunction, MoveTransfersOwnership) {
  int hits = 0;
  Fn a = [&hits] { ++hits; };
  Fn b = std::move(a);
  EXPECT_FALSE(a);  // NOLINT(bugprone-use-after-move): specified empty
  EXPECT_TRUE(b);
  b();
  EXPECT_EQ(hits, 1);

  Fn c;
  c = std::move(b);
  c();
  EXPECT_EQ(hits, 2);
}

TEST(InlineFunction, MoveOnlyCaptureWorks) {
  auto p = std::make_unique<int>(5);
  InlineFunction<int()> f = [p = std::move(p)] { return *p; };
  EXPECT_EQ(f(), 5);
  InlineFunction<int()> g = std::move(f);
  EXPECT_EQ(g(), 5);
}

TEST(InlineFunction, DestructorRunsCaptureDestructor) {
  auto counter = std::make_shared<int>(0);
  struct Bump {
    std::shared_ptr<int> c;
    ~Bump() {
      if (c) ++*c;
    }
    explicit Bump(std::shared_ptr<int> counter) : c(std::move(counter)) {}
    Bump(Bump&& o) noexcept = default;
    void operator()() const {}
  };
  {
    Fn f = Bump{counter};
    EXPECT_GE(*counter, 0);
  }
  // Exactly one live Bump was destroyed with a non-null pointer (moved-from
  // temporaries carry a null shared_ptr and don't count).
  EXPECT_EQ(*counter, 1);
  EXPECT_EQ(counter.use_count(), 1);
}

TEST(InlineFunction, OversizedCaptureGoesToTheHeap) {
  std::array<u64, 16> big{};  // 128 B — over the 48 B inline budget
  big[3] = 42;
  auto owner = std::make_shared<int>(0);
  {
    InlineFunction<u64()> f = [big, owner] { return big[3]; };
    static_assert(!InlineFunction<u64()>::fits_inline<decltype([big] {
      return big[3];
    })>);
    EXPECT_FALSE(f.is_inline());
    EXPECT_EQ(f(), 42u);

    // Moving a heap capture hands over the pointer: no second copy.
    InlineFunction<u64()> g = std::move(f);
    EXPECT_FALSE(g.is_inline());
    EXPECT_EQ(g(), 42u);
    EXPECT_EQ(owner.use_count(), 2);
  }
  EXPECT_EQ(owner.use_count(), 1);  // the one heap capture was destroyed
}

TEST(InlineFunction, ResetDropsTheCallable) {
  int hits = 0;
  Fn f = [&hits] { ++hits; };
  f.reset();
  EXPECT_FALSE(f);
}

// The capacity contract the event kernel relies on: the hot-path capture
// shapes in gpu.cpp ('this' + a few 32/64-bit ids) must fit the default
// 48-byte budget. Mirrors the static_asserts at the call sites.
TEST(InlineFunction, HotPathCaptureShapesFitInline) {
  struct FourWords {
    void* a;
    u64 b;
    u32 c, d;
    void operator()() const {}
  };
  static_assert(Fn::fits_inline<FourWords>);
  struct SixWords {
    void* a;
    u64 b, c, d, e;
    void operator()() const {}
  };
  static_assert(Fn::fits_inline<SixWords>);
  SUCCEED();
}

}  // namespace
}  // namespace uvmsim
