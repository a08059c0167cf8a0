#include "common/small_fn.hpp"

#include <gtest/gtest.h>

#include <array>
#include <functional>
#include <memory>

namespace bng {
namespace {

TEST(SmallFn, EmptyByDefault) {
  SmallFn fn;
  EXPECT_FALSE(static_cast<bool>(fn));
}

TEST(SmallFn, InvokesSmallLambda) {
  int hits = 0;
  SmallFn fn = [&hits] { ++hits; };
  ASSERT_TRUE(static_cast<bool>(fn));
  fn();
  fn();
  EXPECT_EQ(hits, 2);
}

TEST(SmallFn, MoveTransfersOwnership) {
  int hits = 0;
  SmallFn a = [&hits] { ++hits; };
  SmallFn b = std::move(a);
  EXPECT_FALSE(static_cast<bool>(a));  // NOLINT(bugprone-use-after-move)
  b();
  EXPECT_EQ(hits, 1);
}

TEST(SmallFn, NonTrivialCaptureDestroyed) {
  auto token = std::make_shared<int>(7);
  std::weak_ptr<int> weak = token;
  {
    SmallFn fn = [token] { (void)*token; };
    token.reset();
    EXPECT_FALSE(weak.expired());  // capture keeps it alive
    fn();
  }
  EXPECT_TRUE(weak.expired());  // destroying the callable releases it
}

TEST(SmallFn, MovedFromDoesNotDoubleDestroy) {
  auto token = std::make_shared<int>(1);
  std::weak_ptr<int> weak = token;
  {
    SmallFn a = [token] {};
    token.reset();
    SmallFn b = std::move(a);
    a.reset();  // no-op on moved-from
    EXPECT_FALSE(weak.expired());
  }
  EXPECT_TRUE(weak.expired());
}

TEST(SmallFn, OversizedCaptureFallsBackToHeap) {
  std::array<std::uint64_t, 16> big{};  // 128 bytes: over the inline budget
  big[0] = 11;
  big[15] = 22;
  std::uint64_t sum = 0;
  SmallFn fn = [big, &sum] { sum = big[0] + big[15]; };
  fn();
  EXPECT_EQ(sum, 33u);
}

TEST(SmallFn, HeapFallbackMoveAndDestroy) {
  auto token = std::make_shared<int>(3);
  std::weak_ptr<int> weak = token;
  std::array<std::uint64_t, 16> pad{};
  {
    SmallFn a = [token, pad] { (void)pad; };
    token.reset();
    SmallFn b = std::move(a);
    b();
    EXPECT_FALSE(weak.expired());
  }
  EXPECT_TRUE(weak.expired());
}

TEST(SmallFn, AcceptsStdFunction) {
  int hits = 0;
  std::function<void()> f = [&hits] { ++hits; };
  SmallFn fn = f;  // copy from lvalue
  fn();
  EXPECT_EQ(hits, 1);
}

TEST(SmallFn, AssignReplacesCallable) {
  int first = 0;
  int second = 0;
  SmallFn fn = [&first] { ++first; };
  fn.assign([&second] { ++second; });
  fn();
  EXPECT_EQ(first, 0);
  EXPECT_EQ(second, 1);
}

/// A callable with a prefetch hook: counts its hints and its calls.
struct Hinted {
  int* hints;
  int* calls;
  void operator()() { ++*calls; }
  void prefetch() const { ++*hints; }
};

TEST(SmallFn, PrefetchCallsTheHookWithoutInvoking) {
  int hints = 0;
  int calls = 0;
  SmallFn fn = Hinted{&hints, &calls};
  fn.prefetch();
  EXPECT_EQ(hints, 1);
  EXPECT_EQ(calls, 0);
  fn();
  EXPECT_EQ(calls, 1);
  SmallFn moved = std::move(fn);  // the hook moves with the callable
  moved.prefetch();
  EXPECT_EQ(hints, 2);
  EXPECT_EQ(calls, 1);
}

TEST(SmallFn, PrefetchIsANoOpWithoutAnInlineHook) {
  SmallFn empty;
  empty.prefetch();  // an event queue's stale slot may be empty
  int calls = 0;
  SmallFn lambda = [&calls] { ++calls; };
  lambda.prefetch();
  EXPECT_EQ(calls, 0);
  // Too big to sit inline, so held on the heap: no hook, member or not.
  struct BigHinted : Hinted {
    std::array<std::uint64_t, 16> pad;
  };
  int hints = 0;
  SmallFn heap = BigHinted{{&hints, &calls}, {}};
  heap.prefetch();
  EXPECT_EQ(hints, 0);
  EXPECT_EQ(calls, 0);
  heap();
  EXPECT_EQ(calls, 1);
}

}  // namespace
}  // namespace bng
