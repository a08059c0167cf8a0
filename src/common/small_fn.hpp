// Small-buffer-optimized move-only callable, the event-queue callback type.
//
// The simulation schedules millions of callbacks per run, almost all of them
// lambdas capturing `this` plus a few ids, or a network delivery carrying a
// 12-byte message value (16-32 bytes). std::function heap-allocates for
// captures over ~16 bytes, which made every simulated message pay a
// malloc/free pair. SmallFn stores callables up to kInlineBytes inline and
// only falls back to the heap for oversized or throwing-move captures.
// Trivially copyable / destructible callables (all of the above) skip the
// indirect relocate / destroy calls entirely.
//
// Prefetch hook: a callable with a `prefetch() const` member can be told it
// will run soon (SmallFn::prefetch), so it pulls what it will read toward the
// cache while the event before it runs. The event loop calls it on the next
// event; the network's delivery callables prefetch their receiver (see
// net/network.hpp). It is a hint only: it must change no state. Every other
// callable, and every heap-held one, keeps a null entry and pays one test.
#pragma once

#include <cstddef>
#include <cstring>
#include <functional>
#include <memory>
#include <type_traits>
#include <utility>

namespace bng {

class SmallFn {
 public:
  /// Sized so the common simulation callbacks (this + a link + a message,
  /// or a whole std::function) fit without touching the heap.
  static constexpr std::size_t kInlineBytes = 48;

  SmallFn() noexcept = default;

  template <typename F,
            typename = std::enable_if_t<!std::is_same_v<std::decay_t<F>, SmallFn> &&
                                        std::is_invocable_r_v<void, std::decay_t<F>&>>>
  SmallFn(F&& f) {  // NOLINT(google-explicit-constructor): callback sink
    construct(std::forward<F>(f));
  }

  SmallFn(SmallFn&& other) noexcept : ops_(other.ops_) {
    if (ops_ != nullptr) {
      relocate_from(other);
      other.ops_ = nullptr;
    }
  }

  SmallFn& operator=(SmallFn&& other) noexcept {
    if (this != &other) {
      reset();
      ops_ = other.ops_;
      if (ops_ != nullptr) {
        relocate_from(other);
        other.ops_ = nullptr;
      }
    }
    return *this;
  }

  SmallFn(const SmallFn&) = delete;
  SmallFn& operator=(const SmallFn&) = delete;

  ~SmallFn() { reset(); }

  /// Destroy the current callable and construct `f` directly in the buffer —
  /// the zero-move path for hot callers that build the callable in place.
  template <typename F,
            typename = std::enable_if_t<!std::is_same_v<std::decay_t<F>, SmallFn> &&
                                        std::is_invocable_r_v<void, std::decay_t<F>&>>>
  void assign(F&& f) {
    reset();
    construct(std::forward<F>(f));
  }

  void assign(SmallFn&& other) { *this = std::move(other); }

  void operator()() {
    // Fail fast like the std::function this replaces (bad_function_call),
    // instead of a null ops-table call in release builds.
    if (ops_ == nullptr) throw std::bad_function_call();
    ops_->invoke(buf_);
  }

  [[nodiscard]] explicit operator bool() const noexcept { return ops_ != nullptr; }

  /// Hint that this callable runs soon: calls its `prefetch() const` member
  /// if it has one, and never invokes it. A no-op when empty (default-
  /// constructed, reset or moved from), so any SmallFn may be hinted.
  void prefetch() const noexcept {
    if (ops_ != nullptr && ops_->prefetch != nullptr) ops_->prefetch(buf_);
  }

  void reset() noexcept {
    if (ops_ != nullptr) {
      if (ops_->destroy != nullptr) ops_->destroy(buf_);
      ops_ = nullptr;
    }
  }

 private:
  struct Ops {
    void (*invoke)(void* obj);
    /// Move-construct into `dst` from `src`, then destroy `src`. Null when a
    /// plain memcpy of the buffer suffices (trivially copyable callable).
    void (*relocate)(void* dst, void* src) noexcept;
    /// Null when the callable is trivially destructible.
    void (*destroy)(void* obj) noexcept;
    /// Null unless the callable is held inline and has `prefetch() const`.
    void (*prefetch)(const void* obj) noexcept;
  };

  template <typename Fn>
  static constexpr bool kHasPrefetch = requires(const Fn& f) { f.prefetch(); };

  template <typename F>
  void construct(F&& f) {
    using Fn = std::decay_t<F>;
    if constexpr (sizeof(Fn) <= kInlineBytes && alignof(Fn) <= alignof(std::max_align_t) &&
                  std::is_nothrow_move_constructible_v<Fn>) {
      ::new (static_cast<void*>(buf_)) Fn(std::forward<F>(f));
      ops_ = &InlineModel<Fn>::ops;
    } else {
      ::new (static_cast<void*>(buf_)) Fn*(new Fn(std::forward<F>(f)));
      ops_ = &HeapModel<Fn>::ops;
    }
  }

  void relocate_from(SmallFn& other) noexcept {
    if (ops_->relocate != nullptr) {
      ops_->relocate(buf_, other.buf_);
    } else {
      std::memcpy(buf_, other.buf_, kInlineBytes);
    }
  }

  template <typename Fn>
  struct InlineModel {
    static void invoke(void* p) { (*static_cast<Fn*>(p))(); }
    static void relocate(void* dst, void* src) noexcept {
      ::new (dst) Fn(std::move(*static_cast<Fn*>(src)));
      static_cast<Fn*>(src)->~Fn();
    }
    static void destroy(void* p) noexcept { static_cast<Fn*>(p)->~Fn(); }
    static void prefetch(const void* p) noexcept {
      if constexpr (kHasPrefetch<Fn>) static_cast<const Fn*>(p)->prefetch();
    }
    static constexpr Ops ops{
        &invoke, std::is_trivially_copyable_v<Fn> ? nullptr : &relocate,
        std::is_trivially_destructible_v<Fn> ? nullptr : &destroy,
        kHasPrefetch<Fn> ? &prefetch : nullptr};
  };

  template <typename Fn>
  struct HeapModel {
    static void invoke(void* p) { (**static_cast<Fn**>(p))(); }
    static void destroy(void* p) noexcept { delete *static_cast<Fn**>(p); }
    // The buffer holds a plain pointer: relocation is always a memcpy. A
    // callable too big to sit inline gets no prefetch hook.
    static constexpr Ops ops{&invoke, nullptr, &destroy, nullptr};
  };

  alignas(std::max_align_t) unsigned char buf_[kInlineBytes];
  const Ops* ops_ = nullptr;
};

}  // namespace bng
