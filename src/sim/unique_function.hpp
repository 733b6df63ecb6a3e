// Move-only type-erased callable (std::move_only_function is C++23; this
// is the C++20 subset we need) with small-buffer optimization: callables
// up to kInlineSize bytes live inside the object, so the event queue's
// dominant payloads — coroutine-handle wrappers and small capture lists —
// never touch the heap. Larger callables fall back to a heap allocation
// held through a unique_ptr constructed in the same buffer.
#pragma once

#include <cstddef>
#include <memory>
#include <type_traits>
#include <utility>

#include "common/counters.hpp"
#include "common/frame_pool.hpp"

namespace rubin::sim {

class UniqueFunction {
 public:
  /// Inline storage: sized for the schedule-site lambdas this codebase
  /// actually writes (a handle or `this` plus a few ids/times). Anything
  /// bigger — e.g. a delivery action owning a payload vector plus
  /// metadata — overflows to the heap.
  static constexpr std::size_t kInlineSize = 48;
  static constexpr std::size_t kInlineAlign = alignof(std::max_align_t);

  UniqueFunction() = default;

  template <typename F>
    requires(!std::is_same_v<std::decay_t<F>, UniqueFunction>)
  UniqueFunction(F&& f) {  // NOLINT(google-explicit-constructor): mirrors std::function
    emplace(std::forward<F>(f));
  }

  /// Constructs a callable directly into this object (destroying any
  /// previous one). The simulator's schedule fast path uses this to build
  /// the callable in its final slot, with no intermediate moves.
  template <typename F>
    requires(!std::is_same_v<std::decay_t<F>, UniqueFunction>)
  void emplace(F&& f) {
    using D = std::decay_t<F>;
    if (ops_ != nullptr) ops_->destroy(buf_);
    if constexpr (kFitsInline<D>) {
      ::new (static_cast<void*>(buf_)) D(std::forward<F>(f));
      ops_ = &kInlineOps<D>;
      RUBIN_COUNT("sim.uf.inline", 1);
    } else {
      // Spills recycle through the frame pool alongside coroutine frames:
      // an oversized schedule-site closure is just as hot as the frame
      // that posted it. Over-aligned callables (none today) keep the
      // plain make_unique path, whose delete matches their alignment.
      using Holder = HolderFor<D>;
      if constexpr (kPoolable<D>) {
        void* mem = frame_pool::allocate(sizeof(D));
        D* obj = nullptr;
        try {
          obj = ::new (mem) D(std::forward<F>(f));
        } catch (...) {
          frame_pool::deallocate(mem);
          throw;
        }
        ::new (static_cast<void*>(buf_)) Holder(obj);
      } else {
        ::new (static_cast<void*>(buf_))
            Holder(std::make_unique<D>(std::forward<F>(f)));
      }
      ops_ = &kHeapOps<D>;
      RUBIN_COUNT("sim.uf.heap", 1);
    }
  }

  /// Destroys the held callable (no-op when empty), leaving *this empty.
  void reset() noexcept {
    if (ops_ != nullptr) {
      ops_->destroy(buf_);
      ops_ = nullptr;
    }
  }

  UniqueFunction(UniqueFunction&& o) noexcept
      : ops_(std::exchange(o.ops_, nullptr)) {
    if (ops_ != nullptr) ops_->relocate(buf_, o.buf_);
  }

  UniqueFunction& operator=(UniqueFunction&& o) noexcept {
    if (this != &o) {
      if (ops_ != nullptr) ops_->destroy(buf_);
      ops_ = std::exchange(o.ops_, nullptr);
      if (ops_ != nullptr) ops_->relocate(buf_, o.buf_);
    }
    return *this;
  }

  UniqueFunction(const UniqueFunction&) = delete;
  UniqueFunction& operator=(const UniqueFunction&) = delete;

  ~UniqueFunction() {
    if (ops_ != nullptr) ops_->destroy(buf_);
  }

  explicit operator bool() const noexcept { return ops_ != nullptr; }

  /// True when the held callable lives in the inline buffer (tests).
  bool is_inline() const noexcept { return ops_ != nullptr && !ops_->heap; }

  void operator()() { ops_->call(buf_); }

  /// Invokes the held callable and destroys it in one indirect call (the
  /// event-dispatch fast path: a fired callback never runs twice, so call
  /// and teardown always pair). Leaves *this empty; the callable is
  /// destroyed even if it throws.
  void call_and_destroy() {
    const Ops* ops = std::exchange(ops_, nullptr);
    ops->call_destroy(buf_);
  }

 private:
  /// Per-callable-type dispatch table; one static instance per F, so the
  /// object itself carries a single pointer of type overhead.
  struct Ops {
    void (*call)(void* self);
    /// Invokes *self, then destroys it (even on exception).
    void (*call_destroy)(void* self);
    /// Move-constructs *dst from *src, then destroys *src.
    void (*relocate)(void* dst, void* src) noexcept;
    void (*destroy)(void* self) noexcept;
    bool heap;
  };

  template <typename F>
  static constexpr bool kFitsInline =
      sizeof(F) <= kInlineSize && alignof(F) <= kInlineAlign &&
      std::is_nothrow_move_constructible_v<F>;

  /// Frame-pool blocks carry default new alignment; anything stricter
  /// falls back to the global heap.
  template <typename F>
  static constexpr bool kPoolable = alignof(F) <= alignof(std::max_align_t);

  template <typename F>
  struct PoolDeleter {
    void operator()(F* f) const noexcept {
      f->~F();
      frame_pool::deallocate(f);
    }
  };

  template <typename F>
  using HolderFor = std::conditional_t<kPoolable<F>,
                                       std::unique_ptr<F, PoolDeleter<F>>,
                                       std::unique_ptr<F>>;

  /// Destroys *f when the enclosing scope exits (guards call_destroy
  /// against throwing callables without a try/catch).
  template <typename F>
  struct DestroyGuard {
    F* f;
    ~DestroyGuard() { f->~F(); }
  };

  template <typename F>
  static constexpr Ops kInlineOps = {
      [](void* self) { (*static_cast<F*>(self))(); },
      [](void* self) {
        F* f = static_cast<F*>(self);
        DestroyGuard<F> guard{f};
        (*f)();
      },
      [](void* dst, void* src) noexcept {
        ::new (dst) F(std::move(*static_cast<F*>(src)));
        static_cast<F*>(src)->~F();
      },
      [](void* self) noexcept { static_cast<F*>(self)->~F(); },
      false,
  };

  template <typename F>
  static constexpr Ops kHeapOps = {
      [](void* self) { (**static_cast<HolderFor<F>*>(self))(); },
      [](void* self) {
        auto* holder = static_cast<HolderFor<F>*>(self);
        DestroyGuard<HolderFor<F>> guard{holder};
        (**holder)();
      },
      [](void* dst, void* src) noexcept {
        auto* from = static_cast<HolderFor<F>*>(src);
        ::new (dst) HolderFor<F>(std::move(*from));
        std::destroy_at(from);
      },
      [](void* self) noexcept {
        std::destroy_at(static_cast<HolderFor<F>*>(self));
      },
      true,
  };

  const Ops* ops_ = nullptr;
  alignas(kInlineAlign) unsigned char buf_[kInlineSize];
};

}  // namespace rubin::sim
