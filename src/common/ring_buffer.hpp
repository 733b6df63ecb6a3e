// GrowingRing: the one FIFO ring type in the tree.
#pragma once

#include <cstddef>
#include <utility>
#include <vector>

namespace rubin {

/// Unbounded FIFO ring with geometric (power-of-two) growth: the backing
/// store for the simulator's same-instant event queue, Mailbox, channel WR
/// accounting, QP queues and CQs. Bounded (hardware) queues check their
/// limit before a push, so they too hold memory only for what is queued.
/// Unlike std::deque it allocates nothing until the first push, and
/// steady-state push/pop are two array ops and a mask.
/// Requires T to be default-constructible (slots are value-initialized).
template <typename T>
class GrowingRing {
 public:
  GrowingRing() = default;

  std::size_t size() const noexcept { return count_; }
  bool empty() const noexcept { return count_ == 0; }
  std::size_t capacity() const noexcept { return slots_.size(); }

  void push(T v) {
    // mask_ is capacity-1, kept as a member so the hot path never reloads
    // slots_.size(); the empty ring's mask of ~0 makes `mask_ + 1 == 0`,
    // which forces the first push through grow().
    if (count_ == mask_ + 1) grow();
    slots_[tail_] = std::move(v);
    tail_ = (tail_ + 1) & mask_;
    ++count_;
  }

  /// Oldest element; undefined when empty.
  T& front() noexcept { return slots_[head_]; }
  const T& front() const noexcept { return slots_[head_]; }

  /// Pops and returns the oldest element; undefined when empty.
  T pop() {
    T v = std::move(slots_[head_]);
    head_ = (head_ + 1) & mask_;
    --count_;
    return v;
  }

  /// i-th oldest element (0 == front); undefined when i >= size().
  T& operator[](std::size_t i) noexcept {
    return slots_[(head_ + i) & mask_];
  }
  const T& operator[](std::size_t i) const noexcept {
    return slots_[(head_ + i) & mask_];
  }

  /// Empties the ring, destroying queued values (capacity is kept).
  void clear() {
    while (count_ > 0) (void)pop();
    head_ = tail_ = 0;
  }

  /// Minimal forward iteration in FIFO order (range-for support).
  template <typename Ring, typename Ref>
  class Iter {
   public:
    Iter(Ring* ring, std::size_t i) noexcept : ring_(ring), i_(i) {}
    Ref operator*() const noexcept { return (*ring_)[i_]; }
    Iter& operator++() noexcept {
      ++i_;
      return *this;
    }
    bool operator!=(const Iter& o) const noexcept { return i_ != o.i_; }

   private:
    Ring* ring_;
    std::size_t i_;
  };
  auto begin() noexcept { return Iter<GrowingRing, T&>(this, 0); }
  auto end() noexcept { return Iter<GrowingRing, T&>(this, count_); }
  auto begin() const noexcept {
    return Iter<const GrowingRing, const T&>(this, 0);
  }
  auto end() const noexcept {
    return Iter<const GrowingRing, const T&>(this, count_);
  }

 private:
  void grow() {
    const std::size_t cap = slots_.empty() ? 8 : slots_.size() * 2;
    std::vector<T> next(cap);
    for (std::size_t i = 0; i < count_; ++i) {
      next[i] = std::move(slots_[(head_ + i) & mask_]);
    }
    slots_ = std::move(next);
    head_ = 0;
    mask_ = cap - 1;
    tail_ = count_;  // count_ < cap, so no wrap
  }

  std::vector<T> slots_;  // size is always zero or a power of two
  std::size_t head_ = 0;
  std::size_t tail_ = 0;  // == (head_ + count_) & mask_
  std::size_t count_ = 0;
  /// capacity - 1; all-ones when the ring has never grown (capacity 0).
  std::size_t mask_ = static_cast<std::size_t>(-1);
};

}  // namespace rubin
