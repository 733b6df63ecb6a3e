// Fixed-capacity FIFO ring used for hardware-like queues (QP send/receive
// queues, completion queues). Hardware queues reject postings when full
// rather than growing, so `push` returns false on overflow — callers model
// the verbs error path (`ENOMEM` from ibv_post_send) off that.
#pragma once

#include <cstddef>
#include <optional>
#include <utility>
#include <vector>

namespace rubin {

template <typename T>
class RingBuffer {
 public:
  explicit RingBuffer(std::size_t capacity)
      : slots_(capacity + 1) {}  // one slot wasted to distinguish full/empty

  std::size_t capacity() const noexcept { return slots_.size() - 1; }
  std::size_t size() const noexcept {
    return (tail_ + slots_.size() - head_) % slots_.size();
  }
  bool empty() const noexcept { return head_ == tail_; }
  bool full() const noexcept { return size() == capacity(); }

  /// False (and no effect) when the ring is full.
  [[nodiscard]] bool push(T v) {
    if (full()) return false;
    slots_[tail_] = std::move(v);
    tail_ = (tail_ + 1) % slots_.size();
    return true;
  }

  /// Pops the oldest element; nullopt when empty.
  std::optional<T> pop() {
    if (empty()) return std::nullopt;
    T v = std::move(slots_[head_]);
    head_ = (head_ + 1) % slots_.size();
    return v;
  }

  /// Oldest element without removing it; nullptr when empty.
  T* front() noexcept { return empty() ? nullptr : &slots_[head_]; }

  void clear() noexcept { head_ = tail_ = 0; }

 private:
  std::vector<T> slots_;
  std::size_t head_ = 0;
  std::size_t tail_ = 0;
};

/// Unbounded FIFO ring with geometric (power-of-two) growth: the backing
/// store for software queues on hot paths — the simulator's same-instant
/// event queue, Mailbox, channel WR accounting. Unlike std::deque it
/// allocates nothing until the first push, and steady-state push/pop are
/// two array ops and a mask.
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
