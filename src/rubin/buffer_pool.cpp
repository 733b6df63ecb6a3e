#include "rubin/buffer_pool.hpp"

#include <stdexcept>
#include <string>

#include "common/audit.hpp"

namespace rubin::nio {

namespace {
constexpr std::uint8_t kFree = 0;
constexpr std::uint8_t kAcquired = 1;
}  // namespace

BufferPool::BufferPool(verbs::ProtectionDomain& pd, std::uint32_t count,
                       std::size_t size, std::uint32_t access)
    : slab_(pd, static_cast<std::size_t>(count) * size, access),
      count_(count), size_(size), slot_state_(count, kFree) {
  free_.reserve(count);
  // LIFO free list: the most recently used slot is the warmest in cache.
  for (std::uint32_t i = count; i > 0; --i) free_.push_back(i - 1);
}

BufferPool::~BufferPool() {
  RUBIN_AUDIT_ASSERT("buffer_pool", acquired_count() == 0,
                     std::to_string(acquired_count()) +
                         " slot(s) leaked at pool destruction (count=" +
                         std::to_string(count_) + " slot_size=" +
                         std::to_string(size_) + ")");
}

std::optional<std::uint32_t> BufferPool::acquire() {
  if (free_.empty()) return std::nullopt;
  const std::uint32_t slot = free_.back();
  free_.pop_back();
  RUBIN_AUDIT_ASSERT("buffer_pool", slot_state_[slot] == kFree,
                     "free list handed out slot " + std::to_string(slot) +
                         " already marked acquired");
  slot_state_[slot] = kAcquired;
  return slot;
}

void BufferPool::release(std::uint32_t slot) {
  if (slot >= count_) throw std::out_of_range("BufferPool::release: bad slot");
  if constexpr (audit::kEnabled) {
    if (slot_state_[slot] != kAcquired) {
      audit::fail("buffer_pool",
                  "double release of slot " + std::to_string(slot), __FILE__,
                  __LINE__);
      return;  // captured: drop the bogus release so the pool stays sane
    }
  }
  slot_state_[slot] = kFree;
  free_.push_back(slot);
}

verbs::Sge BufferPool::sge(std::uint32_t slot, std::uint32_t len) const {
  if (slot >= count_ || len > size_) {
    throw std::out_of_range("BufferPool::sge: bad slot or length");
  }
  const verbs::MemoryRegion& mr = *slab_.mr();
  return verbs::Sge{mr.addr() + static_cast<std::uint64_t>(slot) * size_, len,
                    mr.lkey()};
}

MutByteView BufferPool::view(std::uint32_t slot) {
  if (slot >= count_) throw std::out_of_range("BufferPool::view: bad slot");
  return slab_.span().subspan(static_cast<std::size_t>(slot) * size_, size_);
}

ByteView BufferPool::view(std::uint32_t slot, std::size_t len) const {
  if (slot >= count_ || len > size_) {
    throw std::out_of_range("BufferPool::view: bad slot or length");
  }
  return ByteView(slab_.span()).subspan(static_cast<std::size_t>(slot) * size_,
                                       len);
}

}  // namespace rubin::nio
