#include "common/shared_bytes.hpp"

#include <atomic>
#include <cstring>
#include <new>
#include <stdexcept>

#include "common/audit.hpp"
#include "common/frame_pool.hpp"

namespace rubin {

namespace {
// Allocation ids are handed out once and never reused, so buffer_id()
// equality is exactly "same logical allocation" — independent of the
// recycling pool handing the same raw block back. Relaxed is enough:
// the id is data, not a synchronization point.
std::atomic<std::uint64_t> next_buffer_id{1};
}  // namespace

SharedBytes SharedBytes::allocate(std::size_t n) {
  if (n == 0) return {};
  if (n > UINT32_MAX) {
    throw std::length_error("SharedBytes::allocate: buffer too large");
  }
  // Control block and payload share one block from the recycling pool:
  // wire-sized buffers (headers, 1 KiB requests) churn once per message,
  // and the pool hands the same blocks back instead of hitting malloc.
  auto* raw = static_cast<std::uint8_t*>(frame_pool::allocate(sizeof(Ctrl) + n));
  auto* ctrl = new (raw) Ctrl{1, static_cast<std::uint32_t>(n),
                              next_buffer_id.fetch_add(
                                  1, std::memory_order_relaxed)};
  return SharedBytes(ctrl, raw + sizeof(Ctrl), n);
}

SharedBytes SharedBytes::copy_of(ByteView src) {
  SharedBytes out = allocate(src.size());
  if (!src.empty()) {
    RUBIN_AUDIT_COUNT("datapath.copy_bytes", src.size());
    std::memcpy(out.mutable_data(), src.data(), src.size());
  }
  return out;
}

std::uint8_t* SharedBytes::mutable_data() noexcept {
  // const_cast is confined here: the fill-then-publish window is the one
  // moment the buffer is legitimately writable (sole owner, whole span).
  RUBIN_AUDIT_ASSERT("shared_bytes",
                     ctrl_ == nullptr ||
                         (ctrl_->refs == 1 && size_ == ctrl_->capacity),
                     "mutable_data on a shared or sliced buffer");
  return const_cast<std::uint8_t*>(data_);
}

SharedBytes SharedBytes::slice(std::size_t offset, std::size_t len) const {
  if (offset > size_ || len > size_ - offset) {
    throw std::out_of_range("SharedBytes::slice: out of range");
  }
  if (len == 0) return {};
  if (ctrl_ != nullptr) ++ctrl_->refs;
  // Each slice is a payload reference that did *not* copy — the audit
  // counterpart of datapath.copy_bytes.
  RUBIN_AUDIT_COUNT("datapath.slices", 1);
  return SharedBytes(ctrl_, data_ + offset, len);
}

void SharedBytes::release_live() noexcept {
  if (--ctrl_->refs == 0) {
    ctrl_->~Ctrl();
    frame_pool::deallocate(static_cast<void*>(ctrl_));
  }
  ctrl_ = nullptr;
  data_ = nullptr;
  size_ = 0;
}

void FrameVec::append(SharedBytes s) {
  if (s.empty()) return;
  if (count_ == kInlineSlices) {
    throw std::length_error("FrameVec::append: inline capacity exceeded");
  }
  total_ += s.size();
  slices_[count_++] = std::move(s);
}

std::size_t FrameVec::copy_to(MutByteView out) const {
  if (out.size() < total_) {
    throw std::invalid_argument("FrameVec::copy_to: output too small");
  }
  std::size_t off = 0;
  for (std::size_t i = 0; i < count_; ++i) {
    const SharedBytes& s = slices_[i];
    RUBIN_AUDIT_COUNT("datapath.copy_bytes", s.size());
    std::memcpy(out.data() + off, s.data(), s.size());
    off += s.size();
  }
  return off;
}

SharedBytes FrameVec::flatten() const {
  SharedBytes out = SharedBytes::allocate(total_);
  if (total_ != 0) {
    copy_to(MutByteView(out.mutable_data(), total_));
  }
  return out;
}

}  // namespace rubin
