#include "verbs/memory.hpp"

#include <sys/mman.h>

#include <new>

namespace rubin::verbs {

MemoryRegion* ProtectionDomain::register_memory(MutByteView span,
                                                std::uint32_t access) {
  auto mr = std::unique_ptr<MemoryRegion>(new MemoryRegion());
  mr->base_ = span.data();
  mr->addr_ = reinterpret_cast<std::uint64_t>(span.data());
  mr->length_ = span.size();
  mr->access_ = access;
  mr->lkey_ = next_key_++;
  mr->rkey_ = next_key_++;
  MemoryRegion* raw = mr.get();
  by_rkey_[raw->rkey_] = raw;
  by_lkey_[raw->lkey_] = std::move(mr);
  return raw;
}

void ProtectionDomain::deregister(MemoryRegion* mr) {
  if (mr == nullptr) return;
  by_rkey_.erase(mr->rkey_);
  by_lkey_.erase(mr->lkey_);  // frees the MR
}

std::uint32_t ProtectionDomain::rekey_remote(MemoryRegion* mr,
                                             std::uint32_t remote_access) {
  by_rkey_.erase(mr->rkey_);  // revoke before grant: the old key dies first
  mr->rkey_ = next_key_++;
  mr->access_ = (mr->access_ & kAccessLocalWrite) |
                (remote_access & (kAccessRemoteRead | kAccessRemoteWrite));
  by_rkey_[mr->rkey_] = mr;
  return mr->rkey_;
}

const MemoryRegion* ProtectionDomain::check_local(const Sge& sge,
                                                  bool need_write) const {
  const auto it = by_lkey_.find(sge.lkey);
  if (it == by_lkey_.end()) return nullptr;
  const MemoryRegion& mr = *it->second;
  if (!mr.contains(sge.addr, sge.length)) return nullptr;
  if (need_write && (mr.access() & kAccessLocalWrite) == 0) return nullptr;
  return &mr;
}

const MemoryRegion* ProtectionDomain::check_remote(std::uint32_t rkey,
                                                   std::uint64_t addr,
                                                   std::size_t len,
                                                   std::uint32_t need) const {
  const auto it = by_rkey_.find(rkey);
  if (it == by_rkey_.end()) return nullptr;
  const MemoryRegion& mr = *it->second;
  if (!mr.contains(addr, len)) return nullptr;
  if ((mr.access() & need) != need) return nullptr;
  return &mr;
}

RegisteredBuffer::RegisteredBuffer(ProtectionDomain& pd, std::size_t size,
                                   std::uint32_t access)
    : pd_(&pd), size_(size) {
  if (size > 0) {
    void* p = ::mmap(nullptr, size, PROT_READ | PROT_WRITE,
                     MAP_PRIVATE | MAP_ANONYMOUS, -1, 0);
    if (p == MAP_FAILED) throw std::bad_alloc();
    // Commit page by page: a huge page would commit 2 MiB on one touch.
    (void)::madvise(p, size, MADV_NOHUGEPAGE);
    data_ = static_cast<std::uint8_t*>(p);
  }
  mr_ = pd.register_memory(span(), access);
}

RegisteredBuffer::~RegisteredBuffer() {
  pd_->deregister(mr_);
  if (data_ != nullptr) ::munmap(data_, size_);
}

}  // namespace rubin::verbs
