// Protection domains and memory regions.
//
// An application must register every buffer it sends from / receives into
// (paper §II-A). Registration yields an lkey (local use) and an rkey
// (handed to remote peers for one-sided access). All data-path operations
// validate key, bounds, and access flags — the checks behind the paper's
// security analysis (§III-C): a peer holding a stale or wrong rkey gets
// kRemoteAccessError instead of memory.
#pragma once

#include <cstdint>
#include <map>
#include <memory>

#include "common/bytes.hpp"
#include "verbs/types.hpp"

namespace rubin::verbs {

class ProtectionDomain;

/// A registered memory region. Addressed by real host virtual addresses,
/// like ibv_mr: the application must keep the underlying buffer alive and
/// un-moved while the MR exists.
class MemoryRegion {
 public:
  std::uint64_t addr() const noexcept { return addr_; }
  std::size_t length() const noexcept { return length_; }
  std::uint32_t lkey() const noexcept { return lkey_; }
  std::uint32_t rkey() const noexcept { return rkey_; }
  std::uint32_t access() const noexcept { return access_; }

  /// True iff [addr, addr+len) lies inside the region.
  bool contains(std::uint64_t a, std::size_t len) const noexcept {
    return a >= addr_ && len <= length_ && a - addr_ <= length_ - len;
  }

  /// Raw view of a validated slice (callers must have checked contains()).
  std::uint8_t* data_at(std::uint64_t a) const noexcept {
    return base_ + (a - addr_);
  }

 private:
  friend class ProtectionDomain;
  MemoryRegion() = default;
  std::uint8_t* base_ = nullptr;
  std::uint64_t addr_ = 0;
  std::size_t length_ = 0;
  std::uint32_t lkey_ = 0;
  std::uint32_t rkey_ = 0;
  std::uint32_t access_ = 0;
};

/// Protection domain: the key namespace. QPs and MRs belong to a PD; a key
/// from one PD is meaningless in another (checked on every access).
class ProtectionDomain {
 public:
  ProtectionDomain() = default;
  ProtectionDomain(const ProtectionDomain&) = delete;
  ProtectionDomain& operator=(const ProtectionDomain&) = delete;

  /// Registers `span` with the given access flags. kAccessLocalWrite is
  /// implied for receive buffers only if passed explicitly — same rule as
  /// ibv_reg_mr.
  MemoryRegion* register_memory(MutByteView span, std::uint32_t access);

  /// Invalidates the MR; subsequent accesses through its keys fail. The
  /// STag-invalidation scenario from the paper's security analysis.
  void deregister(MemoryRegion* mr);

  /// Permission flip (Aguilera et al., "The Impact of RDMA on Agreement"):
  /// atomically retires the MR's current rkey and issues a fresh one whose
  /// remote rights are exactly `remote_access` (local rights and the lkey
  /// are untouched). Revocation is immediate — a peer still holding the
  /// old rkey gets kRemoteAccessError from the very next access — and only
  /// the returned key grants. Returns the new rkey. This is pure key
  /// bookkeeping; the NIC re-programming time is charged by
  /// Device::flip_write_permission, which callers on the data path must
  /// use instead.
  std::uint32_t rekey_remote(MemoryRegion* mr, std::uint32_t remote_access);

  /// Local-key lookup with bounds/permission validation; nullptr on any
  /// mismatch. `need_write` = the NIC would write into the region.
  const MemoryRegion* check_local(const Sge& sge, bool need_write) const;

  /// Remote-key lookup with bounds/permission validation.
  const MemoryRegion* check_remote(std::uint32_t rkey, std::uint64_t addr,
                                   std::size_t len, std::uint32_t need) const;

  std::size_t region_count() const noexcept { return by_lkey_.size(); }

 private:
  std::map<std::uint32_t, std::unique_ptr<MemoryRegion>> by_lkey_;
  std::map<std::uint32_t, MemoryRegion*> by_rkey_;
  std::uint32_t next_key_ = 0x1000;
};

/// Registered memory committed on demand. Pre-registration (paper §IV)
/// pays the *registration* once; it never needed the pages touched. The
/// bytes come from an anonymous private mapping, so a page costs nothing
/// until first written and reads as zero before that: a fresh buffer is
/// all zeros without a memset. The buffer owns its MR and deregisters it
/// before unmapping, so no key outlives the memory it names. The PD must
/// outlive the buffer.
class RegisteredBuffer {
 public:
  RegisteredBuffer(ProtectionDomain& pd, std::size_t size,
                   std::uint32_t access);
  ~RegisteredBuffer();
  RegisteredBuffer(const RegisteredBuffer&) = delete;
  RegisteredBuffer& operator=(const RegisteredBuffer&) = delete;

  std::uint8_t* data() const noexcept { return data_; }
  std::size_t size() const noexcept { return size_; }
  MutByteView span() const noexcept { return {data_, size_}; }
  MemoryRegion* mr() const noexcept { return mr_; }

 private:
  ProtectionDomain* pd_;
  std::uint8_t* data_ = nullptr;
  std::size_t size_;
  MemoryRegion* mr_ = nullptr;
};

}  // namespace rubin::verbs
