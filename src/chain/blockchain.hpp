// Permissioned blockchain on top of BFT ordering — the deployment the
// paper motivates (§I): replicas inside a data center order transactions
// with PBFT; consensus finality means no forks, so the "chain" is simply
// the executed history sealed into hash-linked blocks.
//
// The Blockchain is a deterministic reptor::StateMachine: every replica
// executes the same ordered transactions, seals identical blocks, and the
// checkpoint digests compare chain tips across replicas.
//
// Transaction language (text ops, one per request):
//   "put <key> <value>"  -> "ok"
//   "get <key>"          -> value or "<nil>"
//   "del <key>"          -> "ok" / "<nil>"
//   anything else        -> "err"
#pragma once

#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "crypto/sha256.hpp"
#include "reptor/state_machine.hpp"

namespace rubin::chain {

struct Transaction {
  std::uint64_t index = 0;  // global execution order
  Bytes op;
  Bytes result;
};

struct Block {
  std::uint64_t height = 0;
  Digest prev_hash{};
  Digest tx_root{};  // digest over the contained transactions
  std::vector<Transaction> txs;
  Digest hash{};     // hash of (height | prev_hash | tx_root)

  /// Recomputes what `hash` must be for this block's contents.
  Digest compute_hash() const;
  Digest compute_tx_root() const;
};

/// Deterministic replicated key/value store with hash-chained history.
class Blockchain final : public reptor::StateMachine {
 public:
  /// Seals a block after every `block_size` executed transactions.
  explicit Blockchain(std::size_t block_size = 8);

  Bytes execute(ByteView op) override;
  Bytes query(ByteView op) const override;
  Digest state_digest() const override;
  Bytes snapshot() const override;
  bool restore(ByteView snap, const Digest& expected) override;

  // ------------------------------------------------------------- chain --
  const std::vector<Block>& blocks() const noexcept { return blocks_; }
  std::uint64_t height() const noexcept { return blocks_.size(); }
  /// Tip hash (genesis constant when no block is sealed yet).
  Digest tip() const;
  /// Verifies every prev-hash link and recomputed block hash. False means
  /// the in-memory history was tampered with.
  bool verify_chain() const;

  // ---------------------------------------------------------------- kv --
  std::optional<std::string> get(const std::string& key) const;
  std::size_t kv_size() const noexcept { return kv_.size(); }
  std::uint64_t executed() const noexcept { return executed_; }

 private:
  void seal_block();
  Digest kv_digest() const;
  /// The snapshot layout, one walker for snapshot() and restore() (see
  /// common/codec.hpp); Self is Blockchain or const Blockchain.
  template <class Io, class Self>
  static bool walk_state(Io& io, Self& self);

  std::size_t block_size_;
  std::map<std::string, std::string> kv_;
  std::vector<Transaction> pending_;
  std::vector<Block> blocks_;
  std::uint64_t executed_ = 0;
};

}  // namespace rubin::chain
