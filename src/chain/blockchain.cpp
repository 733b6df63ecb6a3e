#include "chain/blockchain.hpp"

#include <sstream>

#include "common/codec.hpp"

namespace rubin::chain {

namespace {
/// Well-known genesis parent: hash of the empty string.
Digest genesis_hash() { return Sha256::hash(ByteView{}); }
}  // namespace

// Layouts of the chain's structs (common/codec.hpp). In this namespace,
// not an anonymous one, so that walk_each finds them.

template <class Io, Walked<Transaction> R>
bool walk(Io& io, R& tx) {
  return io.u64(tx.index) && io.bytes(tx.op) && io.bytes(tx.result);
}

/// A snapshot carries what the block hashes cannot rebuild; restore()
/// recomputes tx_root and hash.
template <class Io, Walked<Block> R>
bool walk(Io& io, R& b) {
  return io.u64(b.height) && io.raw(b.prev_hash) && io.seq(b.txs, walk_each);
}

/// One key/value entry of the store.
constexpr auto walk_kv = [](auto& io, auto& kv) {
  return io.bytes(kv.first) && io.bytes(kv.second);
};

template <class Io, class Self>
bool Blockchain::walk_state(Io& io, Self& self) {
  return io.u64(self.executed_) && io.seq(self.kv_, walk_kv) &&
         io.seq(self.blocks_, walk_each) && io.seq(self.pending_, walk_each);
}

Digest Block::compute_tx_root() const {
  Encoder e;
  e.u64(height);
  e.seq(txs, walk_each);
  return Sha256::hash(e.view());
}

Digest Block::compute_hash() const {
  Encoder e;
  e.u64(height);
  e.raw(prev_hash);
  e.raw(tx_root);
  return Sha256::hash(e.view());
}

Blockchain::Blockchain(std::size_t block_size)
    : block_size_(block_size == 0 ? 1 : block_size) {}

Bytes Blockchain::execute(ByteView op) {
  std::istringstream in(to_string(op));
  std::string verb;
  std::string key;
  in >> verb >> key;

  Bytes result;
  if (verb == "put") {
    std::string value;
    std::getline(in, value);
    if (!value.empty() && value.front() == ' ') value.erase(0, 1);
    kv_[key] = value;
    result = to_bytes("ok");
  } else if (verb == "get") {
    const auto it = kv_.find(key);
    result = to_bytes(it == kv_.end() ? "<nil>" : it->second);
  } else if (verb == "del") {
    result = to_bytes(kv_.erase(key) > 0 ? "ok" : "<nil>");
  } else {
    result = to_bytes("err");
  }

  pending_.push_back(Transaction{executed_++, Bytes(op.begin(), op.end()),
                                 result});
  if (pending_.size() >= block_size_) seal_block();
  return result;
}

Bytes Blockchain::query(ByteView op) const {
  std::istringstream in(to_string(op));
  std::string verb;
  std::string key;
  in >> verb >> key;
  if (verb == "get") {
    const auto it = kv_.find(key);
    return to_bytes(it == kv_.end() ? "<nil>" : it->second);
  }
  if (verb == "height") return to_bytes(std::to_string(blocks_.size()));
  if (verb == "tip") return to_bytes(to_hex(tip()));
  return to_bytes("err-readonly");  // mutating ops need ordering
}

void Blockchain::seal_block() {
  Block b;
  b.height = blocks_.size() + 1;
  b.prev_hash = tip();
  b.txs = std::move(pending_);
  pending_.clear();
  b.tx_root = b.compute_tx_root();
  b.hash = b.compute_hash();
  blocks_.push_back(std::move(b));
}

Digest Blockchain::tip() const {
  return blocks_.empty() ? genesis_hash() : blocks_.back().hash;
}

bool Blockchain::verify_chain() const {
  Digest prev = genesis_hash();
  for (std::size_t i = 0; i < blocks_.size(); ++i) {
    const Block& b = blocks_[i];
    if (b.height != i + 1) return false;
    if (b.prev_hash != prev) return false;
    if (b.tx_root != b.compute_tx_root()) return false;
    if (b.hash != b.compute_hash()) return false;
    prev = b.hash;
  }
  return true;
}

std::optional<std::string> Blockchain::get(const std::string& key) const {
  const auto it = kv_.find(key);
  if (it == kv_.end()) return std::nullopt;
  return it->second;
}

Digest Blockchain::kv_digest() const {
  Encoder e;
  for (const auto& [k, v] : kv_) {
    e.bytes(k);
    e.bytes(v);
  }
  return Sha256::hash(e.view());
}

Bytes Blockchain::snapshot() const {
  Encoder e;
  walk_state(e, *this);
  return e.take();
}

bool Blockchain::restore(ByteView snap, const Digest& expected) {
  // Parse into a fresh instance: a malformed or mismatching snapshot
  // must leave the current state untouched.
  Blockchain incoming(block_size_);
  Decoder d(snap);
  if (!walk_state(d, incoming) || !d.exhausted()) return false;
  // Rebuild the hashes, checking height and linkage as verify_chain does.
  Digest prev = genesis_hash();
  std::uint64_t height = 0;
  for (Block& b : incoming.blocks_) {
    if (b.height != ++height || b.prev_hash != prev) return false;
    b.tx_root = b.compute_tx_root();
    prev = b.hash = b.compute_hash();
  }
  // Verify the agreed digest before committing.
  if (incoming.state_digest() != expected) return false;
  *this = std::move(incoming);
  return true;
}

Digest Blockchain::state_digest() const {
  // Chain tip + unsealed tail + kv state: replicas must agree on all of
  // it at a checkpoint, not just on sealed blocks.
  Encoder e;
  e.raw(tip());
  e.u64(executed_);
  e.raw(kv_digest());
  return Sha256::hash(e.view());
}

}  // namespace rubin::chain
