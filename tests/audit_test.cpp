// Tests for the runtime invariant-audit layer (common/audit) and the
// misuse classes it is wired to catch: BufferPool lifecycle violations,
// operations on cancelled selector keys, channels registered twice, and
// simulator heap corruption.
//
// Audit failures normally abort; these tests install audit::ScopedCapture
// so destructor-side checks can be exercised without death tests. One
// death test at the end demonstrates the fatal path is real.
#include <gtest/gtest.h>

#include <memory>
#include <optional>
#include <stdexcept>

#include "common/audit.hpp"
#include "net/fabric.hpp"
#include "rubin/buffer_pool.hpp"
#include "rubin/context.hpp"
#include "rubin/selector.hpp"
#include "sim/simulator.hpp"
#include "tcpsim/poller.hpp"
#include "verbs/cm.hpp"
#include "verbs/memory.hpp"

namespace rubin {
namespace {

static_assert(audit::kEnabled,
              "audit_test requires a build configured with RUBIN_AUDIT=ON "
              "(the default; all presets except release-noaudit)");

// ------------------------------------------------------------ primitives -

TEST(AuditPrimitives, CaptureRecordsInsteadOfAborting) {
  audit::ScopedCapture cap;
  const auto before = audit::failure_count();
  RUBIN_AUDIT_ASSERT("test", 1 + 1 == 3, "arithmetic is broken");
  EXPECT_EQ(cap.count(), 1u);
  EXPECT_TRUE(cap.saw("arithmetic is broken"));
  EXPECT_TRUE(cap.saw("1 + 1 == 3"));  // the stringized condition rides along
  EXPECT_EQ(audit::failure_count(), before + 1);
}

TEST(AuditPrimitives, PassingAssertIsSilent) {
  audit::ScopedCapture cap;
  RUBIN_AUDIT_ASSERT("test", 2 + 2 == 4, "should not fire");
  EXPECT_EQ(cap.count(), 0u);
}

TEST(AuditPrimitives, CapturesNest) {
  audit::ScopedCapture outer;
  {
    audit::ScopedCapture inner;
    RUBIN_AUDIT_ASSERT("test", false, "goes to innermost");
    EXPECT_EQ(inner.count(), 1u);
  }
  RUBIN_AUDIT_ASSERT("test", false, "goes to outer after inner dies");
  EXPECT_EQ(outer.count(), 1u);
  EXPECT_TRUE(outer.saw("goes to outer after inner dies"));
}

TEST(AuditPrimitives, ScopeCheckFiresOnExit) {
  audit::ScopedCapture cap;
  bool balanced = false;
  {
    RUBIN_AUDIT_SCOPE("test", "scope left unbalanced", [&] { return balanced; });
    EXPECT_EQ(cap.count(), 0u);  // not checked until scope exit
  }
  EXPECT_EQ(cap.count(), 1u);
  EXPECT_TRUE(cap.saw("scope left unbalanced"));
  {
    RUBIN_AUDIT_SCOPE("test", "never fires", [&] { return balanced; });
    balanced = true;
  }
  EXPECT_EQ(cap.count(), 1u);
}

// ----------------------------------------------------------- buffer pool -

class BufferPoolAudit : public ::testing::Test {
 protected:
  verbs::ProtectionDomain pd;
};

TEST_F(BufferPoolAudit, DoubleReleaseIsCaught) {
  nio::BufferPool pool(pd, 4, 256, 0);
  const auto slot = pool.acquire();
  ASSERT_TRUE(slot.has_value());
  pool.release(*slot);

  audit::ScopedCapture cap;
  pool.release(*slot);  // the misuse
  EXPECT_EQ(cap.count(), 1u);
  EXPECT_TRUE(cap.saw("double release"));
  // The bogus release was dropped: the pool's accounting stays sane.
  EXPECT_EQ(pool.free_count(), pool.count());
  EXPECT_EQ(pool.acquired_count(), 0u);
}

TEST_F(BufferPoolAudit, ReleasingANeverAcquiredSlotIsCaught) {
  nio::BufferPool pool(pd, 4, 256, 0);
  audit::ScopedCapture cap;
  pool.release(2);  // in range, but acquire() never handed it out
  EXPECT_TRUE(cap.saw("double release"));
  EXPECT_EQ(pool.free_count(), pool.count());
}

TEST_F(BufferPoolAudit, OutOfRangeReleaseThrows) {
  nio::BufferPool pool(pd, 4, 256, 0);
  EXPECT_THROW(pool.release(4), std::out_of_range);
  EXPECT_THROW(pool.release(999), std::out_of_range);
}

TEST_F(BufferPoolAudit, LeakAtDestructionIsCaught) {
  audit::ScopedCapture cap;
  {
    nio::BufferPool pool(pd, 4, 256, 0);
    auto a = pool.acquire();
    auto b = pool.acquire();
    ASSERT_TRUE(a && b);
    pool.release(*a);
    // *b leaks.
  }
  EXPECT_EQ(cap.count(), 1u);
  EXPECT_TRUE(cap.saw("1 slot(s) leaked at pool destruction"));
}

TEST_F(BufferPoolAudit, CleanLifecycleIsSilent) {
  audit::ScopedCapture cap;
  {
    nio::BufferPool pool(pd, 4, 256, 0);
    for (int round = 0; round < 3; ++round) {
      auto a = pool.acquire();
      auto b = pool.acquire();
      ASSERT_TRUE(a && b);
      pool.release(*b);
      pool.release(*a);
    }
  }
  EXPECT_EQ(cap.count(), 0u);
}

// -------------------------------------------------------------- selector -

class SelectorAudit : public ::testing::Test {
 protected:
  // Abandoned coroutines hold references into the members below;
  // kill them while those members are still alive.
  ~SelectorAudit() override { sim.terminate_processes(); }

  /// Establishes one RUBIN channel pair and returns the server end's key.
  nio::RdmaSelectionKey* make_registered_key() {
    auto listener = ctx_b.listen(5000);
    client_ = ctx_a.connect(1, 5000, {});
    sim.run_until(sim.now() + sim::microseconds(50));
    server_ = listener->accept();
    sim.run_until(sim.now() + sim::microseconds(50));
    listener_ = std::move(listener);
    return selector_.register_channel(server_, nio::kOpReceive);
  }

  sim::Simulator sim;
  net::Fabric fabric{sim, net::CostModel::roce_10g(), 4};
  verbs::Device dev_a{fabric, 0};
  verbs::Device dev_b{fabric, 1};
  verbs::ConnectionManager cm{fabric};
  nio::RubinContext ctx_a{dev_a, cm};
  nio::RubinContext ctx_b{dev_b, cm};
  nio::RdmaSelector selector_{ctx_b};
  std::shared_ptr<nio::RdmaChannel> client_;
  std::shared_ptr<nio::RdmaChannel> server_;
  std::shared_ptr<nio::RdmaServerChannel> listener_;
};

TEST_F(SelectorAudit, InterestChangeOnCancelledKeyIsCaught) {
  auto* key = make_registered_key();
  key->cancel();

  audit::ScopedCapture cap;
  key->set_interest_ops(nio::kOpSend);  // the misuse
  EXPECT_EQ(cap.count(), 1u);
  EXPECT_TRUE(cap.saw("set_interest_ops on a cancelled key"));
}

TEST_F(SelectorAudit, AttachOnCancelledKeyIsCaught) {
  auto* key = make_registered_key();
  key->cancel();

  audit::ScopedCapture cap;
  key->attach(42);  // the misuse
  EXPECT_TRUE(cap.saw("attach on a cancelled key"));
}

TEST_F(SelectorAudit, NormalKeyUseIsSilent) {
  auto* key = make_registered_key();
  audit::ScopedCapture cap;
  key->set_interest_ops(nio::kOpReceive | nio::kOpSend);
  key->attach(42);
  // One timed select pass exercises the sweep + ready-scan audits too.
  sim.spawn([](nio::RdmaSelector& sel) -> sim::Task<> {
    co_await sel.select(sim::microseconds(10));
  }(selector_));
  sim.run_until(sim.now() + sim::microseconds(50));
  EXPECT_EQ(cap.count(), 0u);
}

TEST_F(SelectorAudit, ChannelRegisteredWithTwoSelectorsIsCaught) {
  auto* key = make_registered_key();
  nio::RdmaSelector other{ctx_b};

  audit::ScopedCapture cap;
  // The misuse: the second registration would steal the channel's
  // notifications from the first selector.
  other.register_channel(key->channel(), nio::kOpReceive);
  EXPECT_EQ(cap.count(), 1u);
  EXPECT_TRUE(cap.saw("channel already registered with a selector"));
}

// ---------------------------------------------------------------- poller -

class PollerAudit : public ::testing::Test {
 protected:
  ~PollerAudit() override { sim.terminate_processes(); }

  /// Connects one socket pair and returns the server end.
  std::shared_ptr<tcpsim::TcpSocket> make_socket() {
    listener_ = net.listen(1, 7000);
    client_ = net.connect(0, {1, 7000});
    sim.run();
    return listener_->accept();
  }

  sim::Simulator sim;
  net::Fabric fabric{sim, net::CostModel::roce_10g(), 4};
  tcpsim::TcpNetwork net{fabric};
  tcpsim::Poller poller_{net};
  std::shared_ptr<tcpsim::TcpListener> listener_;
  std::shared_ptr<tcpsim::TcpSocket> client_;
};

TEST_F(PollerAudit, SocketRegisteredTwiceIsCaught) {
  auto socket = make_socket();
  poller_.register_socket(socket, tcpsim::kOpRead);

  audit::ScopedCapture cap;
  // The misuse: sweeping either key would unlink the socket the other
  // key still watches, leaving it deaf to the poller.
  poller_.register_socket(socket, tcpsim::kOpRead);
  EXPECT_EQ(cap.count(), 1u);
  EXPECT_TRUE(cap.saw("channel already registered with a selector"));
}

TEST_F(PollerAudit, InterestChangeOnCancelledKeyIsCaught) {
  auto* key = poller_.register_socket(make_socket(), tcpsim::kOpRead);
  key->cancel();

  audit::ScopedCapture cap;
  key->set_interest_ops(tcpsim::kOpWrite);  // the misuse
  EXPECT_EQ(cap.count(), 1u);
  EXPECT_TRUE(cap.saw("set_interest_ops on a cancelled key"));
}

// ------------------------------------------------------------- simulator -

TEST(SimulatorAudit, TimerHeapValidatesUnderLoad) {
  sim::Simulator sim;
  EXPECT_TRUE(sim.validate_heap());
  for (int i = 0; i < 32; ++i) {
    sim.spawn([](sim::Simulator& s, int k) -> sim::Task<> {
      co_await s.sleep(sim::microseconds((k * 37) % 11));
      co_await s.sleep(sim::microseconds(k % 5));
    }(sim, i));
  }
  EXPECT_TRUE(sim.validate_heap());
  sim.run_until(sim.now() + sim::microseconds(3));
  EXPECT_TRUE(sim.validate_heap());
  sim.run();
  EXPECT_TRUE(sim.validate_heap());
}

// ------------------------------------------------------------ fatal path -

using AuditDeathTest = ::testing::Test;

TEST(AuditDeathTest, UncapturedFailureAborts) {
  EXPECT_DEATH(
      audit::fail("test", "deliberate failure", __FILE__, __LINE__),
      "audit failed: deliberate failure");
}

}  // namespace
}  // namespace rubin
