#include "net/crosslink.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "common/error.hpp"

namespace oaq {
namespace {

struct Ping {
  int value = 0;
};

CrosslinkNetwork::Options tight_options() {
  CrosslinkNetwork::Options opt;
  opt.min_delay = Duration::seconds(10);
  opt.max_delay = Duration::seconds(30);
  return opt;
}

TEST(CrosslinkNetwork, DeliversWithinDelayBounds) {
  Simulator sim;
  CrosslinkNetwork net(sim, tight_options(), Rng(1));
  const auto a = Address::sat({0, 0});
  const auto b = Address::sat({0, 1});
  std::vector<Envelope> inbox;
  net.register_node(b, [&](const Envelope& e) { inbox.push_back(e); });

  for (int i = 0; i < 50; ++i) net.send(a, b, Ping{i});
  sim.run();

  ASSERT_EQ(inbox.size(), 50u);
  for (const auto& e : inbox) {
    const auto delay = e.delivered - e.sent;
    EXPECT_GE(delay.to_seconds(), 10.0);
    EXPECT_LE(delay.to_seconds(), 30.0);
    EXPECT_EQ(e.from, a);
    EXPECT_EQ(e.to, b);
  }
  EXPECT_EQ(net.stats().sent, 50u);
  EXPECT_EQ(net.stats().delivered, 50u);
}

TEST(CrosslinkNetwork, PayloadTypeRoundTrips) {
  Simulator sim;
  CrosslinkNetwork net(sim, tight_options(), Rng(2));
  const auto b = Address::sat({0, 1});
  int got = -1;
  std::string text;
  net.register_node(b, [&](const Envelope& e) {
    if (const auto* p = e.payload.get_if<Ping>()) got = p->value;
    if (const auto* s = e.payload.get_if<std::string>()) text = *s;
  });
  net.send(Address::sat({0, 0}), b, Ping{42});
  net.send(Address::ground(), b, std::string("alert"));
  sim.run();
  EXPECT_EQ(got, 42);
  EXPECT_EQ(text, "alert");
}

TEST(CrosslinkNetwork, FailSilentReceiverDropsQuietly) {
  Simulator sim;
  CrosslinkNetwork net(sim, tight_options(), Rng(3));
  const auto b = Address::sat({0, 1});
  int received = 0;
  net.register_node(b, [&](const Envelope&) { ++received; });
  net.send(Address::sat({0, 0}), b, Ping{});
  sim.run();
  EXPECT_EQ(received, 1);

  net.fail_silent(b);
  EXPECT_TRUE(net.is_failed(b));
  net.send(Address::sat({0, 0}), b, Ping{});
  sim.run();
  EXPECT_EQ(received, 1);
  EXPECT_EQ(net.stats().dropped_dead_receiver, 1u);
}

TEST(CrosslinkNetwork, FailSilentSenderCannotSend) {
  Simulator sim;
  CrosslinkNetwork net(sim, tight_options(), Rng(4));
  const auto a = Address::sat({0, 0});
  const auto b = Address::sat({0, 1});
  int received = 0;
  net.register_node(b, [&](const Envelope&) { ++received; });
  net.fail_silent(a);
  net.send(a, b, Ping{});
  sim.run();
  EXPECT_EQ(received, 0);
  EXPECT_EQ(net.stats().dropped_dead_sender, 1u);
}

TEST(CrosslinkNetwork, FailureMidFlightDropsDelivery) {
  // The receiver fails after the message is sent but before delivery:
  // fail-silent means the message vanishes.
  Simulator sim;
  CrosslinkNetwork net(sim, tight_options(), Rng(5));
  const auto b = Address::sat({0, 1});
  int received = 0;
  net.register_node(b, [&](const Envelope&) { ++received; });
  net.send(Address::sat({0, 0}), b, Ping{});
  sim.schedule_after(Duration::seconds(1), [&] { net.fail_silent(b); });
  sim.run();
  EXPECT_EQ(received, 0);
  EXPECT_EQ(net.stats().dropped_dead_receiver, 1u);
}

TEST(CrosslinkNetwork, ReregisteringRevivesNode) {
  Simulator sim;
  CrosslinkNetwork net(sim, tight_options(), Rng(6));
  const auto b = Address::sat({0, 1});
  int received = 0;
  EXPECT_FALSE(net.has_handler(b));
  net.register_node(b, [&](const Envelope&) { ++received; });
  EXPECT_TRUE(net.has_handler(b));
  net.fail_silent(b);
  EXPECT_TRUE(net.has_handler(b));  // fail-silent keeps the handler
  net.register_node(b, [&](const Envelope&) { ++received; });
  EXPECT_FALSE(net.is_failed(b));
  net.send(Address::sat({0, 0}), b, Ping{});
  sim.run();
  EXPECT_EQ(received, 1);
  // Handlers survive reset(); a never-registered address has none, even
  // one marked fail-silent, and so has one outside the tables.
  net.fail_silent(Address::sat({3, 7}));
  net.reset(Rng(7));
  EXPECT_TRUE(net.has_handler(b));
  EXPECT_FALSE(net.has_handler(Address::sat({3, 7})));
  EXPECT_FALSE(net.has_handler(Address::sat({0, 0})));
  EXPECT_FALSE(net.has_handler(Address::sat({-1, 0})));
  EXPECT_FALSE(net.has_handler(Address::ground()));
  EXPECT_FALSE(net.is_failed(Address::sat({3, 7})));

  // reset() sweeps the fail-silent flags only after a failure: every
  // cycle, failed or not, must start with every node live — including
  // a failure after a reset that had nothing to sweep.
  const auto g = Address::ground();
  net.register_node(g, [&](const Envelope&) { ++received; });
  for (int cycle = 0; cycle < 4; ++cycle) {
    const bool fail = cycle % 2 == 1;
    if (fail) {
      net.fail_silent(b);
      net.fail_silent(g);
      EXPECT_TRUE(net.is_failed(b));
      EXPECT_TRUE(net.is_failed(g));
    }
    net.reset(Rng(static_cast<std::uint64_t>(8 + cycle)));
    EXPECT_FALSE(net.is_failed(b)) << "cycle " << cycle;
    EXPECT_FALSE(net.is_failed(g)) << "cycle " << cycle;
    const int before = received;
    net.send(Address::sat({0, 0}), b, Ping{});
    net.send(b, g, Ping{});
    sim.run();
    EXPECT_EQ(received, before + 2) << "cycle " << cycle;
  }
}

TEST(CrosslinkNetwork, RejectsDuplicateRegistrationOfLiveAddress) {
  // Overwriting a live handler would silently swallow the first handler's
  // traffic — two episodes wiring the same satellite is a caller bug.
  Simulator sim;
  CrosslinkNetwork net(sim, tight_options(), Rng(6));
  const auto b = Address::sat({0, 1});
  const auto g = Address::ground();
  int received = 0;
  net.register_node(b, [&](const Envelope&) { ++received; });
  EXPECT_THROW(net.register_node(b, [](const Envelope&) {}),
               PreconditionError);
  net.register_node(g, [](const Envelope&) {});
  EXPECT_THROW(net.register_node(g, [](const Envelope&) {}),
               PreconditionError);
  // The original handler keeps working after the rejected duplicate.
  net.send(Address::sat({0, 0}), b, Ping{});
  sim.run();
  EXPECT_EQ(received, 1);
  // A failed node is the one sanctioned re-registration (revival).
  net.fail_silent(b);
  net.register_node(b, [&](const Envelope&) { received += 10; });
  net.send(Address::sat({0, 0}), b, Ping{});
  sim.run();
  EXPECT_EQ(received, 11);
}

TEST(CrosslinkNetwork, RejectsNegativeSatelliteAddress) {
  Simulator sim;
  CrosslinkNetwork net(sim, tight_options(), Rng(6));
  EXPECT_THROW(net.register_node(Address::sat({-1, 0}), [](const Envelope&) {}),
               PreconditionError);
  // Sending TO a bogus address is a countable drop, not an error.
  net.send(Address::sat({0, 0}), Address::sat({-1, 2}), Ping{});
  sim.run();
  EXPECT_EQ(net.stats().dropped_unregistered, 1u);
}

TEST(CrosslinkNetwork, PooledEnvelopesSurviveNestedSends) {
  // A handler that sends while its envelope is in scope must observe its
  // own envelope unchanged (the pool may grow during the nested send).
  Simulator sim;
  CrosslinkNetwork net(sim, tight_options(), Rng(11));
  const auto a = Address::sat({0, 0});
  const auto b = Address::sat({0, 1});
  const auto c = Address::sat({0, 2});
  std::vector<int> b_seen;
  int c_seen = 0;
  net.register_node(b, [&](const Envelope& e) {
    const int v = e.payload.get_if<Ping>()->value;
    for (int i = 0; i < 4; ++i) net.send(b, c, Ping{100 + i});
    b_seen.push_back(e.payload.get_if<Ping>()->value);
    EXPECT_EQ(b_seen.back(), v);
  });
  net.register_node(c, [&](const Envelope&) { ++c_seen; });
  for (int i = 0; i < 8; ++i) net.send(a, b, Ping{i});
  sim.run();
  // Random delays permute delivery order; every payload must arrive once.
  std::sort(b_seen.begin(), b_seen.end());
  EXPECT_EQ(b_seen, (std::vector<int>{0, 1, 2, 3, 4, 5, 6, 7}));
  EXPECT_EQ(c_seen, 32);
}

TEST(CrosslinkNetwork, UnregisteredDestinationCounted) {
  Simulator sim;
  CrosslinkNetwork net(sim, tight_options(), Rng(7));
  net.send(Address::sat({0, 0}), Address::sat({3, 3}), Ping{});
  sim.run();
  EXPECT_EQ(net.stats().dropped_unregistered, 1u);
}

TEST(CrosslinkNetwork, LossProbabilityDropsExpectedShare) {
  Simulator sim;
  auto opt = tight_options();
  opt.loss_probability = 0.25;
  CrosslinkNetwork net(sim, opt, Rng(8));
  const auto b = Address::sat({0, 1});
  int received = 0;
  net.register_node(b, [&](const Envelope&) { ++received; });
  const int n = 4000;
  for (int i = 0; i < n; ++i) net.send(Address::sat({0, 0}), b, Ping{i});
  sim.run();
  EXPECT_NEAR(static_cast<double>(received) / n, 0.75, 0.03);
  EXPECT_EQ(net.stats().dropped_loss + net.stats().delivered,
            static_cast<std::uint64_t>(n));
}

TEST(CrosslinkNetwork, RejectsBadOptions) {
  Simulator sim;
  CrosslinkNetwork::Options bad;
  bad.min_delay = Duration::seconds(-1);
  EXPECT_THROW(CrosslinkNetwork(sim, bad, Rng(9)), PreconditionError);
  bad = tight_options();
  bad.max_delay = Duration::seconds(5);
  EXPECT_THROW(CrosslinkNetwork(sim, bad, Rng(9)), PreconditionError);
  bad = tight_options();
  bad.loss_probability = 1.5;
  EXPECT_THROW(CrosslinkNetwork(sim, bad, Rng(9)), PreconditionError);
  CrosslinkNetwork net(sim, tight_options(), Rng(9));
  EXPECT_THROW(net.register_node(Address::ground(), nullptr),
               PreconditionError);
}

}  // namespace
}  // namespace oaq
