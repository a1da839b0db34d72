// Validation of the stochastic fault knobs (loss / duplication / jitter):
// every transport backend must reject NaN and out-of-range probabilities at
// the API boundary and accept the exact 0.0 / 1.0 endpoints, so a fuzz
// campaign can never silently install a plan whose "30% loss" was actually
// NaN (NaN compares false everywhere, quietly disabling the fault).
#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <stdexcept>

#include "inject/faulty_runtime.hpp"
#include "runtime/sim_runtime.hpp"
#include "runtime/threaded_runtime.hpp"
#include "runtime/transport.hpp"
#include "sim/network.hpp"
#include "sim/simulator.hpp"

namespace sa {
namespace {

constexpr double kNaN = std::numeric_limits<double>::quiet_NaN();

TEST(FaultKnobs, CheckedProbabilityAcceptsBoundaries) {
  EXPECT_EQ(runtime::checked_probability(0.0, "p"), 0.0);
  EXPECT_EQ(runtime::checked_probability(1.0, "p"), 1.0);
  EXPECT_EQ(runtime::checked_probability(0.5, "p"), 0.5);
}

TEST(FaultKnobs, CheckedProbabilityRejectsNaNAndOutOfRange) {
  EXPECT_THROW(runtime::checked_probability(kNaN, "p"), std::invalid_argument);
  EXPECT_THROW(runtime::checked_probability(-0.01, "p"), std::invalid_argument);
  EXPECT_THROW(runtime::checked_probability(1.01, "p"), std::invalid_argument);
  EXPECT_THROW(runtime::checked_probability(std::numeric_limits<double>::infinity(), "p"),
               std::invalid_argument);
}

TEST(FaultKnobs, CheckedDurationRejectsNegative) {
  EXPECT_EQ(runtime::checked_duration(0, "d"), 0);
  EXPECT_EQ(runtime::checked_duration(runtime::ms(5), "d"), runtime::ms(5));
  EXPECT_THROW(runtime::checked_duration(-1, "d"), std::invalid_argument);
}

// --- simulated network backend ----------------------------------------------

struct SimNetworkFixture : ::testing::Test {
  sim::Simulator sim;
  sim::Network net{sim};
  runtime::NodeId a = net.add_node("a");
  runtime::NodeId b = net.add_node("b");
};

TEST_F(SimNetworkFixture, LinkRejectsInvalidConfig) {
  runtime::ChannelConfig config;
  config.loss_probability = kNaN;
  EXPECT_THROW(net.connect(a, b, config), std::invalid_argument);
  config.loss_probability = 1.5;
  EXPECT_THROW(net.connect(a, b, config), std::invalid_argument);
  config.loss_probability = 0.0;
  config.duplicate_probability = -0.25;
  EXPECT_THROW(net.connect(a, b, config), std::invalid_argument);
  config.duplicate_probability = 0.0;
  config.jitter = -1;
  EXPECT_THROW(net.connect(a, b, config), std::invalid_argument);
  config.jitter = 0;
  config.latency = -runtime::ms(1);
  EXPECT_THROW(net.connect(a, b, config), std::invalid_argument);
}

TEST_F(SimNetworkFixture, LinkAcceptsBoundaryProbabilities) {
  runtime::ChannelConfig config;
  config.loss_probability = 1.0;
  config.duplicate_probability = 0.0;
  EXPECT_NO_THROW(net.connect(a, b, config));
  config.loss_probability = 0.0;
  config.duplicate_probability = 1.0;
  EXPECT_NO_THROW(net.connect(a, b, config));
}

// --- threaded backend --------------------------------------------------------

TEST(FaultKnobsThreaded, ConnectAndSetLossValidate) {
  runtime::ThreadedRuntime rt;
  runtime::Transport& net = rt.transport();
  const runtime::NodeId a = net.add_node("a");
  const runtime::NodeId b = net.add_node("b");

  runtime::ChannelConfig config;
  config.loss_probability = kNaN;
  EXPECT_THROW(net.connect(a, b, config), std::invalid_argument);
  config.loss_probability = -0.5;
  EXPECT_THROW(net.connect(a, b, config), std::invalid_argument);
  config.loss_probability = 0.0;
  config.duplicate_probability = 1.5;
  EXPECT_THROW(net.connect(a, b, config), std::invalid_argument);
  config.duplicate_probability = 0.0;
  config.jitter = -runtime::ms(2);
  EXPECT_THROW(net.connect(a, b, config), std::invalid_argument);

  // Reconnecting is how a link's loss changes; the boundaries are accepted.
  config = {};
  config.loss_probability = 1.0;
  EXPECT_NO_THROW(net.connect(a, b, config));
  config.loss_probability = 0.0;
  EXPECT_NO_THROW(net.connect(a, b, config));
  config.loss_probability = 1.01;
  EXPECT_THROW(net.connect(a, b, config), std::invalid_argument);
  rt.shutdown();
}

// --- fault-injection decorator ----------------------------------------------

TEST(FaultKnobsDecorator, ExtraLossAndDuplicationValidate) {
  runtime::SimRuntime sim(1);
  inject::FaultyRuntime frt(sim, 2);
  inject::FaultyTransport& net = frt.faulty_transport();
  EXPECT_NO_THROW(net.set_extra_loss(0.0));
  EXPECT_NO_THROW(net.set_extra_loss(1.0));
  EXPECT_THROW(net.set_extra_loss(kNaN), std::invalid_argument);
  EXPECT_THROW(net.set_extra_loss(-0.1), std::invalid_argument);
  EXPECT_NO_THROW(net.set_extra_duplication(1.0));
  EXPECT_THROW(net.set_extra_duplication(1.1), std::invalid_argument);
  EXPECT_THROW(net.set_extra_duplication(kNaN), std::invalid_argument);
}

}  // namespace
}  // namespace sa
