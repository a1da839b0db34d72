// SocketTransport reports its messages through Transport's one hook, like
// the sim and threaded backends: with a recorder and a registry attached,
// sends, deliveries and drops become typed events and sa_messages_total
// increments. Two endpoints live in this process, over real loopback
// sockets.
#include <gtest/gtest.h>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <memory>
#include <stdexcept>
#include <thread>
#include <vector>

#include "obs/metrics.hpp"
#include "obs/trace_recorder.hpp"
#include "proto/messages.hpp"
#include "proto/wire_codecs.hpp"
#include "runtime/socket_runtime.hpp"

namespace sa {
namespace {

using obs::EventKind;

constexpr std::uint64_t kSends = 5;

/// Polls `done` until it holds or five seconds pass.
template <typename Done>
bool eventually(Done done) {
  const auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(5);
  while (!done()) {
    if (std::chrono::steady_clock::now() >= deadline) return false;
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  return true;
}

/// A loopback port nothing listens on: bound once to learn a free number,
/// then closed.
std::uint16_t closed_port() {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  socklen_t len = sizeof(addr);
  if (fd < 0 || ::bind(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0 ||
      ::getsockname(fd, reinterpret_cast<sockaddr*>(&addr), &len) != 0) {
    throw std::runtime_error("cannot pick a loopback port");
  }
  ::close(fd);
  return ntohs(addr.sin_port);
}

class SocketObservation : public ::testing::Test {
 protected:
  /// `max_datagram` below a frame's size sends it over the TCP fallback.
  void open(std::size_t max_datagram = 60'000) {
    proto::register_wire_codecs();
    runtime::SocketTransportOptions options;
    options.topology = {{"alpha", 0}, {"beta", 0}, {"gamma", closed_port()}};
    options.local = {0, 1};
    options.seed = 7;
    options.max_datagram = max_datagram;
    transport = std::make_unique<runtime::SocketTransport>(std::move(options));
    a = transport->add_node("alpha");
    b = transport->add_node("beta", [this](runtime::NodeId, runtime::MessagePtr) {
      delivered.fetch_add(1);
    });
    recorder.set_enabled(true);
  }

  void send_all(runtime::NodeId to, bool expect_accepted) {
    for (std::uint64_t i = 0; i < kSends; ++i) {
      EXPECT_EQ(transport->send(a, to, std::make_shared<proto::ResetDoneMsg>()),
                expect_accepted);
    }
  }

  std::uint64_t count(EventKind kind) const {
    std::uint64_t n = 0;
    for (const obs::Event& e : recorder.events()) n += e.kind == kind ? 1 : 0;
    return n;
  }

  std::uint64_t counter(const char* event) {
    return metrics.counter("sa_messages_total", {{"event", event}, {"type", "reset done"}})
        .value();
  }

  obs::TraceRecorder recorder;
  obs::MetricsRegistry metrics;
  std::atomic<std::uint64_t> delivered{0};
  runtime::NodeId a = 0, b = 0;
  const runtime::NodeId gamma = 2;  ///< remote, on a port nothing listens on
  /// Last, so it stops its receiver before what the handler touches goes.
  std::unique_ptr<runtime::SocketTransport> transport;
};

TEST_F(SocketObservation, EverySendAndDeliveryBecomesAnEventAndACount) {
  open();
  transport->connect(a, b);
  transport->set_observer(&recorder, &metrics);
  send_all(b, /*expect_accepted=*/true);
  ASSERT_TRUE(eventually([&] { return delivered.load() == kSends; }));
  EXPECT_EQ(count(EventKind::MessageSent), kSends);
  EXPECT_EQ(count(EventKind::MessageDelivered), kSends);
  EXPECT_EQ(count(EventKind::MessageDropped), 0u);
  EXPECT_EQ(counter("sent"), kSends);
  EXPECT_EQ(counter("delivered"), kSends);
  for (const obs::Event& e : recorder.events()) {
    EXPECT_EQ(e.from, a);
    EXPECT_EQ(e.to, b);
    EXPECT_EQ(e.name, "reset done");
  }
}

TEST_F(SocketObservation, LossIsADroppedEventAndALogEntry) {
  open();
  runtime::ChannelConfig lossy;
  lossy.loss_probability = 1.0;
  transport->connect(a, b, lossy);
  transport->set_observer(&recorder, &metrics);
  transport->set_tracing(true);
  send_all(b, /*expect_accepted=*/false);
  EXPECT_EQ(count(EventKind::MessageSent), 0u);
  EXPECT_EQ(count(EventKind::MessageDropped), kSends);
  for (const obs::Event& e : recorder.events()) EXPECT_EQ(e.detail, "loss");
  EXPECT_EQ(counter("dropped"), kSends);
  ASSERT_EQ(transport->trace().size(), kSends);
  for (const runtime::TraceEntry& entry : transport->trace()) {
    EXPECT_FALSE(entry.delivered);
    EXPECT_NE(entry.message, nullptr);  // the socket log keeps dropped payloads
  }
  EXPECT_EQ(transport->channel_stats(a, b).dropped_loss, kSends);
}

TEST_F(SocketObservation, NoObserverNoEvents) {
  open();
  transport->connect(a, b);
  send_all(b, /*expect_accepted=*/true);
  ASSERT_TRUE(eventually([&] { return delivered.load() == kSends; }));
  // Attached and detached again: the next sends are not observed either.
  transport->set_observer(&recorder, &metrics);
  transport->set_observer(nullptr, nullptr);
  send_all(b, /*expect_accepted=*/true);
  ASSERT_TRUE(eventually([&] { return delivered.load() == 2 * kSends; }));
  EXPECT_TRUE(recorder.events().empty());
  EXPECT_EQ(counter("sent"), 0u);
}

// A frame that reaches a local endpoint with no handler is dropped there:
// counted, logged and observed as a drop, not silently swallowed.
TEST_F(SocketObservation, FrameForAnEndpointWithNoHandlerIsADrop) {
  open();
  transport->connect(b, a);  // alpha has no handler
  transport->set_observer(&recorder, &metrics);
  transport->set_tracing(true);
  for (std::uint64_t i = 0; i < kSends; ++i) {
    EXPECT_TRUE(transport->send(b, a, std::make_shared<proto::ResetDoneMsg>()));
  }
  // The drop is counted and reported under one hold of the transport's lock,
  // so once the count is complete so are the events.
  ASSERT_TRUE(
      eventually([&] { return transport->channel_stats(b, a).dropped_loss == kSends; }));
  EXPECT_EQ(transport->channel_stats(b, a).delivered, 0u);
  EXPECT_EQ(count(EventKind::MessageSent), kSends);
  EXPECT_EQ(count(EventKind::MessageDropped), kSends);
  EXPECT_EQ(count(EventKind::MessageDelivered), 0u);
  EXPECT_EQ(counter("dropped"), kSends);
  ASSERT_EQ(transport->trace().size(), kSends);
  for (const runtime::TraceEntry& entry : transport->trace()) {
    EXPECT_EQ(entry.from, b);
    EXPECT_EQ(entry.to, a);
    EXPECT_FALSE(entry.delivered);
  }
}

// A frame over the TCP fallback to a port nothing listens on never reaches
// the peer: send() says so, and the drop is counted, logged and observed.
TEST_F(SocketObservation, FrameThatNeverLeftIsADrop) {
  open(/*max_datagram=*/8);
  transport->connect(a, gamma);
  transport->set_observer(&recorder, &metrics);
  transport->set_tracing(true);
  send_all(gamma, /*expect_accepted=*/false);
  EXPECT_EQ(transport->channel_stats(a, gamma).dropped_loss, kSends);
  EXPECT_EQ(count(EventKind::MessageSent), 0u);
  EXPECT_EQ(count(EventKind::MessageDropped), kSends);
  EXPECT_EQ(counter("dropped"), kSends);
  ASSERT_EQ(transport->trace().size(), kSends);
  for (const runtime::TraceEntry& entry : transport->trace()) {
    EXPECT_EQ(entry.to, gamma);
    EXPECT_FALSE(entry.delivered);
  }
}

}  // namespace
}  // namespace sa
