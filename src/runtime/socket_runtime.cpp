#include "runtime/socket_runtime.hpp"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <chrono>
#include <cstring>
#include <stdexcept>

#include "runtime/wire.hpp"

namespace sa::runtime {

namespace {

/// Upper bound for a TCP-fallback frame; a hostile length prefix beyond this
/// closes the connection instead of allocating.
constexpr std::uint32_t kMaxTcpFrame = 16u << 20;

sockaddr_in loopback_addr(std::uint16_t port) {
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  return addr;
}

void close_fd(int& fd) {
  if (fd >= 0) {
    ::close(fd);
    fd = -1;
  }
}

void set_nonblocking(int fd) {
  const int flags = ::fcntl(fd, F_GETFL, 0);
  ::fcntl(fd, F_SETFL, flags | O_NONBLOCK);
}

}  // namespace

Time wall_clock_us() {
  return std::chrono::duration_cast<std::chrono::microseconds>(
             std::chrono::system_clock::now().time_since_epoch())
      .count();
}

SocketTransport::SocketTransport(SocketTransportOptions options)
    : options_(std::move(options)),
      // Wall-clock microseconds strictly order the lifetimes of successive
      // incarnations of one endpoint on one machine, which is all the FIFO
      // watermark needs across a kill -9 + re-exec.
      incarnation_(static_cast<std::uint64_t>(wall_clock_us())),
      rng_(options_.seed) {
  handlers_.resize(options_.topology.size());
  in_handler_.assign(options_.topology.size(), false);

  send_fd_ = ::socket(AF_INET, SOCK_DGRAM, 0);
  if (send_fd_ < 0) throw std::runtime_error("socket transport: cannot create send socket");
  if (::pipe(wake_pipe_) != 0) {
    close_fd(send_fd_);
    throw std::runtime_error("socket transport: cannot create wake pipe");
  }
  set_nonblocking(wake_pipe_[0]);

  try {
    for (const NodeId node : options_.local) {
      if (node >= options_.topology.size()) {
        throw std::runtime_error("socket transport: local node id out of range");
      }
      bind_local(node);
    }
  } catch (...) {
    for (LocalSocket& s : local_sockets_) {
      close_fd(s.udp_fd);
      close_fd(s.tcp_listen_fd);
    }
    close_fd(send_fd_);
    close_fd(wake_pipe_[0]);
    close_fd(wake_pipe_[1]);
    throw;
  }

  receiver_ = std::thread([this] { receiver_loop(); });
}

SocketTransport::~SocketTransport() { stop(); }

void SocketTransport::bind_local(NodeId node) {
  // UDP and TCP port spaces are disjoint, but the frame header carries only
  // one port per endpoint — so both sockets must share the number. When the
  // caller asked for an ephemeral port, a number free for UDP may be taken
  // for TCP; retry with a fresh ephemeral pick until both bind.
  const std::uint16_t requested = options_.topology[node].port;
  const int attempts = requested != 0 ? 1 : 64;
  for (int attempt = 0; attempt < attempts; ++attempt) {
    const int udp = ::socket(AF_INET, SOCK_DGRAM, 0);
    if (udp < 0) throw std::runtime_error("socket transport: cannot create UDP socket");
    sockaddr_in addr = loopback_addr(requested);
    if (::bind(udp, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
      ::close(udp);
      if (requested != 0) {
        throw std::runtime_error("socket transport: cannot bind UDP port " +
                                 std::to_string(requested) + ": " + std::strerror(errno));
      }
      continue;
    }
    socklen_t len = sizeof(addr);
    ::getsockname(udp, reinterpret_cast<sockaddr*>(&addr), &len);
    const std::uint16_t port = ntohs(addr.sin_port);

    const int tcp = ::socket(AF_INET, SOCK_STREAM, 0);
    if (tcp < 0) {
      ::close(udp);
      throw std::runtime_error("socket transport: cannot create TCP socket");
    }
    // A respawned node must rebind the exact port its peers learned, even
    // while the previous incarnation's connections linger in TIME_WAIT.
    const int one = 1;
    ::setsockopt(tcp, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
    sockaddr_in tcp_addr = loopback_addr(port);
    if (::bind(tcp, reinterpret_cast<sockaddr*>(&tcp_addr), sizeof(tcp_addr)) != 0 ||
        ::listen(tcp, 16) != 0) {
      ::close(udp);
      ::close(tcp);
      if (requested != 0) {
        throw std::runtime_error("socket transport: cannot bind TCP port " +
                                 std::to_string(requested) + ": " + std::strerror(errno));
      }
      continue;
    }
    set_nonblocking(udp);
    set_nonblocking(tcp);
    options_.topology[node].port = port;
    local_sockets_.push_back(LocalSocket{node, udp, tcp});
    return;
  }
  throw std::runtime_error("socket transport: exhausted ephemeral port attempts for node " +
                           options_.topology[node].name);
}

NodeId SocketTransport::add_node(std::string name, ReceiveHandler handler) {
  for (NodeId id = 0; id < options_.topology.size(); ++id) {
    if (options_.topology[id].name != name) continue;
    if (handler) set_handler(id, std::move(handler));
    return id;
  }
  throw std::invalid_argument("socket transport: node \"" + name + "\" not in topology");
}

void SocketTransport::set_handler(NodeId node, ReceiveHandler handler) {
  std::unique_lock lock(mutex_);
  if (node >= handlers_.size()) throw std::out_of_range("socket transport: bad node id");
  if (!handler) {
    // Detach is a synchronization point (see Transport::set_handler): wait
    // out any delivery currently running this endpoint's handler.
    handler_cv_.wait(lock, [this, node] { return !in_handler_[node]; });
  }
  handlers_[node] = std::move(handler);
}

const std::string& SocketTransport::node_name(NodeId node) const {
  if (node >= options_.topology.size()) {
    throw std::out_of_range("socket transport: bad node id");
  }
  return options_.topology[node].name;
}

std::size_t SocketTransport::node_count() const { return options_.topology.size(); }

void SocketTransport::connect(NodeId from, NodeId to, ChannelConfig config) {
  checked_channel_config(config);
  if (from >= options_.topology.size() || to >= options_.topology.size()) {
    throw std::out_of_range("socket transport: bad node id in connect");
  }
  std::lock_guard lock(mutex_);
  channels_[{from, to}].config = config;
}

bool SocketTransport::has_channel(NodeId from, NodeId to) const {
  std::lock_guard lock(mutex_);
  return channels_.contains({from, to});
}

bool SocketTransport::send(NodeId from, NodeId to, MessagePtr message) {
  if (!message) throw std::invalid_argument("socket transport: null message");
  std::lock_guard lock(mutex_);
  const auto it = channels_.find({from, to});
  if (it == channels_.end()) throw_no_channel(node_name(from), node_name(to));
  ChannelState& channel = it->second;
  ++channel.stats.sent;
  if (stopping_.load()) return false;

  const double loss = channel.config.loss_probability;
  if (loss > 0.0 && rng_.next_bool(loss)) {
    ++channel.stats.dropped_loss;
    record(wall_clock_us(), from, to, message, /*delivered=*/false, /*keep_payload=*/true);
    return false;
  }

  const std::uint16_t port = options_.topology[to].port;
  if (port == 0) {
    // Destination address not learned yet (endpoint exchange still running);
    // indistinguishable from wire loss, and retransmission recovers.
    ++channel.stats.dropped_loss;
    record(wall_clock_us(), from, to, message, /*delivered=*/false, /*keep_payload=*/true);
    return false;
  }

  const double dup = channel.config.duplicate_probability;
  int copies = 1;
  if (dup > 0.0 && rng_.next_bool(dup)) {
    ++copies;
    ++channel.stats.duplicated;
  }

  bool sent = false;
  for (int copy = 0; copy < copies; ++copy) {
    // Each copy takes a fresh sequence number: the receiver's FIFO watermark
    // would swallow a same-seq duplicate, but the point of the Duplicate
    // fault is to hand the DRIVERS a duplicate to deduplicate by StepRef.
    const std::uint64_t seq = ++send_seq_[{from, to}];
    const std::vector<std::uint8_t> frame =
        encode_frame(from, to, incarnation_, seq, *message);
    const sockaddr_in dest = loopback_addr(port);
    if (frame.size() <= options_.max_datagram) {
      const ssize_t n = ::sendto(send_fd_, frame.data(), frame.size(), 0,
                                 reinterpret_cast<const sockaddr*>(&dest), sizeof(dest));
      sent = sent || n == static_cast<ssize_t>(frame.size());
    } else {
      // TCP fallback: one-shot length-prefixed connection. Loopback connect
      // either completes immediately or fails fast (dead peer), so doing it
      // under the transport mutex is acceptable for the rare oversized frame.
      const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
      if (fd < 0) continue;
      bool ok = ::connect(fd, reinterpret_cast<const sockaddr*>(&dest), sizeof(dest)) == 0;
      if (ok) {
        std::uint8_t prefix[4];
        const auto len = static_cast<std::uint32_t>(frame.size());
        for (int i = 0; i < 4; ++i) prefix[i] = static_cast<std::uint8_t>(len >> (8 * i));
        const auto write_all = [fd](const std::uint8_t* data, std::size_t size) {
          std::size_t done = 0;
          while (done < size) {
            const ssize_t n = ::write(fd, data + done, size - done);
            if (n <= 0) return false;
            done += static_cast<std::size_t>(n);
          }
          return true;
        };
        ok = write_all(prefix, 4) && write_all(frame.data(), frame.size());
      }
      ::close(fd);
      sent = sent || ok;
    }
  }
  if (!sent) ++channel.stats.dropped_loss;
  return sent;
}

ChannelStats SocketTransport::channel_stats(NodeId from, NodeId to) const {
  std::lock_guard lock(mutex_);
  const auto it = channels_.find({from, to});
  if (it == channels_.end()) throw_no_channel(node_name(from), node_name(to));
  return it->second.stats;
}

std::uint16_t SocketTransport::local_port(NodeId node) const {
  for (const LocalSocket& s : local_sockets_) {
    if (s.node == node) return options_.topology[node].port;
  }
  throw std::invalid_argument("socket transport: node " + std::to_string(node) +
                              " is not local");
}

void SocketTransport::set_endpoint_port(NodeId node, std::uint16_t port) {
  std::lock_guard lock(mutex_);
  if (node >= options_.topology.size()) {
    throw std::out_of_range("socket transport: bad node id in set_endpoint_port");
  }
  options_.topology[node].port = port;
}

void SocketTransport::handle_datagram(const std::uint8_t* data, std::size_t size) {
  WireFrame frame;
  try {
    frame = decode_frame(data, size);
  } catch (const WireError&) {
    malformed_frames_.fetch_add(1);
    return;
  }
  if (frame.to >= handlers_.size() || frame.from >= handlers_.size()) {
    malformed_frames_.fetch_add(1);
    return;
  }

  ReceiveHandler handler;
  {
    std::lock_guard lock(mutex_);
    // FIFO-over-the-wire: deliver only frames that advance the
    // (incarnation, seq) watermark. Stale incarnations are frames from a
    // predecessor process that died; stale seqs are duplicates or late
    // reorders (possible when a TCP-fallback frame loses the race against a
    // later datagram) — both are dropped like wire loss, which the
    // protocol's retransmissions already survive.
    RecvWatermark& wm = recv_seq_[{frame.from, frame.to}];
    if (frame.incarnation < wm.incarnation) {
      stale_frames_.fetch_add(1);
      return;
    }
    if (frame.incarnation > wm.incarnation) {
      wm.incarnation = frame.incarnation;
      wm.seq = 0;
    }
    if (frame.seq <= wm.seq) {
      stale_frames_.fetch_add(1);
      return;
    }
    wm.seq = frame.seq;

    ChannelState& channel = channels_[{frame.from, frame.to}];
    handler = handlers_[frame.to];
    if (!handler) {
      ++channel.stats.dropped_loss;
      return;
    }
    ++channel.stats.delivered;
    record(wall_clock_us(), frame.from, frame.to, frame.message, /*delivered=*/true,
           /*keep_payload=*/true);
    in_handler_[frame.to] = true;
  }
  handler(frame.from, frame.message);
  {
    std::lock_guard lock(mutex_);
    in_handler_[frame.to] = false;
  }
  handler_cv_.notify_all();
  if (ProgressSignal* delivered = delivered_.load()) delivered->notify();
}

bool SocketTransport::drain_tcp_buffer(TcpConn& conn) {
  std::size_t offset = 0;
  while (conn.buf.size() - offset >= 4) {
    std::uint32_t len = 0;
    for (int i = 0; i < 4; ++i) {
      len |= static_cast<std::uint32_t>(conn.buf[offset + i]) << (8 * i);
    }
    if (len > kMaxTcpFrame) {
      malformed_frames_.fetch_add(1);
      return false;  // poisoned stream; caller closes the connection
    }
    if (conn.buf.size() - offset - 4 < len) break;
    handle_datagram(conn.buf.data() + offset + 4, len);
    offset += 4 + len;
  }
  conn.buf.erase(conn.buf.begin(), conn.buf.begin() + static_cast<std::ptrdiff_t>(offset));
  return true;
}

void SocketTransport::receiver_loop() {
  std::vector<TcpConn> conns;
  std::vector<std::uint8_t> datagram(70 * 1024);

  while (!stopping_.load()) {
    std::vector<pollfd> fds;
    fds.push_back({wake_pipe_[0], POLLIN, 0});
    for (const LocalSocket& s : local_sockets_) {
      fds.push_back({s.udp_fd, POLLIN, 0});
      fds.push_back({s.tcp_listen_fd, POLLIN, 0});
    }
    for (const TcpConn& c : conns) fds.push_back({c.fd, POLLIN, 0});

    if (::poll(fds.data(), fds.size(), /*timeout_ms=*/200) < 0) {
      if (errno == EINTR) continue;
      break;
    }
    if (stopping_.load()) break;

    std::size_t index = 0;
    if (fds[index].revents & POLLIN) {
      char drain[64];
      while (::read(wake_pipe_[0], drain, sizeof(drain)) > 0) {
      }
    }
    ++index;

    for (const LocalSocket& s : local_sockets_) {
      if (fds[index].revents & POLLIN) {
        while (true) {
          const ssize_t n = ::recvfrom(s.udp_fd, datagram.data(), datagram.size(), 0,
                                       nullptr, nullptr);
          if (n < 0) break;  // EWOULDBLOCK: drained
          handle_datagram(datagram.data(), static_cast<std::size_t>(n));
        }
      }
      ++index;
      if (fds[index].revents & POLLIN) {
        while (true) {
          const int fd = ::accept(s.tcp_listen_fd, nullptr, nullptr);
          if (fd < 0) break;
          set_nonblocking(fd);
          conns.push_back(TcpConn{fd, {}});
        }
      }
      ++index;
    }

    // Drain accepted fallback connections; `conns` may have grown above, but
    // new entries have no pollfd yet and are picked up next iteration.
    for (std::size_t c = 0; c < conns.size() && index < fds.size(); ++c, ++index) {
      if (!(fds[index].revents & (POLLIN | POLLHUP | POLLERR))) continue;
      TcpConn& conn = conns[c];
      bool open = true;
      while (true) {
        std::uint8_t chunk[16 * 1024];
        const ssize_t n = ::read(conn.fd, chunk, sizeof(chunk));
        if (n > 0) {
          conn.buf.insert(conn.buf.end(), chunk, chunk + n);
          continue;
        }
        if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) break;
        open = false;  // EOF or error
        break;
      }
      if (!drain_tcp_buffer(conn)) open = false;
      if (!open) {
        if (!conn.buf.empty()) malformed_frames_.fetch_add(1);
        close_fd(conn.fd);
        conn.fd = -1;
      }
    }
    std::erase_if(conns, [](const TcpConn& c) { return c.fd < 0; });
  }

  for (TcpConn& c : conns) close_fd(c.fd);
}

void SocketTransport::stop() {
  std::call_once(stop_once_, [this] {
    stopping_.store(true);
    const char wake = 'w';
    [[maybe_unused]] const ssize_t n = ::write(wake_pipe_[1], &wake, 1);
    if (receiver_.joinable()) receiver_.join();
    for (LocalSocket& s : local_sockets_) {
      close_fd(s.udp_fd);
      close_fd(s.tcp_listen_fd);
    }
    close_fd(send_fd_);
    close_fd(wake_pipe_[0]);
    close_fd(wake_pipe_[1]);
  });
}

SocketRuntime::SocketRuntime(SocketRuntimeOptions options)
    : options_(options),
      executor_(options.workers),
      transport_(std::move(options.transport)) {
  clock_.notify_fires(&executor_.progress());
  transport_.notify_deliveries(&executor_.progress());
}

SocketRuntime::~SocketRuntime() { shutdown(); }

void SocketRuntime::advance(Time duration) {
  std::this_thread::sleep_for(std::chrono::microseconds(duration));
}

bool SocketRuntime::wait_until(const std::function<bool()>& done, std::size_t /*max_events*/) {
  return wait_for_progress(executor_.progress(), done, options_.wait_cap,
                           options_.wait_poll_interval);
}

void SocketRuntime::shutdown() {
  clock_.stop();
  transport_.stop();
  executor_.stop();
}

}  // namespace sa::runtime
