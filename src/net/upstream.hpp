// UpstreamClient: the one client side of the star topology's push link.
//
// Every pushing process — an Agent toward its controller, an Aggregator
// toward the root — owns one of these. It connects, sends its hello and
// waits for the matching HelloAckFrame under a deadline, retries transient
// failures with bounded exponential backoff, and treats an explicit
// rejection as terminal (retrying the same hello cannot succeed). Delivery
// writes one encoded frame, transparently reconnecting and resending once
// if the connection is gone.
#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "net/socket.hpp"
#include "obs/metrics.hpp"

namespace resmon::net {

/// Where the client pushes to, and its reconnect policy: at most
/// `max_reconnect_attempts` tries per outage, sleeping initial_backoff_ms,
/// 2x, 4x, ... capped at max_backoff_ms between them.
struct UpstreamOptions {
  std::string host = "127.0.0.1";
  std::uint16_t port = 0;
  std::size_t max_reconnect_attempts = 8;
  int initial_backoff_ms = 20;
  int max_backoff_ms = 1000;
};

class UpstreamClient {
 public:
  /// Timeout for connect, for the hello/ack handshake and for each
  /// blocking write.
  static constexpr int kIoTimeoutMs = 5000;

  /// `hello` is the encoded hello frame; the peer's HelloAckFrame must echo
  /// `ack_id` (the node id, or the shard id for a shard hello). Errors read
  /// "<who>: <peer> rejected hello (...)", "<who>: could not reach <peer>
  /// at host:port after N attempts", and so on. The owner's series
  /// (non-owning): `connected` is set to 1 while the link is up and 0
  /// otherwise; `reconnects` counts re-handshakes after a connection loss.
  UpstreamClient(const UpstreamOptions& options,
                 std::vector<std::uint8_t> hello, std::uint32_t ack_id,
                 std::string who, std::string peer, obs::Gauge& connected,
                 obs::Counter& reconnects);

  /// Connect and complete the handshake with bounded retries. No-op when
  /// already connected. Throws SocketError when the attempts are exhausted
  /// or the peer rejects the hello.
  void connect();

  /// Write one encoded frame. A dead connection is re-established first;
  /// a write that fails gets one fresh connection and one resend. Returns
  /// true when the delivery re-handshook after a connection loss. Throws
  /// SocketError when reconnecting or the resend fails.
  bool deliver(std::span<const std::uint8_t> bytes);

  /// Drop the connection (without a FIN exchange); the next deliver()
  /// reconnects.
  void close();

  bool connected() const { return sock_.valid(); }
  /// Successful re-handshakes after a connection loss.
  std::uint64_t reconnects() const { return reconnects_.value(); }

 private:
  /// One connect + handshake attempt. Returns false on transient failure;
  /// throws on an explicit rejection.
  bool try_connect_once();
  /// Bounded backoff loop around try_connect_once(); throws on exhaustion.
  void connect_with_backoff();

  UpstreamOptions options_;
  std::vector<std::uint8_t> hello_;
  std::uint32_t ack_id_;
  std::string who_;
  std::string peer_;
  Socket sock_;
  bool ever_connected_ = false;
  obs::Gauge& connected_;
  obs::Counter& reconnects_;
};

}  // namespace resmon::net
