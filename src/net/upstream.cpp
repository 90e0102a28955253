#include "net/upstream.hpp"

#include <algorithm>
#include <chrono>
#include <optional>
#include <thread>
#include <utility>

#include "net/wire.hpp"

namespace resmon::net {

UpstreamClient::UpstreamClient(const UpstreamOptions& options,
                               std::vector<std::uint8_t> hello,
                               std::uint32_t ack_id, std::string who,
                               std::string peer, obs::Gauge& connected,
                               obs::Counter& reconnects)
    : options_(options),
      hello_(std::move(hello)),
      ack_id_(ack_id),
      who_(std::move(who)),
      peer_(std::move(peer)),
      connected_(connected),
      reconnects_(reconnects) {}

bool UpstreamClient::try_connect_once() {
  Socket sock;
  try {
    sock = Socket::connect_tcp(options_.host, options_.port, kIoTimeoutMs);
  } catch (const SocketError&) {
    return false;  // refused or timed out: the backoff loop retries
  }
  // Reason byte from an explicit rejection; set before leaving the try
  // block so the terminal throw below cannot be swallowed by the
  // transient-I/O catch.
  std::optional<std::uint8_t> rejected;
  std::uint8_t rejecter_version = 0;
  try {
    if (!sock.write_all(hello_, kIoTimeoutMs)) return false;
    // Wait for the ack (one small frame; arrives in one or two reads).
    wire::FrameDecoder decoder;
    const auto deadline = std::chrono::steady_clock::now() +
                          std::chrono::milliseconds(kIoTimeoutMs);
    while (!rejected) {
      if (!sock.wait_readable(50)) {
        if (std::chrono::steady_clock::now() >= deadline) return false;
        continue;
      }
      std::uint8_t buf[256];
      std::size_t n = 0;
      const IoStatus status = sock.read_some(buf, n);
      if (status == IoStatus::kClosed) return false;
      if (status == IoStatus::kOk && !decoder.feed({buf, n})) return false;
      if (std::optional<wire::Frame> frame = decoder.next()) {
        const auto* ack = std::get_if<wire::HelloAckFrame>(&*frame);
        if (ack == nullptr || ack->node != ack_id_) return false;
        if (!ack->accepted) {
          rejected = ack->reason;
          rejecter_version = ack->speaker_version;
          break;
        }
        sock_ = std::move(sock);
        ever_connected_ = true;
        connected_.set(1.0);
        return true;
      }
      if (std::chrono::steady_clock::now() >= deadline) return false;
    }
  } catch (const SocketError&) {
    // Transient handshake stall (send timeout, surprise errno): retryable,
    // exactly like a failed connect.
    return false;
  }
  // A rejected hello is terminal: retrying the same hello cannot succeed,
  // so this propagates out of the backoff loop.
  throw SocketError(who_ + ": " + peer_ + " rejected hello (" +
                    wire::describe_hello_reject(*rejected, rejecter_version) +
                    ")");
}

void UpstreamClient::connect_with_backoff() {
  int backoff = options_.initial_backoff_ms;
  for (std::size_t attempt = 0; attempt < options_.max_reconnect_attempts;
       ++attempt) {
    if (attempt > 0) {
      std::this_thread::sleep_for(std::chrono::milliseconds(backoff));
      backoff = std::min(backoff * 2, options_.max_backoff_ms);
    }
    if (try_connect_once()) return;
  }
  throw SocketError(who_ + ": could not reach " + peer_ + " at " +
                    options_.host + ":" + std::to_string(options_.port) +
                    " after " +
                    std::to_string(options_.max_reconnect_attempts) +
                    " attempts");
}

void UpstreamClient::connect() {
  if (!connected()) connect_with_backoff();
}

bool UpstreamClient::deliver(std::span<const std::uint8_t> bytes) {
  // At most two write attempts: the current connection, then one fresh
  // connection after a bounded backoff cycle. Failing on a connection that
  // was just re-established means the peer is actively closing on this
  // client — give up rather than loop.
  bool reconnected = false;
  for (int attempt = 0; attempt < 2; ++attempt) {
    if (!connected()) {
      const bool outage = ever_connected_;
      connect_with_backoff();
      if (outage) {
        reconnected = true;
        reconnects_.inc();
      }
    }
    if (sock_.write_all(bytes, kIoTimeoutMs)) return reconnected;
    close();
  }
  throw SocketError(who_ + ": connection to " + peer_ +
                    " lost and resend failed");
}

void UpstreamClient::close() {
  sock_.close();
  connected_.set(0.0);
}

}  // namespace resmon::net
