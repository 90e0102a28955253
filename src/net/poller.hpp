// Poller: the poll(2) wrapper under the controller's event loop.
//
// Registered fds are kept in a stable vector mirrored into the pollfd array
// handed to poll(2); one wait() returns the readable/hangup set. This is
// deliberately the simplest possible reactor — the controller serves
// thousands of agents comfortably with poll, and nothing here precludes an
// epoll backend later behind the same interface.
#pragma once

#include <poll.h>

#include <cstdint>
#include <vector>

namespace resmon::net {

struct PollEvent {
  int fd = -1;
  bool readable = false;
  bool hangup = false;  ///< POLLHUP/POLLERR/POLLNVAL: drop the connection
};

class Poller {
 public:
  /// Register `fd` for readability. Watching an fd twice is an error.
  void watch(int fd);

  /// Stop watching `fd`. Unknown fds are ignored (the connection may have
  /// already been dropped by the event handler).
  void unwatch(int fd);

  std::size_t watched() const { return fds_.size(); }

  /// Block up to `timeout_ms` (0 = return immediately, negative = forever)
  /// and return the fds with pending events. The result is the poller's
  /// own buffer, reused by the next wait(); watch()/unwatch() leave it be.
  const std::vector<PollEvent>& wait(int timeout_ms);

 private:
  std::vector<int> fds_;
  std::vector<pollfd> pollfds_;  ///< wait()'s scratch, reused
  std::vector<PollEvent> events_;
};

}  // namespace resmon::net
