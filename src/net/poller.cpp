#include "net/poller.hpp"

#include <algorithm>
#include <cerrno>
#include <cstring>

#include "common/error.hpp"

namespace resmon::net {

void Poller::watch(int fd) {
  RESMON_REQUIRE(fd >= 0, "Poller: invalid fd");
  RESMON_REQUIRE(std::find(fds_.begin(), fds_.end(), fd) == fds_.end(),
                 "Poller: fd already watched");
  fds_.push_back(fd);
}

void Poller::unwatch(int fd) {
  fds_.erase(std::remove(fds_.begin(), fds_.end(), fd), fds_.end());
}

const std::vector<PollEvent>& Poller::wait(int timeout_ms) {
  pollfds_.clear();
  for (int fd : fds_) {
    pollfds_.push_back({.fd = fd, .events = POLLIN, .revents = 0});
  }
  events_.clear();
  if (pollfds_.empty()) return events_;
  const int rc = ::poll(pollfds_.data(), pollfds_.size(), timeout_ms);
  if (rc < 0) {
    if (errno == EINTR) return events_;
    throw Error(std::string("poll: ") + std::strerror(errno));
  }
  for (const pollfd& pfd : pollfds_) {
    if (pfd.revents == 0) continue;
    events_.push_back(
        {.fd = pfd.fd,
         .readable = (pfd.revents & POLLIN) != 0,
         .hangup = (pfd.revents & (POLLHUP | POLLERR | POLLNVAL)) != 0});
  }
  return events_;
}

}  // namespace resmon::net
