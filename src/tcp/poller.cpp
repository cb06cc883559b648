#include "src/tcp/poller.h"

#include <poll.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>
#include <system_error>

#ifdef __linux__
#include <sys/epoll.h>
#endif

namespace optrec {

namespace {

[[noreturn]] void throw_errno(const char* what) {
  throw std::system_error(errno, std::generic_category(), what);
}

#ifdef __linux__
std::uint32_t to_epoll_mask(bool read, bool write) {
  std::uint32_t mask = 0;
  if (read) mask |= EPOLLIN;
  if (write) mask |= EPOLLOUT;
  return mask;
}
#endif

}  // namespace

Poller::Poller(bool use_poll) {
#ifdef __linux__
  if (!use_poll) {
    epfd_ = ::epoll_create1(0);
    if (epfd_ < 0) throw_errno("epoll_create1");
  }
#else
  (void)use_poll;
#endif
}

Poller::~Poller() {
  if (epfd_ >= 0) ::close(epfd_);
}

void Poller::add(int fd, bool want_read, bool want_write) {
  interest_[fd] = {want_read, want_write};
#ifdef __linux__
  if (epfd_ >= 0) {
    epoll_event ev{};
    ev.events = to_epoll_mask(want_read, want_write);
    ev.data.fd = fd;
    if (::epoll_ctl(epfd_, EPOLL_CTL_ADD, fd, &ev) < 0) {
      throw_errno("epoll_ctl(ADD)");
    }
  }
#endif
}

void Poller::set(int fd, bool want_read, bool want_write) {
  auto it = interest_.find(fd);
  if (it == interest_.end()) {
    add(fd, want_read, want_write);
    return;
  }
  it->second = {want_read, want_write};
#ifdef __linux__
  if (epfd_ >= 0) {
    epoll_event ev{};
    ev.events = to_epoll_mask(want_read, want_write);
    ev.data.fd = fd;
    if (::epoll_ctl(epfd_, EPOLL_CTL_MOD, fd, &ev) < 0) {
      throw_errno("epoll_ctl(MOD)");
    }
  }
#endif
}

void Poller::remove(int fd) {
  if (interest_.erase(fd) == 0) return;
#ifdef __linux__
  if (epfd_ >= 0) {
    // The fd may already be closed (kernel auto-deregisters); ignore.
    ::epoll_ctl(epfd_, EPOLL_CTL_DEL, fd, nullptr);
  }
#endif
}

const std::vector<Poller::Event>& Poller::wait(int timeout_ms) {
  events_.clear();
#ifdef __linux__
  if (epfd_ >= 0) {
    epoll_event ready[64];
    const int n = ::epoll_wait(epfd_, ready, 64, timeout_ms);
    if (n < 0) {
      if (errno == EINTR) return events_;
      throw_errno("epoll_wait");
    }
    events_.reserve(static_cast<std::size_t>(n));
    for (int i = 0; i < n; ++i) {
      Event e;
      e.fd = ready[i].data.fd;
      e.readable = (ready[i].events & EPOLLIN) != 0;
      e.writable = (ready[i].events & EPOLLOUT) != 0;
      e.broken = (ready[i].events & (EPOLLERR | EPOLLHUP)) != 0;
      events_.push_back(e);
    }
    return events_;
  }
#endif
  std::vector<pollfd> fds;
  fds.reserve(interest_.size());
  for (const auto& [fd, want] : interest_) {
    pollfd p{};
    p.fd = fd;
    if (want.read) p.events |= POLLIN;
    if (want.write) p.events |= POLLOUT;
    fds.push_back(p);
  }
  const int n = ::poll(fds.data(), fds.size(), timeout_ms);
  if (n < 0) {
    if (errno == EINTR) return events_;
    throw_errno("poll");
  }
  for (const pollfd& p : fds) {
    if (p.revents == 0) continue;
    Event e;
    e.fd = p.fd;
    e.readable = (p.revents & POLLIN) != 0;
    e.writable = (p.revents & POLLOUT) != 0;
    e.broken = (p.revents & (POLLERR | POLLHUP | POLLNVAL)) != 0;
    events_.push_back(e);
  }
  return events_;
}

}  // namespace optrec
