#include "src/tcp/poller.h"

#include <sys/epoll.h>
#include <unistd.h>

#include <cerrno>
#include <cstdint>
#include <system_error>

namespace optrec {

namespace {

[[noreturn]] void throw_errno(const char* what) {
  throw std::system_error(errno, std::generic_category(), what);
}

void control(int epfd, int op, int fd, bool read, bool write,
             const char* what) {
  epoll_event ev{};
  if (read) ev.events |= EPOLLIN;
  if (write) ev.events |= EPOLLOUT;
  ev.data.fd = fd;
  if (::epoll_ctl(epfd, op, fd, &ev) < 0) throw_errno(what);
}

}  // namespace

Poller::Poller() : epfd_(::epoll_create1(0)) {
  if (epfd_ < 0) throw_errno("epoll_create1");
}

Poller::~Poller() { ::close(epfd_); }

void Poller::add(int fd, bool want_read, bool want_write) {
  interest_[fd] = {want_read, want_write};
  control(epfd_, EPOLL_CTL_ADD, fd, want_read, want_write, "epoll_ctl(ADD)");
}

void Poller::set(int fd, bool want_read, bool want_write) {
  auto it = interest_.find(fd);
  if (it == interest_.end()) {
    add(fd, want_read, want_write);
    return;
  }
  if (it->second.read == want_read && it->second.write == want_write) return;
  it->second = {want_read, want_write};
  control(epfd_, EPOLL_CTL_MOD, fd, want_read, want_write, "epoll_ctl(MOD)");
}

void Poller::remove(int fd) {
  if (interest_.erase(fd) == 0) return;
  // The fd may already be closed (kernel auto-deregisters); ignore.
  ::epoll_ctl(epfd_, EPOLL_CTL_DEL, fd, nullptr);
}

const std::vector<Poller::Event>& Poller::wait(int timeout_ms) {
  events_.clear();
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

}  // namespace optrec
