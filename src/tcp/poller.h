// Readiness notification for the TCP event loop, over epoll. Level-
// triggered — the loop re-arms write interest only while an outbound
// buffer is nonempty, so level semantics cost nothing and keep the state
// machine simple.
#pragma once

#include <cstddef>
#include <unordered_map>
#include <vector>

namespace optrec {

class Poller {
 public:
  Poller();
  ~Poller();

  Poller(const Poller&) = delete;
  Poller& operator=(const Poller&) = delete;

  struct Event {
    int fd = -1;
    bool readable = false;
    bool writable = false;
    /// Error or hangup; the connection is dead either way.
    bool broken = false;
  };

  /// Register `fd`; throws std::system_error on failure.
  void add(int fd, bool want_read, bool want_write);
  /// Update interest for a registered fd; no syscall when it is unchanged.
  void set(int fd, bool want_read, bool want_write);
  /// Deregister; unknown fds are a no-op (callers close eagerly).
  void remove(int fd);

  /// Block up to `timeout_ms` (-1 = forever) and return the ready set. The
  /// returned reference is valid until the next wait() call.
  const std::vector<Event>& wait(int timeout_ms);

  std::size_t size() const { return interest_.size(); }

 private:
  struct Interest {
    bool read = false;
    bool write = false;
  };

  int epfd_ = -1;
  std::unordered_map<int, Interest> interest_;
  std::vector<Event> events_;
};

}  // namespace optrec
