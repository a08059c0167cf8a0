#include "runner/io_util.hpp"

#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>

namespace bng::runner::io {

namespace {

template <typename Op>
bool loop_all(std::string_view bytes, Op&& op) {
  std::size_t off = 0;
  while (off < bytes.size()) {
    const ssize_t n = op(bytes.data() + off, bytes.size() - off);
    if (n < 0) {
      if (errno == EINTR) continue;
      return false;
    }
    off += static_cast<std::size_t>(n);
  }
  return true;
}

}  // namespace

bool write_all(int fd, std::string_view bytes) {
  return loop_all(bytes, [fd](const char* p, std::size_t n) { return ::write(fd, p, n); });
}

bool send_all(int fd, std::string_view bytes) {
  return loop_all(bytes, [fd](const char* p, std::size_t n) {
    return ::send(fd, p, n, MSG_NOSIGNAL);
  });
}

ReadResult recv_some(int fd, std::string& buf, std::size_t chunk) {
  std::string tmp(chunk, '\0');
  for (;;) {
    const ssize_t n = ::recv(fd, tmp.data(), tmp.size(), 0);
    if (n < 0) {
      if (errno == EINTR) continue;
      return ReadResult::kError;
    }
    if (n == 0) return ReadResult::kEof;
    buf.append(tmp.data(), static_cast<std::size_t>(n));
    return ReadResult::kData;
  }
}

}  // namespace bng::runner::io
