// EINTR-safe low-level I/O, shared by everything in the runner that touches
// a file descriptor: the fleet's sockets — socketpairs to local workers and
// TCP to remote ones (fleet.cpp) — and the record cache's entry files
// (cache.cpp). Every loop here retries EINTR and resumes short writes, so
// callers never see a partial transfer — the ad-hoc per-site loops these
// helpers replaced each handled a different subset of those cases.
#pragma once

#include <string>
#include <string_view>

namespace bng::runner::io {

enum class ReadResult {
  kData,   ///< bytes were appended to the buffer
  kEof,    ///< orderly end of stream (peer closed)
  kError,  ///< hard error (ECONNRESET, EBADF, ...); errno is preserved
};

/// write() the whole buffer to a pipe or file, retrying EINTR and short
/// writes. Returns false on any hard error.
bool write_all(int fd, std::string_view bytes);

/// send() the whole buffer to a socket with MSG_NOSIGNAL (a dead peer must
/// surface as EPIPE, not kill the process with SIGPIPE), retrying EINTR and
/// short sends. Returns false on any hard error.
bool send_all(int fd, std::string_view bytes);

/// One recv() of up to `chunk` bytes appended to `buf` (blocking socket;
/// callers gate with poll() if they must not block). Retries EINTR.
ReadResult recv_some(int fd, std::string& buf, std::size_t chunk = 16384);

}  // namespace bng::runner::io
