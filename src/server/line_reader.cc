#include "server/line_reader.h"

#include <sys/socket.h>

#include <cerrno>
#include <cstring>

namespace setalg::server {

bool LineReader::ReadLine(int fd, std::string* line) {
  // Bytes in [cursor_, scanned) are known to hold no newline.
  std::size_t scanned = cursor_;
  for (;;) {
    const void* newline =
        std::memchr(buffer_.data() + scanned, '\n', buffer_.size() - scanned);
    if (newline != nullptr) {
      const std::size_t end =
          static_cast<std::size_t>(static_cast<const char*>(newline) - buffer_.data());
      if (end - cursor_ > kMaxLineBytes) break;
      std::size_t stop = end;
      if (stop > cursor_ && buffer_[stop - 1] == '\r') --stop;
      line->assign(buffer_, cursor_, stop - cursor_);
      cursor_ = end + 1;
      return true;
    }
    if (buffer_.size() - cursor_ > kMaxLineBytes) break;
    buffer_.erase(0, cursor_);
    cursor_ = 0;
    scanned = buffer_.size();
    char chunk[std::size_t{64} << 10];
    const ssize_t n = ::recv(fd, chunk, sizeof(chunk), 0);
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) return false;
    buffer_.append(chunk, static_cast<std::size_t>(n));
  }
  overflowed_ = true;
  return false;
}

}  // namespace setalg::server
