// The buffered line reader both ends of the setalgd wire use: server
// sessions read request lines with it, Client reads response lines.
//
// Lines end in '\n'; a trailing '\r' is stripped. A read cursor walks the
// buffer, so a line costs one copy out of it; the consumed prefix is
// dropped only before the next recv, which moves at most one partial
// line. Each recv takes up to 64 KiB into a stack block and appends only
// the bytes received. A line longer than kMaxLineBytes fails the read
// instead of growing the buffer, so no peer can exhaust memory by
// withholding the newline.
#ifndef SETALG_SERVER_LINE_READER_H_
#define SETALG_SERVER_LINE_READER_H_

#include <cstddef>
#include <string>

namespace setalg::server {

/// Longest accepted line, terminator excluded, on either end of the wire.
inline constexpr std::size_t kMaxLineBytes = std::size_t{1} << 20;  // 1 MiB

class LineReader {
 public:
  /// Reads the next line from socket `fd` into `*line`, without its
  /// terminator. Retries recv on EINTR. False on EOF, on a socket error
  /// and when the pending line passes kMaxLineBytes; overflowed() tells
  /// the last case apart.
  bool ReadLine(int fd, std::string* line);

  /// True when the last ReadLine failed on the line-length cap.
  bool overflowed() const { return overflowed_; }

 private:
  std::string buffer_;
  std::size_t cursor_ = 0;  // Start of the unread bytes in buffer_.
  bool overflowed_ = false;
};

}  // namespace setalg::server

#endif  // SETALG_SERVER_LINE_READER_H_
