// A minimal blocking client for the setalgd wire protocol — the
// counterpart raq --connect and the server tests use. One request line
// out, one framed response (header + data rows + ".") back. Response
// lines are read with the server's own LineReader, under the same
// kMaxLineBytes cap.
#ifndef SETALG_SERVER_CLIENT_H_
#define SETALG_SERVER_CLIENT_H_

#include <string>
#include <vector>

#include "server/line_reader.h"
#include "server/protocol.h"
#include "util/result.h"

namespace setalg::server {

class Client {
 public:
  /// One complete server response.
  struct Response {
    ResponseHeader header;
    std::vector<std::string> rows;  // CSV data rows (OK responses only).
  };

  Client() = default;
  ~Client();

  Client(Client&& other) noexcept;
  Client& operator=(Client&& other) noexcept;
  Client(const Client&) = delete;
  Client& operator=(const Client&) = delete;

  /// Connects to `host`:`port` (host is a dotted-quad or "localhost").
  static util::Result<Client> Connect(const std::string& host, int port);

  bool connected() const { return fd_ >= 0; }

  /// Sends one request line and reads the full framed response.
  /// Transport failures (send/recv, or a response line longer than
  /// kMaxLineBytes) come back as errors; protocol-level failures come
  /// back as an ok Result with header.ok == false.
  util::Result<Response> Roundtrip(const std::string& request_line);

  /// Sends CLOSE (ignoring the BYE) and closes the socket.
  void Close();

 private:
  /// The error for a failed response read; `where` names the read.
  util::Result<Response> ReadFailure(const char* where) const;

  int fd_ = -1;
  LineReader reader_;  // recv carry-over between lines and responses.
};

}  // namespace setalg::server

#endif  // SETALG_SERVER_CLIENT_H_
