#include "server/client.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>
#include <utility>

#include "util/str.h"

namespace setalg::server {

Client::~Client() {
  if (fd_ >= 0) ::close(fd_);
}

Client::Client(Client&& other) noexcept
    : fd_(std::exchange(other.fd_, -1)),
      reader_(std::exchange(other.reader_, LineReader())) {}

Client& Client::operator=(Client&& other) noexcept {
  if (this != &other) {
    if (fd_ >= 0) ::close(fd_);
    fd_ = std::exchange(other.fd_, -1);
    reader_ = std::exchange(other.reader_, LineReader());
  }
  return *this;
}

util::Result<Client> Client::Connect(const std::string& host, int port) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) {
    return util::Result<Client>::Error(
        util::StrCat("socket: ", std::strerror(errno)));
  }
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(static_cast<std::uint16_t>(port));
  const std::string resolved = host == "localhost" ? "127.0.0.1" : host;
  if (::inet_pton(AF_INET, resolved.c_str(), &addr.sin_addr) != 1) {
    ::close(fd);
    return util::Result<Client>::Error(
        util::StrCat("bad host '", host, "' (want an IPv4 address)"));
  }
  if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    const std::string error = std::strerror(errno);
    ::close(fd);
    return util::Result<Client>::Error(
        util::StrCat("connect to ", host, ":", port, ": ", error));
  }
  Client client;
  client.fd_ = fd;
  return client;
}

util::Result<Client::Response> Client::ReadFailure(const char* where) const {
  if (reader_.overflowed()) {
    return util::Result<Response>::Error(util::StrCat(
        "response line longer than ", kMaxLineBytes, " bytes ", where));
  }
  return util::Result<Response>::Error(util::StrCat("connection closed ", where));
}

util::Result<Client::Response> Client::Roundtrip(const std::string& request_line) {
  if (fd_ < 0) return util::Result<Response>::Error("not connected");
  std::string out = request_line;
  if (out.empty() || out.back() != '\n') out += '\n';
  std::size_t sent = 0;
  while (sent < out.size()) {
    const ssize_t n = ::send(fd_, out.data() + sent, out.size() - sent, MSG_NOSIGNAL);
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) {
      return util::Result<Response>::Error(
          util::StrCat("send: ", std::strerror(errno)));
    }
    sent += static_cast<std::size_t>(n);
  }

  std::string line;
  if (!reader_.ReadLine(fd_, &line)) return ReadFailure("before response");
  auto header = ParseResponseHeader(line);
  if (!header.ok()) return util::Result<Response>::Error(header.error());
  Response response;
  response.header = std::move(*header);
  for (;;) {
    std::string& row = response.rows.emplace_back();
    if (!reader_.ReadLine(fd_, &row)) return ReadFailure("mid-response");
    if (row == kTerminator) break;
  }
  response.rows.pop_back();
  return response;
}

void Client::Close() {
  if (fd_ < 0) return;
  (void)Roundtrip("CLOSE");
  ::close(fd_);
  fd_ = -1;
}

}  // namespace setalg::server
