#include "server/server.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstring>
#include <string>
#include <unordered_map>
#include <utility>

#include "core/csv.h"
#include "engine/engine.h"
#include "engine/result_cache.h"
#include "engine/shared_cache.h"
#include "ra/parse.h"
#include "server/line_reader.h"
#include "server/protocol.h"
#include "sql/analyzer.h"
#include "sql/lexer.h"
#include "sql/parser.h"
#include "util/str.h"

namespace setalg::server {
namespace {

/// An OK response leaves the session's output buffer each time the
/// buffer reaches this size, and at its end: answers smaller than this
/// leave in one send.
constexpr std::size_t kFlushBytes = std::size_t{64} << 10;

/// Rows go into the output buffer in steps whose decimal text is at most
/// this long, so a flush passes kFlushBytes by at most one step.
constexpr std::size_t kRowStepBytes = std::size_t{4} << 10;

/// Writes the whole buffer, swallowing EPIPE (a client that hung up
/// mid-response just ends the session). Retries on EINTR.
bool WriteAll(int fd, const std::string& data) {
  std::size_t sent = 0;
  while (sent < data.size()) {
    const ssize_t n =
        ::send(fd, data.data() + sent, data.size() - sent, MSG_NOSIGNAL);
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) return false;
    sent += static_cast<std::size_t>(n);
  }
  return true;
}

/// Streams one OK response through `out`, the session's reused output
/// buffer: the header line, `result` as CSV rows, the terminator. The
/// buffer is sent whenever it reaches kFlushBytes, so a large answer is
/// never held as one string. False when a write fails.
bool WriteOkResponse(int fd, const std::string& header,
                     const core::Relation& result, const core::NameMap* names,
                     std::string* out) {
  out->assign(header);
  out->push_back('\n');
  const std::size_t rows = result.size();
  const std::size_t step = std::max<std::size_t>(
      1, kRowStepBytes /
             (core::kMaxCsvValueBytes * std::max<std::size_t>(1, result.arity())));
  for (std::size_t row = 0; row < rows;) {
    const std::size_t stop = std::min(rows, row + step);
    core::AppendRelationCsv(result, row, stop, names, out);
    row = stop;
    if (out->size() >= kFlushBytes) {
      if (!WriteAll(fd, *out)) return false;
      out->clear();
    }
  }
  out->append(kTerminator);
  out->push_back('\n');
  return WriteAll(fd, *out);
}

}  // namespace

Server::Server(std::shared_ptr<txn::VersionedDatabase> head,
               engine::EngineOptions options,
               std::shared_ptr<const core::NameMap> names)
    : head_(std::move(head)), options_(std::move(options)), names_(std::move(names)) {
  if (options_.shared_plan_cache == nullptr) {
    options_.shared_plan_cache = std::make_shared<engine::SharedPlanCache>(256, 0);
  }
  if (options_.result_cache == nullptr) {
    options_.result_cache =
        std::make_shared<engine::ResultCache>(256, std::size_t{64} << 20);
  }
}

Server::~Server() { Stop(); }

util::Result<int> Server::Start(int port) {
  listen_fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
  if (listen_fd_ < 0) {
    return util::Result<int>::Error(
        util::StrCat("socket: ", std::strerror(errno)));
  }
  const int one = 1;
  ::setsockopt(listen_fd_, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));

  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(static_cast<std::uint16_t>(port));
  if (::bind(listen_fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    ::close(listen_fd_);
    listen_fd_ = -1;
    return util::Result<int>::Error(util::StrCat("bind: ", std::strerror(errno)));
  }
  if (::listen(listen_fd_, 64) != 0) {
    ::close(listen_fd_);
    listen_fd_ = -1;
    return util::Result<int>::Error(util::StrCat("listen: ", std::strerror(errno)));
  }
  socklen_t len = sizeof(addr);
  ::getsockname(listen_fd_, reinterpret_cast<sockaddr*>(&addr), &len);
  port_ = static_cast<int>(ntohs(addr.sin_port));

  running_.store(true);
  accept_thread_ = std::thread([this] { AcceptLoop(); });
  return port_;
}

void Server::Stop() {
  if (!running_.exchange(false)) {
    if (accept_thread_.joinable()) accept_thread_.join();
    return;
  }
  // Unblock accept(), then every session's recv(); the loops observe the
  // shutdown and exit after flushing their in-flight response. Sessions
  // that already finished closed their own fd (fd == -1).
  ::shutdown(listen_fd_, SHUT_RDWR);
  {
    std::lock_guard<std::mutex> lock(sessions_mu_);
    for (const auto& session : sessions_) {
      if (session->fd >= 0) ::shutdown(session->fd, SHUT_RDWR);
    }
  }
  if (accept_thread_.joinable()) accept_thread_.join();
  std::vector<std::unique_ptr<Session>> sessions;
  {
    std::lock_guard<std::mutex> lock(sessions_mu_);
    sessions.swap(sessions_);
  }
  for (auto& session : sessions) {
    if (session->thread.joinable()) session->thread.join();
    if (session->fd >= 0) ::close(session->fd);
  }
  ::close(listen_fd_);
  listen_fd_ = -1;
}

std::size_t Server::live_sessions() const {
  std::lock_guard<std::mutex> lock(sessions_mu_);
  return sessions_.size();
}

void Server::ReapFinishedSessions() {
  std::vector<std::unique_ptr<Session>> finished;
  {
    std::lock_guard<std::mutex> lock(sessions_mu_);
    auto keep = sessions_.begin();
    for (auto& session : sessions_) {
      if (session->done.load()) {
        finished.push_back(std::move(session));
      } else {
        *keep++ = std::move(session);
      }
    }
    sessions_.erase(keep, sessions_.end());
  }
  // done == true means the loop already released sessions_mu_ and is
  // about to return, so these joins do not block on session work.
  for (auto& session : finished) {
    if (session->thread.joinable()) session->thread.join();
  }
}

void Server::AcceptLoop() {
  while (running_.load()) {
    const int fd = ::accept(listen_fd_, nullptr, nullptr);
    if (fd < 0) {
      if (errno == EINTR && running_.load()) continue;
      if (!running_.load()) break;
      continue;
    }
    // Without Nagle's algorithm the last, short segment of a streamed
    // response leaves at once instead of waiting for the client to
    // acknowledge the full segments before it (often a delayed ACK).
    const int one = 1;
    ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
    // Sweep finished sessions on every accept so the session list tracks
    // live connections instead of total connections served.
    ReapFinishedSessions();
    sessions_accepted_.fetch_add(1);
    auto session = std::make_unique<Session>();
    session->fd = fd;
    Session* raw = session.get();
    std::lock_guard<std::mutex> lock(sessions_mu_);
    if (!running_.load()) {
      ::close(fd);
      break;
    }
    sessions_.push_back(std::move(session));
    raw->thread = std::thread([this, raw] { SessionLoop(raw); });
  }
}

void Server::SessionLoop(Session* session) {
  ServeSession(session->fd);
  // Close under sessions_mu_ so Stop() never shuts down a closed (and
  // possibly reused) descriptor; mark done last so the reaper only sees
  // sessions whose fd is already released.
  std::lock_guard<std::mutex> lock(sessions_mu_);
  ::close(session->fd);
  session->fd = -1;
  session->done.store(true);
}

void Server::ServeSession(int fd) {
  // One engine per session: prepared handles are session-scoped, and the
  // shared caches (copied into options_) do the cross-session sharing.
  const engine::Engine engine(options_);
  std::unordered_map<std::string, engine::PreparedQuery> prepared;
  LineReader reader;
  std::string line;
  std::string out;  // The output buffer, reused by every OK response.

  const auto respond_error = [&](const std::string& message) {
    return WriteAll(fd, util::StrCat(FormatErrHeader(message), "\n",
                                     kTerminator, "\n"));
  };
  const auto compile = [&](const std::string& statement,
                           const core::Schema& schema) {
    return sql::LooksLikeSql(statement) ? sql::Compile(statement, schema)
                                        : ra::Parse(statement, schema);
  };

  while (reader.ReadLine(fd, &line)) {
    if (line.empty()) continue;
    auto request = ParseRequest(line);
    if (!request.ok()) {
      if (!respond_error(request.error())) break;
      continue;
    }
    switch (request->kind) {
      case Request::Kind::kPing:
        if (!WriteAll(fd, util::StrCat("PONG\n", kTerminator, "\n"))) return;
        continue;
      case Request::Kind::kClose:
        WriteAll(fd, util::StrCat("BYE\n", kTerminator, "\n"));
        return;
      case Request::Kind::kPrepare: {
        if (prepared.size() >= kMaxPreparedPerSession &&
            prepared.find(request->name) == prepared.end()) {
          // Located at the refused name in the request line.
          const std::size_t column =
              line.find(request->name, std::strlen("PREPARE")) + 1;
          if (!respond_error(sql::LocatedError(
                  1, column,
                  util::StrCat("session already holds ", kMaxPreparedPerSession,
                               " prepared statements; re-PREPARE one of their "
                               "names to replace it")))) {
            return;
          }
          continue;
        }
        const txn::SnapshotPtr snapshot = head_->snapshot();
        auto expr = compile(request->statement, snapshot->schema());
        if (!expr.ok()) {
          if (!respond_error(expr.error())) return;
          continue;
        }
        auto handle = engine.Prepare(*expr, *snapshot);
        if (!handle.ok()) {
          if (!respond_error(handle.error())) return;
          continue;
        }
        prepared[request->name] = std::move(*handle);
        if (!WriteAll(fd, util::StrCat(FormatPreparedHeader(request->name), "\n",
                                       kTerminator, "\n"))) {
          return;
        }
        continue;
      }
      case Request::Kind::kQuery:
      case Request::Kind::kExecute: {
        const txn::SnapshotPtr snapshot = head_->snapshot();
        util::Result<engine::RunResult> run =
            util::Result<engine::RunResult>::Error("unreachable");
        if (request->kind == Request::Kind::kQuery) {
          auto expr = compile(request->statement, snapshot->schema());
          if (!expr.ok()) {
            if (!respond_error(expr.error())) return;
            continue;
          }
          run = engine.Run(*expr, *snapshot);
        } else {
          const auto it = prepared.find(request->name);
          if (it == prepared.end()) {
            if (!respond_error(util::StrCat("no prepared statement named '",
                                            request->name, "'"))) {
              return;
            }
            continue;
          }
          run = engine.Run(it->second, *snapshot);
        }
        if (!run.ok()) {
          if (!respond_error(run.error())) return;
          continue;
        }
        const std::string header = FormatOkHeader(
            run->relation.size(), snapshot->version(),
            RelationDigest(run->relation),
            engine::CacheOutcomeToString(run->stats.cache));
        if (!WriteOkResponse(fd, header, run->relation, names_.get(), &out)) {
          return;
        }
        continue;
      }
    }
  }
  if (reader.overflowed()) {
    // Best effort — the connection is dropped either way, keeping the
    // read buffer bounded at kMaxLineBytes per session.
    respond_error("line too long");
  }
}

}  // namespace setalg::server
