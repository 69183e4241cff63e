// setalgd's serving core: a TCP server speaking the line protocol of
// server/protocol.h over a txn::VersionedDatabase head.
//
// Concurrency model, matching the engine's documented contract
// (engine/engine.h): every connection gets its own session thread and
// its own engine::Engine (prepared handles are session-scoped and
// single-threaded), and all sessions share the process-wide
// SharedPlanCache / ResultCache supplied through EngineOptions — so one
// session's PREPARE lowers a plan another session's QUERY can hit. Each
// statement runs against a fresh head->snapshot(), so sessions never
// block writers and a response's `version` field pins exactly which
// published state it saw.
//
// Responses: an OK answer streams through the session's one output
// buffer, sent every 64 KiB (core::AppendRelationCsv writes the rows), so
// a session holds about 64 KiB of response text however large the
// answer. Accepted sockets set TCP_NODELAY, so the last short segment of
// a streamed answer is not held back waiting for an ACK.
//
// Lifecycle: Start() binds (port 0 picks a free port — the bound port is
// returned and reported by port()), spawns the accept loop, and returns.
// Stop() is graceful and idempotent: it shuts down the listener and
// every live session socket, then joins all threads; in-flight
// statements finish and their responses are flushed first. The
// destructor calls Stop().
#ifndef SETALG_SERVER_SERVER_H_
#define SETALG_SERVER_SERVER_H_

#include <atomic>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "core/name_map.h"
#include "engine/planner.h"
#include "txn/snapshot.h"
#include "util/result.h"

namespace setalg::server {

/// The prepared statements one session may hold: as many plans as the
/// server's shared plan cache keeps by default. A PREPARE under a new
/// name past it is refused with an ERR located at the name; re-PREPARE
/// of a held name replaces that statement, and EXECUTE is unaffected.
inline constexpr std::size_t kMaxPreparedPerSession = 256;

class Server {
 public:
  /// `head` is the versioned database every session serves from;
  /// `options` configures the per-session engines (the shared plan and
  /// result caches are created when absent). `names` renders interned
  /// string values in CSV rows; may be null.
  Server(std::shared_ptr<txn::VersionedDatabase> head,
         engine::EngineOptions options,
         std::shared_ptr<const core::NameMap> names);

  ~Server();

  Server(const Server&) = delete;
  Server& operator=(const Server&) = delete;

  /// Binds 127.0.0.1:`port` (0 = any free port), starts the accept loop
  /// and returns the bound port.
  util::Result<int> Start(int port = 0);

  /// The bound port (0 before Start succeeds).
  int port() const { return port_; }

  /// Graceful shutdown; safe to call repeatedly and from any thread
  /// other than a session thread.
  void Stop();

  /// Number of sessions accepted so far (monotonic; for tests).
  std::size_t sessions_accepted() const { return sessions_accepted_.load(); }

  /// Number of sessions not yet reaped (live connections plus finished
  /// ones awaiting the accept loop's next sweep; for tests). Bounded by
  /// the live connection count plus the finished sessions since the last
  /// accept — it does not grow with total connections served.
  std::size_t live_sessions() const;

 private:
  struct Session {
    int fd = -1;
    std::thread thread;
    /// Set (under sessions_mu_, after the fd is closed) when the session
    /// loop has returned; the accept loop reaps done sessions.
    std::atomic<bool> done{false};
  };

  void AcceptLoop();
  void SessionLoop(Session* session);
  /// The protocol loop proper; returns when the client hangs up, CLOSEs,
  /// a write fails, or the reader hits the line-length cap.
  void ServeSession(int fd);
  /// Joins and destroys every done session (swept from AcceptLoop).
  void ReapFinishedSessions();

  std::shared_ptr<txn::VersionedDatabase> head_;
  engine::EngineOptions options_;
  std::shared_ptr<const core::NameMap> names_;

  int listen_fd_ = -1;
  int port_ = 0;
  std::atomic<bool> running_{false};
  std::atomic<std::size_t> sessions_accepted_{0};
  std::thread accept_thread_;

  mutable std::mutex sessions_mu_;
  std::vector<std::unique_ptr<Session>> sessions_;
};

}  // namespace setalg::server

#endif  // SETALG_SERVER_SERVER_H_
