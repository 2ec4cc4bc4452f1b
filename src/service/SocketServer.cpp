//===- service/SocketServer.cpp - Unix-socket transport -------------------===//

#include "service/SocketServer.h"

#include "service/Protocol.h"
#include "service/Service.h"
#include "support/ThreadPool.h"

#include <cerrno>
#include <cstring>
#include <future>
#include <thread>
#include <vector>

#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

using namespace seldon;
using namespace seldon::service;

namespace {

/// Writes all of \p Data, riding out partial writes and EINTR.
/// MSG_NOSIGNAL: a client that hung up must surface as a failed write,
/// not a process-killing SIGPIPE.
bool writeAll(int Fd, const std::string &Data) {
  size_t Off = 0;
  while (Off < Data.size()) {
    ssize_t N =
        ::send(Fd, Data.data() + Off, Data.size() - Off, MSG_NOSIGNAL);
    if (N < 0) {
      if (errno == EINTR)
        continue;
      return false;
    }
    Off += static_cast<size_t>(N);
  }
  return true;
}

} // namespace

SocketServer::SocketServer(Service &Svc, ThreadPool &Pool,
                           std::string SocketPath)
    : Svc(Svc), Pool(Pool), Path(std::move(SocketPath)) {}

SocketServer::~SocketServer() {
  if (ListenFd >= 0) {
    ::close(ListenFd);
    ::unlink(Path.c_str());
  }
}

bool SocketServer::listen(std::string &Error) {
  sockaddr_un Addr;
  std::memset(&Addr, 0, sizeof(Addr));
  Addr.sun_family = AF_UNIX;
  if (Path.size() >= sizeof(Addr.sun_path)) {
    Error = Path + ": socket path too long for sockaddr_un";
    return false;
  }
  std::memcpy(Addr.sun_path, Path.c_str(), Path.size() + 1);

  ListenFd = ::socket(AF_UNIX, SOCK_STREAM, 0);
  if (ListenFd < 0) {
    Error = std::string("socket: ") + std::strerror(errno);
    return false;
  }
  if (::bind(ListenFd, reinterpret_cast<sockaddr *>(&Addr),
             sizeof(Addr)) < 0) {
    if (errno == EADDRINUSE) {
      // A leftover socket file from a dead daemon is stale if nobody
      // answers a connect; reclaim it. A live listener is a hard error.
      int Probe = ::socket(AF_UNIX, SOCK_STREAM, 0);
      bool Live =
          Probe >= 0 &&
          ::connect(Probe, reinterpret_cast<sockaddr *>(&Addr),
                    sizeof(Addr)) == 0;
      if (Probe >= 0)
        ::close(Probe);
      if (!Live && ::unlink(Path.c_str()) == 0 &&
          ::bind(ListenFd, reinterpret_cast<sockaddr *>(&Addr),
                 sizeof(Addr)) == 0) {
        // Reclaimed.
      } else {
        Error = Live ? (Path + ": another seldond is already listening")
                     : (Path + ": " + std::strerror(errno));
        ::close(ListenFd);
        ListenFd = -1;
        return false;
      }
    } else {
      Error = Path + ": " + std::strerror(errno);
      ::close(ListenFd);
      ListenFd = -1;
      return false;
    }
  }
  if (::listen(ListenFd, 64) < 0) {
    Error = std::string("listen: ") + std::strerror(errno);
    ::close(ListenFd);
    ::unlink(Path.c_str());
    ListenFd = -1;
    return false;
  }
  return true;
}

size_t SocketServer::run() {
  std::vector<std::thread> Connections;
  while (!Stopping.load(std::memory_order_acquire)) {
    int Fd = ::accept(ListenFd, nullptr, nullptr);
    if (Fd < 0) {
      if (errno == EINTR)
        continue;
      break; // stop() shut the listener down, or it failed hard.
    }
    Served.fetch_add(1, std::memory_order_relaxed);
    {
      std::lock_guard<std::mutex> Lock(LiveMutex);
      LiveFds.insert(Fd);
    }
    Connections.emplace_back([this, Fd]() { serveConnection(Fd); });
  }
  // Drain: a connection parked in recv() on an idle client would block
  // the joins below forever; shutting the fd down makes its recv return
  // so the thread can exit. Runs in normal (non-signal) context — stop()
  // itself stays async-signal-safe.
  {
    std::lock_guard<std::mutex> Lock(LiveMutex);
    for (int Fd : LiveFds)
      ::shutdown(Fd, SHUT_RDWR);
  }
  for (std::thread &T : Connections)
    T.join();
  ::close(ListenFd.exchange(-1));
  ::unlink(Path.c_str());
  return Served.load(std::memory_order_relaxed);
}

void SocketServer::stop() {
  Stopping.store(true, std::memory_order_release);
  int Fd = ListenFd.load();
  if (Fd >= 0)
    ::shutdown(Fd, SHUT_RDWR);
}

void SocketServer::serveConnection(int Fd) {
  std::string Buffer;
  // Buffer[0, Scanned) holds no newline, so each byte is searched once
  // however many chunks its line arrives in.
  size_t Scanned = 0;
  char Chunk[65536];
  bool Open = true;
  while (Open) {
    ssize_t N = ::recv(Fd, Chunk, sizeof(Chunk), 0);
    if (N < 0 && errno == EINTR)
      continue;
    if (N < 0) {
      // Hard transport error (ECONNRESET and friends): whatever sits in
      // the buffer is an arbitrary truncation of a request the peer never
      // finished sending — drop it unanswered. Only a clean EOF below
      // promises the peer stopped at a deliberate point.
      break;
    }
    if (N == 0) {
      // EOF: a trailing unterminated line still gets an answer below.
      Open = false;
    } else {
      Buffer.append(Chunk, static_cast<size_t>(N));
    }

    size_t Start = 0;
    while (true) {
      size_t NL = Buffer.find('\n', Scanned);
      std::string Line;
      if (NL != std::string::npos) {
        Line = Buffer.substr(Start, NL - Start);
        Start = Scanned = NL + 1;
      } else if (!Open && Start < Buffer.size()) {
        Line = Buffer.substr(Start);
        Start = Scanned = Buffer.size();
      } else {
        Scanned = Buffer.size();
        break;
      }
      if (!Line.empty() && Line.back() == '\r')
        Line.pop_back();
      if (Line.empty())
        continue;

      // Admit before queueing so a flood becomes structured `overloaded`
      // errors instead of an unbounded pool backlog. The pool runs the
      // request; this thread waits so responses stay in request order on
      // this connection (other connections proceed concurrently).
      std::string Response;
      if (!Svc.tryAdmit()) {
        Response = Svc.overloadedResponse(Line);
      } else {
        std::future<void> Done = Pool.submit(
            [this, &Line, &Response]() { Response = Svc.handle(Line); });
        try {
          Done.get();
        } catch (...) {
          // Svc.handle never throws; this guards the pool plumbing.
          Response = renderErrorResponse(
              JsonValue::makeNull(), ErrorCode::Internal,
              "request execution failed");
        }
        Svc.release();
      }
      Response += '\n';
      if (!writeAll(Fd, Response)) {
        Open = false;
        break;
      }
      if (Svc.shuttingDown()) {
        // Drain: answer nothing further on this connection and wake the
        // accept loop so run() can return.
        stop();
        Open = false;
        break;
      }
    }
    Buffer.erase(0, Start);
    Scanned -= Start;

    // A newline-less flood must not buffer unboundedly: answer
    // `oversized` once and drop the connection (framing is lost).
    if (Open && Buffer.size() > Svc.options().MaxRequestBytes) {
      writeAll(Fd, renderErrorResponse(
                       JsonValue::makeNull(), ErrorCode::Oversized,
                       "unterminated request exceeds the frame cap") +
                       "\n");
      Open = false;
    }
  }
  {
    std::lock_guard<std::mutex> Lock(LiveMutex);
    LiveFds.erase(Fd);
  }
  ::close(Fd);
}

SocketClient::~SocketClient() { close(); }

bool SocketClient::connect(const std::string &SocketPath,
                           std::string &Error) {
  sockaddr_un Addr;
  std::memset(&Addr, 0, sizeof(Addr));
  Addr.sun_family = AF_UNIX;
  if (SocketPath.size() >= sizeof(Addr.sun_path)) {
    Error = SocketPath + ": socket path too long";
    return false;
  }
  std::memcpy(Addr.sun_path, SocketPath.c_str(), SocketPath.size() + 1);
  Fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
  if (Fd < 0) {
    Error = std::string("socket: ") + std::strerror(errno);
    return false;
  }
  if (::connect(Fd, reinterpret_cast<sockaddr *>(&Addr), sizeof(Addr)) <
      0) {
    Error = SocketPath + ": " + std::strerror(errno);
    ::close(Fd);
    Fd = -1;
    return false;
  }
  return true;
}

bool SocketClient::sendLine(const std::string &Line) {
  return Fd >= 0 && writeAll(Fd, Line + "\n");
}

bool SocketClient::recvLine(std::string &Out) {
  if (Fd < 0)
    return false;
  while (true) {
    size_t NL = Buffer.find('\n', Scanned);
    if (NL != std::string::npos) {
      Out.assign(Buffer, 0, NL);
      Buffer.erase(0, NL + 1);
      Scanned = 0;
      return true;
    }
    Scanned = Buffer.size();
    char Chunk[65536];
    ssize_t N = ::recv(Fd, Chunk, sizeof(Chunk), 0);
    if (N < 0 && errno == EINTR)
      continue;
    if (N <= 0)
      return false;
    Buffer.append(Chunk, static_cast<size_t>(N));
  }
}

bool SocketClient::roundTrip(const std::string &Line,
                             std::string &Response) {
  return sendLine(Line) && recvLine(Response);
}

void SocketClient::close() {
  if (Fd >= 0) {
    ::close(Fd);
    Fd = -1;
  }
}
