/**
 * @file
 * Fleet transport implementations: fork/socketpair and TCP.
 */

#include "src/fleet/transport.hh"

#include <cerrno>
#include <chrono>
#include <cstring>
#include <ostream>
#include <thread>
#include <utility>

#include <netdb.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <csignal>

#include "src/support/status.hh"
#include "src/support/strutil.hh"

namespace pe::fleet
{

namespace
{

/** How long a freshly accepted peer gets to produce its Join. */
constexpr int kJoinTimeoutMs = 5000;

/** Poll slice while waiting for the fleet to form (stopFlag checks). */
constexpr int kEstablishPollMs = 200;

/** `host:port` -> (host, service); empty host = every interface. */
std::pair<std::string, std::string>
splitHostPort(const std::string &spec)
{
    size_t colon = spec.rfind(':');
    if (colon == std::string::npos) {
        pe_fatal("tcp address '", spec, "' is not host:port");
    }
    return {spec.substr(0, colon), spec.substr(colon + 1)};
}

void
sendErrorBestEffort(int fd, const std::string &message)
{
    try {
        wire::Encoder enc;
        enc.str(message);
        wire::writeFrame(fd, wire::FrameType::Error, enc.buffer());
    } catch (const wire::WireError &) {
        // The peer is already gone; nothing to tell it.
    }
}

} // namespace

// --- ForkTransport ---------------------------------------------------

std::vector<int>
ForkTransport::establish(const explore::SessionIdentity &id,
                         const std::vector<WorkerConfig> &configs,
                         const std::atomic<bool> *stopFlag)
{
    (void)id;
    (void)stopFlag;   // fork is immediate; nothing to wait for
    pe_assert(children.empty(), "fork transport establishes once");
    std::vector<int> fds;
    fds.reserve(configs.size());
    for (const WorkerConfig &cfg : configs) {
        children.push_back(proc::spawnChild([this, cfg](int fd) {
            return workerMain(fd, program, cfg);
        }));
        fds.push_back(children.back().fd());
    }
    return fds;
}

void
ForkTransport::closeChannel(uint32_t shard)
{
    if (shard < children.size())
        children[shard].closeFd();
}

void
ForkTransport::shutdown(int reapTimeoutMs)
{
    // Two passes: give every child the EOF + grace period first, then
    // reap — so N stragglers share one timeout instead of serializing
    // N of them.
    for (proc::ChildProcess &child : children)
        child.closeFd();
    for (proc::ChildProcess &child : children) {
        if (!child.valid())
            continue;
        if (!child.waitFor(reapTimeoutMs)) {
            child.kill(SIGKILL);
            child.wait();
        }
    }
    children.clear();
}

// --- TcpTransport ----------------------------------------------------

TcpTransport::TcpTransport(const std::string &listenSpec,
                           std::ostream *status)
    : status(status)
{
    auto [host, service] = splitHostPort(listenSpec);

    struct addrinfo hints = {};
    hints.ai_family = AF_UNSPEC;
    hints.ai_socktype = SOCK_STREAM;
    hints.ai_flags = AI_PASSIVE;
    struct addrinfo *res = nullptr;
    int rc = ::getaddrinfo(host.empty() ? nullptr : host.c_str(),
                           service.c_str(), &hints, &res);
    if (rc != 0) {
        pe_fatal("cannot resolve listen address '", listenSpec,
                 "': ", ::gai_strerror(rc));
    }

    std::string lastErr = "no usable address";
    for (struct addrinfo *ai = res; ai; ai = ai->ai_next) {
        int fd = ::socket(ai->ai_family, ai->ai_socktype,
                          ai->ai_protocol);
        if (fd < 0) {
            lastErr = std::strerror(errno);
            continue;
        }
        int one = 1;
        ::setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &one,
                     sizeof(one));
        if (::bind(fd, ai->ai_addr, ai->ai_addrlen) != 0 ||
            ::listen(fd, SOMAXCONN) != 0) {
            lastErr = std::strerror(errno);
            ::close(fd);
            continue;
        }
        listenSock = fd;
        break;
    }
    ::freeaddrinfo(res);
    if (listenSock < 0) {
        pe_fatal("cannot listen on '", listenSpec, "': ", lastErr);
    }
    // Non-blocking: acceptOne() is drained in a loop after poll()
    // reports the listener readable, and the call that finds the
    // backlog empty must return nullopt (EAGAIN), not park the
    // reactor in accept(2) forever.
    wire::setNonBlocking(listenSock);

    struct sockaddr_storage addr = {};
    socklen_t len = sizeof(addr);
    if (::getsockname(listenSock,
                      reinterpret_cast<struct sockaddr *>(&addr),
                      &len) == 0) {
        if (addr.ss_family == AF_INET) {
            boundPort = ntohs(
                reinterpret_cast<struct sockaddr_in *>(&addr)
                    ->sin_port);
        } else if (addr.ss_family == AF_INET6) {
            boundPort = ntohs(
                reinterpret_cast<struct sockaddr_in6 *>(&addr)
                    ->sin6_port);
        }
    }
}

TcpTransport::~TcpTransport()
{
    shutdown(0);
}

std::optional<PeerJoin>
TcpTransport::acceptOne(
    const std::function<bool(uint32_t, bool)> &mayJoin)
{
    int fd = ::accept(listenSock, nullptr, nullptr);
    if (fd < 0) {
        if (errno == EINTR || errno == EAGAIN ||
            errno == EWOULDBLOCK || errno == ECONNABORTED)
            return std::nullopt;
        pe_fatal("accept failed: ", std::strerror(errno));
    }
    int one = 1;
    ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));

    Join got;
    try {
        auto frame = wire::readFrameTimeout(fd, kJoinTimeoutMs);
        if (!frame || frame->type != wire::FrameType::Join) {
            throw wire::WireError(
                wire::WireErrorKind::BadFrame,
                detail::concat(
                    "expected join frame, got ",
                    frame ? wire::frameTypeName(frame->type)
                          : "eof"));
        }
        wire::Decoder dec(frame->payload);
        got = decodeJoin(dec);
        dec.expectEnd("join");
        validateJoin(got, identity);
    } catch (const wire::WireError &err) {
        if (status)
            *status << "[fleet] refused tcp peer: " << err.what()
                    << "\n";
        sendErrorBestEffort(fd, err.what());
        ::close(fd);
        return std::nullopt;
    }

    // Resolve the shard slot: a wildcard takes the lowest
    // never-assigned slot, an explicit id takes exactly that slot.
    uint32_t shard = got.desiredShard;
    if (shard == kAnyShard) {
        for (uint32_t s = 0; s < identity.shards; ++s) {
            if (!assigned[s]) {
                shard = s;
                break;
            }
        }
    }
    std::string refusal;
    if (shard >= identity.shards)
        refusal = "no free shard slot";
    else if (slots[shard] >= 0)
        refusal = detail::concat("shard ", shard,
                                 " is already connected");
    else if (!mayJoin(shard, assigned[shard]))
        refusal = detail::concat("shard ", shard,
                                 " is not accepting peers");
    if (!refusal.empty()) {
        if (status)
            *status << "[fleet] refused tcp peer: " << refusal
                    << "\n";
        sendErrorBestEffort(fd, refusal);
        ::close(fd);
        return std::nullopt;
    }

    PeerJoin peer;
    peer.shard = shard;
    peer.fd = fd;
    peer.lastAckedRound = got.lastAckedRound;
    peer.rejoin = assigned[shard];
    slots[shard] = fd;
    assigned[shard] = true;
    if (status)
        *status << "[fleet] shard " << shard << " "
                << (peer.rejoin ? "reconnected" : "connected")
                << " over tcp\n";
    return peer;
}

std::vector<int>
TcpTransport::establish(const explore::SessionIdentity &id,
                        const std::vector<WorkerConfig> &configs,
                        const std::atomic<bool> *stopFlag)
{
    (void)configs;   // remote workers bring their own options
    identity = id;
    slots.assign(id.shards, -1);
    assigned.assign(id.shards, false);

    if (status)
        *status << "[fleet] waiting for " << id.shards
                << " worker(s) on tcp port " << boundPort << "\n";

    size_t joined = 0;
    while (joined < id.shards) {
        if (stopFlag &&
            stopFlag->load(std::memory_order_relaxed)) {
            pe_fatal("interrupted while waiting for tcp workers (",
                     joined, "/", id.shards, " joined)");
        }
        struct pollfd pfd = {listenSock, POLLIN, 0};
        int rc = ::poll(&pfd, 1, kEstablishPollMs);
        if (rc < 0 && errno != EINTR)
            pe_fatal("poll failed: ", std::strerror(errno));
        if (rc <= 0)
            continue;
        // During formation every unattached slot may join (first
        // attach only; nothing has ever disconnected yet).
        if (acceptOne([](uint32_t, bool) { return true; }))
            ++joined;
    }
    return slots;
}

void
TcpTransport::prepareResume(const explore::SessionIdentity &id)
{
    identity = id;
    // Every slot was held by the dead coordinator's session; the
    // workers are still out there redialing.  Marking the slots
    // assigned-but-detached routes their Joins through the same
    // accept path a mid-session reconnect takes.
    slots.assign(id.shards, -1);
    assigned.assign(id.shards, true);
    if (status)
        *status << "[fleet] resuming: waiting for workers to redial "
                   "on tcp port "
                << boundPort << "\n";
}

std::optional<PeerJoin>
TcpTransport::acceptPeer(
    const std::function<bool(uint32_t, bool)> &mayJoin)
{
    return acceptOne(mayJoin);
}

void
TcpTransport::closeChannel(uint32_t shard)
{
    if (shard < slots.size() && slots[shard] >= 0) {
        ::close(slots[shard]);
        slots[shard] = -1;
    }
}

void
TcpTransport::shutdown(int reapTimeoutMs)
{
    (void)reapTimeoutMs;   // remote processes reap themselves
    for (int &fd : slots) {
        if (fd >= 0)
            ::close(fd);
        fd = -1;
    }
    if (listenSock >= 0) {
        ::close(listenSock);
        listenSock = -1;
    }
}

// --- Worker-side dialing ---------------------------------------------

int
tcpDial(const std::string &hostPort)
{
    auto [host, service] = splitHostPort(hostPort);

    struct addrinfo hints = {};
    hints.ai_family = AF_UNSPEC;
    hints.ai_socktype = SOCK_STREAM;
    struct addrinfo *res = nullptr;
    int rc = ::getaddrinfo(host.empty() ? "127.0.0.1" : host.c_str(),
                           service.c_str(), &hints, &res);
    if (rc != 0) {
        pe_fatal("cannot resolve '", hostPort,
                 "': ", ::gai_strerror(rc));
    }

    int fd = -1;
    std::string lastErr = "no usable address";
    for (struct addrinfo *ai = res; ai; ai = ai->ai_next) {
        fd = ::socket(ai->ai_family, ai->ai_socktype,
                      ai->ai_protocol);
        if (fd < 0) {
            lastErr = std::strerror(errno);
            continue;
        }
        if (::connect(fd, ai->ai_addr, ai->ai_addrlen) == 0)
            break;
        lastErr = std::strerror(errno);
        ::close(fd);
        fd = -1;
    }
    ::freeaddrinfo(res);
    if (fd < 0) {
        pe_fatal("cannot connect to '", hostPort, "': ", lastErr);
    }
    int one = 1;
    ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
    return fd;
}

} // namespace pe::fleet
