#include "service/server.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstring>

#include "common/logging.h"
#include "common/strutil.h"

namespace gfp::service {

namespace {

/** Whole-frame write; MSG_NOSIGNAL so a vanished client is an error
 *  return, not a SIGPIPE. */
bool
sendAll(int fd, const uint8_t *data, size_t len)
{
    while (len > 0) {
        ssize_t n = ::send(fd, data, len, MSG_NOSIGNAL);
        if (n < 0) {
            if (errno == EINTR)
                continue;
            return false;
        }
        data += n;
        len -= static_cast<size_t>(n);
    }
    return true;
}

bool
knownClass(uint8_t raw)
{
    switch (static_cast<RequestClass>(raw)) {
    case RequestClass::kRsSyndrome:
    case RequestClass::kRsBma:
    case RequestClass::kRsChien:
    case RequestClass::kRsForney:
    case RequestClass::kRsDecode:
    case RequestClass::kBchDecode:
    case RequestClass::kAesCtrBlock:
    case RequestClass::kEcdhShared:
    case RequestClass::kRsErasure:
    case RequestClass::kStats:
    case RequestClass::kPing:
        return true;
    }
    return false;
}

std::string
statusCounterName(Status status)
{
    return std::string("responses_") + statusName(status) + "_total";
}

} // namespace

/** One accepted socket.  write_mu serializes whole-frame writes from
 *  the reader (rejections, control) and the workers. */
struct Server::Connection
{
    int fd = -1;
    uint64_t id = 0;
    std::mutex write_mu;
    std::atomic<bool> write_failed{false};

    ~Connection()
    {
        if (fd >= 0)
            ::close(fd);
    }
};

Server::Server(Options opts)
    : opts_(std::move(opts)),
      engines_(std::make_unique<EngineSet>(opts_.engine))
{
}

Server::~Server()
{
    drain();
}

double
Server::nowUs() const
{
    return std::chrono::duration<double, std::micro>(
               std::chrono::steady_clock::now() - epoch_)
        .count();
}

void
Server::start()
{
    GFP_ASSERT(!started_.load(), "Server::start() called twice");
    GFP_ASSERT(!opts_.unix_path.empty() || opts_.tcp_port.has_value(),
               "Server needs at least one listener (unix_path or "
               "tcp_port)");
    epoch_ = std::chrono::steady_clock::now();
    if (trace_log_) {
        trace_log_->processName(kServicePid, "gfp-serve");
    }

    if (!opts_.unix_path.empty()) {
        int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
        if (fd < 0)
            GFP_FATAL("socket(AF_UNIX): %s", std::strerror(errno));
        sockaddr_un addr{};
        addr.sun_family = AF_UNIX;
        if (opts_.unix_path.size() >= sizeof(addr.sun_path))
            GFP_FATAL("unix path too long: %s", opts_.unix_path.c_str());
        std::strncpy(addr.sun_path, opts_.unix_path.c_str(),
                     sizeof(addr.sun_path) - 1);
        if (::bind(fd, reinterpret_cast<sockaddr *>(&addr),
                   sizeof(addr)) < 0) {
            if (errno != EADDRINUSE)
                GFP_FATAL("bind(%s): %s", opts_.unix_path.c_str(),
                          std::strerror(errno));
            // A socket file already exists.  Probe it before stealing
            // the path: a live server accepts the connect; a stale file
            // left by a crashed instance refuses it.
            int probe = ::socket(AF_UNIX, SOCK_STREAM, 0);
            if (probe < 0)
                GFP_FATAL("socket(AF_UNIX): %s", std::strerror(errno));
            int rc = ::connect(probe,
                               reinterpret_cast<sockaddr *>(&addr),
                               sizeof(addr));
            ::close(probe);
            if (rc == 0)
                GFP_FATAL("%s: another server is listening on this "
                          "socket",
                          opts_.unix_path.c_str());
            ::unlink(opts_.unix_path.c_str());
            if (::bind(fd, reinterpret_cast<sockaddr *>(&addr),
                       sizeof(addr)) < 0)
                GFP_FATAL("bind(%s): %s", opts_.unix_path.c_str(),
                          std::strerror(errno));
        }
        if (::listen(fd, 128) < 0)
            GFP_FATAL("listen(%s): %s", opts_.unix_path.c_str(),
                      std::strerror(errno));
        listen_fds_.push_back(fd);
    }
    if (opts_.tcp_port.has_value()) {
        int fd = ::socket(AF_INET, SOCK_STREAM, 0);
        if (fd < 0)
            GFP_FATAL("socket(AF_INET): %s", std::strerror(errno));
        int one = 1;
        ::setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
        sockaddr_in addr{};
        addr.sin_family = AF_INET;
        addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
        addr.sin_port = htons(*opts_.tcp_port);
        if (::bind(fd, reinterpret_cast<sockaddr *>(&addr),
                   sizeof(addr)) < 0)
            GFP_FATAL("bind(tcp %u): %s", *opts_.tcp_port,
                      std::strerror(errno));
        if (::listen(fd, 128) < 0)
            GFP_FATAL("listen(tcp): %s", std::strerror(errno));
        sockaddr_in bound{};
        socklen_t blen = sizeof(bound);
        ::getsockname(fd, reinterpret_cast<sockaddr *>(&bound), &blen);
        bound_tcp_port_ = ntohs(bound.sin_port);
        listen_fds_.push_back(fd);
    }

    // Every engine resolves the same thread count (0 = one per
    // hardware thread); the server runs that many request workers.
    const unsigned workers = engines_->engine(EngineId::kRsSynd).threads();
    for (unsigned w = 0; w < workers; ++w)
        workers_.emplace_back([this] { workerLoop(); });
    for (int fd : listen_fds_)
        accept_threads_.emplace_back([this, fd] { acceptLoop(fd); });

    started_.store(true);
    if (!opts_.quiet) {
        if (!opts_.unix_path.empty())
            GFP_INFORM("gfp-serve listening on unix:%s",
                       opts_.unix_path.c_str());
        if (bound_tcp_port_)
            GFP_INFORM("gfp-serve listening on tcp:127.0.0.1:%u",
                       bound_tcp_port_);
    }
}

void
Server::acceptLoop(int listen_fd)
{
    for (;;) {
        int fd = ::accept(listen_fd, nullptr, nullptr);
        if (fd < 0) {
            if (errno == EINTR)
                continue;
            return; // listener closed (drain)
        }
        auto conn = std::make_shared<Connection>();
        conn->fd = fd;
        conn->id = next_conn_id_.fetch_add(1);
        metrics_.add("connections_total");
        if (trace_log_)
            trace_log_->threadName(kServicePid,
                                   static_cast<int>(conn->id),
                                   strprintf("conn %llu",
                                             static_cast<unsigned long long>(
                                                 conn->id)));
        {
            std::lock_guard<std::mutex> lock(conns_mu_);
            if (draining_.load()) {
                ::close(fd);
                conn->fd = -1;
                return;
            }
            conns_.push_back(conn);
            ++live_readers_;
            metrics_.set("connections_active",
                         static_cast<double>(conns_.size()));
        }
        // Detached: a reader prunes its own connection on exit (it
        // cannot join itself); drain() waits on live_readers_ instead
        // of thread handles.
        std::thread([this, conn] { readerLoop(conn); }).detach();
    }
}

void
Server::readerLoop(std::shared_ptr<Connection> conn)
{
    FrameReader reader(kMaxRequestFrame);
    std::vector<uint8_t> buf(64 * 1024);
    std::vector<uint8_t> payload;
    bool protocol_error = false;
    for (;;) {
        ssize_t n = ::read(conn->fd, buf.data(), buf.size());
        if (n < 0 && errno == EINTR)
            continue;
        if (n <= 0)
            break;
        reader.feed(buf.data(), static_cast<size_t>(n));
        for (;;) {
            auto next = reader.next(&payload);
            if (next == FrameReader::Next::kNeedMore)
                break;
            if (next == FrameReader::Next::kTooBig) {
                metrics_.add("protocol_errors_total");
                protocol_error = true;
                break;
            }
            if (!handleFrame(conn, payload)) {
                protocol_error = true;
                break;
            }
        }
        if (protocol_error)
            break;
    }
    if (protocol_error) {
        // The stream offset is lost — the connection is unrecoverable
        // and docs/SERVICE.md makes the close immediate.  Responses
        // still in flight for this connection lose the race and are
        // dropped by their workers (write_failed), which is exactly
        // what a client that corrupted its own stream must expect.
        ::shutdown(conn->fd, SHUT_RDWR);
    }
    else {
        // EOF from a well-behaved client: stop reading but keep the fd
        // open — workers may still be writing responses for in-flight
        // requests on this connection.  Admitted requests hold
        // shared_ptrs, so the fd closes (Connection dtor) only once the
        // last in-flight response has flushed.
        ::shutdown(conn->fd, SHUT_RD);
    }
    // Prune: drop the server's reference so a churning client does not
    // accumulate dead connections (and their fds) until drain().
    {
        std::lock_guard<std::mutex> lock(conns_mu_);
        conns_.erase(std::remove_if(conns_.begin(), conns_.end(),
                                    [&](const auto &c) {
                                        return c.get() == conn.get();
                                    }),
                     conns_.end());
        metrics_.set("connections_active",
                     static_cast<double>(conns_.size()));
        --live_readers_;
        readers_cv_.notify_all();
    }
}

bool
Server::handleFrame(const std::shared_ptr<Connection> &conn,
                    const std::vector<uint8_t> &payload)
{
    RequestHeader h;
    if (!parseRequestHeader(payload.data(), payload.size(), &h)) {
        metrics_.add("protocol_errors_total");
        return false; // undersized header: framing is suspect, close
    }
    metrics_.add("requests_total");
    const uint8_t *body = payload.data() + kHeaderBytes;
    const size_t body_len = payload.size() - kHeaderBytes;

    ResponseHeader r;
    r.cls = h.cls;
    r.id = h.id;

    if (!knownClass(static_cast<uint8_t>(h.cls))) {
        r.status = Status::kUnknownClass;
        respondRaw(conn, r, nullptr, 0);
        return true;
    }
    if (h.version != kWireVersion || h.flags != 0 ||
        !validateBody(h.cls, body, body_len)) {
        r.status = Status::kBadRequest;
        respondRaw(conn, r, nullptr, 0);
        return true;
    }

    if (!isComputeClass(h.cls)) {
        metrics_.add("control_total");
        r.status = Status::kOk;
        if (h.cls == RequestClass::kStats) {
            // Count this response BEFORE snapshotting, so the served
            // document satisfies the accounting invariants including
            // the stats request itself.
            metrics_.add(statusCounterName(Status::kOk));
            std::string doc = statsJson();
            respondRaw(conn, r,
                       reinterpret_cast<const uint8_t *>(doc.data()),
                       doc.size(), /*count_status=*/false);
        }
        else { // ping: echo
            respondRaw(conn, r, body, body_len);
        }
        return true;
    }

    // Admission control.  The draining check and the in-flight
    // increment share drain_mu_ so drain() can never observe zero
    // in-flight while an admission is mid-decision.
    {
        std::lock_guard<std::mutex> lock(drain_mu_);
        if (draining_.load()) {
            r.status = Status::kShuttingDown;
            respondRaw(conn, r, nullptr, 0);
            return true;
        }
        if (in_flight_.load() >= opts_.admission_watermark) {
            r.status = Status::kRejectedBusy;
            r.aux_us = retryAfterUs();
            respondRaw(conn, r, nullptr, 0);
            return true;
        }
        in_flight_.fetch_add(1);
    }
    metrics_.add("admitted_total");

    Admitted req;
    req.conn = conn;
    req.ex.id = h.id;
    req.ex.cls = h.cls;
    req.ex.deadline_us = h.deadline_us;
    req.ex.arrival = std::chrono::steady_clock::now();
    req.ex.body.assign(body, body + body_len);
    size_t queued;
    {
        std::lock_guard<std::mutex> lock(queue_mu_);
        queue_.push_back(std::move(req));
        queued = queue_.size();
    }
    queue_cv_.notify_one();
    if (trace_log_)
        trace_log_->counter(
            "service queue", nowUs(), kServicePid,
            {{"queued_requests", static_cast<double>(queued)},
             {"in_flight", static_cast<double>(in_flight_.load())}});
    return true;
}

uint32_t
Server::retryAfterUs() const
{
    const uint64_t in_flight = in_flight_.load();
    const uint64_t ema = ema_job_us_.load(std::memory_order_relaxed);
    return static_cast<uint32_t>(
        std::clamp<uint64_t>(in_flight * ema, 100, 5'000'000));
}

void
Server::workerLoop()
{
    EngineMachines machines;
    for (;;) {
        Admitted req;
        {
            std::unique_lock<std::mutex> lock(queue_mu_);
            queue_cv_.wait(lock, [&] {
                return !queue_.empty() || stopped_.load();
            });
            if (queue_.empty())
                return; // stopped and drained
            req = std::move(queue_.front());
            queue_.pop_front();
        }
        serve(req, machines);
    }
}

void
Server::serve(Admitted &req, EngineMachines &machines)
{
    RequestExec &ex = req.ex;
    StepResult step = advance(*engines_, ex, nullptr);
    while (!step.done) {
        const JobResult res = runHop(*engines_, machines, step);

        const uint32_t host_us = static_cast<uint32_t>(
            std::min(res.host_seconds * 1e6, 1e9));
        uint32_t ema = ema_job_us_.load(std::memory_order_relaxed);
        while (!ema_job_us_.compare_exchange_weak(
            ema, (7 * ema + host_us) / 8, std::memory_order_relaxed))
            ;

        if (ex.deadline_us != 0) {
            const double elapsed_us =
                std::chrono::duration<double, std::micro>(
                    std::chrono::steady_clock::now() - ex.arrival)
                    .count();
            if (elapsed_us > ex.deadline_us) {
                respond(req.conn, ex, Status::kDeadlineExpired, 0, {});
                return;
            }
        }
        step = advance(*engines_, ex, &res);
    }
    respond(req.conn, ex, step.status, step.trap_kind, step.response);
}

void
Server::respond(const std::shared_ptr<Connection> &conn,
                const RequestExec &ex, Status status, uint8_t trap_kind,
                const std::vector<uint8_t> &body)
{
    const double latency_us =
        std::chrono::duration<double, std::micro>(
            std::chrono::steady_clock::now() - ex.arrival)
            .count();

    ResponseHeader h;
    h.status = status;
    h.cls = ex.cls;
    h.trap_kind = trap_kind;
    h.aux_us = static_cast<uint32_t>(std::min(latency_us, 4e9));
    h.id = ex.id;

    // Counters first, then the frame (respondRaw counts the status
    // before it sends): a client that has received this response must
    // find it already counted in a kStats snapshot.
    metrics_.observe(strprintf("class_%s_latency_us",
                               requestClassName(ex.cls)),
                     latency_us);
    respondRaw(conn, h, body.data(), body.size());
    if (trace_log_) {
        const double end_us =
            std::chrono::duration<double, std::micro>(
                std::chrono::steady_clock::now() - epoch_)
                .count();
        TraceLog::Args args{{"status", statusName(status)}};
        if (status == Status::kTrapped)
            args.emplace_back("trap",
                              trapKindName(static_cast<TrapKind>(
                                  trap_kind)));
        trace_log_->complete(requestClassName(ex.cls), "service",
                             end_us - latency_us, latency_us,
                             kServicePid, static_cast<int>(conn->id),
                             std::move(args));
    }

    if (in_flight_.fetch_sub(1) == 1) {
        std::lock_guard<std::mutex> lock(drain_mu_);
        drain_cv_.notify_all();
    }
}

void
Server::respondRaw(const std::shared_ptr<Connection> &conn,
                   const ResponseHeader &h, const uint8_t *body,
                   size_t body_len, bool count_status)
{
    if (count_status)
        metrics_.add(statusCounterName(h.status));
    std::vector<uint8_t> frame;
    frame.reserve(4 + kHeaderBytes + body_len);
    appendResponseFrame(frame, h, body, body_len);
    {
        std::lock_guard<std::mutex> lock(conn->write_mu);
        if (!conn->write_failed.load() &&
            !sendAll(conn->fd, frame.data(), frame.size())) {
            conn->write_failed.store(true);
            metrics_.add("write_failures_total");
        }
    }
}

void
Server::drain()
{
    if (!started_.load() || stopped_.load())
        return;
    {
        std::lock_guard<std::mutex> lock(drain_mu_);
        draining_.store(true);
    }
    // Close listeners: accept loops exit, no new connections.
    for (int fd : listen_fds_)
        ::shutdown(fd, SHUT_RDWR);
    for (auto &t : accept_threads_)
        t.join();
    for (int fd : listen_fds_)
        ::close(fd);
    listen_fds_.clear();

    // Every admitted request completes and flushes its response;
    // readers keep answering new frames with kShuttingDown meanwhile.
    {
        std::unique_lock<std::mutex> lock(drain_mu_);
        drain_cv_.wait(lock, [&] { return in_flight_.load() == 0; });
    }

    // Stop the workers (the request queue is empty now: zero
    // in-flight means nothing left to serve).
    {
        std::lock_guard<std::mutex> lock(queue_mu_);
        stopped_.store(true);
    }
    queue_cv_.notify_all();
    for (auto &t : workers_)
        t.join();

    // Unblock the readers (they prune their own connections on exit)
    // and wait for the last of them to go.
    std::vector<std::shared_ptr<Connection>> conns;
    {
        std::lock_guard<std::mutex> lock(conns_mu_);
        conns = conns_;
    }
    for (auto &conn : conns)
        ::shutdown(conn->fd, SHUT_RDWR);
    conns.clear();
    {
        std::unique_lock<std::mutex> lock(conns_mu_);
        readers_cv_.wait(lock, [&] { return live_readers_ == 0; });
    }
    metrics_.set("connections_active", 0);

    if (!opts_.unix_path.empty())
        ::unlink(opts_.unix_path.c_str());
    if (!opts_.quiet)
        GFP_INFORM("gfp-serve drained");
}

bool
Server::countersConsistent() const
{
    const double requests = metrics_.counter("requests_total");
    const double admitted = metrics_.counter("admitted_total");
    const double control = metrics_.counter("control_total");
    const double ok = metrics_.counter("responses_ok_total");
    const double trapped = metrics_.counter("responses_trapped_total");
    const double rejected =
        metrics_.counter("responses_rejected_busy_total");
    const double bad = metrics_.counter("responses_bad_request_total");
    const double deadline =
        metrics_.counter("responses_deadline_expired_total");
    const double shutting =
        metrics_.counter("responses_shutting_down_total");
    const double unknown =
        metrics_.counter("responses_unknown_class_total");

    bool consistent = true;
    if (requests !=
        admitted + control + rejected + bad + shutting + unknown) {
        GFP_WARN("request accounting off: %.0f requests vs %.0f "
                 "admitted + %.0f control + %.0f rejected + %.0f bad + "
                 "%.0f shutdown + %.0f unknown",
                 requests, admitted, control, rejected, bad, shutting,
                 unknown);
        consistent = false;
    }
    // Control responses carry kOk too; the compute share must balance.
    if (admitted != (ok - control) + trapped + deadline) {
        GFP_WARN("admission accounting off: %.0f admitted vs %.0f "
                 "compute-ok + %.0f trapped + %.0f deadline",
                 admitted, ok - control, trapped, deadline);
        consistent = false;
    }
    if (in_flight_.load() != 0) {
        GFP_WARN("%zu requests still in flight", in_flight_.load());
        consistent = false;
    }
    return consistent;
}

std::string
Server::statsJson() const
{
    std::string out = "{\n\"service\": ";
    out += metrics_.toJson();
    out += ",\n\"engines\": {\n";
    for (unsigned e = 0; e < EngineSet::count(); ++e) {
        out += strprintf("\"%s\": ",
                         engineName(static_cast<EngineId>(e)));
        out += engines_->engine(static_cast<EngineId>(e))
                   .metrics()
                   .toJson();
        if (e + 1 < EngineSet::count())
            out += ",\n";
    }
    out += "}\n}\n";
    return out;
}

} // namespace gfp::service
