/**
 * @file
 * The gfp-serve server: a long-running front-end that speaks the wire
 * protocol (service/wire.h) over unix-domain and/or TCP listeners and
 * executes request classes (service/request_classes.h) on the batch
 * engines.
 *
 * Threading topology — one worker runs a whole request:
 *
 *  - one accept thread per listener;
 *  - one reader thread per connection: deframes requests, validates,
 *    runs admission control, and enqueues each admitted request on the
 *    server's one request FIFO;
 *  - engine.threads request workers (0 = one per hardware thread): a
 *    worker pops a request, runs all of its hops back to back on its
 *    own machines (one per engine program, built on first use over
 *    that engine's shared translation), checks the deadline after each
 *    hop, and writes the response frame itself.  A slow request (a
 *    long ECDH) holds one worker; the others carry on.
 *
 * Sockets have exactly one framing invariant: any thread may write a
 * *whole* frame under the connection's write lock.  Rejections and
 * control responses are written by the reader thread directly (they
 * must not queue behind compute work — backpressure that waits in the
 * queue it is protecting is not backpressure).
 *
 * Admission control: a request is admitted only while fewer than
 * admission_watermark requests are admitted but not yet answered; past
 * it the request is answered kRejectedBusy with a suggested retry
 * delay derived from the observed per-job service-time EMA.  Overload
 * therefore surfaces as explicit, cheap rejections while admitted work
 * keeps its latency — the request queue never grows without bound.
 *
 * Shutdown is a drain: listeners close, in-flight requests finish and
 * their responses flush, new frames answer kShuttingDown, then reader
 * threads are unblocked and everything joins.  Every admitted request
 * is answered exactly once.
 */

#ifndef GFP_SERVICE_SERVER_H
#define GFP_SERVICE_SERVER_H

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "common/trace_event.h"
#include "engine/metrics.h"
#include "service/request_classes.h"
#include "service/wire.h"

namespace gfp::service {

class Server
{
  public:
    /** Trace pid for service request tracks (guest tracer uses 1, the
     *  batch engine 2). */
    static constexpr int kServicePid = 3;

    struct Options
    {
        /** Unix-socket path to listen on; empty disables. */
        std::string unix_path;

        /** TCP port to listen on (loopback only); nullopt disables,
         *  0 binds an ephemeral port (read it back via tcpPort()). */
        std::optional<uint16_t> tcp_port;

        /** Options shared by all nine engines; threads is the number
         *  of request workers (0 = one per hardware thread). */
        BatchEngine::Options engine;

        /** Admission watermark: reject once this many requests are
         *  admitted but not yet answered. */
        size_t admission_watermark = 4096;

        /** Suppress inform() chatter (tests). */
        bool quiet = false;
    };

    explicit Server(Options opts);

    /** Stops and joins everything (drain semantics; see drain()). */
    ~Server();

    Server(const Server &) = delete;
    Server &operator=(const Server &) = delete;

    /** Open listeners and start the thread topology.  Fatal on bind
     *  errors (bad path, port in use). */
    void start();

    /**
     * Graceful drain: close listeners, answer new frames with
     * kShuttingDown, wait until every admitted request has been
     * answered, then tear down threads.  Idempotent.
     */
    void drain();

    /** Bound TCP port (after start(); useful with tcp_port = 0 for an
     *  ephemeral port). */
    uint16_t tcpPort() const { return bound_tcp_port_; }

    /** Service-level telemetry (request/response counters, per-class
     *  latency histograms).  Engine metrics live on the engines. */
    const Metrics &metrics() const { return metrics_; }

    const EngineSet &engines() const { return *engines_; }

    /** Attach a trace log: one "X" span per request (pid 3, tid =
     *  connection id) plus a queue-depth counter at each enqueue.
     *  Caller keeps @p log alive until drain() returns.  Call before
     *  start(). */
    void setTraceLog(TraceLog *log) { trace_log_ = log; }

    /**
     * The service accounting invariant (meaningful after drain()):
     * every request got exactly one response, and every admitted
     * request terminated ok/trapped/deadline.  Returns false and warns
     * with the discrepancy otherwise.
     */
    bool countersConsistent() const;

    /** The combined stats document served to kStats: service metrics
     *  plus every engine's registry, one JSON object. */
    std::string statsJson() const;

  private:
    struct Connection;

    /** An admitted request waiting for a worker. */
    struct Admitted
    {
        std::shared_ptr<Connection> conn;
        RequestExec ex;
    };

    void acceptLoop(int listen_fd);
    void readerLoop(std::shared_ptr<Connection> conn);
    void workerLoop();

    /** Handle one deframed request payload on the reader thread.
     *  Returns false when the connection must close (protocol error). */
    bool handleFrame(const std::shared_ptr<Connection> &conn,
                     const std::vector<uint8_t> &payload);

    /** Run every hop of @p req on @p machines, then respond. */
    void serve(Admitted &req, EngineMachines &machines);

    /** Serialize and write one response frame; updates counters,
     *  latency histograms and the trace. */
    void respond(const std::shared_ptr<Connection> &conn,
                 const RequestExec &ex, Status status, uint8_t trap_kind,
                 const std::vector<uint8_t> &body);

    /** Write a response for a request that never became a RequestExec
     *  (rejections, malformed frames, control plane).  count_status =
     *  false when the caller already bumped the status counter (the
     *  kStats snapshot self-consistency dance). */
    void respondRaw(const std::shared_ptr<Connection> &conn,
                    const ResponseHeader &h, const uint8_t *body,
                    size_t body_len, bool count_status = true);

    uint32_t retryAfterUs() const;
    double nowUs() const;

    Options opts_;
    std::unique_ptr<EngineSet> engines_;
    Metrics metrics_;
    TraceLog *trace_log_ = nullptr;
    std::chrono::steady_clock::time_point epoch_;

    std::vector<int> listen_fds_;
    std::vector<std::thread> accept_threads_;
    uint16_t bound_tcp_port_ = 0;

    /** Admitted requests not yet taken by a worker; workers wait on
     *  queue_cv_ for a request or stopped_ (set under queue_mu_). */
    std::mutex queue_mu_;
    std::condition_variable queue_cv_;
    std::deque<Admitted> queue_;

    std::mutex conns_mu_;
    std::vector<std::shared_ptr<Connection>> conns_;
    /** Reader threads run detached; this counts the ones still alive so
     *  drain() can wait for them (readers_cv_, under conns_mu_). */
    size_t live_readers_ = 0;
    std::condition_variable readers_cv_;
    std::atomic<uint64_t> next_conn_id_{1};

    /** Admitted-but-unanswered requests: the admission signal, and
     *  drain() waits for zero. */
    std::atomic<size_t> in_flight_{0};
    std::mutex drain_mu_;
    std::condition_variable drain_cv_;

    /** EMA of per-job engine service time, microseconds (feeds
     *  retry-after hints). */
    std::atomic<uint32_t> ema_job_us_{20};

    std::atomic<bool> started_{false};
    std::atomic<bool> draining_{false};
    std::atomic<bool> stopped_{false};

    /** Request workers, started by start(); declared last, after
     *  everything they use. */
    std::vector<std::thread> workers_;
};

} // namespace gfp::service

#endif // GFP_SERVICE_SERVER_H
