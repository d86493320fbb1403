/**
 * @file
 * Client side of the gfp-serve wire protocol: connect over unix or
 * TCP, then either blocking one-shot call() or the pipelined
 * queue/flush/recv API the load generator uses to keep every server
 * worker busy.
 *
 * Not thread-safe: one Client per thread (the protocol itself is
 * full-duplex per connection; concurrency belongs at the connection
 * level, which is exactly how gfp-loadgen scales).
 */

#ifndef GFP_SERVICE_CLIENT_H
#define GFP_SERVICE_CLIENT_H

#include <cstdint>
#include <string>
#include <vector>

#include "service/wire.h"

namespace gfp::service {

/** One received response: header plus body bytes. */
struct Response
{
    ResponseHeader header;
    std::vector<uint8_t> body;
};

class Client
{
  public:
    Client() = default;
    ~Client();
    Client(const Client &) = delete;
    Client &operator=(const Client &) = delete;
    Client(Client &&other) noexcept;
    Client &operator=(Client &&other) noexcept;

    /** Connect; false (with errno intact) on failure. */
    bool connectUnix(const std::string &path);
    bool connectTcp(const std::string &host, uint16_t port);

    bool connected() const { return fd_ >= 0; }
    void close();

    /** Blocking one-shot: send one request, wait for the response with
     *  the same id (responses for other ids are fatal here — one-shot
     *  callers have none outstanding).  False on socket failure. */
    bool call(const RequestHeader &h, const std::vector<uint8_t> &body,
              Response *out);

    // ---- pipelined mode (gfp-loadgen) ----

    /** Append one request frame to the send buffer (no I/O). */
    void queueRequest(const RequestHeader &h,
                      const std::vector<uint8_t> &body);

    /** Append pre-encoded frame bytes (a frame built once and patched
     *  per send — the loadgen hot path). */
    void queueRaw(const uint8_t *frame, size_t len);

    /** Write out the send buffer.  False on socket failure.  While the
     *  outbound socket is full, incoming frames are drained into the
     *  parse buffer (next recvResponse() returns them without I/O) —
     *  a saturated pipelining client can never deadlock against a
     *  server that is itself blocked writing responses. */
    bool flush();

    /**
     * Receive the next response, blocking up to @p timeout_ms
     * (-1 = forever).  Returns false on timeout, socket close, or
     * protocol error (distinguish with lastError()).
     */
    bool recvResponse(Response *out, int timeout_ms = -1);

    enum class Error { kNone, kTimeout, kClosed, kProtocol };
    Error lastError() const { return last_error_; }

    int fd() const { return fd_; }

  private:
    bool fill(int timeout_ms);

    int fd_ = -1;
    std::vector<uint8_t> sendbuf_;
    FrameReader reader_{kMaxResponseFrame};
    Error last_error_ = Error::kNone;
};

} // namespace gfp::service

#endif // GFP_SERVICE_CLIENT_H
