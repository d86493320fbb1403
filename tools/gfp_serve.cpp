/**
 * @file
 * gfp-serve — the GF-coding service daemon: a long-running front-end
 * over the batch engines speaking the wire protocol of docs/SERVICE.md
 * on a unix socket and/or loopback TCP.
 *
 * Usage:
 *   gfp-serve [options]
 *
 *   --unix PATH         listen on a unix-domain socket at PATH
 *   --tcp PORT          listen on 127.0.0.1:PORT, 0..65535 (0 =
 *                       ephemeral; the bound port is printed).  At
 *                       least one of --unix/--tcp is required
 *   --threads N         request workers, each running whole requests,
 *                       0..256 (default 0 = one per hardware thread)
 *   --dispatch MODE     translated (default) | plain — the engine
 *                       dispatch mode; translated JIT-compiles each
 *                       kernel once and shares it across workers,
 *                       plain single-steps every instruction
 *   --watermark N       admission watermark: reject with retry-after
 *                       once N requests are admitted but not yet
 *                       answered (default 4096)
 *   --max-instrs N      per-job watchdog budget (default 500000000)
 *   --metrics FILE      write the combined stats JSON on exit
 *   --trace FILE        write a Chrome trace_event JSON of request
 *                       spans (pid 3) on exit
 *   --duration SECONDS  serve for a fixed time then drain (default:
 *                       until SIGINT/SIGTERM)
 *   -q, --quiet         suppress status chatter
 *
 * A numeric flag whose value is not a number in its range exits 2
 * while the arguments are parsed, before any listener or worker exists.
 *
 * SIGINT/SIGTERM trigger a graceful drain: listeners close, admitted
 * requests finish and flush, then the process exits 0.
 */

#include <charconv>
#include <chrono>
#include <csignal>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include <unistd.h>

#include "common/trace_event.h"
#include "service/server.h"

using namespace gfp;
using namespace gfp::service;

namespace {

volatile std::sig_atomic_t g_stop = 0;

void
onSignal(int)
{
    g_stop = 1;
}

int
usage(const char *argv0)
{
    std::fprintf(stderr,
                 "usage: %s [--unix PATH] [--tcp PORT] [--threads N]\n"
                 "       [--dispatch translated|plain]\n"
                 "       [--watermark N] [--max-instrs N]\n"
                 "       [--metrics FILE] [--trace FILE]\n"
                 "       [--duration SECONDS] [-q]\n",
                 argv0);
    return 2;
}

/// The value of integer flag @p flag; exits 2 naming the flag and its
/// range unless @p text is a decimal integer in [lo, hi].
uint64_t
parseInteger(const char *flag, const char *text, uint64_t lo, uint64_t hi)
{
    const char *end = text + std::strlen(text);
    uint64_t v = 0;
    const auto [ptr, ec] = std::from_chars(text, end, v);
    if (ec != std::errc() || ptr != end || v < lo || v > hi) {
        std::fprintf(stderr, "%s takes an integer in %llu..%llu, not '%s'\n",
                     flag, static_cast<unsigned long long>(lo),
                     static_cast<unsigned long long>(hi), text);
        std::exit(2);
    }
    return v;
}

} // namespace

int
main(int argc, char **argv)
{
    Server::Options opts;
    std::string metrics_path, trace_path;
    double duration_s = 0;

    for (int i = 1; i < argc; ++i) {
        std::string arg = argv[i];
        auto need = [&](const char *flag) -> const char * {
            if (i + 1 >= argc) {
                std::fprintf(stderr, "%s requires a value\n", flag);
                std::exit(2);
            }
            return argv[++i];
        };
        if (arg == "--unix") {
            opts.unix_path = need("--unix");
        }
        else if (arg == "--tcp") {
            opts.tcp_port = static_cast<uint16_t>(
                parseInteger("--tcp", need("--tcp"), 0, 65535));
        }
        else if (arg == "--threads") {
            opts.engine.threads = static_cast<unsigned>(
                parseInteger("--threads", need("--threads"), 0, 256));
        }
        else if (arg == "--dispatch") {
            if (!parseDispatchMode(need("--dispatch"), opts.engine.dispatch))
                return usage(argv[0]);
        }
        else if (arg == "--watermark") {
            opts.admission_watermark = static_cast<size_t>(parseInteger(
                "--watermark", need("--watermark"), 0, SIZE_MAX));
        }
        else if (arg == "--max-instrs") {
            opts.engine.max_instrs = parseInteger(
                "--max-instrs", need("--max-instrs"), 0, UINT64_MAX);
        }
        else if (arg == "--metrics") {
            metrics_path = need("--metrics");
        }
        else if (arg == "--trace") {
            trace_path = need("--trace");
        }
        else if (arg == "--duration") {
            const char *text = need("--duration");
            char *end = nullptr;
            duration_s = std::strtod(text, &end);
            if (*text == '\0' || *end != '\0' || !(duration_s >= 0)) {
                std::fprintf(stderr,
                             "--duration takes seconds >= 0, not '%s'\n",
                             text);
                return 2;
            }
        }
        else if (arg == "-q" || arg == "--quiet") {
            opts.quiet = true;
        }
        else {
            return usage(argv[0]);
        }
    }
    if (opts.unix_path.empty() && !opts.tcp_port.has_value())
        return usage(argv[0]);

    std::signal(SIGINT, onSignal);
    std::signal(SIGTERM, onSignal);

    TraceLog trace;
    Server server(std::move(opts));
    if (!trace_path.empty())
        server.setTraceLog(&trace);
    server.start();
    if (server.tcpPort())
        std::printf("gfp-serve ready tcp_port=%u\n", server.tcpPort());
    else
        std::printf("gfp-serve ready\n");
    std::fflush(stdout);

    const auto start = std::chrono::steady_clock::now();
    while (!g_stop) {
        usleep(50 * 1000);
        if (duration_s > 0) {
            double elapsed =
                std::chrono::duration<double>(
                    std::chrono::steady_clock::now() - start)
                    .count();
            if (elapsed >= duration_s)
                break;
        }
    }

    server.drain();
    bool consistent = server.countersConsistent();
    if (!metrics_path.empty()) {
        FILE *f = std::fopen(metrics_path.c_str(), "wb");
        if (f) {
            std::string doc = server.statsJson();
            std::fwrite(doc.data(), 1, doc.size(), f);
            std::fclose(f);
        }
    }
    if (!trace_path.empty())
        trace.writeTo(trace_path);
    return consistent ? 0 : 1;
}
