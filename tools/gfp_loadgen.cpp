/**
 * @file
 * gfp-loadgen — load generator for gfp-serve (docs/SERVICE.md).
 *
 * Usage:
 *   gfp-loadgen (--unix PATH | --tcp PORT | --direct THREADS) [options]
 *
 *   --direct THREADS    no server: THREADS (1..64) threads each run
 *                       whole requests back to back on an in-process
 *                       EngineSet, as gfp-serve's workers do, over the
 *                       same request pool and with the same JSON — the
 *                       direct rate served throughput is compared
 *                       against (closed loop only; the window is moot)
 *   --class NAME        rs_syndrome | rs_decode | bch_decode |
 *                       aes_ctr_block | ecdh_shared | rs_erasure | mix
 *                       (default rs_syndrome; mix round-robins the
 *                       coding + AES classes)
 *   --closed-loop W     closed loop with W outstanding requests
 *                       (default mode, W = 64): every response is
 *                       immediately replaced, measuring saturated
 *                       throughput
 *   --open-loop RATE    constant-rate open loop at RATE requests/s:
 *                       arrivals do not wait for responses, measuring
 *                       latency under offered load
 *   --ge G,B,RG,RB      Gilbert-Elliott bursty open loop: mean
 *                       good/bad sojourn seconds G and B, per-state
 *                       Poisson rates RG and RB requests/s — the
 *                       burst-arrival regime of docs/EXPERIMENTS.md
 *   --duration S        run length in seconds (default 5)
 *   --requests N        stop after N responses (0 = duration-bound)
 *   --deadline-us N     per-request deadline passed to the server
 *   --verify            check every OK response body against the host
 *                       reference codec (bit-identity)
 *   --seed N            workload RNG seed (default 1)
 *   --json FILE         write a results JSON document
 *   --stats             fetch server stats (kStats) after the run,
 *                       embed them in the JSON, and check the service
 *                       accounting invariants (requires being the only
 *                       client)
 *   -q, --quiet         suppress the human-readable summary
 *
 * Exit status: 0 clean, 1 verification or invariant failure,
 * 2 usage/connect errors.
 *
 * The hot path pre-encodes a pool of distinct request frames per class
 * and patches only the 8-byte id per send, so the generator saturates
 * the server rather than itself.
 */

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <functional>
#include <string>
#include <thread>
#include <vector>

#include "coding/bch.h"
#include "coding/channel.h"
#include "common/logging.h"
#include "coding/decoder_kernels.h"
#include "coding/rs.h"
#include "common/random.h"
#include "common/strutil.h"
#include "crypto/aes.h"
#include "crypto/ecc.h"
#include "service/client.h"
#include "service/request_classes.h"

using namespace gfp;
using namespace gfp::service;

namespace {

/** Offset of the id field inside a full frame (4B length prefix + 8B
 *  into the request header). */
constexpr size_t kIdOffset = 12;

struct PreparedRequest
{
    RequestClass cls;
    std::vector<uint8_t> body;     ///< request body (--direct runs it)
    std::vector<uint8_t> frame;    ///< full frame, id patched per send
    std::vector<uint8_t> expected; ///< expected OK response body
};

struct Cli
{
    std::string unix_path;
    uint16_t tcp_port = 0;
    unsigned direct_threads = 0; ///< > 0: in-process EngineSet, no socket
    std::string cls = "rs_syndrome";
    size_t window = 64;
    bool closed_loop = true;
    double rate_hz = 0;
    bool use_ge = false;
    double ge_good_s = 1.0, ge_bad_s = 0.2;
    double ge_rate_good = 0, ge_rate_bad = 0;
    double duration_s = 5;
    uint64_t max_requests = 0;
    uint32_t deadline_us = 0;
    bool verify = false;
    uint64_t seed = 1;
    std::string json_path;
    bool stats = false;
    bool quiet = false;
};

int
usage(const char *argv0)
{
    std::fprintf(
        stderr,
        "usage: %s (--unix PATH | --tcp PORT | --direct THREADS)\n"
        "       [--class NAME]\n"
        "       [--closed-loop W | --open-loop RATE | --ge G,B,RG,RB]\n"
        "       [--duration S] [--requests N] [--deadline-us N]\n"
        "       [--verify] [--seed N] [--json FILE] [--stats] [-q]\n",
        argv0);
    return 2;
}

std::vector<uint8_t>
gf2xBytes(const Gf2x &v)
{
    auto words = v.toWords32(8);
    std::vector<uint8_t> out;
    out.reserve(32);
    for (uint32_t w : words)
        for (unsigned b = 0; b < 4; ++b)
            out.push_back(static_cast<uint8_t>(w >> (8 * b)));
    return out;
}

/** Build @p count distinct requests of @p cls with known-good expected
 *  responses. */
std::vector<PreparedRequest>
buildWorkload(RequestClass cls, unsigned count, uint64_t seed,
              uint32_t deadline_us)
{
    std::vector<PreparedRequest> pool;
    pool.reserve(count);
    Rng rng(seed);
    GFField f8(8);
    RSCode rs(8, 8);
    BCHCode bch(5, 5);

    for (unsigned i = 0; i < count; ++i) {
        PreparedRequest req;
        req.cls = cls;
        std::vector<uint8_t> body;
        switch (cls) {
        case RequestClass::kRsSyndrome: {
            std::vector<GFElem> info(rs.k());
            for (auto &s : info)
                s = rng.nextByte();
            ExactErrorInjector inj(seed + i);
            auto rx = inj.corruptSymbols(rs.encode(info), i % 9, 8);
            std::vector<uint8_t> rxb(rx.begin(), rx.end());
            body = rsSyndromeBody(rxb);
            auto synd = syndromes(f8, rx, 2 * rs.t());
            req.expected.assign(synd.begin(), synd.end());
            break;
        }
        case RequestClass::kRsDecode: {
            std::vector<GFElem> info(rs.k());
            for (auto &s : info)
                s = rng.nextByte();
            auto cw = rs.encode(info);
            ExactErrorInjector inj(seed + i);
            auto rx = inj.corruptSymbols(cw, i % (rs.t() + 1), 8);
            std::vector<uint8_t> rxb(rx.begin(), rx.end());
            body = rsDecodeBody(rxb);
            req.expected.push_back(1);
            req.expected.insert(req.expected.end(), cw.begin(),
                                cw.end());
            break;
        }
        case RequestClass::kBchDecode: {
            std::vector<uint8_t> info(bch.k());
            for (auto &b : info)
                b = static_cast<uint8_t>(rng.below(2));
            auto cw = bch.encode(info);
            ExactErrorInjector inj(seed + i);
            auto rx = inj.flipBits(cw, i % (bch.t() + 1));
            body = bchDecodeBody(rx);
            req.expected.push_back(1);
            req.expected.insert(req.expected.end(), cw.begin(),
                                cw.end());
            break;
        }
        case RequestClass::kAesCtrBlock: {
            std::vector<uint8_t> key(16);
            for (auto &b : key)
                b = rng.nextByte();
            Aes aes(key);
            std::vector<uint8_t> rkeys;
            for (uint32_t word : aes.roundKeys())
                for (int b = 3; b >= 0; --b)
                    rkeys.push_back(static_cast<uint8_t>(word >> (8 * b)));
            AesBlock counter;
            for (auto &b : counter)
                b = rng.nextByte();
            body = aesCtrBlockBody(
                rkeys, std::vector<uint8_t>(counter.begin(),
                                            counter.end()));
            AesBlock ks = aes.encryptBlock(counter);
            req.expected.assign(ks.begin(), ks.end());
            break;
        }
        case RequestClass::kEcdhShared: {
            // Short scalars keep per-request service time in the tens
            // of point operations; the class itself allows up to
            // kMaxScalarBits.
            EllipticCurve curve = EllipticCurve::nist("K-233");
            Gf2x k(1 + (rng.next64() & 0xffffffffull));
            EcPoint res = curve.scalarMult(k, curve.basePoint());
            auto kw = gf2xBytes(k);
            kw.resize(16);
            body = ecdhSharedBody(gf2xBytes(curve.basePoint().x),
                                  gf2xBytes(curve.basePoint().y), kw,
                                  k.bitLength());
            req.expected = gf2xBytes(res.x);
            auto ry = gf2xBytes(res.y);
            req.expected.insert(req.expected.end(), ry.begin(),
                                ry.end());
            break;
        }
        case RequestClass::kRsErasure: {
            std::vector<GFElem> info(rs.k());
            for (auto &s : info)
                s = rng.nextByte();
            auto cw = rs.encode(info);
            ExactErrorInjector inj(seed + i);
            unsigned e = 1 + i % kMaxErasures;
            auto positions = inj.pickPositions(rs.n(), e);
            auto rx = cw;
            for (unsigned pos : positions)
                rx[pos] ^= static_cast<GFElem>(1 + rng.below(255));
            std::vector<uint8_t> rxb(rx.begin(), rx.end());
            body = rsErasureBody(
                rxb, std::vector<uint8_t>(positions.begin(),
                                          positions.end()));
            req.expected.push_back(1);
            req.expected.insert(req.expected.end(), cw.begin(),
                                cw.end());
            break;
        }
        default:
            GFP_FATAL("buildWorkload: unsupported class %s",
                      requestClassName(cls));
        }

        RequestHeader h;
        h.cls = cls;
        h.deadline_us = deadline_us;
        h.id = 0; // patched per send
        appendRequestFrame(req.frame, h, body.data(), body.size());
        req.body = std::move(body);
        pool.push_back(std::move(req));
    }
    return pool;
}

/** First "name": value occurrence in a (flat) metrics JSON document. */
double
extractCounter(const std::string &doc, const std::string &name)
{
    const std::string needle = "\"" + name + "\":";
    size_t pos = doc.find(needle);
    if (pos == std::string::npos)
        return 0;
    return std::atof(doc.c_str() + pos + needle.size());
}

double
quantileExact(std::vector<double> &sorted, double q)
{
    if (sorted.empty())
        return 0;
    size_t idx = static_cast<size_t>(q * (sorted.size() - 1));
    return sorted[idx];
}

struct Tally
{
    uint64_t sent = 0;
    uint64_t completed = 0;
    uint64_t ok = 0;
    uint64_t rejected = 0;
    uint64_t trapped = 0;
    uint64_t deadline = 0;
    uint64_t shutdown = 0;
    uint64_t other = 0;
    uint64_t verify_failures = 0;
    std::vector<double> latency_us;
};

/** The "mode" reported in the summary and the JSON document. */
const char *
modeName(const Cli &cli)
{
    if (cli.direct_threads)
        return "direct";
    if (cli.closed_loop)
        return "closed-loop";
    return cli.use_ge ? "ge-burst" : "open-loop";
}

/**
 * The request path of gfp-serve without the socket, the wire codec and
 * the request queue: THREADS threads each take the next request of the
 * pool and run all of its hops back to back on their own machines
 * (runHop()), as a server worker does.  Returns the elapsed seconds of
 * the loop (engine set-up excluded).
 */
double
runDirect(const Cli &cli, const std::vector<PreparedRequest> &pool,
          Tally &tally)
{
    EngineSet engines{BatchEngine::Options()};
    std::atomic<uint64_t> next{0};
    const auto epoch = std::chrono::steady_clock::now();
    auto now_s = [&] {
        return std::chrono::duration<double>(
                   std::chrono::steady_clock::now() - epoch)
            .count();
    };
    auto worker = [&](Tally &t) {
        EngineMachines machines;
        for (;;) {
            const uint64_t i = next.fetch_add(1);
            if ((cli.max_requests && i >= cli.max_requests) ||
                now_s() >= cli.duration_s)
                return;
            const PreparedRequest &req = pool[i % pool.size()];
            const double t0 = now_s();
            RequestExec ex;
            ex.cls = req.cls;
            ex.body = req.body;
            StepResult step = advance(engines, ex, nullptr);
            while (!step.done) {
                const JobResult res = runHop(engines, machines, step);
                step = advance(engines, ex, &res);
            }
            ++t.sent;
            ++t.completed;
            t.latency_us.push_back((now_s() - t0) * 1e6);
            if (step.status != Status::kOk) {
                ++t.trapped;
                continue;
            }
            ++t.ok;
            if (cli.verify && step.response != req.expected)
                ++t.verify_failures;
        }
    };

    std::vector<Tally> tallies(cli.direct_threads);
    std::vector<std::thread> threads;
    for (Tally &t : tallies)
        threads.emplace_back(worker, std::ref(t));
    for (std::thread &th : threads)
        th.join();
    for (const Tally &t : tallies) {
        tally.sent += t.sent;
        tally.completed += t.completed;
        tally.ok += t.ok;
        tally.trapped += t.trapped;
        tally.verify_failures += t.verify_failures;
        tally.latency_us.insert(tally.latency_us.end(),
                                t.latency_us.begin(), t.latency_us.end());
    }
    return now_s();
}

/** Print the summary, write the JSON document, and pick the exit
 *  status. */
int
report(const Cli &cli, Tally &tally, double elapsed_s,
       double ge_bad_fraction, const std::string &server_stats,
       bool invariant_ok)
{
    std::sort(tally.latency_us.begin(), tally.latency_us.end());
    const double p50 = quantileExact(tally.latency_us, 0.50);
    const double p90 = quantileExact(tally.latency_us, 0.90);
    const double p99 = quantileExact(tally.latency_us, 0.99);
    const double lat_max =
        tally.latency_us.empty() ? 0 : tally.latency_us.back();
    double lat_sum = 0;
    for (double v : tally.latency_us)
        lat_sum += v;
    const double lat_mean =
        tally.latency_us.empty() ? 0
                                 : lat_sum / tally.latency_us.size();
    const double throughput =
        elapsed_s > 0 ? static_cast<double>(tally.ok) / elapsed_s : 0;

    if (!cli.quiet) {
        std::printf("gfp-loadgen: class=%s mode=%s elapsed=%.2fs\n",
                    cli.cls.c_str(), modeName(cli), elapsed_s);
        std::printf(
            "  sent=%llu completed=%llu ok=%llu rejected=%llu "
            "trapped=%llu deadline=%llu shutdown=%llu other=%llu\n",
            static_cast<unsigned long long>(tally.sent),
            static_cast<unsigned long long>(tally.completed),
            static_cast<unsigned long long>(tally.ok),
            static_cast<unsigned long long>(tally.rejected),
            static_cast<unsigned long long>(tally.trapped),
            static_cast<unsigned long long>(tally.deadline),
            static_cast<unsigned long long>(tally.shutdown),
            static_cast<unsigned long long>(tally.other));
        std::printf("  throughput=%.0f ok-responses/s\n", throughput);
        std::printf(
            "  latency_us: p50=%.0f p90=%.0f p99=%.0f mean=%.0f "
            "max=%.0f\n",
            p50, p90, p99, lat_mean, lat_max);
        if (cli.use_ge)
            std::printf("  ge bad-state fraction=%.3f\n",
                        ge_bad_fraction);
        if (cli.verify)
            std::printf("  verify failures=%llu\n",
                        static_cast<unsigned long long>(
                            tally.verify_failures));
    }

    if (!cli.json_path.empty()) {
        FILE *f = std::fopen(cli.json_path.c_str(), "wb");
        if (!f) {
            std::fprintf(stderr, "cannot write %s\n",
                         cli.json_path.c_str());
            return 2;
        }
        std::string doc = "{\n";
        doc += strprintf("  \"tool\": \"gfp-loadgen\",\n");
        doc += strprintf("  \"class\": \"%s\",\n", cli.cls.c_str());
        doc += strprintf("  \"mode\": \"%s\",\n", modeName(cli));
        if (cli.direct_threads)
            doc += strprintf("  \"threads\": %u,\n", cli.direct_threads);
        if (cli.closed_loop)
            doc += strprintf("  \"window\": %zu,\n", cli.window);
        else if (cli.use_ge)
            doc += strprintf(
                "  \"ge\": {\"mean_good_s\": %g, \"mean_bad_s\": %g, "
                "\"rate_good_hz\": %g, \"rate_bad_hz\": %g, "
                "\"bad_fraction\": %.4f},\n",
                cli.ge_good_s, cli.ge_bad_s, cli.ge_rate_good,
                cli.ge_rate_bad, ge_bad_fraction);
        else
            doc += strprintf("  \"rate_hz\": %g,\n", cli.rate_hz);
        doc += strprintf("  \"elapsed_s\": %.3f,\n", elapsed_s);
        doc += strprintf("  \"sent\": %llu,\n",
                         static_cast<unsigned long long>(tally.sent));
        doc += strprintf(
            "  \"completed\": %llu,\n",
            static_cast<unsigned long long>(tally.completed));
        doc += strprintf("  \"ok\": %llu,\n",
                         static_cast<unsigned long long>(tally.ok));
        doc += strprintf(
            "  \"rejected\": %llu,\n",
            static_cast<unsigned long long>(tally.rejected));
        doc += strprintf(
            "  \"trapped\": %llu,\n",
            static_cast<unsigned long long>(tally.trapped));
        doc += strprintf(
            "  \"deadline_expired\": %llu,\n",
            static_cast<unsigned long long>(tally.deadline));
        doc += strprintf(
            "  \"verify_failures\": %llu,\n",
            static_cast<unsigned long long>(tally.verify_failures));
        doc += strprintf("  \"throughput_ok_rps\": %.1f,\n", throughput);
        doc += strprintf(
            "  \"latency_us\": {\"count\": %zu, \"p50\": %.1f, "
            "\"p90\": %.1f, \"p99\": %.1f, \"mean\": %.1f, "
            "\"max\": %.1f}",
            tally.latency_us.size(), p50, p90, p99, lat_mean, lat_max);
        if (!server_stats.empty()) {
            doc += ",\n  \"server_stats\": ";
            doc += server_stats;
        }
        doc += "\n}\n";
        std::fwrite(doc.data(), 1, doc.size(), f);
        std::fclose(f);
    }

    if (tally.verify_failures || !invariant_ok)
        return 1;
    return 0;
}

} // namespace

int
main(int argc, char **argv)
{
    Cli cli;
    for (int i = 1; i < argc; ++i) {
        std::string arg = argv[i];
        auto need = [&](const char *flag) -> const char * {
            if (i + 1 >= argc) {
                std::fprintf(stderr, "%s requires a value\n", flag);
                std::exit(2);
            }
            return argv[++i];
        };
        if (arg == "--unix")
            cli.unix_path = need("--unix");
        else if (arg == "--tcp")
            cli.tcp_port = static_cast<uint16_t>(std::atoi(need("--tcp")));
        else if (arg == "--direct") {
            const int threads = std::atoi(need("--direct"));
            if (threads < 1 || threads > 64)
                return usage(argv[0]);
            cli.direct_threads = static_cast<unsigned>(threads);
        }
        else if (arg == "--class")
            cli.cls = need("--class");
        else if (arg == "--closed-loop") {
            cli.closed_loop = true;
            cli.window = static_cast<size_t>(std::atoll(need("--closed-loop")));
        }
        else if (arg == "--open-loop") {
            cli.closed_loop = false;
            cli.rate_hz = std::atof(need("--open-loop"));
        }
        else if (arg == "--ge") {
            cli.closed_loop = false;
            cli.use_ge = true;
            if (std::sscanf(need("--ge"), "%lf,%lf,%lf,%lf",
                            &cli.ge_good_s, &cli.ge_bad_s,
                            &cli.ge_rate_good, &cli.ge_rate_bad) != 4)
                return usage(argv[0]);
        }
        else if (arg == "--duration")
            cli.duration_s = std::atof(need("--duration"));
        else if (arg == "--requests")
            cli.max_requests =
                static_cast<uint64_t>(std::atoll(need("--requests")));
        else if (arg == "--deadline-us")
            cli.deadline_us =
                static_cast<uint32_t>(std::atoll(need("--deadline-us")));
        else if (arg == "--verify")
            cli.verify = true;
        else if (arg == "--seed")
            cli.seed = static_cast<uint64_t>(std::atoll(need("--seed")));
        else if (arg == "--json")
            cli.json_path = need("--json");
        else if (arg == "--stats")
            cli.stats = true;
        else if (arg == "-q" || arg == "--quiet")
            cli.quiet = true;
        else
            return usage(argv[0]);
    }
    const bool direct = cli.direct_threads > 0;
    if (direct == (!cli.unix_path.empty() || cli.tcp_port != 0))
        return usage(argv[0]); // exactly one target
    if (direct && (!cli.closed_loop || cli.stats))
        return usage(argv[0]);

    // Workload pool: the mix rotates the coding + AES classes.
    std::vector<RequestClass> classes;
    if (cli.cls == "mix")
        classes = {RequestClass::kRsSyndrome, RequestClass::kRsDecode,
                   RequestClass::kBchDecode, RequestClass::kAesCtrBlock,
                   RequestClass::kRsErasure};
    else if (cli.cls == "rs_syndrome")
        classes = {RequestClass::kRsSyndrome};
    else if (cli.cls == "rs_decode")
        classes = {RequestClass::kRsDecode};
    else if (cli.cls == "bch_decode")
        classes = {RequestClass::kBchDecode};
    else if (cli.cls == "aes_ctr_block")
        classes = {RequestClass::kAesCtrBlock};
    else if (cli.cls == "ecdh_shared")
        classes = {RequestClass::kEcdhShared};
    else if (cli.cls == "rs_erasure")
        classes = {RequestClass::kRsErasure};
    else
        return usage(argv[0]);

    std::vector<PreparedRequest> pool;
    const unsigned per_class = cli.cls == "mix" ? 32 : 128;
    for (size_t c = 0; c < classes.size(); ++c) {
        auto part = buildWorkload(classes[c], per_class,
                                  cli.seed + 1000 * c, cli.deadline_us);
        for (auto &req : part)
            pool.push_back(std::move(req));
    }

    if (direct) {
        Tally tally;
        const double elapsed_s = runDirect(cli, pool, tally);
        return report(cli, tally, elapsed_s, 0, "", true);
    }

    Client client;
    bool connected = !cli.unix_path.empty()
                         ? client.connectUnix(cli.unix_path)
                         : client.connectTcp("127.0.0.1", cli.tcp_port);
    if (!connected) {
        std::fprintf(stderr, "gfp-loadgen: connect failed: %s\n",
                     std::strerror(errno));
        return 2;
    }

    Tally tally;
    std::vector<double> send_time; // indexed by request id
    send_time.reserve(1 << 20);
    send_time.push_back(0); // id 0 unused

    const auto epoch = std::chrono::steady_clock::now();
    auto now_s = [&] {
        return std::chrono::duration<double>(
                   std::chrono::steady_clock::now() - epoch)
            .count();
    };

    auto sendOne = [&] {
        const uint64_t id = send_time.size();
        PreparedRequest &req = pool[id % pool.size()];
        // Patch the id in the pre-encoded frame.
        for (unsigned b = 0; b < 8; ++b)
            req.frame[kIdOffset + b] =
                static_cast<uint8_t>(id >> (8 * b));
        client.queueRaw(req.frame.data(), req.frame.size());
        send_time.push_back(now_s());
        ++tally.sent;
    };

    auto process = [&](const Response &r) {
        ++tally.completed;
        if (r.header.id < send_time.size())
            tally.latency_us.push_back(
                (now_s() - send_time[r.header.id]) * 1e6);
        switch (r.header.status) {
        case Status::kOk: {
            ++tally.ok;
            if (cli.verify) {
                const PreparedRequest &req =
                    pool[r.header.id % pool.size()];
                if (r.body != req.expected) {
                    ++tally.verify_failures;
                    if (tally.verify_failures <= 5)
                        std::fprintf(stderr,
                                     "verify failed: id=%llu class=%s\n",
                                     static_cast<unsigned long long>(
                                         r.header.id),
                                     requestClassName(req.cls));
                }
            }
            break;
        }
        case Status::kRejectedBusy:
            ++tally.rejected;
            break;
        case Status::kTrapped:
            ++tally.trapped;
            break;
        case Status::kDeadlineExpired:
            ++tally.deadline;
            break;
        case Status::kShuttingDown:
            ++tally.shutdown;
            break;
        default:
            ++tally.other;
            break;
        }
    };

    auto doneSending = [&] {
        return (cli.max_requests &&
                tally.sent >= cli.max_requests) ||
               now_s() >= cli.duration_s;
    };

    double ge_bad_fraction = 0;
    Response resp;
    if (cli.closed_loop) {
        for (size_t i = 0; i < cli.window && !doneSending(); ++i)
            sendOne();
        client.flush();
        while (tally.completed < tally.sent) {
            if (!client.recvResponse(&resp, 10'000)) {
                std::fprintf(stderr, "gfp-loadgen: recv failed\n");
                break;
            }
            process(resp);
            uint64_t drained = 1;
            while (client.recvResponse(&resp, 0)) {
                process(resp);
                ++drained;
            }
            if (!doneSending()) {
                for (uint64_t i = 0; i < drained && !doneSending(); ++i)
                    sendOne();
                client.flush();
            }
        }
    }
    else {
        // Open loop: arrivals from a constant-rate schedule or the
        // Gilbert-Elliott bursty trace, sent when due regardless of
        // completions.
        std::vector<double> arrivals;
        if (cli.use_ge) {
            GilbertElliottArrivals gen(cli.ge_good_s, cli.ge_bad_s,
                                       cli.ge_rate_good, cli.ge_rate_bad,
                                       cli.seed);
            arrivals = gen.generate(cli.duration_s);
            ge_bad_fraction = gen.badFraction();
        }
        else {
            if (cli.rate_hz <= 0)
                return usage(argv[0]);
            for (double t = 0; t < cli.duration_s; t += 1.0 / cli.rate_hz)
                arrivals.push_back(t);
        }
        if (cli.max_requests && arrivals.size() > cli.max_requests)
            arrivals.resize(cli.max_requests);

        size_t next = 0;
        while (next < arrivals.size()) {
            const double now = now_s();
            size_t queued = 0;
            while (next < arrivals.size() && arrivals[next] <= now) {
                sendOne();
                ++next;
                ++queued;
            }
            if (queued)
                client.flush();
            while (client.recvResponse(&resp, 0))
                process(resp);
            if (next < arrivals.size()) {
                const double wait_s = arrivals[next] - now_s();
                if (wait_s > 0)
                    client.recvResponse(
                        &resp, static_cast<int>(wait_s * 1000));
                // A frame may have arrived during the wait.
                if (client.lastError() == Client::Error::kNone)
                    process(resp);
            }
        }
        // Drain stragglers.
        while (tally.completed < tally.sent &&
               client.recvResponse(&resp, 5'000))
            process(resp);
    }
    const double elapsed_s = now_s();

    // Optional server-stats fetch + accounting invariant check.
    std::string server_stats;
    bool invariant_ok = true;
    if (cli.stats) {
        RequestHeader h;
        h.cls = RequestClass::kStats;
        h.id = send_time.size();
        if (client.call(h, {}, &resp) &&
            resp.header.status == Status::kOk) {
            server_stats.assign(resp.body.begin(), resp.body.end());
            const double requests =
                extractCounter(server_stats, "requests_total");
            const double admitted =
                extractCounter(server_stats, "admitted_total");
            const double control =
                extractCounter(server_stats, "control_total");
            const double s_ok =
                extractCounter(server_stats, "responses_ok_total");
            const double s_rej = extractCounter(
                server_stats, "responses_rejected_busy_total");
            const double s_trap =
                extractCounter(server_stats, "responses_trapped_total");
            const double s_dead = extractCounter(
                server_stats, "responses_deadline_expired_total");
            const double s_bad = extractCounter(
                server_stats, "responses_bad_request_total");
            const double s_shut = extractCounter(
                server_stats, "responses_shutting_down_total");
            const double s_unk = extractCounter(
                server_stats, "responses_unknown_class_total");
            if (requests != admitted + control + s_rej + s_bad +
                                s_shut + s_unk ||
                admitted != (s_ok - control) + s_trap + s_dead) {
                invariant_ok = false;
                std::fprintf(
                    stderr,
                    "service accounting invariant FAILED: requests=%.0f "
                    "admitted=%.0f control=%.0f ok=%.0f rejected=%.0f "
                    "trapped=%.0f deadline=%.0f bad=%.0f shutdown=%.0f "
                    "unknown=%.0f\n",
                    requests, admitted, control, s_ok, s_rej, s_trap,
                    s_dead, s_bad, s_shut, s_unk);
            }
        }
        else {
            invariant_ok = false;
            std::fprintf(stderr, "gfp-loadgen: stats fetch failed\n");
        }
    }

    return report(cli, tally, elapsed_s, ge_bad_fraction, server_stats,
                  invariant_ok);
}
