/**
 * @file
 * GF-coding service tests (docs/SERVICE.md): wire framing and
 * deframing, bit-identity of every request class against direct engine
 * invocation and the host reference codecs, malformed/truncated/fuzzed
 * frame handling, per-request deadlines, admission-control
 * backpressure, graceful-drain exactly-once accounting, the server's
 * thread count, and the serving-layer helpers (histogram quantile
 * estimation, Gilbert-Elliott arrival generation).
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <set>
#include <thread>

#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include "coding/bch.h"
#include "coding/channel.h"
#include "coding/decoder_kernels.h"
#include "coding/rs.h"
#include "common/random.h"
#include "common/strutil.h"
#include "crypto/aes.h"
#include "crypto/ecc.h"
#include "engine/metrics.h"
#include "kernels/batch_kernels.h"
#include "service/client.h"
#include "service/server.h"

namespace gfp::service {
namespace {

/** Short relative socket paths keep clear of sun_path's 108-byte cap
 *  regardless of where the build tree lives. */
std::string
uniqueSocketPath()
{
    static std::atomic<unsigned> counter{0};
    return strprintf("gfp_svc_%d_%u.sock", static_cast<int>(getpid()),
                     counter.fetch_add(1));
}

Server::Options
baseOptions(const std::string &path)
{
    Server::Options opts;
    opts.unix_path = path;
    opts.engine.threads = 1;
    opts.quiet = true;
    return opts;
}

/** Server + connected client, torn down in order. */
struct ServicePair
{
    explicit ServicePair(Server::Options opts)
        : path(opts.unix_path), server(std::move(opts))
    {
        server.start();
        EXPECT_TRUE(client.connectUnix(path));
    }

    ~ServicePair()
    {
        client.close();
        server.drain();
        EXPECT_TRUE(server.countersConsistent());
    }

    std::string path;
    Server server;
    Client client;
};

std::vector<uint8_t>
noisyRsWord(RSCode &rs, unsigned errors, uint64_t seed,
            std::vector<GFElem> *codeword = nullptr)
{
    Rng rng(seed);
    std::vector<GFElem> info(rs.k());
    for (auto &s : info)
        s = rng.nextByte();
    auto cw = rs.encode(info);
    if (codeword)
        *codeword = cw;
    ExactErrorInjector inj(seed);
    auto rx = inj.corruptSymbols(cw, errors, 8);
    return std::vector<uint8_t>(rx.begin(), rx.end());
}

/** A counter of engine @p engine in a kStats document; 0 if absent. */
double
engineCounter(const std::string &doc, const std::string &engine,
              const std::string &counter)
{
    const size_t at = doc.find("\"" + engine + "\": {");
    const size_t end = doc.find("\"gauges\"", at);
    const std::string needle = "\"" + counter + "\": ";
    const size_t pos = doc.find(needle, at);
    if (at == std::string::npos || pos == std::string::npos || pos > end)
        return 0;
    return std::atof(doc.c_str() + pos + needle.size());
}

/** Threads of this process, from /proc/self/task. */
size_t
processThreads()
{
    size_t n = 0;
    for (const auto &task :
         std::filesystem::directory_iterator("/proc/self/task")) {
        (void)task;
        ++n;
    }
    return n;
}

std::vector<uint8_t>
gf2xBytes(const Gf2x &v)
{
    auto words = v.toWords32(8);
    std::vector<uint8_t> out;
    for (uint32_t w : words)
        for (unsigned b = 0; b < 4; ++b)
            out.push_back(static_cast<uint8_t>(w >> (8 * b)));
    return out;
}

// ---- wire layer ----

TEST(Wire, LittleEndianHelpersRoundTrip)
{
    std::vector<uint8_t> buf;
    putU16(buf, 0xbeef);
    putU32(buf, 0xdeadbeefu);
    putU64(buf, 0x0123456789abcdefull);
    ASSERT_EQ(buf.size(), 14u);
    EXPECT_EQ(getU16(buf.data()), 0xbeef);
    EXPECT_EQ(getU32(buf.data() + 2), 0xdeadbeefu);
    EXPECT_EQ(getU64(buf.data() + 6), 0x0123456789abcdefull);
    EXPECT_EQ(buf[0], 0xef); // little-endian on the wire
}

TEST(Wire, RequestHeaderRoundTrip)
{
    RequestHeader h;
    h.cls = RequestClass::kRsDecode;
    h.deadline_us = 12345;
    h.id = 0x1122334455667788ull;
    std::vector<uint8_t> body = {1, 2, 3};
    std::vector<uint8_t> frame;
    appendRequestFrame(frame, h, body.data(), body.size());
    ASSERT_EQ(frame.size(), 4 + kHeaderBytes + body.size());
    ASSERT_EQ(getU32(frame.data()), kHeaderBytes + body.size());

    RequestHeader back;
    ASSERT_TRUE(parseRequestHeader(frame.data() + 4, frame.size() - 4,
                                   &back));
    EXPECT_EQ(back.version, kWireVersion);
    EXPECT_EQ(back.cls, RequestClass::kRsDecode);
    EXPECT_EQ(back.flags, 0);
    EXPECT_EQ(back.deadline_us, 12345u);
    EXPECT_EQ(back.id, h.id);
    EXPECT_FALSE(parseRequestHeader(frame.data() + 4, 15, &back));
}

TEST(Wire, ResponseHeaderRoundTrip)
{
    ResponseHeader h;
    h.status = Status::kRejectedBusy;
    h.cls = RequestClass::kAesCtrBlock;
    h.trap_kind = 3;
    h.aux_us = 777;
    h.id = 42;
    std::vector<uint8_t> frame;
    appendResponseFrame(frame, h, nullptr, 0);

    ResponseHeader back;
    ASSERT_TRUE(parseResponseHeader(frame.data() + 4, frame.size() - 4,
                                    &back));
    EXPECT_EQ(back.status, Status::kRejectedBusy);
    EXPECT_EQ(back.cls, RequestClass::kAesCtrBlock);
    EXPECT_EQ(back.trap_kind, 3);
    EXPECT_EQ(back.aux_us, 777u);
    EXPECT_EQ(back.id, 42u);
}

TEST(Wire, FrameReaderReassemblesByteAtATime)
{
    RequestHeader h;
    h.cls = RequestClass::kPing;
    std::vector<uint8_t> stream;
    std::vector<uint8_t> body1 = {0xaa};
    std::vector<uint8_t> body2 = {0xbb, 0xcc};
    h.id = 1;
    appendRequestFrame(stream, h, body1.data(), body1.size());
    h.id = 2;
    appendRequestFrame(stream, h, body2.data(), body2.size());

    FrameReader reader(kMaxRequestFrame);
    std::vector<std::vector<uint8_t>> frames;
    std::vector<uint8_t> payload;
    for (uint8_t byte : stream) {
        reader.feed(&byte, 1);
        while (reader.next(&payload) == FrameReader::Next::kFrame)
            frames.push_back(payload);
    }
    ASSERT_EQ(frames.size(), 2u);
    EXPECT_EQ(frames[0].size(), kHeaderBytes + 1);
    EXPECT_EQ(frames[0].back(), 0xaa);
    EXPECT_EQ(frames[1].size(), kHeaderBytes + 2);
    EXPECT_EQ(frames[1].back(), 0xcc);
    EXPECT_EQ(reader.buffered(), 0u);
}

TEST(Wire, FrameReaderRejectsOversizedDeclaredLength)
{
    std::vector<uint8_t> evil;
    putU32(evil, kMaxRequestFrame + 1);
    FrameReader reader(kMaxRequestFrame);
    reader.feed(evil.data(), evil.size());
    std::vector<uint8_t> payload;
    EXPECT_EQ(reader.next(&payload), FrameReader::Next::kTooBig);
}

// ---- control plane ----

TEST(Service, PingEchoesBody)
{
    ServicePair sp(baseOptions(uniqueSocketPath()));
    RequestHeader h;
    h.cls = RequestClass::kPing;
    h.id = 99;
    std::vector<uint8_t> body = {1, 2, 3, 4, 5};
    Response resp;
    ASSERT_TRUE(sp.client.call(h, body, &resp));
    EXPECT_EQ(resp.header.status, Status::kOk);
    EXPECT_EQ(resp.header.cls, RequestClass::kPing);
    EXPECT_EQ(resp.header.id, 99u);
    EXPECT_EQ(resp.body, body);
}

TEST(Service, StatsServesConsistentCounters)
{
    ServicePair sp(baseOptions(uniqueSocketPath()));
    RequestHeader h;
    h.cls = RequestClass::kPing;
    for (uint64_t i = 0; i < 5; ++i) {
        h.id = i;
        Response resp;
        ASSERT_TRUE(sp.client.call(h, {}, &resp));
    }
    h.cls = RequestClass::kStats;
    h.id = 100;
    Response resp;
    ASSERT_TRUE(sp.client.call(h, {}, &resp));
    ASSERT_EQ(resp.header.status, Status::kOk);
    std::string doc(resp.body.begin(), resp.body.end());
    // The snapshot must already count its own response: 5 pings + this
    // stats request, all ok, all control-plane.
    EXPECT_NE(doc.find("\"requests_total\": 6"), std::string::npos) << doc;
    EXPECT_NE(doc.find("\"control_total\": 6"), std::string::npos);
    EXPECT_NE(doc.find("\"responses_ok_total\": 6"), std::string::npos);
    EXPECT_NE(doc.find("\"rs_synd\""), std::string::npos);
}

// ---- request classes: bit-identity ----

TEST(Service, RsSyndromeMatchesDirectEngineInvocation)
{
    ServicePair sp(baseOptions(uniqueSocketPath()));
    RSCode rs(8, 8);
    GFField f8(8);

    // The same jobs run directly on a private engine built from the
    // same kernel program — the service must be a transparent transport.
    BatchEngine direct(syndromeBatchProgram(f8, 255, 16),
                       BatchEngine::Options{});

    for (unsigned e = 0; e <= 8; ++e) {
        auto rx = noisyRsWord(rs, e, 9000 + e);
        RequestHeader h;
        h.cls = RequestClass::kRsSyndrome;
        h.id = e;
        Response resp;
        ASSERT_TRUE(sp.client.call(h, rsSyndromeBody(rx), &resp));
        ASSERT_EQ(resp.header.status, Status::kOk);

        auto results = direct.run(
            {syndromeJob(std::vector<GFElem>(rx.begin(), rx.end()), 16)});
        ASSERT_TRUE(results[0].ok());
        EXPECT_EQ(resp.body, results[0].bytes("synd"))
            << "service and direct engine disagree at e=" << e;
    }
}

TEST(Service, AesCtrBlockMatchesHostCipher)
{
    ServicePair sp(baseOptions(uniqueSocketPath()));
    Rng rng(77);
    for (unsigned i = 0; i < 4; ++i) {
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

        RequestHeader h;
        h.cls = RequestClass::kAesCtrBlock;
        h.id = i;
        Response resp;
        ASSERT_TRUE(sp.client.call(
            h,
            aesCtrBlockBody(rkeys, std::vector<uint8_t>(counter.begin(),
                                                        counter.end())),
            &resp));
        ASSERT_EQ(resp.header.status, Status::kOk);
        AesBlock ks = aes.encryptBlock(counter);
        EXPECT_EQ(resp.body,
                  std::vector<uint8_t>(ks.begin(), ks.end()));
    }
}

TEST(Service, EcdhSharedMatchesHostScalarMult)
{
    ServicePair sp(baseOptions(uniqueSocketPath()));
    EllipticCurve curve = EllipticCurve::nist("K-233");
    Rng rng(31337);
    for (unsigned i = 0; i < 2; ++i) {
        Gf2x k(1 + (rng.next64() & 0xffffffffull));
        EcPoint expect = curve.scalarMult(k, curve.basePoint());
        auto kw = gf2xBytes(k);
        kw.resize(16);

        RequestHeader h;
        h.cls = RequestClass::kEcdhShared;
        h.id = i;
        Response resp;
        ASSERT_TRUE(sp.client.call(
            h,
            ecdhSharedBody(gf2xBytes(curve.basePoint().x),
                           gf2xBytes(curve.basePoint().y), kw,
                           k.bitLength()),
            &resp));
        ASSERT_EQ(resp.header.status, Status::kOk);
        auto want = gf2xBytes(expect.x);
        auto wy = gf2xBytes(expect.y);
        want.insert(want.end(), wy.begin(), wy.end());
        EXPECT_EQ(resp.body, want);
    }
}

/** Drive the full decoder chain through the four single-kernel classes
 *  (syndrome -> BMA -> Chien -> Forney), applying the correction on
 *  the host: the staged wire classes must compose into a working
 *  decoder, same as the composite kRsDecode class. */
TEST(Service, SingleKernelClassesComposeIntoDecoder)
{
    ServicePair sp(baseOptions(uniqueSocketPath()));
    RSCode rs(8, 8);
    GFField f8(8);
    std::vector<GFElem> cw;
    auto rx = noisyRsWord(rs, 5, 424242, &cw);

    RequestHeader h;
    Response resp;
    h.cls = RequestClass::kRsSyndrome;
    h.id = 1;
    ASSERT_TRUE(sp.client.call(h, rsSyndromeBody(rx), &resp));
    ASSERT_EQ(resp.header.status, Status::kOk);
    std::vector<uint8_t> synd = resp.body;

    h.cls = RequestClass::kRsBma;
    h.id = 2;
    ASSERT_TRUE(sp.client.call(h, rsBmaBody(synd), &resp));
    ASSERT_EQ(resp.header.status, Status::kOk);
    // Response: 12B lambda || u32 llen.
    ASSERT_EQ(resp.body.size(), 16u);
    std::vector<uint8_t> lambda(resp.body.begin(), resp.body.begin() + 12);
    uint32_t llen = getU32(resp.body.data() + 12);
    EXPECT_EQ(llen, 5u);

    h.cls = RequestClass::kRsChien;
    h.id = 3;
    ASSERT_TRUE(sp.client.call(h, rsChienBody(lambda), &resp));
    ASSERT_EQ(resp.header.status, Status::kOk);
    ASSERT_EQ(resp.body.size(), 16u);
    std::vector<uint8_t> locs(resp.body.begin(), resp.body.begin() + 12);
    uint32_t nloc = getU32(resp.body.data() + 12);
    EXPECT_EQ(nloc, llen);

    h.cls = RequestClass::kRsForney;
    h.id = 4;
    ASSERT_TRUE(
        sp.client.call(h, rsForneyBody(synd, lambda, locs, nloc), &resp));
    ASSERT_EQ(resp.header.status, Status::kOk);
    ASSERT_EQ(resp.body.size(), 12u);

    std::vector<GFElem> fixed(rx.begin(), rx.end());
    for (uint32_t i = 0; i < nloc; ++i)
        fixed[locs[i]] ^= resp.body[i];
    EXPECT_EQ(fixed, cw) << "chained kernel classes failed to decode";
}

TEST(Service, RsDecodeCorrectsUpToTAndFlagsBeyond)
{
    ServicePair sp(baseOptions(uniqueSocketPath()));
    RSCode rs(8, 8);
    GFField f8(8);

    // One decode with errors runs each of the four RS kernels once, and
    // each hop counts on its own engine's registry.
    {
        RequestHeader h;
        h.cls = RequestClass::kRsDecode;
        h.id = 100;
        Response resp;
        ASSERT_TRUE(
            sp.client.call(h, rsDecodeBody(noisyRsWord(rs, 3, 4999)), &resp));
        ASSERT_EQ(resp.header.status, Status::kOk);
        EXPECT_EQ(resp.body[0], 1);
        h.cls = RequestClass::kStats;
        h.id = 101;
        ASSERT_TRUE(sp.client.call(h, {}, &resp));
        const std::string doc(resp.body.begin(), resp.body.end());
        for (const char *engine :
             {"rs_synd", "rs_bma", "rs_chien", "rs_forney"}) {
            EXPECT_EQ(engineCounter(doc, engine, "jobs_submitted_total"), 1)
                << engine << "\n" << doc;
            EXPECT_EQ(engineCounter(doc, engine, "jobs_completed_total"), 1)
                << engine;
        }
    }

    for (unsigned e = 0; e <= rs.t() + 1; ++e) {
        std::vector<GFElem> cw;
        auto rx = noisyRsWord(rs, e, 5000 + e, &cw);
        RequestHeader h;
        h.cls = RequestClass::kRsDecode;
        h.id = e;
        Response resp;
        ASSERT_TRUE(sp.client.call(h, rsDecodeBody(rx), &resp));
        ASSERT_EQ(resp.header.status, Status::kOk);
        ASSERT_EQ(resp.body.size(), 1u + 255u);
        if (e <= rs.t()) {
            EXPECT_EQ(resp.body[0], 1) << "e=" << e;
            EXPECT_TRUE(std::equal(cw.begin(), cw.end(),
                                   resp.body.begin() + 1))
                << "e=" << e;
        }
        else {
            // Beyond t the decoder must not claim success with a wrong
            // word: either it reports failure, or (rare miscorrection)
            // the returned word is still a valid codeword.
            if (resp.body[0] == 1) {
                std::vector<GFElem> got(resp.body.begin() + 1,
                                        resp.body.end());
                auto s = syndromes(f8, got, 2 * rs.t());
                EXPECT_TRUE(std::all_of(s.begin(), s.end(),
                                        [](GFElem v) { return v == 0; }));
            }
        }
    }
}

TEST(Service, BchDecodeCorrectsUpToT)
{
    ServicePair sp(baseOptions(uniqueSocketPath()));
    BCHCode bch(5, 5);
    for (unsigned e = 0; e <= bch.t(); ++e) {
        Rng rng(600 + e);
        std::vector<uint8_t> info(bch.k());
        for (auto &b : info)
            b = static_cast<uint8_t>(rng.below(2));
        auto cw = bch.encode(info);
        ExactErrorInjector inj(600 + e);
        auto rx = inj.flipBits(cw, e);

        RequestHeader h;
        h.cls = RequestClass::kBchDecode;
        h.id = e;
        Response resp;
        ASSERT_TRUE(sp.client.call(h, bchDecodeBody(rx), &resp));
        ASSERT_EQ(resp.header.status, Status::kOk);
        ASSERT_EQ(resp.body.size(), 1u + 31u);
        EXPECT_EQ(resp.body[0], 1) << "e=" << e;
        EXPECT_TRUE(
            std::equal(cw.begin(), cw.end(), resp.body.begin() + 1))
            << "e=" << e;
    }
}

TEST(Service, ErasureRepairSweepToMaxErasures)
{
    ServicePair sp(baseOptions(uniqueSocketPath()));
    RSCode rs(8, 8);
    for (unsigned e = 1; e <= kMaxErasures; ++e) {
        Rng rng(700 + e);
        std::vector<GFElem> info(rs.k());
        for (auto &s : info)
            s = rng.nextByte();
        auto cw = rs.encode(info);
        ExactErrorInjector inj(700 + e);
        auto positions = inj.pickPositions(rs.n(), e);
        auto rx = cw;
        for (unsigned pos : positions)
            rx[pos] ^= static_cast<GFElem>(1 + rng.below(255));

        RequestHeader h;
        h.cls = RequestClass::kRsErasure;
        h.id = e;
        Response resp;
        ASSERT_TRUE(sp.client.call(
            h,
            rsErasureBody(std::vector<uint8_t>(rx.begin(), rx.end()),
                          std::vector<uint8_t>(positions.begin(),
                                               positions.end())),
            &resp));
        ASSERT_EQ(resp.header.status, Status::kOk);
        ASSERT_EQ(resp.body.size(), 1u + 255u);
        EXPECT_EQ(resp.body[0], 1) << "e=" << e;
        EXPECT_TRUE(
            std::equal(cw.begin(), cw.end(), resp.body.begin() + 1))
            << "e=" << e;
    }
}

TEST(Service, TranslatedDispatchServesIdenticalBits)
{
    auto opts = baseOptions(uniqueSocketPath());
    opts.engine.dispatch = DispatchMode::kTranslated;
    ServicePair sp(std::move(opts));
    RSCode rs(8, 8);
    GFField f8(8);
    auto rx = noisyRsWord(rs, 3, 808080);

    RequestHeader h;
    h.cls = RequestClass::kRsSyndrome;
    h.id = 1;
    Response resp;
    ASSERT_TRUE(sp.client.call(h, rsSyndromeBody(rx), &resp));
    ASSERT_EQ(resp.header.status, Status::kOk);
    auto want = syndromes(f8, std::vector<GFElem>(rx.begin(), rx.end()),
                          2 * rs.t());
    EXPECT_EQ(resp.body, std::vector<uint8_t>(want.begin(), want.end()));
}

// ---- protocol errors, deadlines, backpressure, drain ----

TEST(Service, MalformedRequestsAnsweredWithoutClosing)
{
    ServicePair sp(baseOptions(uniqueSocketPath()));
    Response resp;

    RequestHeader h;
    h.cls = static_cast<RequestClass>(0x7f); // unknown class byte
    h.id = 1;
    ASSERT_TRUE(sp.client.call(h, {}, &resp));
    EXPECT_EQ(resp.header.status, Status::kUnknownClass);

    h = RequestHeader{};
    h.cls = RequestClass::kPing;
    h.flags = 1; // reserved, must be zero
    h.id = 2;
    ASSERT_TRUE(sp.client.call(h, {}, &resp));
    EXPECT_EQ(resp.header.status, Status::kBadRequest);

    h = RequestHeader{};
    h.version = kWireVersion + 1;
    h.cls = RequestClass::kPing;
    h.id = 3;
    ASSERT_TRUE(sp.client.call(h, {}, &resp));
    EXPECT_EQ(resp.header.status, Status::kBadRequest);

    h = RequestHeader{};
    h.cls = RequestClass::kRsSyndrome; // body must be exactly 255B
    h.id = 4;
    ASSERT_TRUE(sp.client.call(h, std::vector<uint8_t>(17), &resp));
    EXPECT_EQ(resp.header.status, Status::kBadRequest);

    h = RequestHeader{};
    h.cls = RequestClass::kRsErasure; // duplicate erasure positions
    h.id = 5;
    std::vector<uint8_t> rx(255, 0);
    ASSERT_TRUE(sp.client.call(h, rsErasureBody(rx, {7, 7}), &resp));
    EXPECT_EQ(resp.header.status, Status::kBadRequest);

    // The connection survives every answered error.
    h = RequestHeader{};
    h.cls = RequestClass::kPing;
    h.id = 6;
    ASSERT_TRUE(sp.client.call(h, {}, &resp));
    EXPECT_EQ(resp.header.status, Status::kOk);
}

TEST(Service, TruncatedHeaderClosesConnection)
{
    ServicePair sp(baseOptions(uniqueSocketPath()));
    // An 8-byte payload cannot hold the 16-byte header: protocol error,
    // connection-fatal (there is no id to answer on).
    std::vector<uint8_t> frame;
    putU32(frame, 8);
    frame.resize(frame.size() + 8, 0);
    sp.client.queueRaw(frame.data(), frame.size());
    ASSERT_TRUE(sp.client.flush());
    Response resp;
    EXPECT_FALSE(sp.client.recvResponse(&resp, 5000));
    EXPECT_EQ(sp.client.lastError(), Client::Error::kClosed);

    // A fresh connection is unaffected.
    Client fresh;
    ASSERT_TRUE(fresh.connectUnix(sp.path));
    RequestHeader h;
    h.cls = RequestClass::kPing;
    ASSERT_TRUE(fresh.call(h, {}, &resp));
    EXPECT_EQ(resp.header.status, Status::kOk);
}

TEST(Service, OversizedFrameClosesConnection)
{
    ServicePair sp(baseOptions(uniqueSocketPath()));
    std::vector<uint8_t> frame;
    putU32(frame, kMaxRequestFrame + 1);
    sp.client.queueRaw(frame.data(), frame.size());
    ASSERT_TRUE(sp.client.flush());
    Response resp;
    EXPECT_FALSE(sp.client.recvResponse(&resp, 5000));
    EXPECT_EQ(sp.client.lastError(), Client::Error::kClosed);
}

TEST(Service, RandomFrameFuzzNeverKillsServer)
{
    ServicePair sp(baseOptions(uniqueSocketPath()));
    Rng rng(0xf022);
    Response resp;
    for (unsigned round = 0; round < 64; ++round) {
        Client fuzz;
        ASSERT_TRUE(fuzz.connectUnix(sp.path));
        // A burst of random frames with valid length prefixes: random
        // headers, random classes, random bodies.  The server must
        // answer or close — never crash, never stall.
        for (unsigned i = 0; i < 4; ++i) {
            std::vector<uint8_t> payload(rng.below(64));
            for (auto &b : payload)
                b = rng.nextByte();
            std::vector<uint8_t> frame;
            putU32(frame, static_cast<uint32_t>(payload.size()));
            frame.insert(frame.end(), payload.begin(), payload.end());
            fuzz.queueRaw(frame.data(), frame.size());
        }
        if (!fuzz.flush())
            continue;
        while (fuzz.recvResponse(&resp, 200)) {
        }
    }
    // The server is still fully functional afterwards.
    RequestHeader h;
    h.cls = RequestClass::kPing;
    ASSERT_TRUE(sp.client.call(h, {1}, &resp));
    EXPECT_EQ(resp.header.status, Status::kOk);
}

TEST(Service, DeadlineExpiryIsReportedNotServed)
{
    ServicePair sp(baseOptions(uniqueSocketPath()));
    RSCode rs(8, 8);
    auto rx = noisyRsWord(rs, 4, 1234);
    RequestHeader h;
    h.cls = RequestClass::kRsSyndrome;
    h.deadline_us = 1; // any engine round trip takes longer than 1us
    h.id = 55;
    Response resp;
    ASSERT_TRUE(sp.client.call(h, rsSyndromeBody(rx), &resp));
    EXPECT_EQ(resp.header.status, Status::kDeadlineExpired);
    EXPECT_TRUE(resp.body.empty());
    EXPECT_GE(resp.header.aux_us, 1u); // server-side elapsed time
}

TEST(Service, BackpressureRejectsPastWatermarkExactlyOnceEach)
{
    auto opts = baseOptions(uniqueSocketPath());
    opts.admission_watermark = 2; // tiny: force rejections
    ServicePair sp(std::move(opts));

    // Slow poison: full-length 127-bit ECDH scalars serialize behind a
    // a single worker while the burst keeps arriving.
    EllipticCurve curve = EllipticCurve::nist("K-233");
    Gf2x k(std::vector<uint64_t>{0x1234567890abcdefull,
                                 0x7fffffffffffffffull});
    ASSERT_EQ(k.bitLength(), 127u);
    auto kw = gf2xBytes(k);
    kw.resize(16);
    auto body = ecdhSharedBody(gf2xBytes(curve.basePoint().x),
                               gf2xBytes(curve.basePoint().y), kw,
                               k.bitLength());

    const unsigned kBurst = 96;
    for (unsigned i = 0; i < kBurst; ++i) {
        RequestHeader h;
        h.cls = RequestClass::kEcdhShared;
        h.id = i;
        sp.client.queueRequest(h, body);
    }
    ASSERT_TRUE(sp.client.flush());

    std::set<uint64_t> answered;
    uint64_t ok = 0, rejected = 0;
    Response resp;
    for (unsigned i = 0; i < kBurst; ++i) {
        ASSERT_TRUE(sp.client.recvResponse(&resp, 60000))
            << "response " << i << " missing";
        EXPECT_TRUE(answered.insert(resp.header.id).second)
            << "duplicate response for id " << resp.header.id;
        if (resp.header.status == Status::kOk) {
            ++ok;
            EXPECT_EQ(resp.body.size(), 64u);
        }
        else {
            ASSERT_EQ(resp.header.status, Status::kRejectedBusy);
            ++rejected;
            EXPECT_GT(resp.header.aux_us, 0u)
                << "busy rejection must carry a retry-after hint";
            EXPECT_TRUE(resp.body.empty());
        }
    }
    EXPECT_EQ(answered.size(), kBurst);
    EXPECT_GT(ok, 0u);
    EXPECT_GT(rejected, 0u) << "watermark 2 with a 96-burst must reject";
}

/**
 * A closed loop keeping 8 requests in flight stays far below the
 * admission watermark (4096 admitted requests), so no request may be
 * refused as busy.  Two workers answer requests while the reader
 * admits the next ones, so every admission races with a completion.
 */
TEST(Service, SmallClosedLoopIsNeverRejectedBusy)
{
    auto opts = baseOptions(uniqueSocketPath());
    opts.engine.threads = 2;
    ServicePair sp(std::move(opts));
    RSCode rs(8, 8);
    std::vector<std::pair<RequestClass, std::vector<uint8_t>>> pool;
    for (unsigned i = 0; i < 8; ++i) {
        auto rx = noisyRsWord(rs, i % (rs.t() + 1), 7000 + i);
        pool.emplace_back(RequestClass::kRsDecode, rsDecodeBody(rx));
        pool.emplace_back(RequestClass::kRsSyndrome, rsSyndromeBody(rx));
    }

    constexpr unsigned kWindow = 8, kRequests = 3000;
    unsigned sent = 0;
    auto send = [&] {
        RequestHeader h;
        h.cls = pool[sent % pool.size()].first;
        h.id = sent;
        sp.client.queueRequest(h, pool[sent % pool.size()].second);
        ++sent;
    };
    for (unsigned i = 0; i < kWindow; ++i)
        send();
    ASSERT_TRUE(sp.client.flush());

    unsigned ok = 0, busy = 0;
    Response resp;
    for (unsigned done = 0; done < kRequests; ++done) {
        ASSERT_TRUE(sp.client.recvResponse(&resp, 30000));
        ok += resp.header.status == Status::kOk;
        busy += resp.header.status == Status::kRejectedBusy;
        if (sent < kRequests) {
            send();
            ASSERT_TRUE(sp.client.flush());
        }
    }
    EXPECT_EQ(busy, 0u);
    EXPECT_EQ(ok, kRequests);
}

/**
 * The server runs engine.threads workers, one accept thread per
 * listener and one reader per connection — however many engines the
 * requests visit: decodes with errors walk every RS and BCH kernel,
 * and no engine starts a pool of its own.  Threads left over from
 * earlier tests (detached readers still exiting) can only lower the
 * count.
 */
TEST(Service, ThreadsAreWorkersPlusListenerPlusReader)
{
    // A sanitizer runtime may start a helper thread at the process's
    // first thread creation; create one first so the baseline has it.
    std::thread([] {}).join();
    const size_t before = processThreads();
    auto opts = baseOptions(uniqueSocketPath());
    opts.engine.threads = 2;
    ServicePair sp(std::move(opts));

    RSCode rs(8, 8);
    BCHCode bch(5, 5);
    std::vector<uint8_t> info(bch.k(), 1);
    ExactErrorInjector inj(31);
    RequestHeader h;
    Response resp;
    h.cls = RequestClass::kRsDecode;
    h.id = 1;
    ASSERT_TRUE(
        sp.client.call(h, rsDecodeBody(noisyRsWord(rs, 4, 30)), &resp));
    EXPECT_EQ(resp.header.status, Status::kOk);
    h.cls = RequestClass::kBchDecode;
    h.id = 2;
    ASSERT_TRUE(sp.client.call(
        h, bchDecodeBody(inj.flipBits(bch.encode(info), 3)), &resp));
    EXPECT_EQ(resp.header.status, Status::kOk);

    // 2 workers + 1 accept thread + 1 reader.
    EXPECT_LE(processThreads(), before + 4);
}

TEST(Service, GracefulDrainAnswersEveryAdmittedRequestOnce)
{
    auto path = uniqueSocketPath();
    Server server(baseOptions(path));
    server.start();

    Client client;
    ASSERT_TRUE(client.connectUnix(path));
    RSCode rs(8, 8);
    const unsigned kBurst = 48;
    for (unsigned i = 0; i < kBurst; ++i) {
        RequestHeader h;
        h.cls = RequestClass::kRsDecode;
        h.id = i;
        h.deadline_us = 0;
        client.queueRequest(h, rsDecodeBody(noisyRsWord(rs, i % 9, i)));
    }
    ASSERT_TRUE(client.flush());

    // Drain concurrently with the in-flight burst: admitted requests
    // must flush, late ones answer kShuttingDown, none answer twice.
    std::thread drainer([&] { server.drain(); });

    std::set<uint64_t> answered;
    Response resp;
    while (client.recvResponse(&resp, 10000)) {
        EXPECT_TRUE(answered.insert(resp.header.id).second)
            << "duplicate response for id " << resp.header.id;
        EXPECT_TRUE(resp.header.status == Status::kOk ||
                    resp.header.status == Status::kShuttingDown ||
                    resp.header.status == Status::kRejectedBusy)
            << statusName(resp.header.status);
    }
    drainer.join();
    client.close();
    EXPECT_TRUE(server.countersConsistent())
        << "drain broke the exactly-once accounting";
}

TEST(Service, TcpListenerServesTheSameProtocol)
{
    Server::Options opts;
    opts.tcp_port = 0; // ephemeral
    opts.engine.threads = 1;
    opts.quiet = true;
    Server server(std::move(opts));
    server.start();
    ASSERT_GT(server.tcpPort(), 0);

    Client client;
    ASSERT_TRUE(client.connectTcp("127.0.0.1", server.tcpPort()));
    RSCode rs(8, 8);
    GFField f8(8);
    auto rx = noisyRsWord(rs, 2, 321);
    RequestHeader h;
    h.cls = RequestClass::kRsSyndrome;
    h.id = 7;
    Response resp;
    ASSERT_TRUE(client.call(h, rsSyndromeBody(rx), &resp));
    ASSERT_EQ(resp.header.status, Status::kOk);
    auto want = syndromes(f8, std::vector<GFElem>(rx.begin(), rx.end()),
                          2 * rs.t());
    EXPECT_EQ(resp.body, std::vector<uint8_t>(want.begin(), want.end()));

    client.close();
    server.drain();
    EXPECT_TRUE(server.countersConsistent());
}

TEST(Service, UnixPlusEphemeralTcpOpensBothListeners)
{
    auto opts = baseOptions(uniqueSocketPath());
    opts.tcp_port = 0; // ephemeral — must not be read as "disabled"
    std::string path = opts.unix_path;
    Server server(std::move(opts));
    server.start();
    ASSERT_GT(server.tcpPort(), 0);

    Client over_unix, over_tcp;
    ASSERT_TRUE(over_unix.connectUnix(path));
    ASSERT_TRUE(over_tcp.connectTcp("127.0.0.1", server.tcpPort()));
    for (Client *client : {&over_unix, &over_tcp}) {
        RequestHeader h;
        h.cls = RequestClass::kPing;
        h.id = 1;
        Response resp;
        ASSERT_TRUE(client->call(h, {0xab}, &resp));
        EXPECT_EQ(resp.header.status, Status::kOk);
    }
    over_unix.close();
    over_tcp.close();
    server.drain();
    EXPECT_TRUE(server.countersConsistent());
}

TEST(Service, DisconnectedConnectionsArePruned)
{
    auto opts = baseOptions(uniqueSocketPath());
    std::string path = opts.unix_path;
    Server server(std::move(opts));
    server.start();

    const unsigned kChurn = 32;
    for (unsigned i = 0; i < kChurn; ++i) {
        Client client;
        ASSERT_TRUE(client.connectUnix(path));
        RequestHeader h;
        h.cls = RequestClass::kPing;
        h.id = i;
        Response resp;
        ASSERT_TRUE(client.call(h, {}, &resp));
        client.close();
    }

    // Readers notice the EOFs asynchronously; the gauge must converge
    // to zero without drain() (the leak the gauge would otherwise hide).
    double active = -1;
    for (unsigned spin = 0; spin < 500; ++spin) {
        active = server.metrics().gauge("connections_active");
        if (active == 0)
            break;
        usleep(10 * 1000);
    }
    EXPECT_EQ(active, 0) << "disconnected connections never pruned";
    EXPECT_EQ(server.metrics().counter("connections_total"), kChurn);

    server.drain();
    EXPECT_TRUE(server.countersConsistent());
}

TEST(Service, KernelProducedLocationsAreRangeChecked)
{
    // Chien locations are kernel output and therefore untrusted: a
    // buggy/miscompiled kernel reporting a location past n must fail
    // the decode, not index past the host-side codeword buffer.
    BatchEngine::Options eopts;
    eopts.threads = 1;
    EngineSet engines(eopts);

    RequestExec ex;
    ex.cls = RequestClass::kBchDecode;
    ex.stage = 3;
    ex.work.assign(kBchN, 0);
    ex.llen = 2;

    JobResult res;
    res.outputs["locs"] = std::vector<uint8_t>(12, 0);
    res.outputs["locs"][0] = 200; // far past n = 31
    res.outputs["locs"][1] = 3;
    res.words["nloc"] = 2;

    StepResult step = advance(engines, ex, &res);
    ASSERT_TRUE(step.done);
    EXPECT_EQ(step.status, Status::kOk);
    ASSERT_FALSE(step.response.empty());
    EXPECT_EQ(step.response[0], 0) << "OOB location must fail decode";

    // Same guard on the Forney path: fewer error values than claimed
    // locations must fail the decode, not read past evals.
    RequestExec rs;
    rs.cls = RequestClass::kRsDecode;
    rs.stage = 4;
    rs.work.assign(kRsN, 0);
    rs.locs = {1, 2};
    rs.nloc = 2;

    JobResult forney;
    forney.outputs["evals"] = {0x5a}; // one eval, two locations
    StepResult fstep = advance(engines, rs, &forney);
    ASSERT_TRUE(fstep.done);
    EXPECT_EQ(fstep.status, Status::kOk);
    ASSERT_FALSE(fstep.response.empty());
    EXPECT_EQ(fstep.response[0], 0) << "short evals must fail decode";
}

TEST(Service, StaleSocketFileIsReclaimed)
{
    std::string path = uniqueSocketPath();
    // Fabricate a crash leftover: a bound-then-abandoned socket file.
    int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
    ASSERT_GE(fd, 0);
    sockaddr_un addr{};
    addr.sun_family = AF_UNIX;
    std::strncpy(addr.sun_path, path.c_str(),
                 sizeof(addr.sun_path) - 1);
    ASSERT_EQ(::bind(fd, reinterpret_cast<sockaddr *>(&addr),
                     sizeof(addr)),
              0);
    ::close(fd);

    ServicePair sp(baseOptions(path));
    RequestHeader h;
    h.cls = RequestClass::kPing;
    h.id = 9;
    Response resp;
    ASSERT_TRUE(sp.client.call(h, {}, &resp));
    EXPECT_EQ(resp.header.status, Status::kOk);
}

// ---- serving-layer helpers ----

TEST(ServiceHelpers, QuantileExactWhenMassInOneBucket)
{
    Metrics m;
    for (unsigned i = 0; i < 1000; ++i)
        m.observe("lat", 100.0);
    auto h = m.histogram("lat");
    EXPECT_DOUBLE_EQ(Metrics::quantile(h, 0.5), 100.0);
    EXPECT_DOUBLE_EQ(Metrics::quantile(h, 0.99), 100.0);
}

TEST(ServiceHelpers, QuantileMonotoneAndBounded)
{
    Metrics m;
    Rng rng(5);
    double lo = 1e30, hi = 0;
    for (unsigned i = 0; i < 5000; ++i) {
        double v = 1.0 + static_cast<double>(rng.below(100000));
        lo = std::min(lo, v);
        hi = std::max(hi, v);
        m.observe("lat", v);
    }
    auto h = m.histogram("lat");
    double prev = 0;
    for (double q : {0.1, 0.25, 0.5, 0.9, 0.99}) {
        double est = Metrics::quantile(h, q);
        EXPECT_GE(est, prev) << "q=" << q;
        EXPECT_GE(est, lo);
        EXPECT_LE(est, hi);
        prev = est;
    }
    // Uniform over [1, 1e5]: the p50 estimate must land within the
    // factor-of-2 bound of the true median.
    double p50 = Metrics::quantile(h, 0.5);
    EXPECT_GT(p50, 25000.0);
    EXPECT_LT(p50, 100000.0);
}

TEST(ServiceHelpers, GilbertElliottArrivalsAreBurstyAndDeterministic)
{
    GilbertElliottArrivals a(0.5, 0.1, 100, 4000, 99);
    GilbertElliottArrivals b(0.5, 0.1, 100, 4000, 99);
    auto ta = a.generate(20.0);
    auto tb = b.generate(20.0);
    EXPECT_EQ(ta, tb) << "same seed must reproduce the same trace";
    ASSERT_FALSE(ta.empty());
    EXPECT_TRUE(std::is_sorted(ta.begin(), ta.end()));
    EXPECT_GE(ta.front(), 0.0);
    EXPECT_LT(ta.back(), 20.0);
    EXPECT_GT(a.badFraction(), 0.0);
    EXPECT_LT(a.badFraction(), 0.6);

    // Mean offered rate must sit between the two state rates and well
    // above the good-state rate alone (bursts dominate the count).
    double rate = static_cast<double>(ta.size()) / 20.0;
    EXPECT_GT(rate, 100.0);
    EXPECT_LT(rate, 4000.0);

    GilbertElliottArrivals c(0.5, 0.1, 100, 4000, 100);
    EXPECT_NE(ta, c.generate(20.0)) << "different seed, different trace";
}

} // namespace
} // namespace gfp::service
