/**
 * @file
 * Bounded (~10s) service soak: a mixed-class closed-loop client keeps
 * the server's workers busy while every OK response is verified
 * bit-for-bit against the host reference codecs.  Carries the
 * `soak` ctest label (run with `ctest -L soak`, skip with `-LE soak`).
 */

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <map>
#include <unistd.h>

#include "coding/bch.h"
#include "coding/channel.h"
#include "coding/rs.h"
#include "common/random.h"
#include "common/strutil.h"
#include "crypto/aes.h"
#include "service/client.h"
#include "service/server.h"

namespace gfp::service {
namespace {

struct Prepared
{
    RequestClass cls;
    std::vector<uint8_t> body;
    std::vector<uint8_t> expected; ///< expected OK response body
};

/** A small pool of mixed-class requests with host-computed expected
 *  responses (decode classes at varying error weight, AES keystream). */
std::vector<Prepared>
buildPool(uint64_t seed)
{
    std::vector<Prepared> pool;
    Rng rng(seed);
    RSCode rs(8, 8);
    BCHCode bch(5, 5);

    for (unsigned i = 0; i < 24; ++i) {
        Prepared p;
        switch (i % 3) {
        case 0: {
            p.cls = RequestClass::kRsDecode;
            std::vector<GFElem> info(rs.k());
            for (auto &s : info)
                s = rng.nextByte();
            auto cw = rs.encode(info);
            ExactErrorInjector inj(seed + i);
            auto rx = inj.corruptSymbols(cw, i % (rs.t() + 1), 8);
            p.body = rsDecodeBody(
                std::vector<uint8_t>(rx.begin(), rx.end()));
            p.expected.push_back(1);
            p.expected.insert(p.expected.end(), cw.begin(), cw.end());
            break;
        }
        case 1: {
            p.cls = RequestClass::kBchDecode;
            std::vector<uint8_t> info(bch.k());
            for (auto &b : info)
                b = static_cast<uint8_t>(rng.below(2));
            auto cw = bch.encode(info);
            ExactErrorInjector inj(seed + i);
            auto rx = inj.flipBits(cw, i % (bch.t() + 1));
            p.body = bchDecodeBody(rx);
            p.expected.push_back(1);
            p.expected.insert(p.expected.end(), cw.begin(), cw.end());
            break;
        }
        default: {
            p.cls = RequestClass::kAesCtrBlock;
            std::vector<uint8_t> key(16);
            for (auto &b : key)
                b = rng.nextByte();
            Aes aes(key);
            std::vector<uint8_t> rkeys;
            for (uint32_t word : aes.roundKeys())
                for (int b = 3; b >= 0; --b)
                    rkeys.push_back(
                        static_cast<uint8_t>(word >> (8 * b)));
            AesBlock counter;
            for (auto &b : counter)
                b = rng.nextByte();
            p.body = aesCtrBlockBody(
                rkeys, std::vector<uint8_t>(counter.begin(),
                                            counter.end()));
            AesBlock ks = aes.encryptBlock(counter);
            p.expected.assign(ks.begin(), ks.end());
            break;
        }
        }
        pool.push_back(std::move(p));
    }
    return pool;
}

TEST(ServiceSoak, MixedClosedLoopVerifiedBitForBit)
{
    Server::Options opts;
    opts.unix_path = strprintf("gfp_soak_%d.sock",
                               static_cast<int>(getpid()));
    opts.engine.threads = 1;
    opts.quiet = true;
    Server server(std::move(opts));
    server.start();

    Client client;
    ASSERT_TRUE(client.connectUnix(
        strprintf("gfp_soak_%d.sock", static_cast<int>(getpid()))));

    auto pool = buildPool(2026);
    constexpr unsigned kWindow = 32;
    std::map<uint64_t, const Prepared *> outstanding;
    uint64_t next_id = 0, completed = 0, verify_failures = 0;

    auto send_one = [&] {
        const Prepared &p = pool[next_id % pool.size()];
        RequestHeader h;
        h.cls = p.cls;
        h.id = next_id;
        outstanding[next_id] = &p;
        ++next_id;
        client.queueRequest(h, p.body);
    };

    for (unsigned i = 0; i < kWindow; ++i)
        send_one();
    ASSERT_TRUE(client.flush());

    const auto t0 = std::chrono::steady_clock::now();
    auto elapsed = [&] {
        return std::chrono::duration<double>(
                   std::chrono::steady_clock::now() - t0)
            .count();
    };

    Response resp;
    while (elapsed() < 8.0) {
        ASSERT_TRUE(client.recvResponse(&resp, 30000));
        auto it = outstanding.find(resp.header.id);
        ASSERT_NE(it, outstanding.end())
            << "response for an id never sent (or sent twice): "
            << resp.header.id;
        ASSERT_EQ(resp.header.status, Status::kOk)
            << statusName(resp.header.status);
        if (resp.body != it->second->expected)
            ++verify_failures;
        outstanding.erase(it);
        ++completed;
        send_one();
        ASSERT_TRUE(client.flush());
    }

    // Drain the window.
    while (!outstanding.empty()) {
        ASSERT_TRUE(client.recvResponse(&resp, 30000));
        outstanding.erase(resp.header.id);
        ++completed;
    }

    EXPECT_EQ(verify_failures, 0u);
    EXPECT_GT(completed, 1000u)
        << "soak completed implausibly few requests";

    client.close();
    server.drain();
    EXPECT_TRUE(server.countersConsistent());
}

} // namespace
} // namespace gfp::service
