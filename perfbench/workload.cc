#include "workload.h"

#include <array>

#include "coding/bch.h"
#include "coding/channel.h"
#include "coding/decoder_kernels.h"
#include "coding/rs.h"
#include "common/random.h"
#include "crypto/aes.h"
#include "crypto/ecc.h"
#include "gf/field.h"
#include "harness.h"

namespace perfbench {

using namespace gfp;
using namespace gfp::service;

namespace {

/** Per-class stream of the seed, so adding a class never shifts the
 *  inputs of another. */
uint64_t
streamSeed(uint64_t seed, RequestClass cls)
{
    return seed * 0x9e3779b97f4a7c15ull +
           static_cast<uint64_t>(cls) * 0x632be59bd9b4e019ull;
}

std::vector<uint8_t>
gf2xBytes(const Gf2x &v)
{
    std::vector<uint8_t> out;
    out.reserve(32);
    for (uint32_t w : v.toWords32(8))
        for (unsigned b = 0; b < 4; ++b)
            out.push_back(static_cast<uint8_t>(w >> (8 * b)));
    return out;
}

Request
makeRequest(RequestClass cls, unsigned i, Rng &rng, const RSCode &rs,
            const BCHCode &bch, const GFField &f8)
{
    Request req;
    req.cls = cls;
    ExactErrorInjector inj(rng.next64());
    switch (cls) {
    case RequestClass::kRsSyndrome: {
        std::vector<GFElem> info(rs.k());
        for (auto &s : info)
            s = rng.nextByte();
        auto rx = inj.corruptSymbols(rs.encode(info), i % (rs.t() + 1), 8);
        req.body = rsSyndromeBody(std::vector<uint8_t>(rx.begin(), rx.end()));
        auto synd = syndromes(f8, rx, 2 * rs.t());
        req.expected.assign(synd.begin(), synd.end());
        break;
    }
    case RequestClass::kRsDecode: {
        std::vector<GFElem> info(rs.k());
        for (auto &s : info)
            s = rng.nextByte();
        auto cw = rs.encode(info);
        // Decodes always carry 1..t errors, so every one walks the full
        // chain: a zero-error decode would end after its syndrome hop
        // and put the mix's median latency on the edge between the
        // one-hop and the multi-hop classes.
        auto rx = inj.corruptSymbols(cw, 1 + i % rs.t(), 8);
        req.body = rsDecodeBody(std::vector<uint8_t>(rx.begin(), rx.end()));
        req.expected.push_back(1);
        req.expected.insert(req.expected.end(), cw.begin(), cw.end());
        break;
    }
    case RequestClass::kBchDecode: {
        std::vector<uint8_t> info(bch.k());
        for (auto &b : info)
            b = static_cast<uint8_t>(rng.below(2));
        auto cw = bch.encode(info);
        req.body = bchDecodeBody(inj.flipBits(cw, 1 + i % bch.t()));
        req.expected.push_back(1);
        req.expected.insert(req.expected.end(), cw.begin(), cw.end());
        break;
    }
    case RequestClass::kAesCtrBlock: {
        Aes aes(rng.bytes(16));
        std::vector<uint8_t> rkeys;
        for (uint32_t word : aes.roundKeys())
            for (int b = 3; b >= 0; --b)
                rkeys.push_back(static_cast<uint8_t>(word >> (8 * b)));
        AesBlock counter;
        for (auto &b : counter)
            b = rng.nextByte();
        req.body = aesCtrBlockBody(
            rkeys, std::vector<uint8_t>(counter.begin(), counter.end()));
        AesBlock ks = aes.encryptBlock(counter);
        req.expected.assign(ks.begin(), ks.end());
        break;
    }
    case RequestClass::kRsErasure: {
        std::vector<GFElem> info(rs.k());
        for (auto &s : info)
            s = rng.nextByte();
        auto cw = rs.encode(info);
        auto positions = inj.pickPositions(rs.n(), 1 + i % kMaxErasures);
        auto rx = cw;
        for (unsigned pos : positions)
            rx[pos] ^= static_cast<GFElem>(1 + rng.below(255));
        req.body = rsErasureBody(
            std::vector<uint8_t>(rx.begin(), rx.end()),
            std::vector<uint8_t>(positions.begin(), positions.end()));
        req.expected.push_back(1);
        req.expected.insert(req.expected.end(), cw.begin(), cw.end());
        break;
    }
    default:
        break;
    }
    return req;
}

} // namespace

const std::vector<RequestClass> &
mixClasses()
{
    static const std::vector<RequestClass> classes = {
        RequestClass::kRsSyndrome, RequestClass::kAesCtrBlock,
        RequestClass::kRsDecode, RequestClass::kBchDecode,
        RequestClass::kRsErasure};
    return classes;
}

std::vector<Request>
makeMix(uint64_t seed, unsigned per_class)
{
    const RSCode rs(8, 8);
    const BCHCode bch(5, 5);
    const GFField f8(8);
    std::vector<std::vector<Request>> by_class;
    for (RequestClass cls : mixClasses()) {
        Rng rng(streamSeed(seed, cls));
        auto &list = by_class.emplace_back();
        for (unsigned i = 0; i < per_class; ++i)
            list.push_back(makeRequest(cls, i, rng, rs, bch, f8));
    }
    std::vector<Request> mix;
    mix.reserve(per_class * by_class.size());
    for (unsigned i = 0; i < per_class; ++i)
        for (auto &list : by_class)
            mix.push_back(std::move(list[i]));
    return mix;
}

std::vector<Request>
makeEcdh(uint64_t seed, unsigned count)
{
    const EllipticCurve curve = EllipticCurve::nist("K-233");
    const auto gx = gf2xBytes(curve.basePoint().x);
    const auto gy = gf2xBytes(curve.basePoint().y);
    Rng rng(streamSeed(seed, RequestClass::kEcdhShared));
    std::vector<Request> out;
    for (unsigned i = 0; i < count; ++i) {
        // A fixed 32-bit scalar length keeps the point-operation count
        // (and the job's cost) nearly seed-independent.
        const Gf2x k(0x80000000ull | (rng.next64() & 0x7fffffffull));
        const EcPoint res = curve.scalarMult(k, curve.basePoint());
        auto kw = gf2xBytes(k);
        kw.resize(16);
        Request req;
        req.cls = RequestClass::kEcdhShared;
        req.body = ecdhSharedBody(gx, gy, kw, k.bitLength());
        req.expected = gf2xBytes(res.x);
        const auto ry = gf2xBytes(res.y);
        req.expected.insert(req.expected.end(), ry.begin(), ry.end());
        out.push_back(std::move(req));
    }
    return out;
}

uint64_t
digest(const std::vector<Request> &requests)
{
    uint64_t h = 0xcbf29ce484222325ull;
    auto mix = [&h](const std::vector<uint8_t> &bytes) {
        for (uint8_t b : bytes) {
            h ^= b;
            h *= 0x100000001b3ull;
        }
    };
    for (const Request &r : requests) {
        mix({static_cast<uint8_t>(r.cls)});
        mix(r.body);
        mix(r.expected);
    }
    return h;
}

std::vector<StepResult>
driveRequests(const EngineSet &engines, const std::vector<Request> &requests,
              const HopRunner &run, std::vector<Hop> *hops,
              double *advance_seconds, uint64_t *advance_calls)
{
    constexpr size_t kEngines = EngineSet::count();
    std::vector<RequestExec> execs(requests.size());
    std::vector<StepResult> final_steps(requests.size());
    // Per engine: (request index, job) emitted in the current wave.
    std::array<std::vector<std::pair<size_t, Job>>, kEngines> wave;

    auto step = [&](size_t r, const JobResult *prev) {
        const auto t0 = Clock::now();
        StepResult s = advance(engines, execs[r], prev);
        if (advance_seconds)
            *advance_seconds += secondsBetween(t0, Clock::now());
        if (advance_calls)
            ++*advance_calls;
        if (s.done)
            final_steps[r] = std::move(s);
        else
            wave[static_cast<size_t>(s.engine)].emplace_back(r,
                                                             std::move(s.job));
    };

    for (size_t r = 0; r < requests.size(); ++r) {
        execs[r].id = r + 1;
        execs[r].cls = requests[r].cls;
        execs[r].body = requests[r].body;
        step(r, nullptr);
    }
    for (;;) {
        bool any = false;
        std::array<std::vector<std::pair<size_t, Job>>, kEngines> current;
        current.swap(wave);
        for (size_t e = 0; e < kEngines; ++e) {
            if (current[e].empty())
                continue;
            any = true;
            std::vector<Job> jobs;
            std::vector<size_t> owners;
            jobs.reserve(current[e].size());
            for (const auto &[r, job] : current[e]) {
                jobs.push_back(job);
                owners.push_back(r);
            }
            std::vector<JobResult> results =
                run(static_cast<EngineId>(e), std::move(jobs), owners);
            for (size_t i = 0; i < results.size(); ++i) {
                const size_t r = current[e][i].first;
                step(r, &results[i]);
                if (hops)
                    hops->push_back({r, static_cast<EngineId>(e),
                                     std::move(current[e][i].second),
                                     std::move(results[i])});
            }
        }
        if (!any)
            break;
    }
    return final_steps;
}

bool
responseMatches(const Request &req, const StepResult &step)
{
    return step.done && step.status == Status::kOk &&
           step.response == req.expected;
}

} // namespace perfbench
