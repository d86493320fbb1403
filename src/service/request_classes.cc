#include "service/request_classes.h"

#include <algorithm>

#include "coding/decoder_kernels.h"
#include "common/logging.h"
#include "gf/poly.h"
#include "kernels/batch_kernels.h"
#include "kernels/wide_kernels.h"

#include "isa/assembler.h"

namespace gfp::service {

namespace {

constexpr size_t kLocBytes = 12;    ///< lambda/locs/evals buffer size
constexpr size_t kRkeyBytes = 176;  ///< AES-128: 11 round keys x 16B
constexpr size_t kScalarBytes = 16; ///< kwords buffer
constexpr size_t kCoordBytes = 32;  ///< qx/qy/resx/resy buffers

bool
allZero(const std::vector<uint8_t> &v)
{
    return std::all_of(v.begin(), v.end(),
                       [](uint8_t b) { return b == 0; });
}

/** Host-side codeword check: reference syndromes over @p field. */
bool
verifiesAsCodeword(const GFField &field, const std::vector<uint8_t> &word,
                   unsigned two_t)
{
    std::vector<GFElem> sym(word.begin(), word.end());
    auto synd = syndromes(field, sym, two_t);
    return std::all_of(synd.begin(), synd.end(),
                       [](GFElem s) { return s == 0; });
}

StepResult
finish(Status status, std::vector<uint8_t> response = {},
       uint8_t trap_kind = 0)
{
    StepResult r;
    r.done = true;
    r.status = status;
    r.trap_kind = trap_kind;
    r.response = std::move(response);
    return r;
}

StepResult
hop(EngineId engine, Job job)
{
    StepResult r;
    r.engine = engine;
    r.job = std::move(job);
    return r;
}

/** Kernel-produced Chien locations are untrusted output: anything
 *  outside [0, n) (or shorter than nloc) must fail the decode before
 *  it becomes a host-buffer index. */
bool
locsInRange(const std::vector<uint8_t> &locs, uint32_t nloc, unsigned n)
{
    if (locs.size() < nloc)
        return false;
    return std::all_of(locs.begin(), locs.begin() + nloc,
                       [n](uint8_t l) { return l < n; });
}

/** u8 ok + codeword (zeros when failed) — decode-class response. */
std::vector<uint8_t>
decodeResponse(bool ok, const std::vector<uint8_t> &codeword, unsigned n)
{
    std::vector<uint8_t> out;
    out.reserve(1 + n);
    out.push_back(ok ? 1 : 0);
    if (ok)
        out.insert(out.end(), codeword.begin(), codeword.end());
    else
        out.insert(out.end(), n, 0);
    return out;
}

} // namespace

const char *
engineName(EngineId id)
{
    switch (id) {
    case EngineId::kRsSynd:
        return "rs_synd";
    case EngineId::kRsBma:
        return "rs_bma";
    case EngineId::kRsChien:
        return "rs_chien";
    case EngineId::kRsForney:
        return "rs_forney";
    case EngineId::kBchSynd:
        return "bch_synd";
    case EngineId::kBchBma:
        return "bch_bma";
    case EngineId::kBchChien:
        return "bch_chien";
    case EngineId::kAesBlock:
        return "aes_block";
    case EngineId::kEcdh:
        return "ecdh";
    case EngineId::kCount:
        break;
    }
    return "unknown";
}

EngineSet::EngineSet(const BatchEngine::Options &opts) : f8_(8), f5_(5)
{
    engines_.resize(count());
    auto make = [&](EngineId id, BatchProgram bp) {
        engines_[static_cast<size_t>(id)] =
            std::make_unique<BatchEngine>(std::move(bp), opts);
    };
    make(EngineId::kRsSynd, syndromeBatchProgram(f8_, kRsN, 2 * kRsT));
    make(EngineId::kRsBma, bmaBatchProgram(f8_, 2 * kRsT));
    make(EngineId::kRsChien, chienBatchProgram(f8_, kRsN, kRsT));
    make(EngineId::kRsForney, forneyBatchProgram(f8_, 2 * kRsT));
    make(EngineId::kBchSynd, syndromeBatchProgram(f5_, kBchN, 2 * kBchT));
    make(EngineId::kBchBma, bmaBatchProgram(f5_, 2 * kBchT));
    make(EngineId::kBchChien, chienBatchProgram(f5_, kBchN, kBchT));
    make(EngineId::kAesBlock, aesBlockBatchProgram());
    make(EngineId::kEcdh,
         BatchProgram{Assembler::assemble(scalarMultAsm(true)),
                      CoreKind::kGfProcessor});
}

BatchEngine &
EngineSet::engine(EngineId id)
{
    GFP_ASSERT(id < EngineId::kCount, "bad engine id %u",
               static_cast<unsigned>(id));
    return *engines_[static_cast<size_t>(id)];
}

const BatchEngine &
EngineSet::engine(EngineId id) const
{
    GFP_ASSERT(id < EngineId::kCount, "bad engine id %u",
               static_cast<unsigned>(id));
    return *engines_[static_cast<size_t>(id)];
}

bool
isComputeClass(RequestClass cls)
{
    switch (cls) {
    case RequestClass::kRsSyndrome:
    case RequestClass::kRsBma:
    case RequestClass::kRsChien:
    case RequestClass::kRsForney:
    case RequestClass::kRsDecode:
    case RequestClass::kBchDecode:
    case RequestClass::kAesCtrBlock:
    case RequestClass::kEcdhShared:
    case RequestClass::kRsErasure:
        return true;
    case RequestClass::kStats:
    case RequestClass::kPing:
        return false;
    }
    return false;
}

bool
validateBody(RequestClass cls, const uint8_t *body, size_t len)
{
    switch (cls) {
    case RequestClass::kRsSyndrome:
    case RequestClass::kRsDecode:
        return len == kRsN;
    case RequestClass::kRsBma:
        return len == 2 * kRsT;
    case RequestClass::kRsChien:
        return len == kLocBytes;
    case RequestClass::kRsForney: {
        if (len != 2 * kRsT + 2 * kLocBytes + 4)
            return false;
        uint32_t nloc = getU32(body + 2 * kRsT + 2 * kLocBytes);
        return nloc <= kLocBytes;
    }
    case RequestClass::kBchDecode:
        if (len != kBchN)
            return false;
        return std::all_of(body, body + len,
                           [](uint8_t b) { return b <= 1; });
    case RequestClass::kAesCtrBlock:
        return len == kRkeyBytes + 16;
    case RequestClass::kEcdhShared: {
        if (len != 2 * kCoordBytes + kScalarBytes + 4)
            return false;
        uint32_t kbits = getU32(body + 2 * kCoordBytes + kScalarBytes);
        return kbits <= kMaxScalarBits;
    }
    case RequestClass::kRsErasure: {
        if (len < kRsN + 1)
            return false;
        unsigned e = body[kRsN];
        if (e < 1 || e > kMaxErasures || len != kRsN + 1 + e)
            return false;
        // Positions must be in range and distinct.
        for (unsigned i = 0; i < e; ++i) {
            if (body[kRsN + 1 + i] >= kRsN)
                return false;
            for (unsigned j = 0; j < i; ++j)
                if (body[kRsN + 1 + i] == body[kRsN + 1 + j])
                    return false;
        }
        return true;
    }
    case RequestClass::kStats:
        return len == 0;
    case RequestClass::kPing:
        return len <= 64;
    }
    return false;
}

namespace {

/** Shared decode chain for kRsDecode/kBchDecode.  The two codes run the
 *  same generic kernels; they differ in field, n, t, engine ids, and
 *  how a correction is applied (symbol XOR vs bit flip). */
StepResult
advanceDecode(const EngineSet &engines, RequestExec &ex,
              const JobResult *prev, bool bch)
{
    const GFField &field =
        bch ? engines.bchField() : engines.rsField();
    const unsigned n = bch ? kBchN : kRsN;
    const unsigned t = bch ? kBchT : kRsT;
    const EngineId synd_e = bch ? EngineId::kBchSynd : EngineId::kRsSynd;
    const EngineId bma_e = bch ? EngineId::kBchBma : EngineId::kRsBma;
    const EngineId chien_e =
        bch ? EngineId::kBchChien : EngineId::kRsChien;

    switch (ex.stage) {
    case 0:
        ex.work.assign(ex.body.begin(), ex.body.begin() + n);
        ex.stage = 1;
        return hop(synd_e,
                   syndromeJob(std::vector<GFElem>(ex.work.begin(),
                                                   ex.work.end()),
                               2 * t));
    case 1:
        ex.synd = prev->bytes("synd");
        if (allZero(ex.synd))
            return finish(Status::kOk, decodeResponse(true, ex.work, n));
        ex.stage = 2;
        return hop(bma_e, bmaJob(ex.synd));
    case 2:
        ex.lambda = prev->bytes("lambda");
        ex.llen = prev->word("llen");
        ex.stage = 3;
        return hop(chien_e, chienJob(ex.lambda));
    case 3: {
        ex.locs = prev->bytes("locs");
        ex.nloc = prev->word("nloc");
        if (ex.nloc != ex.llen || ex.llen > t ||
            !locsInRange(ex.locs, ex.nloc, n))
            return finish(Status::kOk, decodeResponse(false, {}, n));
        if (bch) {
            // Binary code: the error value at a located position is
            // always a bit flip; no Forney stage.
            auto fixed = ex.work;
            for (uint32_t i = 0; i < ex.nloc; ++i)
                fixed[ex.locs[i]] ^= 1;
            bool ok = verifiesAsCodeword(field, fixed, 2 * t);
            return finish(Status::kOk,
                          decodeResponse(ok, ok ? fixed : ex.work, n));
        }
        ex.stage = 4;
        return hop(EngineId::kRsForney,
                   forneyJob(ex.synd, ex.lambda, ex.locs, ex.nloc));
    }
    case 4: {
        const auto &evals = prev->bytes("evals");
        if (evals.size() < ex.nloc)
            return finish(Status::kOk, decodeResponse(false, {}, n));
        auto fixed = ex.work;
        for (uint32_t i = 0; i < ex.nloc; ++i)
            fixed[ex.locs[i]] ^= evals[i];
        bool ok = verifiesAsCodeword(field, fixed, 2 * t);
        return finish(Status::kOk,
                      decodeResponse(ok, ok ? fixed : ex.work, n));
    }
    default:
        GFP_FATAL("decode request in impossible stage %u", ex.stage);
    }
}

StepResult
advanceErasure(const EngineSet &engines, RequestExec &ex,
               const JobResult *prev)
{
    switch (ex.stage) {
    case 0: {
        ex.work.assign(ex.body.begin(), ex.body.begin() + kRsN);
        ex.stage = 1;
        return hop(EngineId::kRsSynd,
                   syndromeJob(std::vector<GFElem>(ex.work.begin(),
                                                   ex.work.end()),
                               2 * kRsT));
    }
    case 1: {
        ex.synd = prev->bytes("synd");
        if (allZero(ex.synd))
            return finish(Status::kOk,
                          decodeResponse(true, ex.work, kRsN));
        // Host side: erasure locator Gamma from the declared positions;
        // the Forney kernel then computes the erased values directly
        // (no BMA/Chien — the locations are known).
        const unsigned e = ex.body[kRsN];
        std::vector<unsigned> positions(e);
        for (unsigned i = 0; i < e; ++i)
            positions[i] = ex.body[kRsN + 1 + i];
        GFPoly gamma = erasureLocator(engines.rsField(), positions);
        ex.lambda.assign(kLocBytes, 0);
        for (unsigned i = 0;
             i <= static_cast<unsigned>(gamma.degree()) && i < kLocBytes;
             ++i)
            ex.lambda[i] = static_cast<uint8_t>(gamma.coeff(i));
        ex.locs.assign(kLocBytes, 0);
        for (unsigned i = 0; i < e; ++i)
            ex.locs[i] = static_cast<uint8_t>(positions[i]);
        ex.nloc = e;
        ex.stage = 2;
        return hop(EngineId::kRsForney,
                   forneyJob(ex.synd, ex.lambda, ex.locs, ex.nloc));
    }
    case 2: {
        const auto &evals = prev->bytes("evals");
        if (evals.size() < ex.nloc)
            return finish(Status::kOk,
                          decodeResponse(false, {}, kRsN));
        auto fixed = ex.work;
        for (uint32_t i = 0; i < ex.nloc; ++i)
            fixed[ex.locs[i]] ^= evals[i];
        // Declared erasures may not be the whole story (undeclared
        // errors elsewhere); only a verified codeword counts.
        bool ok = verifiesAsCodeword(engines.rsField(), fixed, 2 * kRsT);
        return finish(Status::kOk,
                      decodeResponse(ok, ok ? fixed : ex.work, kRsN));
    }
    default:
        GFP_FATAL("erasure request in impossible stage %u", ex.stage);
    }
}

} // namespace

StepResult
advance(const EngineSet &engines, RequestExec &ex, const JobResult *prev)
{
    // A trap at any stage terminates the request: the guest fault is
    // reported, never retried (the engine already isolated it).
    if (prev && !prev->ok())
        return finish(Status::kTrapped, {},
                      static_cast<uint8_t>(prev->trap.kind));

    switch (ex.cls) {
    case RequestClass::kRsSyndrome:
        if (ex.stage == 0) {
            ex.stage = 1;
            return hop(EngineId::kRsSynd,
                       syndromeJob(std::vector<GFElem>(ex.body.begin(),
                                                       ex.body.end()),
                                   2 * kRsT));
        }
        return finish(Status::kOk, prev->bytes("synd"));

    case RequestClass::kRsBma:
        if (ex.stage == 0) {
            ex.stage = 1;
            return hop(EngineId::kRsBma, bmaJob(ex.body));
        }
        else {
            std::vector<uint8_t> out = prev->bytes("lambda");
            putU32(out, prev->word("llen"));
            return finish(Status::kOk, std::move(out));
        }

    case RequestClass::kRsChien:
        if (ex.stage == 0) {
            ex.stage = 1;
            return hop(EngineId::kRsChien, chienJob(ex.body));
        }
        else {
            std::vector<uint8_t> out = prev->bytes("locs");
            putU32(out, prev->word("nloc"));
            return finish(Status::kOk, std::move(out));
        }

    case RequestClass::kRsForney:
        if (ex.stage == 0) {
            ex.stage = 1;
            const uint8_t *b = ex.body.data();
            std::vector<uint8_t> synd(b, b + 2 * kRsT);
            std::vector<uint8_t> lambda(b + 2 * kRsT,
                                        b + 2 * kRsT + kLocBytes);
            std::vector<uint8_t> locs(b + 2 * kRsT + kLocBytes,
                                      b + 2 * kRsT + 2 * kLocBytes);
            uint32_t nloc = getU32(b + 2 * kRsT + 2 * kLocBytes);
            return hop(EngineId::kRsForney,
                       forneyJob(synd, lambda, locs, nloc));
        }
        return finish(Status::kOk, prev->bytes("evals"));

    case RequestClass::kRsDecode:
        return advanceDecode(engines, ex, prev, /*bch=*/false);
    case RequestClass::kBchDecode:
        return advanceDecode(engines, ex, prev, /*bch=*/true);
    case RequestClass::kRsErasure:
        return advanceErasure(engines, ex, prev);

    case RequestClass::kAesCtrBlock:
        if (ex.stage == 0) {
            ex.stage = 1;
            Job job;
            job.inputs.emplace_back(
                "rkeys", std::vector<uint8_t>(ex.body.begin(),
                                              ex.body.begin() + kRkeyBytes));
            job.inputs.emplace_back(
                "state", std::vector<uint8_t>(ex.body.begin() + kRkeyBytes,
                                              ex.body.end()));
            job.outputs.emplace_back("state", 16);
            return hop(EngineId::kAesBlock, std::move(job));
        }
        return finish(Status::kOk, prev->bytes("state"));

    case RequestClass::kEcdhShared:
        if (ex.stage == 0) {
            ex.stage = 1;
            const uint8_t *b = ex.body.data();
            Job job;
            job.inputs.emplace_back(
                "qx", std::vector<uint8_t>(b, b + kCoordBytes));
            job.inputs.emplace_back(
                "qy",
                std::vector<uint8_t>(b + kCoordBytes, b + 2 * kCoordBytes));
            job.inputs.emplace_back(
                "kwords",
                std::vector<uint8_t>(b + 2 * kCoordBytes,
                                     b + 2 * kCoordBytes + kScalarBytes));
            job.word_inputs.emplace_back(
                "kbits", getU32(b + 2 * kCoordBytes + kScalarBytes));
            job.outputs.emplace_back("resx", kCoordBytes);
            job.outputs.emplace_back("resy", kCoordBytes);
            return hop(EngineId::kEcdh, std::move(job));
        }
        else {
            std::vector<uint8_t> out = prev->bytes("resx");
            const auto &resy = prev->bytes("resy");
            out.insert(out.end(), resy.begin(), resy.end());
            return finish(Status::kOk, std::move(out));
        }

    case RequestClass::kStats:
    case RequestClass::kPing:
        break;
    }
    GFP_FATAL("advance() on non-compute class 0x%02x",
              static_cast<unsigned>(ex.cls));
}

JobResult
runHop(EngineSet &engines, EngineMachines &machines, const StepResult &step)
{
    GFP_ASSERT(!step.done, "runHop() on a finished request");
    return engines.engine(step.engine)
        .runOn(machines[static_cast<size_t>(step.engine)], step.job);
}

// ---- body builders ----

std::vector<uint8_t>
rsSyndromeBody(const std::vector<uint8_t> &rx)
{
    GFP_ASSERT(rx.size() == kRsN, "rs body wants %u bytes, got %zu",
               kRsN, rx.size());
    return rx;
}

std::vector<uint8_t>
rsBmaBody(const std::vector<uint8_t> &synd)
{
    GFP_ASSERT(synd.size() == 2 * kRsT, "bma body wants %u bytes",
               2 * kRsT);
    return synd;
}

std::vector<uint8_t>
rsChienBody(const std::vector<uint8_t> &lambda)
{
    GFP_ASSERT(lambda.size() == kLocBytes, "chien body wants %zu bytes",
               kLocBytes);
    return lambda;
}

std::vector<uint8_t>
rsForneyBody(const std::vector<uint8_t> &synd,
             const std::vector<uint8_t> &lambda,
             const std::vector<uint8_t> &locs, uint32_t nloc)
{
    GFP_ASSERT(synd.size() == 2 * kRsT && lambda.size() == kLocBytes &&
                   locs.size() == kLocBytes,
               "forney body part sizes wrong");
    std::vector<uint8_t> out = synd;
    out.insert(out.end(), lambda.begin(), lambda.end());
    out.insert(out.end(), locs.begin(), locs.end());
    putU32(out, nloc);
    return out;
}

std::vector<uint8_t>
rsDecodeBody(const std::vector<uint8_t> &rx)
{
    return rsSyndromeBody(rx);
}

std::vector<uint8_t>
bchDecodeBody(const std::vector<uint8_t> &rx_bits)
{
    GFP_ASSERT(rx_bits.size() == kBchN, "bch body wants %u bits", kBchN);
    return rx_bits;
}

std::vector<uint8_t>
aesCtrBlockBody(const std::vector<uint8_t> &rkeys,
                const std::vector<uint8_t> &counter)
{
    GFP_ASSERT(rkeys.size() == kRkeyBytes && counter.size() == 16,
               "aes body part sizes wrong");
    std::vector<uint8_t> out = rkeys;
    out.insert(out.end(), counter.begin(), counter.end());
    return out;
}

std::vector<uint8_t>
ecdhSharedBody(const std::vector<uint8_t> &qx,
               const std::vector<uint8_t> &qy,
               const std::vector<uint8_t> &kwords, uint32_t kbits)
{
    GFP_ASSERT(qx.size() == kCoordBytes && qy.size() == kCoordBytes &&
                   kwords.size() == kScalarBytes,
               "ecdh body part sizes wrong");
    std::vector<uint8_t> out = qx;
    out.insert(out.end(), qy.begin(), qy.end());
    out.insert(out.end(), kwords.begin(), kwords.end());
    putU32(out, kbits);
    return out;
}

std::vector<uint8_t>
rsErasureBody(const std::vector<uint8_t> &rx,
              const std::vector<uint8_t> &positions)
{
    GFP_ASSERT(rx.size() == kRsN, "erasure body wants %u-byte word",
               kRsN);
    GFP_ASSERT(positions.size() >= 1 && positions.size() <= kMaxErasures,
               "erasure count %zu out of range", positions.size());
    std::vector<uint8_t> out = rx;
    out.push_back(static_cast<uint8_t>(positions.size()));
    out.insert(out.end(), positions.begin(), positions.end());
    return out;
}

} // namespace gfp::service
