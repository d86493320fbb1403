/**
 * @file
 * Tests for the error-correction substrate: minimal polynomials, BCH and
 * RS construction (including the paper's BCH(31,11,5) and RS(255,239,8)
 * examples), the four decoder kernels, and end-to-end decode under
 * random correctable error patterns.
 */

#include <gtest/gtest.h>

#include "coding/bch.h"
#include "coding/channel.h"
#include "coding/decoder_kernels.h"
#include "coding/minpoly.h"
#include "coding/rs.h"
#include "common/random.h"

namespace gfp {
namespace {

TEST(Minpoly, CyclotomicCosets)
{
    // GF(2^4): coset of 1 is {1,2,4,8}; coset of 3 is {3,6,12,9}.
    auto c1 = cyclotomicCoset(1, 4);
    EXPECT_EQ(c1, (std::vector<uint32_t>{1, 2, 4, 8}));
    auto c3 = cyclotomicCoset(3, 4);
    EXPECT_EQ(c3, (std::vector<uint32_t>{3, 6, 9, 12}));
    auto c5 = cyclotomicCoset(5, 4);
    EXPECT_EQ(c5, (std::vector<uint32_t>{5, 10}));
}

TEST(Minpoly, MinimalPolyOfAlphaIsFieldPoly)
{
    // The minimal polynomial of alpha itself is the field polynomial.
    for (unsigned m = 3; m <= 8; ++m) {
        GFField f(m);
        EXPECT_EQ(minimalPolynomial(f, 1), Gf2x(f.poly())) << "m=" << m;
    }
}

TEST(Minpoly, RootsAreConjugates)
{
    GFField f(5);
    Gf2x mp = minimalPolynomial(f, 3);
    // Evaluate the binary polynomial at alpha^j for each conjugate.
    for (uint32_t j : cyclotomicCoset(3, 5)) {
        GFElem x = f.exp(j);
        GFElem acc = 0;
        for (int i = mp.degree(); i >= 0; --i)
            acc = f.mul(acc, x) ^ static_cast<GFElem>(mp.getBit(i));
        EXPECT_EQ(acc, 0) << "j=" << j;
    }
}

TEST(Minpoly, KnownBchGenerators)
{
    // BCH(15,7,2) generator: x^8+x^7+x^6+x^4+1 = 0x1d1 (standard).
    GFField f4(4);
    EXPECT_EQ(bchGenerator(f4, 2), Gf2x(0x1d1));
    // BCH(15,5,3): x^10+x^8+x^5+x^4+x^2+x+1 = 0x537.
    EXPECT_EQ(bchGenerator(f4, 3), Gf2x(0x537));
    // BCH(7,4,1) generator is the field polynomial x^3+x+1.
    GFField f3(3);
    EXPECT_EQ(bchGenerator(f3, 1), Gf2x(0xb));
}

TEST(Bch, PaperCodeParameters)
{
    // The paper's example: BCH(31,11,5) on GF(2^5).
    BCHCode code(5, 5);
    EXPECT_EQ(code.n(), 31u);
    EXPECT_EQ(code.k(), 11u);
    EXPECT_EQ(code.t(), 5u);
}

TEST(Bch, WellKnownCodeDimensions)
{
    struct { unsigned m, t, k; } cases[] = {
        {4, 1, 11}, {4, 2, 7}, {4, 3, 5},
        {5, 1, 26}, {5, 2, 21}, {5, 3, 16},
        {6, 1, 57}, {6, 2, 51}, {6, 3, 45},  // the WBAN (63,51,2) code
        {7, 1, 120}, {8, 2, 239},
    };
    for (auto c : cases) {
        BCHCode code(c.m, c.t);
        EXPECT_EQ(code.k(), c.k) << "m=" << c.m << " t=" << c.t;
    }
}

TEST(Bch, EncodeIsSystematicAndValid)
{
    BCHCode code(5, 5);
    Rng rng(1);
    for (int trial = 0; trial < 20; ++trial) {
        std::vector<uint8_t> info(code.k());
        for (auto &b : info)
            b = rng.below(2);
        auto cw = code.encode(info);
        EXPECT_EQ(cw.size(), code.n());
        EXPECT_TRUE(code.isCodeword(cw));
        EXPECT_EQ(code.extractInfo(cw), info);
    }
}

TEST(Bch, CorrectsUpToTErrors)
{
    for (auto [m, t] : {std::pair{5u, 5u}, {4u, 3u}, {6u, 2u}}) {
        BCHCode code(m, t);
        Rng rng(m * 100 + t);
        ExactErrorInjector inj(m * 7 + t);
        for (unsigned errors = 0; errors <= t; ++errors) {
            for (int trial = 0; trial < 10; ++trial) {
                std::vector<uint8_t> info(code.k());
                for (auto &b : info)
                    b = rng.below(2);
                auto cw = code.encode(info);
                auto rx = inj.flipBits(cw, errors);
                auto res = code.decode(rx);
                EXPECT_TRUE(res.ok) << "m=" << m << " t=" << t
                                    << " errors=" << errors;
                EXPECT_EQ(res.codeword, cw);
                EXPECT_EQ(res.errors, errors);
            }
        }
    }
}

TEST(Bch, DetectsBeyondTMostly)
{
    // t+1 errors must never be "corrected" into the wrong info silently
    // claiming the original; either flagged or corrected to a different
    // valid codeword (which we count — it must be a codeword).
    BCHCode code(5, 5);
    Rng rng(77);
    ExactErrorInjector inj(78);
    for (int trial = 0; trial < 30; ++trial) {
        std::vector<uint8_t> info(code.k());
        for (auto &b : info)
            b = rng.below(2);
        auto cw = code.encode(info);
        auto rx = inj.flipBits(cw, code.t() + 1);
        auto res = code.decode(rx);
        if (res.ok) {
            EXPECT_TRUE(code.isCodeword(res.codeword));
        }
    }
}

TEST(Rs, PaperCodeParameters)
{
    RSCode code(8, 8); // RS(255,239,8)
    EXPECT_EQ(code.n(), 255u);
    EXPECT_EQ(code.k(), 239u);
    EXPECT_EQ(code.generator().degree(), 16);
}

TEST(Rs, GeneratorHasRootsAtAlphaPowers)
{
    RSCode code(8, 8);
    const GFField &f = code.field();
    for (unsigned j = 1; j <= 16; ++j)
        EXPECT_EQ(code.generator().eval(f.exp(j)), 0) << "j=" << j;
    EXPECT_NE(code.generator().eval(f.exp(17)), 0);
}

TEST(Rs, EncodeSystematicAndValid)
{
    RSCode code(8, 8);
    Rng rng(5);
    std::vector<GFElem> info(code.k());
    for (auto &s : info)
        s = rng.nextByte();
    auto cw = code.encode(info);
    EXPECT_EQ(cw.size(), 255u);
    EXPECT_TRUE(code.isCodeword(cw));
    EXPECT_EQ(code.extractInfo(cw), info);
}

TEST(Rs, CorrectsUpToTSymbolErrors)
{
    for (auto [m, t] : {std::pair{8u, 8u}, {8u, 4u}, {4u, 3u}, {5u, 2u}}) {
        RSCode code(m, t);
        Rng rng(m * 31 + t);
        ExactErrorInjector inj(m * 17 + t);
        for (unsigned errors = 0; errors <= t; ++errors) {
            std::vector<GFElem> info(code.k());
            for (auto &s : info)
                s = rng.below(code.field().order());
            auto cw = code.encode(info);
            auto rx = inj.corruptSymbols(cw, errors, m);
            auto res = code.decode(rx);
            EXPECT_TRUE(res.ok) << "m=" << m << " t=" << t
                                << " errors=" << errors;
            EXPECT_EQ(res.codeword, cw);
            EXPECT_EQ(res.errors, errors);
        }
    }
}

TEST(Rs, CorrectsBurstWithinSymbolBudget)
{
    // A burst spanning up to t contiguous symbols is corrected — the
    // multi-burst robustness claim of Sec. 1.1.
    RSCode code(8, 8);
    Rng rng(9);
    std::vector<GFElem> info(code.k());
    for (auto &s : info)
        s = rng.nextByte();
    auto cw = code.encode(info);
    // 60-bit burst = 8 consecutive corrupted symbols (t = 8).
    auto rx = cw;
    for (unsigned i = 100; i < 108; ++i)
        rx[i] ^= static_cast<GFElem>(1 + rng.below(255));
    auto res = code.decode(rx);
    EXPECT_TRUE(res.ok);
    EXPECT_EQ(res.codeword, cw);
}

TEST(Rs, FlagsBeyondT)
{
    // Miscorrection probability beyond t falls roughly like 1/t!, so a
    // t=8 code flags essentially every (t+2)-error pattern.
    RSCode code(8, 8);
    Rng rng(10);
    ExactErrorInjector inj(11);
    unsigned flagged = 0, trials = 30;
    for (unsigned i = 0; i < trials; ++i) {
        std::vector<GFElem> info(code.k());
        for (auto &s : info)
            s = rng.nextByte();
        auto cw = code.encode(info);
        auto rx = inj.corruptSymbols(cw, code.t() + 2, 8);
        auto res = code.decode(rx);
        if (!res.ok)
            ++flagged;
        else
            EXPECT_TRUE(code.isCodeword(res.codeword));
    }
    EXPECT_GE(flagged, trials - 1);
}

TEST(Kernels, SyndromesZeroForCodeword)
{
    RSCode code(8, 8);
    std::vector<GFElem> info(code.k(), 0x42);
    auto cw = code.encode(info);
    for (GFElem s : syndromes(code.field(), cw, 16))
        EXPECT_EQ(s, 0);
}

TEST(Kernels, SyndromesMatchErrorTransform)
{
    // Syndromes of (codeword + e) equal syndromes of e alone:
    // S_j = sum_k e_k alpha^(j * i_k).
    RSCode code(8, 4);
    const GFField &f = code.field();
    std::vector<GFElem> info(code.k(), 7);
    auto cw = code.encode(info);
    auto rx = cw;
    rx[10] ^= 0x21;
    rx[200] ^= 0x05;
    auto synd = syndromes(f, rx, 8);
    for (unsigned j = 1; j <= 8; ++j) {
        GFElem expect = f.mul(0x21, f.pow(f.exp(1), 10 * j)) ^
                        f.mul(0x05, f.pow(f.exp(1), 200 * j));
        EXPECT_EQ(synd[j - 1], expect) << "j=" << j;
    }
}

TEST(Kernels, BmaRecoversLocatorDegree)
{
    RSCode code(8, 8);
    const GFField &f = code.field();
    ExactErrorInjector inj(3);
    std::vector<GFElem> cw(255, 0); // all-zero codeword
    auto rx = inj.corruptSymbols(cw, 5, 8);
    auto synd = syndromes(f, rx, 16);
    GFPoly lambda = berlekampMassey(f, synd);
    EXPECT_EQ(lambda.degree(), 5);
    EXPECT_EQ(lambda.coeff(0), 1);
}

TEST(Kernels, ChienFindsExactLocations)
{
    RSCode code(8, 8);
    const GFField &f = code.field();
    std::vector<GFElem> cw(255, 0);
    auto rx = cw;
    std::vector<unsigned> where{3, 77, 140, 254};
    for (unsigned i : where)
        rx[i] ^= 0x11;
    auto synd = syndromes(f, rx, 16);
    GFPoly lambda = berlekampMassey(f, synd);
    auto locs = chienSearch(f, lambda, 255);
    EXPECT_EQ(locs, where);
}

TEST(Kernels, ForneyRecoversValues)
{
    RSCode code(8, 8);
    const GFField &f = code.field();
    std::vector<GFElem> cw(255, 0);
    auto rx = cw;
    std::vector<std::pair<unsigned, GFElem>> errs{
        {5, 0xaa}, {100, 0x01}, {250, 0x80}};
    for (auto [i, v] : errs)
        rx[i] ^= v;
    auto synd = syndromes(f, rx, 16);
    GFPoly lambda = berlekampMassey(f, synd);
    auto locs = chienSearch(f, lambda, 255);
    ASSERT_EQ(locs.size(), errs.size());
    auto vals = forney(f, synd, lambda, locs);
    for (size_t k = 0; k < errs.size(); ++k) {
        EXPECT_EQ(locs[k], errs[k].first);
        EXPECT_EQ(vals[k], errs[k].second);
    }
}

TEST(Channel, BscStatistics)
{
    BscChannel ch(0.1, 42);
    std::vector<uint8_t> bits(20000, 0);
    auto out = ch.transmit(bits);
    uint64_t flips = 0;
    for (auto b : out)
        flips += b;
    EXPECT_EQ(flips, ch.bitErrors());
    EXPECT_GT(flips, 1600u); // ~2000 expected
    EXPECT_LT(flips, 2400u);
}

TEST(Channel, GilbertElliottBursts)
{
    // A bursty channel at matched average BER produces more clustered
    // errors than a BSC: measure mean run length of errors.
    auto meanRun = [](const std::vector<uint8_t> &v) {
        double runs = 0, errors = 0;
        bool in = false;
        for (auto b : v) {
            if (b) {
                ++errors;
                if (!in)
                    ++runs;
                in = true;
            } else {
                in = false;
            }
        }
        return runs ? errors / runs : 0.0;
    };
    std::vector<uint8_t> zeros(50000, 0);
    BscChannel bsc(0.02, 1);
    GilbertElliottChannel ge(0.002, 0.1, 0.0, 0.4, 2);
    double bsc_run = meanRun(bsc.transmit(zeros));
    double ge_run = meanRun(ge.transmit(zeros));
    EXPECT_GT(ge_run, bsc_run * 1.5);
}

TEST(Channel, ExactInjectorFlipsExactCount)
{
    ExactErrorInjector inj(9);
    std::vector<uint8_t> bits(100, 0);
    auto out = inj.flipBits(bits, 17);
    unsigned flips = 0;
    for (auto b : out)
        flips += b;
    EXPECT_EQ(flips, 17u);

    std::vector<GFElem> sym(50, 3);
    auto cs = inj.corruptSymbols(sym, 9, 8);
    unsigned changed = 0;
    for (size_t i = 0; i < sym.size(); ++i)
        changed += cs[i] != sym[i];
    EXPECT_EQ(changed, 9u);
}

TEST(Coding, RejectsBadParameters)
{
    EXPECT_DEATH(BCHCode(4, 8), "no\n? *information");
    EXPECT_DEATH(RSCode(4, 8), "no information");
    EXPECT_DEATH(BCHCode(8, 2, 0x11b), "primitive");
    // m=4, t=7 is the degenerate repetition code — legal, k = 1.
    BCHCode rep(4, 7);
    EXPECT_EQ(rep.k(), 1u);
}

} // namespace
} // namespace gfp
