/**
 * @file
 * Tests for the structural GF arithmetic unit model: the reduction
 * matrix derivation, the mapping circuit's handling of small bit
 * widths, every SIMD instruction against the GFField golden model, the
 * Itoh-Tsujii inverse network's unit budget, and the 32-bit partial
 * product tree.
 */

#include <gtest/gtest.h>

#include <memory>

#include "common/bitops.h"
#include "common/random.h"
#include "gf/field.h"
#include "gf/polys.h"
#include "gfau/gf_unit.h"

namespace gfp {
namespace {

TEST(GFConfig, DeriveMatchesFieldReduction)
{
    // Column j of P must equal x^(m+j) mod r(x).
    for (unsigned m = 2; m <= 8; ++m) {
        for (uint32_t poly : irreduciblePolys(m)) {
            GFField f(m, poly);
            GFConfig cfg = GFConfig::derive(m, poly);
            for (unsigned j = 0; j + 1 < m; ++j) {
                EXPECT_EQ(cfg.p_cols[j], f.reduce(1u << (m + j)))
                    << "m=" << m << " poly=" << poly << " j=" << j;
            }
        }
    }
}

TEST(GFConfig, PackUnpackRoundTrip)
{
    for (unsigned m = 2; m <= 8; ++m) {
        GFConfig cfg = GFConfig::derive(m, defaultPrimitivePoly(m));
        GFConfig back = GFConfig::unpack(cfg.pack());
        EXPECT_EQ(back, cfg);
    }
}

TEST(GFConfig, PackFitsIn60Bits)
{
    GFConfig cfg = GFConfig::derive(8, 0x11d);
    EXPECT_EQ(cfg.pack() >> 60, 0u);
}

TEST(GFConfig, RejectsBadInputs)
{
    EXPECT_DEATH(GFConfig::derive(9, 0x211), "field widths 2..8");
    EXPECT_DEATH(GFConfig::derive(8, 0x101), "not irreducible");
}

class GfauVsGolden
    : public ::testing::TestWithParam<std::pair<unsigned, uint32_t>>
{
  protected:
    void
    SetUp() override
    {
        auto [m, poly] = GetParam();
        field_ = std::make_unique<GFField>(m, poly);
        unit_.configureField(m, poly);
    }

    std::unique_ptr<GFField> field_;
    GFArithmeticUnit unit_;
};

TEST_P(GfauVsGolden, SimdMultMatchesExhaustively)
{
    auto [m, poly] = GetParam();
    const uint32_t order = 1u << m;
    // Sweep all (a, b) pairs through lane 0 while loading the other
    // lanes with shifted copies to confirm lane independence.
    for (uint32_t a = 0; a < order; ++a) {
        for (uint32_t b = 0; b < order; ++b) {
            uint32_t av = splat(static_cast<uint8_t>(a));
            uint32_t bv = splat(static_cast<uint8_t>(b));
            uint32_t r = unit_.simdMult(av, bv);
            GFElem expect = field_->mul(a, b);
            for (unsigned l = 0; l < 4; ++l)
                ASSERT_EQ(lane(r, l), expect)
                    << "m=" << m << " a=" << a << " b=" << b;
        }
    }
}

TEST_P(GfauVsGolden, SimdLanesAreIndependent)
{
    auto [m, poly] = GetParam();
    Rng rng(m * 7919u + poly);
    const uint8_t mask = static_cast<uint8_t>((1u << m) - 1);
    for (int i = 0; i < 200; ++i) {
        uint32_t a = rng.next32(), b = rng.next32();
        uint32_t r = unit_.simdMult(a, b);
        for (unsigned l = 0; l < 4; ++l) {
            EXPECT_EQ(lane(r, l),
                      field_->mul(lane(a, l) & mask, lane(b, l) & mask));
        }
    }
}

TEST_P(GfauVsGolden, SimdSquareMatches)
{
    auto [m, poly] = GetParam();
    for (uint32_t a = 0; a < (1u << m); ++a) {
        uint32_t r = unit_.simdSquare(splat(static_cast<uint8_t>(a)));
        for (unsigned l = 0; l < 4; ++l)
            ASSERT_EQ(lane(r, l), field_->sqr(a)) << "a=" << a;
    }
}

TEST_P(GfauVsGolden, SimdInverseMatches)
{
    auto [m, poly] = GetParam();
    for (uint32_t a = 0; a < (1u << m); ++a) {
        uint32_t r = unit_.simdInverse(splat(static_cast<uint8_t>(a)));
        for (unsigned l = 0; l < 4; ++l)
            ASSERT_EQ(lane(r, l), field_->inv(a)) << "a=" << a;
    }
}

TEST_P(GfauVsGolden, SimdPowerMatches)
{
    auto [m, poly] = GetParam();
    Rng rng(m * 104729u + poly);
    for (int i = 0; i < 300; ++i) {
        uint8_t a = rng.below(1u << m);
        uint8_t e = rng.nextByte();
        uint32_t r = unit_.simdPower(splat(a), splat(e));
        GFElem expect = field_->pow(a, e);
        for (unsigned l = 0; l < 4; ++l)
            ASSERT_EQ(lane(r, l), expect) << "a=" << int(a)
                                          << " e=" << int(e);
    }
}

TEST_P(GfauVsGolden, SimdAddIsXor)
{
    Rng rng(31);
    for (int i = 0; i < 100; ++i) {
        uint32_t a = rng.next32(), b = rng.next32();
        EXPECT_EQ(unit_.simdAdd(a, b), a ^ b);
    }
}

std::vector<std::pair<unsigned, uint32_t>>
representativeConfigs()
{
    // Default polynomial for each width, plus the AES polynomial and a
    // couple of non-default choices to exercise arbitrary-poly support.
    std::vector<std::pair<unsigned, uint32_t>> cfgs;
    for (unsigned m = 2; m <= 8; ++m)
        cfgs.emplace_back(m, defaultPrimitivePoly(m));
    cfgs.emplace_back(8, kAesPoly);
    cfgs.emplace_back(5, 0x3b); // x^5+x^4+x^3+x+1 (non-default)
    cfgs.emplace_back(6, 0x6d); // non-default degree-6
    return cfgs;
}

INSTANTIATE_TEST_SUITE_P(
    Configs, GfauVsGolden, ::testing::ValuesIn(representativeConfigs()),
    [](const ::testing::TestParamInfo<std::pair<unsigned, uint32_t>> &i) {
        return "m" + std::to_string(i.param.first) + "_poly" +
               std::to_string(i.param.second);
    });

TEST(Gfau, EveryIrreduciblePolySpotCheck)
{
    // Arbitrary-polynomial support: every irreducible polynomial for
    // every width, random multiplications vs. the golden model.
    Rng rng(2024);
    for (unsigned m = 2; m <= 8; ++m) {
        for (uint32_t poly : irreduciblePolys(m)) {
            GFField f(m, poly);
            GFArithmeticUnit u;
            u.configureField(m, poly);
            for (int i = 0; i < 32; ++i) {
                uint8_t a = rng.below(1u << m);
                uint8_t b = rng.below(1u << m);
                ASSERT_EQ(lane(u.simdMult(splat(a), splat(b)), 0),
                          f.mul(a, b))
                    << "m=" << m << " poly=0x" << std::hex << poly;
            }
        }
    }
}

TEST(Gfau, SmallWidthIsNotJustZeroPadding)
{
    // The paper's Sec 2.3 design challenge: running GF(2^5) data through
    // the GF(2^8) datapath with MSBs zeroed must NOT give the right
    // answer, which is exactly why the mapping circuit exists.
    GFField f5(5, 0x25);
    GFArithmeticUnit u8;
    u8.configureField(8, 0x11d);
    bool any_mismatch = false;
    for (uint32_t a = 0; a < 32 && !any_mismatch; ++a) {
        for (uint32_t b = 0; b < 32; ++b) {
            uint8_t wrong = lane(u8.simdMult(splat(a), splat(b)), 0);
            if (wrong != f5.mul(a, b)) {
                any_mismatch = true;
                break;
            }
        }
    }
    EXPECT_TRUE(any_mismatch);
}

TEST(Gfau, Mult32MatchesClmul)
{
    GFArithmeticUnit u;
    Rng rng(5);
    for (int i = 0; i < 500; ++i) {
        uint32_t a = rng.next32(), b = rng.next32();
        uint32_t hi, lo;
        u.mult32(a, b, hi, lo);
        uint64_t expect = clmul32(a, b);
        EXPECT_EQ(lo, static_cast<uint32_t>(expect));
        EXPECT_EQ(hi, static_cast<uint32_t>(expect >> 32));
    }
}

TEST(Gfau, Mult32IndependentOfFieldConfig)
{
    // The 32-bit partial product bypasses (data-gates) the reduction
    // stage, so the configured field must not affect it.
    GFArithmeticUnit u5, u8;
    u5.configureField(5, 0x25);
    u8.configureField(8, kAesPoly);
    Rng rng(6);
    for (int i = 0; i < 100; ++i) {
        uint32_t a = rng.next32(), b = rng.next32();
        uint32_t h5, l5, h8, l8;
        u5.mult32(a, b, h5, l5);
        u8.mult32(a, b, h8, l8);
        EXPECT_EQ(h5, h8);
        EXPECT_EQ(l5, l8);
    }
}

TEST(Gfau, InverseUnitBudgetForGf256)
{
    // Fig. 6 / Sec. 2.4.1: a 4-way SIMD inverse in GF(2^8) uses exactly
    // 16 multiplications (4 per lane) and 28 squares (7 per lane).
    GFArithmeticUnit u;
    u.configureField(8, 0x11d);
    u.resetStats();
    u.simdInverse(0x01020304);
    EXPECT_EQ(u.multUnitActivations(), 16u);
    EXPECT_EQ(u.squareUnitActivations(), 28u);
}

TEST(Gfau, InverseUnitBudgetScalesDown)
{
    // Smaller fields "mux out" earlier powers: GF(2^4) needs 2 mults
    // and 3 squares per lane.
    GFArithmeticUnit u;
    u.configureField(4, 0x13);
    u.resetStats();
    u.simdInverse(0x01020304);
    EXPECT_EQ(u.multUnitActivations(), 4u * 2);
    EXPECT_EQ(u.squareUnitActivations(), 4u * 3);
}

TEST(Gfau, Mult32UsesAll16Multipliers)
{
    GFArithmeticUnit u;
    u.resetStats();
    uint32_t hi, lo;
    u.mult32(0xdeadbeef, 0x12345678, hi, lo);
    EXPECT_EQ(u.multUnitActivations(), 16u);
    EXPECT_EQ(u.squareUnitActivations(), 0u);
}

TEST(Gfau, StatsCountIssues)
{
    GFArithmeticUnit u;
    u.resetStats();
    u.simdMult(1, 2);
    u.simdMult(3, 4);
    u.simdSquare(5);
    u.simdAdd(6, 7);
    u.simdInverse(8);
    uint32_t hi, lo;
    u.mult32(9, 10, hi, lo);
    EXPECT_EQ(u.stats().simd_mult, 2u);
    EXPECT_EQ(u.stats().simd_square, 1u);
    EXPECT_EQ(u.stats().simd_add, 1u);
    EXPECT_EQ(u.stats().simd_inverse, 1u);
    EXPECT_EQ(u.stats().mult32, 1u);
    EXPECT_EQ(u.stats().total(), 6u);
}

TEST(Gfau, DefaultConfigIsGf256)
{
    GFArithmeticUnit u;
    EXPECT_EQ(u.config().m, 8u);
    // 2 * 0x8d = x * (x^7+x^3+x^2+1); under 0x11d:
    GFField f(8, 0x11d);
    EXPECT_EQ(lane(u.simdMult(splat(0x02), splat(0x8d)), 0),
              f.mul(0x02, 0x8d));
}

TEST(Gfau, PowerOnResetRestoresDefaultConfigWithoutALoad)
{
    // Machine::fullReset runs this before every batch job: a loaded
    // field and an SEU-corrupted register both give way to the
    // power-on GF(2^8)/0x11d, and the reset itself loads nothing.
    GFArithmeticUnit u;
    u.configureField(5, 0x25);
    u.injectConfigBitFlip(3);
    u.simdMult(splat(0x03), splat(0x05));
    u.powerOnReset();
    EXPECT_EQ(u.config(), GFConfig::derive(8, 0x11d));
    EXPECT_EQ(u.config().poly, 0x11du);
    EXPECT_EQ(u.stats().config_loads, 0u);
    EXPECT_EQ(u.stats().total(), 0u);
}

} // namespace
} // namespace gfp
