/**
 * @file
 * Unit and property tests for GFField — the reference GF(2^m) golden
 * model.  Field axioms are checked across every supported size and, for
 * the GFAU-relevant sizes (m = 2..8), across *every* irreducible
 * polynomial, since arbitrary-polynomial support is the paper's central
 * flexibility claim.
 */

#include <gtest/gtest.h>

#include "common/random.h"
#include "gf/field.h"
#include "gf/polys.h"

namespace gfp {
namespace {

TEST(Polys, DefaultsAreIrreducibleAndPrimitive)
{
    for (unsigned m = 2; m <= 16; ++m) {
        uint32_t p = defaultPrimitivePoly(m);
        EXPECT_TRUE(isIrreducible(p, m)) << "m=" << m;
        EXPECT_TRUE(isPrimitive(p, m)) << "m=" << m;
    }
}

TEST(Polys, AesPolyIrreducibleNotPrimitive)
{
    EXPECT_TRUE(isIrreducible(kAesPoly, 8));
    EXPECT_FALSE(isPrimitive(kAesPoly, 8));
}

TEST(Polys, KnownReducibles)
{
    EXPECT_FALSE(isIrreducible(0x100, 8)); // x^8
    EXPECT_FALSE(isIrreducible(0x101, 8)); // x^8+1 = (x+1)^8
    EXPECT_FALSE(isIrreducible(0x11b, 7)); // wrong degree
    EXPECT_FALSE(isIrreducible(0x6, 2));   // x^2+x = x(x+1)
}

TEST(Polys, IrreducibleCountsMatchTheory)
{
    // Number of monic irreducible polynomials of degree m over GF(2):
    // (1/m) * sum_{d | m} mu(m/d) 2^d.
    EXPECT_EQ(irreduciblePolys(2).size(), 1u);
    EXPECT_EQ(irreduciblePolys(3).size(), 2u);
    EXPECT_EQ(irreduciblePolys(4).size(), 3u);
    EXPECT_EQ(irreduciblePolys(5).size(), 6u);
    EXPECT_EQ(irreduciblePolys(6).size(), 9u);
    EXPECT_EQ(irreduciblePolys(7).size(), 18u);
    EXPECT_EQ(irreduciblePolys(8).size(), 30u);
}

TEST(Field, Gf16KnownMultiplications)
{
    // GF(2^4), x^4 + x + 1: classic examples.
    GFField f(4, 0x13);
    EXPECT_EQ(f.mul(0x8, 0x2), 0x3);  // x^3 * x = x^4 = x + 1
    EXPECT_EQ(f.mul(0x8, 0x8), 0xc);  // x^6 = x^3 + x^2
    EXPECT_EQ(f.mul(0x0, 0xf), 0x0);
    EXPECT_EQ(f.mul(0x1, 0xf), 0xf);
}

TEST(Field, AesKnownMultiplications)
{
    // FIPS-197 example: {57} x {83} = {c1} under 0x11b.
    GFField f(8, kAesPoly);
    EXPECT_EQ(f.mul(0x57, 0x83), 0xc1);
    EXPECT_EQ(f.mul(0x57, 0x13), 0xfe);
    EXPECT_EQ(f.mul(0x02, 0x80), 0x1b); // the reduction case
}

TEST(Field, AesInverseSpotChecks)
{
    GFField f(8, kAesPoly);
    // Known AES inverse pairs (S-box pre-affine).
    EXPECT_EQ(f.inv(0x01), 0x01);
    EXPECT_EQ(f.inv(0x53), 0xca);
    EXPECT_EQ(f.inv(0xca), 0x53);
    EXPECT_EQ(f.inv(0x00), 0x00); // hardware convention
}

class FieldAxioms : public ::testing::TestWithParam<std::pair<unsigned,
                                                              uint32_t>>
{
};

TEST_P(FieldAxioms, ExhaustiveForSmallFields)
{
    auto [m, poly] = GetParam();
    GFField f(m, poly);
    const uint32_t order = f.order();

    // Exhaustive for m <= 6, randomized triples for larger fields.
    if (m <= 6) {
        for (uint32_t a = 0; a < order; ++a) {
            for (uint32_t b = 0; b < order; ++b) {
                GFElem ab = f.mul(a, b);
                // commutativity + agreement of the three multiply paths
                EXPECT_EQ(ab, f.mul(b, a));
                EXPECT_EQ(ab, f.mulCarryless(a, b));
                EXPECT_EQ(ab, f.mulTable(a, b));
                // closure
                EXPECT_LT(ab, order);
            }
            // identities
            EXPECT_EQ(f.mul(a, 1), a);
            EXPECT_EQ(f.mul(a, 0), 0);
            EXPECT_EQ(f.sqr(a), f.mul(a, a));
            if (a != 0) {
                EXPECT_EQ(f.mul(a, f.inv(a)), 1) << "a=" << a;
                EXPECT_EQ(f.div(1, a), f.inv(a));
            }
        }
        // associativity + distributivity on all triples
        for (uint32_t a = 0; a < order; ++a) {
            for (uint32_t b = 0; b < order; b += 3) {
                for (uint32_t c = 0; c < order; c += 7) {
                    EXPECT_EQ(f.mul(f.mul(a, b), c), f.mul(a, f.mul(b, c)));
                    EXPECT_EQ(f.mul(a, GFField::add(b, c)),
                              GFField::add(f.mul(a, b), f.mul(a, c)));
                }
            }
        }
    } else {
        Rng rng(m * 1000003u + poly);
        for (int i = 0; i < 3000; ++i) {
            GFElem a = rng.below(order);
            GFElem b = rng.below(order);
            GFElem c = rng.below(order);
            EXPECT_EQ(f.mul(a, b), f.mul(b, a));
            EXPECT_EQ(f.mul(a, b), f.mulCarryless(a, b));
            EXPECT_EQ(f.mul(a, b), f.mulTable(a, b));
            EXPECT_EQ(f.mul(f.mul(a, b), c), f.mul(a, f.mul(b, c)));
            EXPECT_EQ(f.mul(a, GFField::add(b, c)),
                      GFField::add(f.mul(a, b), f.mul(a, c)));
            EXPECT_EQ(f.sqr(a), f.mul(a, a));
            if (a != 0) {
                EXPECT_EQ(f.mul(a, f.inv(a)), 1);
            }
        }
    }
}

std::vector<std::pair<unsigned, uint32_t>>
allGfauFieldConfigs()
{
    // Every irreducible polynomial for every datapath-supported size.
    std::vector<std::pair<unsigned, uint32_t>> cfgs;
    for (unsigned m = 2; m <= 8; ++m)
        for (uint32_t p : irreduciblePolys(m))
            cfgs.emplace_back(m, p);
    return cfgs;
}

INSTANTIATE_TEST_SUITE_P(
    AllSmallFields, FieldAxioms,
    ::testing::ValuesIn(allGfauFieldConfigs()),
    [](const ::testing::TestParamInfo<std::pair<unsigned, uint32_t>> &info) {
        return "m" + std::to_string(info.param.first) + "_poly" +
               std::to_string(info.param.second);
    });

TEST(Field, LargerFieldsBasicSanity)
{
    for (unsigned m : {9u, 10u, 12u, 16u}) {
        GFField f(m);
        Rng rng(m);
        for (int i = 0; i < 500; ++i) {
            GFElem a = rng.below(f.order());
            GFElem b = rng.below(f.order());
            EXPECT_EQ(f.mul(a, b), f.mulCarryless(a, b));
            EXPECT_EQ(f.mul(a, b), f.mulTable(a, b));
            if (a) {
                EXPECT_EQ(f.mul(a, f.inv(a)), 1);
            }
        }
    }
}

TEST(Field, PowAgreesWithRepeatedMul)
{
    GFField f(8, 0x11d);
    for (GFElem a : {GFElem{0}, GFElem{1}, GFElem{2}, GFElem{0x53},
                     GFElem{0xff}}) {
        GFElem acc = 1;
        for (uint32_t e = 0; e < 40; ++e) {
            EXPECT_EQ(f.pow(a, e), acc) << "a=" << a << " e=" << e;
            acc = f.mul(acc, a);
        }
    }
    EXPECT_EQ(f.pow(0, 0), 1);
    EXPECT_EQ(f.pow(0, 5), 0);
}

TEST(Field, LogExpRoundTrip)
{
    for (uint32_t poly : {0x11du, 0x11bu}) {
        GFField f(8, poly);
        for (uint32_t a = 1; a < f.order(); ++a) {
            EXPECT_EQ(f.exp(f.log(a)), a);
            // log respects multiplication
            uint32_t b = (a * 7 + 3) % 255 + 1;
            EXPECT_EQ(f.mul(a, b),
                      f.exp(f.log(a) + f.log(b)));
        }
    }
}

TEST(Field, GeneratorOrderIsFull)
{
    GFField aes(8, kAesPoly);
    EXPECT_FALSE(aes.primitive());
    // 0x02 is NOT a generator under the AES polynomial (order 51).
    GFElem v = 1;
    unsigned order2 = 0;
    do {
        v = aes.mul(v, 2);
        ++order2;
    } while (v != 1);
    EXPECT_EQ(order2, 51u);
    // 0x03 is the usual generator.
    EXPECT_EQ(aes.generator(), 0x03);
}

TEST(Field, FermatPropertyHolds)
{
    // a^(2^m - 1) == 1 for all nonzero a.
    for (unsigned m = 2; m <= 8; ++m) {
        GFField f(m);
        for (uint32_t a = 1; a < f.order(); ++a)
            EXPECT_EQ(f.pow(a, f.groupOrder()), 1) << "m=" << m;
    }
}

TEST(Field, FrobeniusIsLinear)
{
    // (a + b)^2 == a^2 + b^2 — the freshman's dream in char 2.
    GFField f(8, 0x11d);
    Rng rng(99);
    for (int i = 0; i < 1000; ++i) {
        GFElem a = rng.nextByte(), b = rng.nextByte();
        EXPECT_EQ(f.sqr(a ^ b), f.sqr(a) ^ f.sqr(b));
    }
}

TEST(Field, RejectsBadParameters)
{
    EXPECT_DEATH(GFField(8, 0x101), "not irreducible");
    EXPECT_DEATH(GFField(1), "supports m in 2..16");
    EXPECT_DEATH(GFField(17), "supports m in 2..16");
}

TEST(Field, DivByZeroDies)
{
    GFField f(4);
    EXPECT_DEATH(f.div(3, 0), "division by zero");
    EXPECT_DEATH(f.log(0), "log of zero");
}

} // namespace
} // namespace gfp
