/**
 * @file
 * Tests for GFPoly — polynomials over GF(2^m) used by the RS/BCH layer.
 */

#include <gtest/gtest.h>

#include "common/random.h"
#include "gf/poly.h"

namespace gfp {
namespace {

class PolyTest : public ::testing::Test
{
  protected:
    GFField f{8, 0x11d};

    GFPoly
    randomPoly(Rng &rng, int max_degree)
    {
        std::vector<GFElem> c(rng.below(max_degree + 1) + 1);
        for (auto &x : c)
            x = rng.nextByte();
        return GFPoly(f, std::move(c));
    }
};

TEST_F(PolyTest, ConstructionNormalizes)
{
    GFPoly p(f, {1, 2, 0, 0});
    EXPECT_EQ(p.degree(), 1);
    EXPECT_EQ(p.coeff(0), 1);
    EXPECT_EQ(p.coeff(1), 2);
    EXPECT_EQ(p.coeff(5), 0);

    GFPoly z(f, {0, 0});
    EXPECT_TRUE(z.isZero());
    EXPECT_EQ(z.degree(), -1);
}

TEST_F(PolyTest, MonomialAndConstant)
{
    GFPoly m = GFPoly::monomial(f, 3, 4);
    EXPECT_EQ(m.degree(), 4);
    EXPECT_EQ(m.coeff(4), 3);
    EXPECT_EQ(GFPoly::constant(f, 7).degree(), 0);
    EXPECT_TRUE(GFPoly::constant(f, 0).isZero());
}

TEST_F(PolyTest, AddIsXor)
{
    GFPoly a(f, {1, 2, 3});
    GFPoly b(f, {3, 2, 3});
    GFPoly s = a + b;
    EXPECT_EQ(s.degree(), 0);
    EXPECT_EQ(s.coeff(0), 2);
    // a + a == 0
    EXPECT_TRUE((a + a).isZero());
}

TEST_F(PolyTest, MulKnownValue)
{
    // (x + 1)(x + 1) = x^2 + 1 over GF(2^8) subset {0,1}
    GFPoly p(f, {1, 1});
    GFPoly sq = p * p;
    EXPECT_EQ(sq, GFPoly(f, {1, 0, 1}));
}

TEST_F(PolyTest, MulDegreeAndCommutativity)
{
    Rng rng(3);
    for (int i = 0; i < 100; ++i) {
        GFPoly a = randomPoly(rng, 10);
        GFPoly b = randomPoly(rng, 10);
        GFPoly ab = a * b;
        EXPECT_EQ(ab, b * a);
        if (!a.isZero() && !b.isZero()) {
            EXPECT_EQ(ab.degree(), a.degree() + b.degree());
        }
    }
}

TEST_F(PolyTest, DivModRoundTrip)
{
    Rng rng(5);
    for (int i = 0; i < 200; ++i) {
        GFPoly a = randomPoly(rng, 20);
        GFPoly b = randomPoly(rng, 8);
        if (b.isZero())
            continue;
        GFPoly q(f), r(f);
        a.divmod(b, q, r);
        EXPECT_LT(r.degree(), b.degree());
        EXPECT_EQ(q * b + r, a);
    }
}

TEST_F(PolyTest, EvalHorner)
{
    // p(x) = x^2 + 3x + 5 at x=2: 4 ^ mul(3,2) ^ 5
    GFPoly p(f, {5, 3, 1});
    GFElem expect = f.mul(2, 2) ^ f.mul(3, 2) ^ 5;
    EXPECT_EQ(p.eval(2), expect);
    EXPECT_EQ(p.eval(0), 5);
}

TEST_F(PolyTest, EvalIsRingHomomorphism)
{
    Rng rng(11);
    for (int i = 0; i < 100; ++i) {
        GFPoly a = randomPoly(rng, 6);
        GFPoly b = randomPoly(rng, 6);
        GFElem x = rng.nextByte();
        EXPECT_EQ((a * b).eval(x), f.mul(a.eval(x), b.eval(x)));
        EXPECT_EQ((a + b).eval(x), a.eval(x) ^ b.eval(x));
    }
}

TEST_F(PolyTest, DerivativeChar2)
{
    // d/dx (x^3 + a x^2 + b x + c) = x^2 + b  (char 2: even terms vanish)
    GFPoly p(f, {7, 5, 9, 1});
    GFPoly d = p.derivative();
    EXPECT_EQ(d, GFPoly(f, {5, 0, 1}));
    EXPECT_TRUE(GFPoly::constant(f, 9).derivative().isZero());
}

TEST_F(PolyTest, DerivativeProductRule)
{
    Rng rng(17);
    for (int i = 0; i < 100; ++i) {
        GFPoly a = randomPoly(rng, 6);
        GFPoly b = randomPoly(rng, 6);
        // (ab)' = a'b + ab'
        EXPECT_EQ((a * b).derivative(),
                  a.derivative() * b + a * b.derivative());
    }
}

TEST_F(PolyTest, ShiftAndTruncate)
{
    GFPoly p(f, {1, 2, 3});
    GFPoly s = p.shift(2);
    EXPECT_EQ(s.degree(), 4);
    EXPECT_EQ(s.coeff(2), 1);
    EXPECT_EQ(s.truncated(2), GFPoly(f));
    EXPECT_EQ(p.truncated(2), GFPoly(f, {1, 2}));
}

TEST_F(PolyTest, ScalarMultiply)
{
    GFPoly p(f, {1, 2, 3});
    GFPoly s = p * GFElem{2};
    EXPECT_EQ(s.coeff(0), f.mul(1, 2));
    EXPECT_EQ(s.coeff(2), f.mul(3, 2));
    EXPECT_TRUE((p * GFElem{0}).isZero());
}

TEST_F(PolyTest, ToStringReadable)
{
    GFPoly p(f, {5, 1, 3});
    EXPECT_EQ(p.toString(), "3*x^2 + x + 5");
    EXPECT_EQ(GFPoly(f).toString(), "0");
}

} // namespace
} // namespace gfp
