#include "gfau/gf_unit.h"

#include <bit>

#include "common/bitops.h"
#include "common/logging.h"

namespace gfp {

namespace {

/** Power-on default: GF(2^8) with the conventional RS polynomial.
 *  Derived once (derive() tests irreducibility), not on every reset. */
const GFConfig &
powerOnConfig()
{
    static const GFConfig cfg = GFConfig::derive(8, 0x11d);
    return cfg;
}

} // namespace

GFArithmeticUnit::GFArithmeticUnit() : cfg_(powerOnConfig()) {}

void
GFArithmeticUnit::powerOnReset()
{
    cfg_ = powerOnConfig();
    resetStats();
}

void
GFArithmeticUnit::loadConfig(const GFConfig &cfg)
{
    cfg_ = cfg;
    ++stats_.config_loads;
}

void
GFArithmeticUnit::configureField(unsigned m, uint32_t poly)
{
    loadConfig(GFConfig::derive(m, poly));
}

void
GFArithmeticUnit::injectConfigBitFlip(unsigned bit)
{
    bit %= 60;
    GFConfig raw = cfg_;
    if (bit < 56)
        raw.p_cols[bit / 8] ^= static_cast<uint8_t>(1u << (bit % 8));
    else
        raw.m ^= 1u << (bit - 56);
    raw.poly = 0; // the derivation provenance is gone
    cfg_ = raw;   // installed without validation, unlike loadConfig
}

uint32_t
GFArithmeticUnit::simdMult(uint32_t a, uint32_t b)
{
    ++stats_.simd_mult;
    uint32_t out = 0;
    for (unsigned l = 0; l < kNumLanes; ++l) {
        uint8_t r = mult_units_[l].multiply(lane(a, l), lane(b, l), cfg_);
        out = withLane(out, l, r);
    }
    return out;
}

uint32_t
GFArithmeticUnit::simdSquare(uint32_t a)
{
    ++stats_.simd_square;
    uint32_t out = 0;
    for (unsigned l = 0; l < kNumLanes; ++l)
        out = withLane(out, l, square_units_[l].square(lane(a, l), cfg_));
    return out;
}

uint32_t
GFArithmeticUnit::simdPower(uint32_t a, uint32_t e)
{
    ++stats_.simd_power;
    uint32_t out = 0;
    for (unsigned l = 0; l < kNumLanes; ++l) {
        uint8_t base = lane(a, l) & cfg_.laneMask();
        uint8_t exp = lane(e, l);
        uint8_t result;
        if (exp == 0) {
            result = 1; // convention: x^0 == 1, including 0^0
        } else if (base == 0) {
            result = 0;
        } else {
            // Square-and-multiply through the lane's square/multiply
            // chain (the cascaded square units of Fig. 8).
            result = 1;
            uint8_t sq = base;
            unsigned next_sq = 7 * l;
            unsigned next_mul = 4 * l;
            for (unsigned b = 0; b < 8; ++b) {
                if ((exp >> b) & 1) {
                    result = mult_units_[next_mul++ % kNumMultUnits]
                                 .multiply(result, sq, cfg_);
                }
                if ((exp >> (b + 1)) == 0)
                    break;
                sq = square_units_[next_sq++ % kNumSquareUnits]
                         .square(sq, cfg_);
            }
        }
        out = withLane(out, l, result);
    }
    return out;
}

uint32_t
GFArithmeticUnit::simdAdd(uint32_t a, uint32_t b)
{
    ++stats_.simd_add;
    return a ^ b;
}

uint8_t
GFArithmeticUnit::inverseLane(uint8_t a, unsigned lane_idx)
{
    a &= cfg_.laneMask();
    if (a == 0)
        return 0; // zeros propagate through the network

    // Itoh-Tsujii: a^-1 = (a^(2^(m-1) - 1))^2 via the addition chain on
    // e = m - 1.  For m = 8 this is the 4-multiply / 7-square network of
    // Fig. 6; smaller m "mux out" earlier powers and use fewer units.
    const unsigned e = cfg_.m - 1;
    unsigned next_sq = 7 * lane_idx;  // lane's pool of 7 square units
    unsigned next_mul = 4 * lane_idx; // lane's pool of 4 multipliers

    auto sq = [&](uint8_t v) {
        GFP_ASSERT(next_sq < 7 * (lane_idx + 1),
                   "lane %u exceeded its 7 square units", lane_idx);
        return square_units_[next_sq++].square(v, cfg_);
    };
    auto mul = [&](uint8_t x, uint8_t y) {
        GFP_ASSERT(next_mul < 4 * (lane_idx + 1),
                   "lane %u exceeded its 4 multipliers", lane_idx);
        return mult_units_[next_mul++].multiply(x, y, cfg_);
    };

    uint8_t t = a;      // T(1) = a^(2^1 - 1)
    unsigned have = 1;
    if (e > 1) {
        int top = 31 - std::countl_zero(e);
        for (int i = top - 1; i >= 0; --i) {
            uint8_t t2 = t;
            for (unsigned s = 0; s < have; ++s)
                t2 = sq(t2);
            t = mul(t2, t); // T(2*have)
            have *= 2;
            if ((e >> i) & 1) {
                t = mul(sq(t), a); // T(have + 1)
                have += 1;
            }
        }
    }
    GFP_ASSERT(have == e);
    return sq(t); // (a^(2^(m-1)-1))^2 = a^(2^m - 2)
}

uint32_t
GFArithmeticUnit::simdInverse(uint32_t a)
{
    ++stats_.simd_inverse;
    uint32_t out = 0;
    for (unsigned l = 0; l < kNumLanes; ++l)
        out = withLane(out, l, inverseLane(lane(a, l), l));
    return out;
}

void
GFArithmeticUnit::mult32(uint32_t a, uint32_t b, uint32_t &hi, uint32_t &lo)
{
    ++stats_.mult32;
    // All 16 multipliers compute byte-level full products; the XOR tree
    // of Fig. 7 aligns partial product (i, j) at bit offset 8*(i + j).
    // The reduction stage is data-gated (Sec. 2.4.2's 33% power saving).
    uint64_t acc = 0;
    unsigned unit = 0;
    for (unsigned i = 0; i < 4; ++i) {
        for (unsigned j = 0; j < 4; ++j) {
            uint16_t pp = mult_units_[unit++].fullProduct(lane(a, i),
                                                          lane(b, j));
            acc ^= static_cast<uint64_t>(pp) << (8 * (i + j));
        }
    }
    GFP_ASSERT(acc == clmul32(a, b), "partial-product tree mismatch");
    lo = static_cast<uint32_t>(acc);
    hi = static_cast<uint32_t>(acc >> 32);
}

void
GFArithmeticUnit::resetStats()
{
    stats_ = Stats();
    for (auto &u : mult_units_)
        u.resetStats();
    for (auto &u : square_units_)
        u.resetStats();
}

uint64_t
GFArithmeticUnit::multUnitActivations() const
{
    uint64_t total = 0;
    for (const auto &u : mult_units_)
        total += u.activations();
    return total;
}

uint64_t
GFArithmeticUnit::squareUnitActivations() const
{
    uint64_t total = 0;
    for (const auto &u : square_units_)
        total += u.activations();
    return total;
}

} // namespace gfp
