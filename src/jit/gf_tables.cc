#include "jit/gf_tables.h"

#include <bit>

#include "common/logging.h"
#include "gf/clmul.h"
#include "gfau/units.h"

namespace gfp::jit {

void
JitGfTables::ensure(const GFConfig &cfg)
{
    const uint64_t k = cfg.pack();
    if (valid && k == key)
        return;
    GFP_ASSERT(cfg.valid(), "GF tables for an invalid config (m=%u)",
               cfg.m);

    // Throwaway units: same arithmetic as the GFAU's pools, but their
    // activation counters die with them — translated GF ops do not
    // advance the structural model's telemetry (header note).
    GFMultUnit mu;
    GFSquareUnit su;
    for (unsigned a = 0; a < 256; ++a) {
        sq[a] = su.square(static_cast<uint8_t>(a), cfg);
        for (unsigned b = 0; b < 256; ++b)
            mul[a][b] = mu.multiply(static_cast<uint8_t>(a),
                                    static_cast<uint8_t>(b), cfg);
    }
    mask = cfg.laneMask();

    // Inverse: replay GFArithmeticUnit::inverseLane's Itoh-Tsujii
    // addition chain on e = m - 1 through the tables.  Every
    // multiply/square in the chain is one of the unit evaluations
    // tabulated above, so the outputs match the network bit for bit.
    const unsigned e = cfg.m - 1;
    for (unsigned a0 = 0; a0 < 256; ++a0) {
        const uint8_t a = static_cast<uint8_t>(a0) & mask;
        if (a == 0) {
            inv[a0] = 0;
            continue;
        }
        uint8_t t = a;
        unsigned have = 1;
        if (e > 1) {
            const int top = 31 - std::countl_zero(e);
            for (int i = top - 1; i >= 0; --i) {
                uint8_t t2 = t;
                for (unsigned s = 0; s < have; ++s)
                    t2 = sq[t2];
                t = mul[t2][t];
                have *= 2;
                if ((e >> i) & 1) {
                    t = mul[sq[t]][a];
                    have += 1;
                }
            }
        }
        inv[a0] = sq[t];
    }

    key = k;
    valid = true;
}

} // namespace gfp::jit

using gfp::jit::JitGfTables;

namespace {

inline const JitGfTables *
tables(const void *t)
{
    return static_cast<const JitGfTables *>(t);
}

} // namespace

extern "C" uint32_t
gfp_jit_gfmuls(const void *t, uint32_t a, uint32_t b) noexcept
{
    const JitGfTables *g = tables(t);
    uint32_t out = 0;
    for (unsigned l = 0; l < 4; ++l)
        out |= static_cast<uint32_t>(
                   g->mul[(a >> (8 * l)) & 0xff][(b >> (8 * l)) & 0xff])
               << (8 * l);
    return out;
}

extern "C" uint32_t
gfp_jit_gfsqs(const void *t, uint32_t a) noexcept
{
    const JitGfTables *g = tables(t);
    uint32_t out = 0;
    for (unsigned l = 0; l < 4; ++l)
        out |= static_cast<uint32_t>(g->sq[(a >> (8 * l)) & 0xff])
               << (8 * l);
    return out;
}

extern "C" uint32_t
gfp_jit_gfinvs(const void *t, uint32_t a) noexcept
{
    const JitGfTables *g = tables(t);
    uint32_t out = 0;
    for (unsigned l = 0; l < 4; ++l)
        out |= static_cast<uint32_t>(g->inv[(a >> (8 * l)) & 0xff])
               << (8 * l);
    return out;
}

extern "C" uint32_t
gfp_jit_gfpows(const void *t, uint32_t a, uint32_t e) noexcept
{
    // GFArithmeticUnit::simdPower through the tables: x^0 == 1
    // (including 0^0), 0^e == 0, square-and-multiply otherwise.
    const JitGfTables *g = tables(t);
    uint32_t out = 0;
    for (unsigned l = 0; l < 4; ++l) {
        const uint8_t base =
            static_cast<uint8_t>((a >> (8 * l)) & 0xff) & g->mask;
        const uint8_t exp = static_cast<uint8_t>((e >> (8 * l)) & 0xff);
        uint8_t result;
        if (exp == 0) {
            result = 1;
        } else if (base == 0) {
            result = 0;
        } else {
            result = 1;
            uint8_t s = base;
            for (unsigned b = 0; b < 8; ++b) {
                if ((exp >> b) & 1)
                    result = g->mul[result][s];
                if ((exp >> (b + 1)) == 0)
                    break;
                s = g->sq[s];
            }
        }
        out |= static_cast<uint32_t>(result) << (8 * l);
    }
    return out;
}

extern "C" uint64_t
gfp_jit_gf32mul(uint32_t a, uint32_t b) noexcept
{
    // The reduction stage is data-gated for gf32mul, so this is the
    // pure carry-less product — served by PCLMUL (gf/clmul.h) when
    // the host has it.  A 32x32 product has degree
    // <= 62, so the whole result lands in the low word.
    uint64_t hi, lo;
    gfp::clmulWide(a, b, hi, lo);
    (void)hi;
    return lo;
}
