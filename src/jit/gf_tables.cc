#include "jit/gf_tables.h"

#include <bit>
#include <cstring>
#include <mutex>
#include <unordered_map>

#include "common/logging.h"
#include "gf/clmul.h"
#include "gfau/units.h"

namespace gfp::jit {

JitGfTables::JitGfTables(const GFConfig &cfg)
    : key(cfg.pack()), mask(cfg.laneMask())
{
    GFP_ASSERT(cfg.valid(), "GF tables for an invalid config (m=%u)",
               cfg.m);

    // Throwaway units: same arithmetic as the GFAU's pools, but their
    // activation counters die with them — translated GF ops do not
    // advance the structural model's telemetry (header note).
    GFMultUnit mu;
    GFSquareUnit su;

    // Basis rows through the unit, every other row by bilinearity:
    // row a = row (a without its lowest set bit) ^ row (that bit).
    std::memset(mul[0], 0, sizeof mul[0]);
    for (unsigned i = 0; i < 8; ++i)
        for (unsigned b = 0; b < 256; ++b)
            mul[1u << i][b] = mu.multiply(static_cast<uint8_t>(1u << i),
                                          static_cast<uint8_t>(b), cfg);
    for (unsigned a = 3; a < 256; ++a) {
        const unsigned low = a & (0u - a);
        if (low == a)
            continue;
        const uint8_t *rest = mul[a ^ low];
        const uint8_t *bit = mul[low];
        for (unsigned b = 0; b < 256; ++b)
            mul[a][b] = rest[b] ^ bit[b];
    }
    for (unsigned a = 0; a < 256; ++a)
        sq[a] = su.square(static_cast<uint8_t>(a), cfg);

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
}

std::shared_ptr<const JitGfTables>
sharedGfTables(const GFConfig &cfg)
{
    static std::mutex mu;
    static std::unordered_map<uint64_t, std::weak_ptr<const JitGfTables>>
        live;

    const uint64_t key = cfg.pack();
    std::lock_guard<std::mutex> lock(mu);
    if (auto it = live.find(key); it != live.end())
        if (std::shared_ptr<const JitGfTables> t = it->second.lock())
            return t;
    std::erase_if(live, [](const auto &e) { return e.second.expired(); });
    auto t = std::make_shared<const JitGfTables>(cfg);
    live[key] = t;
    return t;
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
gfp_jit_gfmuls(const void *t, uint32_t row, uint32_t col) noexcept
{
    const JitGfTables *g = tables(t);
    uint32_t out = 0;
    for (unsigned l = 0; l < 4; ++l)
        out |= static_cast<uint32_t>(g->mul[(row >> (8 * l)) & 0xff]
                                           [(col >> (8 * l)) & 0xff])
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
