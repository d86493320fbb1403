#include "gf/clmul.h"

#include <atomic>

#if defined(__x86_64__)
#include <immintrin.h>
#endif

namespace gfp {

namespace {

std::atomic<bool> portable_only{false};

/**
 * Multiply one "hole" lane: with operand bits spaced every 4 positions,
 * an ordinary integer multiply cannot carry across lanes, so its result
 * is the carry-less product restricted to that spacing (BearSSL's
 * ghash_ctmul64 technique).
 */
inline uint64_t
bmul64(uint64_t x, uint64_t y)
{
    const uint64_t m0 = 0x1111111111111111ull;
    const uint64_t m1 = m0 << 1, m2 = m0 << 2, m3 = m0 << 3;
    uint64_t x0 = x & m0, x1 = x & m1, x2 = x & m2, x3 = x & m3;
    uint64_t y0 = y & m0, y1 = y & m1, y2 = y & m2, y3 = y & m3;
    uint64_t z0 = (x0 * y0) ^ (x1 * y3) ^ (x2 * y2) ^ (x3 * y1);
    uint64_t z1 = (x0 * y1) ^ (x1 * y0) ^ (x2 * y3) ^ (x3 * y2);
    uint64_t z2 = (x0 * y2) ^ (x1 * y1) ^ (x2 * y0) ^ (x3 * y3);
    uint64_t z3 = (x0 * y3) ^ (x1 * y2) ^ (x2 * y1) ^ (x3 * y0);
    return (z0 & m0) | (z1 & m1) | (z2 & m2) | (z3 & m3);
}

/** Reverse the bit order of a 64-bit word. */
inline uint64_t
rev64(uint64_t v)
{
    v = ((v >> 1) & 0x5555555555555555ull) |
        ((v & 0x5555555555555555ull) << 1);
    v = ((v >> 2) & 0x3333333333333333ull) |
        ((v & 0x3333333333333333ull) << 2);
    v = ((v >> 4) & 0x0f0f0f0f0f0f0f0full) |
        ((v & 0x0f0f0f0f0f0f0f0full) << 4);
    return __builtin_bswap64(v);
}

#if defined(__x86_64__)

__attribute__((target("pclmul,sse2"))) void
clmulHw(uint64_t a, uint64_t b, uint64_t &hi, uint64_t &lo)
{
    __m128i va = _mm_set_epi64x(0, static_cast<long long>(a));
    __m128i vb = _mm_set_epi64x(0, static_cast<long long>(b));
    __m128i p = _mm_clmulepi64_si128(va, vb, 0x00);
    lo = static_cast<uint64_t>(_mm_cvtsi128_si64(p));
    hi = static_cast<uint64_t>(
        _mm_cvtsi128_si64(_mm_unpackhi_epi64(p, p)));
}

bool
detectHw()
{
    return __builtin_cpu_supports("pclmul");
}

const char *const kHwName = "pclmul";

#else

void
clmulHw(uint64_t, uint64_t, uint64_t &hi, uint64_t &lo)
{
    hi = lo = 0;
}

bool
detectHw()
{
    return false;
}

const char *const kHwName = "none";

#endif

bool
hwAvailable()
{
    static const bool available = detectHw();
    return available;
}

} // anonymous namespace

void
clmulWidePortable(uint64_t a, uint64_t b, uint64_t &hi, uint64_t &lo)
{
    lo = bmul64(a, b);
    // The product has 127 significant bits; the high half is the low
    // half of the bit-reversed product shifted into place.
    hi = rev64(bmul64(rev64(a), rev64(b))) >> 1;
}

void
clmulWide(uint64_t a, uint64_t b, uint64_t &hi, uint64_t &lo)
{
    if (hwAvailable() && !portable_only.load(std::memory_order_relaxed)) {
        clmulHw(a, b, hi, lo);
        return;
    }
    clmulWidePortable(a, b, hi, lo);
}

const ClmulBackendInfo &
clmulBackend()
{
    static const ClmulBackendInfo hw{kHwName, true};
    static const ClmulBackendInfo sw{"portable", false};
    if (hwAvailable() && !portable_only.load(std::memory_order_relaxed))
        return hw;
    return sw;
}

bool
setClmulPortableOnly(bool value)
{
    return portable_only.exchange(value);
}

} // namespace gfp
