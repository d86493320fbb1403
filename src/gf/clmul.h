/**
 * @file
 * Host-accelerated word-level carry-less multiplication.
 *
 * The wide-field hot paths (K-233 field multiplication, RS/BCH host
 * reference arithmetic) bottom out in 64 x 64 -> 128 bit GF(2)
 * products.  This module picks the fastest implementation the host
 * offers, detected once at runtime:
 *
 *  - x86-64 PCLMULQDQ (one instruction per product),
 *  - a portable branch-free fallback built from masked integer
 *    multiplies (the BearSSL "holes" technique) — no per-bit loop;
 *    every other host, AArch64 included, uses it.
 *
 * Both paths are differentially proven against the bit-serial
 * clmul64() reference from common/bitops.h by tests/test_gf2x.cc, and
 * benches/tests can pin the portable path with setClmulPortableOnly()
 * to measure or cross-check the backends.
 */

#ifndef GFP_GF_CLMUL_H
#define GFP_GF_CLMUL_H

#include <cstdint>

namespace gfp {

/** Which carry-less multiply implementation serves clmulWide(). */
struct ClmulBackendInfo
{
    const char *name;  ///< "pclmul" or "portable"
    bool accelerated;  ///< true when a hardware instruction is used
};

/** The backend runtime detection selected for this host. */
const ClmulBackendInfo &clmulBackend();

/** 64 x 64 -> 128 bit carry-less product: hi:lo = a (x) b over GF(2). */
void clmulWide(uint64_t a, uint64_t b, uint64_t &hi, uint64_t &lo);

/**
 * Force (or release) the portable software path, ignoring hardware
 * support — used by benches to measure the accelerated-vs-portable
 * ratio and by tests to cross-check both implementations.  Returns the
 * previous setting.
 */
bool setClmulPortableOnly(bool portable_only);

/**
 * Portable branch-free 64 x 64 -> 128 carry-less product (always the
 * software implementation, regardless of backend selection).
 */
void clmulWidePortable(uint64_t a, uint64_t b, uint64_t &hi, uint64_t &lo);

} // namespace gfp

#endif // GFP_GF_CLMUL_H
