/**
 * @file
 * Arbitrary-precision polynomials over GF(2) ("carry-less big integers").
 *
 * This is the substrate for the paper's asymmetric-crypto path: very wide
 * field elements (e.g. 233 bits for the NIST K-233 curve) are GF(2)
 * polynomials.  Two families of multiply are provided:
 *  - mulSchoolbook()/mulKaratsuba() mirror the hardware strategy — the
 *    product is assembled from 32-bit x 32-bit carry-less partial
 *    products (the paper's single-cycle gf32bMult instruction), either
 *    schoolbook ("direct product", Sec. 3.3.4) or with the Karatsuba
 *    recursion the paper evaluates — and count partial products;
 *  - mulClmul() (the operator* default) is the host performance path:
 *    64-bit limbs through the runtime-detected carry-less backend in
 *    gf/clmul.h.  Bit-exact with the hardware-shaped paths.
 *
 * Bits are stored little-endian in 64-bit words: bit i of the polynomial
 * is bit (i % 64) of word (i / 64).
 */

#ifndef GFP_GF_GF2X_H
#define GFP_GF_GF2X_H

#include <cstdint>
#include <string>
#include <vector>

namespace gfp {

class Gf2x
{
  public:
    /** The zero polynomial. */
    Gf2x() = default;

    /** Polynomial from a small integer bit pattern. */
    explicit Gf2x(uint64_t bits);

    /** Polynomial from little-endian 64-bit words. */
    explicit Gf2x(std::vector<uint64_t> words);

    /** x^e. */
    static Gf2x monomial(unsigned e);

    /** Sum of x^e over the given exponents (e.g. {233, 74, 0}). */
    static Gf2x fromExponents(const std::vector<unsigned> &exponents);

    /** Uniformly random polynomial of degree < nbits (via splitmix). */
    static Gf2x random(unsigned nbits, uint64_t seed);

    /** Degree, or -1 for the zero polynomial. */
    int degree() const;

    bool isZero() const { return degree() < 0; }
    bool isOne() const { return degree() == 0; }

    uint32_t getBit(unsigned i) const;
    void setBit(unsigned i, uint32_t v);

    /** Number of significant bits (degree + 1; 0 for zero). */
    unsigned bitLength() const { return static_cast<unsigned>(degree() + 1); }

    /** Little-endian 64-bit words, trimmed of leading zero words. */
    const std::vector<uint64_t> &words() const { return words_; }

    /** Little-endian 32-bit words padded to @p n entries. */
    std::vector<uint32_t> toWords32(size_t n) const;

    /** Build from little-endian 32-bit words. */
    static Gf2x fromWords32(const std::vector<uint32_t> &w);

    /** XOR == polynomial addition == subtraction. */
    Gf2x operator^(const Gf2x &o) const;
    Gf2x &operator^=(const Gf2x &o);

    /** Multiply by x^k. */
    Gf2x shiftLeft(unsigned k) const;

    /** Divide by x^k (drop low terms). */
    Gf2x shiftRight(unsigned k) const;

    /** Keep only terms of degree < k. */
    Gf2x truncated(unsigned k) const;

    /**
     * Full carry-less product, schoolbook over 32-bit limbs — the
     * "direct product" of Sec. 3.3.4 that issues one gf32bMult per limb
     * pair.  Also counts the number of 32-bit partial products used when
     * @p partial_products is non-null.
     */
    Gf2x mulSchoolbook(const Gf2x &o,
                       unsigned *partial_products = nullptr) const;

    /**
     * Full carry-less product via recursive Karatsuba with the given
     * number of recursion levels (the paper uses two) above the 32-bit
     * limb base case.
     */
    Gf2x mulKaratsuba(const Gf2x &o, unsigned levels = 2,
                      unsigned *partial_products = nullptr) const;

    /**
     * Full carry-less product over 64-bit limbs through the host clmul
     * backend (gf/clmul.h): PCLMULQDQ when the CPU has it, a
     * branch-free software kernel otherwise.  Bit-exact with
     * mulSchoolbook()/mulKaratsuba() — this is the *host performance*
     * path, while those model the paper's 32-bit datapath.
     */
    Gf2x mulClmul(const Gf2x &o) const;

    /** Full product (host fast path; identical to mulSchoolbook). */
    Gf2x operator*(const Gf2x &o) const { return mulClmul(o); }

    /**
     * Square: spreads each bit i to position 2i (Fig. 5(c)'s "thinned"
     * product — no cross terms in characteristic 2).
     */
    Gf2x square() const;

    /** Remainder modulo @p modulus (generic shift-and-subtract). */
    Gf2x mod(const Gf2x &modulus) const;

    /** Quotient and remainder. */
    void divmod(const Gf2x &divisor, Gf2x &quotient, Gf2x &remainder) const;

    /** Greatest common divisor. */
    static Gf2x gcd(Gf2x a, Gf2x b);

    bool operator==(const Gf2x &o) const;
    bool operator!=(const Gf2x &o) const { return !(*this == o); }

    /** Hex rendering (big-endian nibbles), e.g. "1b". */
    std::string toHexString() const;

    /** Parse from hex (big-endian nibbles). */
    static Gf2x fromHexString(const std::string &hex);

  private:
    void trim();

    std::vector<uint64_t> words_; // little-endian, no leading zero words
};

} // namespace gfp

#endif // GFP_GF_GF2X_H
