/**
 * @file
 * Assembly kernels for the asymmetric-crypto path: GF(2^233) arithmetic
 * built from the single-cycle 32-bit partial product (paper Sec. 3.3.4,
 * Tables 7/8/9) and the K-233 elliptic-curve operations on top.
 *
 * The 233-bit multiply follows the paper's two-step structure:
 *   1. full 466-bit carry-free product of 8-word operands — 64
 *      gf32bMult partial products with the A operand pinned in
 *      registers (reproducing Table 7's 72 LD / 71 ST / 64 GF32 /
 *      112 ALU budget), or 36 partial products with the two-level
 *      Karatsuba software optimization;
 *   2. rearrangement + sparse polynomial reduction for the Koblitz
 *      trinomial x^233 + x^74 + 1 on the CPU.
 *
 * Squaring needs only 8 partial products (each word times itself
 * spreads its bits).  The multiplicative inverse is the Itoh-Tsujii
 * chain (10 multiplies + 232 squarings for m = 233).  Point double /
 * mixed add use López-Dahab projective coordinates with a = 0, b = 1.
 *
 * Data layout (all 8-word = 32-byte field elements unless noted):
 *   opa, opb      multiply/square inputs
 *   result        field-op output
 *   qx, qy        affine input point
 *   px, py, pz    projective accumulator (also point-op output)
 *   kwords        scalar bits, 4 words little-endian
 *   kbits         scalar bit length (1 word); the top bit must be 1
 *   resx, resy    affine scalar-multiplication result
 */

#ifndef GFP_KERNELS_WIDE_KERNELS_H
#define GFP_KERNELS_WIDE_KERNELS_H

#include <string>

namespace gfp {

/** result = opa (x) opb, direct product.  The program also defines the
 *  labels fm_rearrange / fm_reduce so gfp-paper can attribute cycles to
 *  Table 7's three phases. */
std::string mult233DirectAsm();

/**
 * result = opa (x) opb computed WITHOUT GF instructions — the
 * M0+-class software baseline: a López-Dahab left-to-right comb with a
 * 4-bit window (a 16-entry premultiplied table of the B operand, 512
 * bytes, rebuilt per multiplication), followed by the same sparse
 * reduction.  Runs on the baseline core; this is the reproduction's
 * own measured counterpart to the Clercq [11] literature row of
 * Table 8.
 */
std::string mult233BaselineAsm();

/** result = opa (x) opb via two-level Karatsuba (36 partial products). */
std::string mult233KaratsubaAsm();

/** result = opa^2. */
std::string square233Asm();

/** result = opa^-1 (Itoh-Tsujii). @p karatsuba selects the multiplier. */
std::string inverse233Asm(bool karatsuba);

/** (px,py,pz) = 2*(px,py,pz) on K-233. */
std::string pointDoubleAsm(bool karatsuba);

/** (px,py,pz) += (qx,qy) (mixed addition) on K-233. */
std::string pointAddAsm(bool karatsuba);

/** (resx,resy) = k * (qx,qy) by double-and-add, including the final
 *  projective-to-affine conversion (one inversion). */
std::string scalarMultAsm(bool karatsuba);

} // namespace gfp

#endif // GFP_KERNELS_WIDE_KERNELS_H
