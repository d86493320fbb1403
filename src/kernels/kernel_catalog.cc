#include "kernels/kernel_catalog.h"

#include "gf/field.h"
#include "kernels/aes_kernels.h"
#include "kernels/coding_kernels.h"
#include "kernels/wide_kernels.h"

namespace gfp {

std::vector<KernelSource>
kernelCatalog()
{
    // The paper's evaluation points: RS(255, 239) with t = 8 over
    // GF(2^8)/0x11d, AES-128, and the B-233 binary-curve primitives.
    const GFField f8(8);
    const unsigned n = 255, t = 8, two_t = 2 * t;

    std::vector<KernelSource> cat;
    auto gf = [&](const char *name, std::string src) {
        cat.push_back({name, std::move(src), CoreKind::kGfProcessor});
    };
    auto base = [&](const char *name, std::string src) {
        cat.push_back({name, std::move(src), CoreKind::kBaseline});
    };

    gf("syndrome-gfcore", syndromeAsmGfcore(f8, n, two_t));
    gf("syndrome-gfcore-lane1", syndromeAsmGfcoreLanes(f8, n, two_t, 1));
    gf("syndrome-gfcore-lane2", syndromeAsmGfcoreLanes(f8, n, two_t, 2));
    base("syndrome-baseline", syndromeAsmBaseline(f8, n, two_t));
    gf("bma-gfcore", bmaAsmGfcore(f8, two_t));
    base("bma-baseline", bmaAsmBaseline(f8, two_t));
    gf("chien-gfcore", chienAsmGfcore(f8, n, t));
    base("chien-baseline", chienAsmBaseline(f8, n, t));
    gf("forney-gfcore", forneyAsmGfcore(f8, two_t));
    base("forney-baseline", forneyAsmBaseline(f8, two_t));
    gf("rs-encode-gfcore", rsEncodeAsmGfcore(f8, t));
    base("rs-encode-baseline", rsEncodeAsmBaseline(f8, t));

    gf("aes-ark", aesArkAsm());
    gf("aes-subbytes-gfcore", aesSubBytesAsmGfcore(false));
    gf("aes-invsubbytes-gfcore", aesSubBytesAsmGfcore(true));
    base("aes-subbytes-baseline", aesSubBytesAsmBaseline(false));
    gf("aes-shiftrows", aesShiftRowsAsm(false));
    gf("aes-invshiftrows", aesShiftRowsAsm(true));
    gf("aes-mixcol-gfcore", aesMixColAsmGfcore(false));
    gf("aes-invmixcol-gfcore", aesMixColAsmGfcore(true));
    base("aes-mixcol-baseline", aesMixColAsmBaseline(false));
    gf("aes-keyexpand-gfcore", aesKeyExpandAsmGfcore());
    base("aes-keyexpand-baseline", aesKeyExpandAsmBaseline());
    gf("aes-block-gfcore", aesBlockAsmGfcore(false));
    gf("aes-block-decrypt-gfcore", aesBlockAsmGfcore(true));
    base("aes-block-baseline", aesBlockAsmBaseline(false));

    gf("mult233-direct", mult233DirectAsm());
    base("mult233-baseline", mult233BaselineAsm());
    gf("mult233-karatsuba", mult233KaratsubaAsm());
    gf("square233", square233Asm());
    gf("inverse233", inverse233Asm(false));
    gf("inverse233-karatsuba", inverse233Asm(true));
    gf("point-double", pointDoubleAsm(false));
    gf("point-add", pointAddAsm(false));
    gf("scalar-mult", scalarMultAsm(false));
    gf("scalar-mult-karatsuba", scalarMultAsm(true));

    return cat;
}

} // namespace gfp
