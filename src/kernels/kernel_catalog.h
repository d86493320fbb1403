/**
 * @file
 * Named catalog of every built-in assembly kernel, instantiated with
 * the paper's reference parameters (RS(255, 239) over GF(2^8)/0x11d,
 * AES-128, GF(2^233) ECC), each with the core it runs on.  One place
 * to enumerate "all the programs this repo ships", used by the gfp-lint
 * CI gate and the static-analysis test suite's lint-clean and mutation
 * sweeps.
 */

#ifndef GFP_KERNELS_KERNEL_CATALOG_H
#define GFP_KERNELS_KERNEL_CATALOG_H

#include <string>
#include <vector>

#include "sim/cpu.h"

namespace gfp {

struct KernelSource
{
    std::string name;   ///< stable identifier, e.g. "syndrome-gfcore"
    std::string source; ///< complete assembly source
    CoreKind kind;      ///< the core the program is written for
};

/** Every built-in kernel program (GF-core and baseline variants). */
std::vector<KernelSource> kernelCatalog();

} // namespace gfp

#endif // GFP_KERNELS_KERNEL_CATALOG_H
