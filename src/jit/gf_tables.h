/**
 * @file
 * Configuration-keyed GF lookup tables + C-ABI helpers for generated
 * code.
 *
 * The structural GFAU model (gfau/units.h) walks per-lane
 * multiply/square unit networks so its activity counters mirror the
 * paper's datapath; that fidelity is wasted inside a translated block,
 * where only the architectural result matters.  The JIT instead calls
 * the helpers below: table lookups over mul/sq/inv tables built *from
 * the same unit primitives* for the exact live configuration register
 * — bit-identical results for every config, including SEU-corrupted
 * ones with a valid width (the tables are keyed on the packed 60-bit
 * register, so a "silently wrong field" reproduces the same wrong
 * answers the interpreter computes).  gf32mul needs no tables: its
 * reduction stage is data-gated, so it routes straight through the
 * carry-less multiply backends (gf/clmul.h — PCLMUL when the host has
 * it).
 *
 * The mul table is built from basis products.  GFMultUnit::multiply
 * is reduce(clmul(a & mask, b & mask)): masking and the carry-less
 * product are GF(2)-bilinear and the reduction is GF(2)-linear, for
 * any P matrix, so row a is the XOR of the rows of a's set bits and
 * only the eight unit rows mul[1 << i] run the unit.  The same algebra
 * makes the table symmetric, mul[a][b] == mul[b][a], which is what
 * lets the translator pick each multiply site's table row: the
 * operand its block never writes, so a loop such as the syndrome
 * kernel's `gfmuls r7, r7, r6` reads the four rows of r6's lanes
 * (1 KiB) instead of walking all 64 KiB with the accumulator.
 *
 * A table set is immutable once built, and one set per packed config
 * is shared by every core that runs under that config
 * (sharedGfTables); it dies with its last holder.  The config cannot
 * change while translated code runs — gfcfg is a translation barrier
 * and fault hooks force the stepping path — so the driver revalidates
 * the key once per JIT entry.
 *
 * Divergence note: GFAU Stats / unit-activation counters do NOT
 * advance for translated GF ops (same as attaching a trace hook forces
 * stepping — microarchitectural introspection is an interpreter
 * feature).  Architectural state — registers, memory, CycleStats,
 * traps, profiles — stays bit-identical; the dispatch differential
 * suite holds exactly that.
 */

#ifndef GFP_JIT_GF_TABLES_H
#define GFP_JIT_GF_TABLES_H

#include <cstdint>
#include <memory>

#include "gfau/config_reg.h"

namespace gfp::jit {

struct JitGfTables
{
    /** Build every table for @p cfg, which must be valid() — the
     *  driver never enters translated code otherwise. */
    explicit JitGfTables(const GFConfig &cfg);

    uint64_t key; ///< GFConfig::pack() of that config
    uint8_t mask; ///< laneMask() of that config
    /** GFMultUnit::multiply for every pair, indexed [row][col]. */
    alignas(64) uint8_t mul[256][256];
    uint8_t sq[256];  ///< GFSquareUnit::square
    uint8_t inv[256]; ///< the Itoh-Tsujii network's output
};

/** The one table set for @p cfg's packed register value: built on the
 *  first call, then returned to every caller while any holds it.
 *  Thread-safe. */
std::shared_ptr<const JitGfTables> sharedGfTables(const GFConfig &cfg);

} // namespace gfp::jit

// C-ABI entry points the x86-64 templates call.  `t` is a JitGfTables
// built for the live config.
extern "C" {
/** Lane-wise mul[row][col]; the product is the same either way round,
 *  but a row that stays fixed across calls keeps the lookups in 1 KiB. */
uint32_t gfp_jit_gfmuls(const void *t, uint32_t row, uint32_t col) noexcept;
uint32_t gfp_jit_gfsqs(const void *t, uint32_t a) noexcept;
uint32_t gfp_jit_gfinvs(const void *t, uint32_t a) noexcept;
uint32_t gfp_jit_gfpows(const void *t, uint32_t a, uint32_t e) noexcept;
/** 32x32 carry-less product, hi word in bits [63:32]. */
uint64_t gfp_jit_gf32mul(uint32_t a, uint32_t b) noexcept;
}

#endif // GFP_JIT_GF_TABLES_H
