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
 * The config cannot change while translated code runs — gfcfg is a
 * translation barrier and fault hooks force the stepping path — so the
 * driver revalidates the key once per JIT entry.  Rebuilds cost ~64K
 * unit multiplies and happen once per configuration per core.
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

#include "gfau/config_reg.h"

namespace gfp::jit {

struct JitGfTables
{
    uint64_t key = ~0ull; ///< GFConfig::pack() the tables were built for
    bool valid = false;
    uint8_t mask = 0xff;      ///< laneMask() of that config
    uint8_t mul[256][256];    ///< GFMultUnit::multiply for every pair
    uint8_t sq[256];          ///< GFSquareUnit::square
    uint8_t inv[256];         ///< the Itoh-Tsujii network's output

    /** Rebuild for @p cfg unless already keyed to it.  @p cfg must be
     *  valid() — the driver never enters translated code otherwise. */
    void ensure(const GFConfig &cfg);
};

} // namespace gfp::jit

// C-ABI entry points the x86-64 templates call.  `t` is a JitGfTables
// built for the live config.
extern "C" {
uint32_t gfp_jit_gfmuls(const void *t, uint32_t a, uint32_t b) noexcept;
uint32_t gfp_jit_gfsqs(const void *t, uint32_t a) noexcept;
uint32_t gfp_jit_gfinvs(const void *t, uint32_t a) noexcept;
uint32_t gfp_jit_gfpows(const void *t, uint32_t a, uint32_t e) noexcept;
/** 32x32 carry-less product, hi word in bits [63:32]. */
uint64_t gfp_jit_gf32mul(uint32_t a, uint32_t b) noexcept;
}

#endif // GFP_JIT_GF_TABLES_H
