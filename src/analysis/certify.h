/**
 * @file
 * Certificate emitters on top of the abstract interpreter
 * (analysis/absint.h) — the static half of the paper's IoT cost story:
 * a battery-budgeted node wants *proven* worst-case cycle/energy and
 * trap behavior before admitting a kernel, not just measurements.
 *
 * Three certificate families:
 *
 *  - Trap-freedom (per basic block, `BlockCertificate`): no reachable
 *    out-of-range access, undecodable word, fetch past the code end,
 *    or gfcfg trap in the block.  Alongside trap-freedom proper the
 *    block proves the JIT-relevant disciplines: no store into the code
 *    section (self-modifying code voids translations) and no
 *    reduction-matrix GF op before an explicit gfcfg (the silent
 *    power-on-default-field hazard).
 *
 *  - Worst-case cost (`CostCertificate`): a longest-path bound over
 *    the loop-bounded CFG, weighted with the exact per-instruction
 *    cycle costs the simulator retires (sim/cost_model.h) and priced
 *    with hwmodel/energy_model.h pJ/cycle rates at both published
 *    operating points.  When any loop bound, indirect jump, or
 *    recursion defeats the analysis, the certificate falls back to
 *    the watchdog cap and says so.
 *
 *  - Config certificates (`ConfigCertificate`): per gfcfg site, track
 *    which blob bytes stores may overwrite (taint) and push the static
 *    blob through the algebraic verifier (config_verifier.h); configs
 *    the verifier cannot classify are refuted rather than admitted.
 *
 * Soundness boundary (see docs/ANALYSIS.md): certificates describe a
 * program launched by Machine::reset/setArgs on a memory of exactly
 * `mem_bytes`, with no SEU injection, and trust the lr save/restore
 * idiom only where the lr-integrity pass
 * (ControlFlowGraph::lrClobberedReturns) finds no clobbered return.
 */

#ifndef GFP_ANALYSIS_CERTIFY_H
#define GFP_ANALYSIS_CERTIFY_H

#include <cstdint>
#include <string>
#include <vector>

#include "analysis/absint.h"
#include "isa/program.h"

namespace gfp {

struct CertifyOptions
{
    /** Guest memory size the program will run with. */
    size_t mem_bytes = 256 * 1024;

    /** The runaway guard the host will pass to Core::run; the cost
     *  certificate is checked against it, and unbounded programs fall
     *  back to it. */
    uint64_t watchdog_max_instrs = 500'000'000;
};

/** Per-basic-block safety certificate — the unit the future JIT
 *  consumes to elide guard checks. */
struct BlockCertificate
{
    uint32_t first = 0;        ///< first word index of the block
    uint32_t last = 0;         ///< last word index (inclusive)
    bool reachable = false;

    bool decode_ok = true;     ///< every reachable word decodes
    bool branch_ok = true;     ///< all transfers land on valid code
    bool mem_ok = true;        ///< every access proven in bounds
    bool gfcfg_ok = true;      ///< no gfcfg trap (blob address + width)
    bool no_smc = true;        ///< no store can hit the code section
    bool gf_configured = true; ///< no reduction GF op before a gfcfg

    /** Human-readable reasons for any failed property. */
    std::vector<std::string> obstacles;

    /** No architectural trap can originate in this block. */
    bool trapFree() const
    {
        return decode_ok && branch_ok && mem_ok && gfcfg_ok;
    }
    /** Trap-free plus the translation-validity disciplines. */
    bool jitSafe() const
    {
        return trapFree() && no_smc && gf_configured;
    }
};

enum class ConfigVerdict : uint8_t {
    kVerifiedField,     ///< blob is an irreducible-polynomial matrix
    kVerifiedCirculant, ///< blob is the circulant ring configuration
    kRefuted,           ///< valid width, but no algebraic classification
    kInvalid,           ///< invalid field width: traps GfConfigCorrupt
    kTainted,           ///< stores may rewrite blob bytes before load
    kOutOfImage,        ///< blob outside initialized data: unverifiable
    kBlobOob,           ///< blob address outside memory: traps
};

const char *configVerdictName(ConfigVerdict v);

/** One gfcfg site's verdict. */
struct ConfigCertificate
{
    uint32_t idx = 0;          ///< word index of the gfcfg
    uint32_t addr = 0;         ///< blob byte address
    ConfigVerdict verdict = ConfigVerdict::kRefuted;
    uint8_t tainted_bytes = 0; ///< bit b = blob byte b may be stored to
    unsigned m = 0;            ///< field width when unpackable
    std::string message;

    /** The algebraic verifier accepts this configuration. */
    bool ok() const
    {
        return verdict == ConfigVerdict::kVerifiedField ||
               verdict == ConfigVerdict::kVerifiedCirculant;
    }
    /** Executing the gfcfg cannot trap. */
    bool trapFree() const
    {
        return ok() || verdict == ConfigVerdict::kRefuted;
    }
};

/** Worst-case execution cost bounds for the whole program. */
struct CostCertificate
{
    /** True: the bounds below are proven from loop bounds; false: the
     *  analysis declined (see reason) and the bounds are the watchdog
     *  fallback. */
    bool bounded = false;

    uint64_t instr_bound = 0;    ///< retired instructions
    uint64_t cycle_bound = 0;    ///< cycles (cost_model.h weights)
    uint64_t gf_cycle_bound = 0; ///< of cycle_bound, GFAU-active cycles

    double energy_nominal_pj = 0; ///< at 0.9 V / 100 MHz
    double energy_07v_pj = 0;     ///< at the scaled 0.7 V point

    uint64_t watchdog = 0;       ///< the cap certified against
    bool within_watchdog = false; ///< instr_bound <= watchdog, proven

    std::string reason;          ///< why unbounded, when !bounded
};

/** Everything certifyProgram() proves about one assembled program. */
struct ProgramCertificate
{
    std::vector<BlockCertificate> blocks;
    std::vector<ConfigCertificate> configs;
    std::vector<LoopBound> loops;
    CostCertificate cost;

    unsigned refined_indirects = 0;
    bool has_gf_ops = false;

    /** Every reachable block is trap-free AND the watchdog cannot
     *  fire: no trap of any kind is reachable (on the GF core, absent
     *  injected faults). */
    bool trap_free = false;

    /** trap_free plus no-SMC, config discipline, and accepted gfcfg
     *  configurations program-wide. */
    bool jit_safe = false;

    /** Decline explanations, one per obstacle keeping trap_free or
     *  jit_safe false. */
    std::vector<std::string> caveats;

    unsigned reachableBlocks() const;
    unsigned trapFreeBlocks() const;
    unsigned boundedLoops() const;

    /** One-paragraph human rendering. */
    std::string summary() const;
};

/** Run the abstract interpreter and emit all certificates. */
ProgramCertificate certifyProgram(const Program &prog,
                                  const CertifyOptions &opts = {});

} // namespace gfp

#endif // GFP_ANALYSIS_CERTIFY_H
