/**
 * @file
 * The GFP cycle cost model, extracted from the core's execute loop so
 * the simulator and the static WCET certifier (analysis/certify.h)
 * provably share one accounting:
 *
 *   loads/stores            2 cycles (single-ported SRAM, two-stage
 *                           pipeline holds for the data phase)
 *   taken branches + calls  2 cycles (pipeline refill); untaken
 *                           conditionals fall through in 1
 *   jr / ret                2 cycles (always a transfer)
 *   gfConfig                2 cycles (reads its 64-bit blob)
 *   everything else         1 cycle (including every GF instruction)
 *
 * This header is deliberately dependency-free (isa only, no simulator
 * state) so analysis code can include it without linking gfp_sim.
 * Core::execute takes every retired instruction's cycles from
 * cyclesFor(), and the translator and the certifier read the same
 * functions, so an edit here moves the stepper, translated code and the
 * WCET bounds together.
 */

#ifndef GFP_SIM_COST_MODEL_H
#define GFP_SIM_COST_MODEL_H

#include "isa/isa.h"

namespace gfp {

/// Cycles for a data-memory access (load, store, or the gfcfg blob read).
constexpr unsigned kMemCycles = 2;

/// Cycles for a taken control transfer (refill of the two-stage pipe).
constexpr unsigned kTakenBranchCycles = 2;

/// Cycles for everything else, and for an untaken conditional branch.
constexpr unsigned kDefaultCycles = 1;

/**
 * Cycles @p op retires in when it commits, with @p taken resolving the
 * conditional-branch ambiguity.  Unconditional transfers (b, bl, jr,
 * ret) ignore @p taken — they always pay the refill.
 */
constexpr unsigned
cyclesFor(Op op, bool taken)
{
    switch (op) {
      case Op::kLdr: case Op::kStr: case Op::kLdrb: case Op::kStrb:
      case Op::kLdrh: case Op::kStrh: case Op::kLdrr: case Op::kStrr:
      case Op::kLdrbr: case Op::kStrbr: case Op::kLdrhr: case Op::kStrhr:
      case Op::kGfCfg:
        return kMemCycles;
      case Op::kB: case Op::kBl: case Op::kJr: case Op::kRet:
        return kTakenBranchCycles;
      case Op::kBeq: case Op::kBne: case Op::kBlt: case Op::kBge:
      case Op::kBgt: case Op::kBle: case Op::kBlo: case Op::kBhs:
      case Op::kBhi: case Op::kBls:
        return taken ? kTakenBranchCycles : kDefaultCycles;
      default:
        return kDefaultCycles;
    }
}

/** Upper bound on the cycles one retirement of @p op can cost —
 *  the WCET certifier's per-instruction weight. */
constexpr unsigned
worstCaseCycles(Op op)
{
    return cyclesFor(op, /*taken=*/true);
}

/** Lower bound on the cycles one retirement of @p op can cost. */
constexpr unsigned
bestCaseCycles(Op op)
{
    return cyclesFor(op, /*taken=*/false);
}

} // namespace gfp

#endif // GFP_SIM_COST_MODEL_H
