/**
 * @file
 * The seam between the simulator core and the template JIT (src/jit).
 *
 * A Translation is host code compiled from the guest program.  The core
 * stays ignorant of how it was produced: run() merely offers it the
 * current pc each time around the dispatch loop (kTranslated mode only)
 * and the translation either makes forward progress or declines, in
 * which case step() executes the next instruction — gfcfg barriers,
 * untranslated code, stale translations after a code-epoch bump.
 *
 * Contract (bail before commit; tests/test_dispatch_differential.cc
 * and tests/test_jit.cc hold it):
 *
 *  - Architectural state after run() returns — registers, flags, pc,
 *    memory, CycleStats, per-PC profile, halted — must be exactly what
 *    single stepping the same retired instructions would have left.
 *  - A potentially-trapping instruction (out-of-range access, store
 *    into the watched code region, stale GFAU config, …) must not
 *    commit: the translation deopts with pc at the offending
 *    instruction and zero partial effects, so step() replays it and
 *    raises the exact architectural trap (or performs the watched
 *    store with its epoch bump).
 *  - At most `max_instrs - res.instrs` instructions may retire; on
 *    budget exhaustion the translation exits cleanly and run() raises
 *    the watchdog at the right boundary.
 *
 * The base class is a friend of Core and exposes exactly the
 * architectural state a translation needs through protected accessors,
 * so the sim library never links against the JIT.
 */

#ifndef GFP_SIM_TRANSLATION_H
#define GFP_SIM_TRANSLATION_H

#include <string>

#include "sim/cpu.h"

namespace gfp {

class Translation
{
  public:
    virtual ~Translation() = default;

    /**
     * Try to execute translated code starting at the core's current
     * pc, retiring at most `max_instrs - res.instrs` instructions into
     * @p res and the core's stats/profile.  Returns true if any
     * instruction retired.  Declining (wrong pc, stale code epoch,
     * unconfigured GFAU, exhausted budget) is always legal; making
     * partial progress and returning is always legal.
     */
    virtual bool run(Core &core, RunResult &res, uint64_t max_instrs) = 0;

    /** One-line description (backend, block count) for tools/tests. */
    virtual std::string describe() const = 0;

  protected:
    // Architectural-state access for implementations (Core befriends
    // this base; subclasses reach the state through these).
    static std::array<uint32_t, kNumRegs> &regs(Core &c) { return c.regs_; }
    static uint32_t &pc(Core &c) { return c.pc_; }
    static Core::Flags &flags(Core &c) { return c.flags_; }
    static bool &halted(Core &c) { return c.halted_; }
    static CycleStats &stats(Core &c) { return c.stats_; }
    static PcProfile *profile(Core &c) { return c.profile_; }
    static Memory &memory(Core &c) { return c.mem_; }
};

} // namespace gfp

#endif // GFP_SIM_TRANSLATION_H
