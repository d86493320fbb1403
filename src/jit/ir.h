/**
 * @file
 * Block-level intermediate representation of the template JIT.
 *
 * The translator (jit/translator.h) slices the guest program into
 * straight-line blocks at the same leaders the analysis CFG sees (plus
 * a few extra, liberally — every branch/call target, every word after a
 * control transfer or a gfcfg barrier — so indirect jumps and
 * post-barrier resumption always land on a block head).  Each block
 * carries its decoded body, its terminator shape, and the *static* per
 * -execution CycleStats it retires, with a conditional terminator
 * counted not-taken; the per-core driver (jit/core_translation.h)
 * multiplies these by the execution counters the generated code bumps
 * to reconstruct totals bit-identical to single stepping.
 *
 * The x86-64 templates (jit/backend_x64.cc) consume this IR: one
 * copy-patched host-code template per instruction, with the operand
 * order of each GF multiply's table lookup fixed by the translator.
 */

#ifndef GFP_JIT_IR_H
#define GFP_JIT_IR_H

#include <cstdint>
#include <vector>

#include "isa/isa.h"
#include "sim/stats.h"

namespace gfp::jit {

/** How a translated block ends. */
enum class TermKind : uint8_t {
    /** No terminator instruction: the next word is a leader or is
     *  untranslatable (gfcfg, undecodable, GF op on a baseline core).
     *  Control continues at `next` — a translated head, or an exit to
     *  Core::step(). */
    kFallThrough,
    kBranch,     ///< unconditional b; last body instr, to `target`
    kCondBranch, ///< bcc; taken to `target`, else to `next`
    kCall,       ///< bl; sets lr, to `target`
    kIndirect,   ///< jr / ret; dynamic target via the entry table
    kHalt,       ///< halt; run ends, pc advances past it
};

/** One straight-line translated block. */
struct Block
{
    uint32_t first = 0; ///< word index of the block head
    uint32_t len = 0;   ///< instructions retired per execution

    TermKind term = TermKind::kFallThrough;
    uint32_t target = 0; ///< taken-target word (kBranch/kCondBranch/kCall)
    uint32_t next = 0;   ///< fall-through / not-taken word

    /** Decoded body, `len` entries, words [first, first+len). */
    std::vector<Instr> body;

    /** Per-instruction class/cycle pairs, parallel to body — the exact
     *  records stepping would make, conditional terminator not-taken. */
    std::vector<InstrClass> cls;
    std::vector<uint8_t> cycles;

    /** Sum of one execution's records (cond terminator not-taken). */
    CycleStats base;

    /** Extra retired when the conditional terminator is taken: one
     *  branch cycle (kTakenBranchCycles - kDefaultCycles), zero ops. */
    CycleStats taken_extra;

    /** Per body instruction: for a gfmuls, the source register whose
     *  lanes index the rows of the shared mul table (the other source
     *  indexes the columns; either order gives the same product).  It
     *  is the source the block never writes, which stays fixed across
     *  a loop's iterations, or rs2 when both or neither qualify.
     *  Unused for other ops. */
    std::vector<uint8_t> mul_row;

    bool has_gf = false; ///< any GF op in the body (gfadds included)

    uint32_t pcOf(uint32_t k) const { return (first + k) * 4; }
    uint32_t termPc() const { return (first + len - 1) * 4; }
};

/** Why generated code handed control back to the driver. */
enum ExitReason : uint32_t {
    kExitHalt = 0,     ///< halt retired; exit_pc is past the halt
    kExitBudget = 1,   ///< next block does not fit the watchdog budget
    kExitExternal = 2, ///< control left the translated region (exit_pc)
    kExitDeopt = 3,    ///< guard failed mid-block; nothing committed
};

} // namespace gfp::jit

#endif // GFP_JIT_IR_H
