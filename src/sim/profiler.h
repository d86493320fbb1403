/**
 * @file
 * Per-PC instruction/cycle attribution for the GFP core.
 *
 * A PcProfile attaches to a Core with Core::setProfile() and
 * accumulates, for every retired instruction, its pc, opcode class and
 * cycle cost.  Both execution paths feed it with identical records: the
 * stepping path records at retire in Core::step(), and translated
 * dispatch (src/jit) replays each executed block's instructions at
 * their own PCs from the block counters, with the same class/cycle
 * pairs stepping would use — so a plain and a translated run of the
 * same program produce bit-identical profiles
 * (tests/test_profiler.cc holds this as an invariant).
 *
 * Attribution is exact, not sampled.  Overhead when detached is a
 * single predicted-not-taken null check per retire; when attached, the
 * hot path is one dense-array index per instruction (PCs inside the
 * configured code region) with a map fallback for stray PCs, so
 * attaching costs a few percent, never a different execution path.
 *
 * The profile's totals are designed to tie out exactly:
 *   sum over PCs of cycles == sum over classes of cycles == cycles()
 * and, when the profile covers a whole run, cycles() equals the
 * CycleStats delta of that run.  consistent() checks the internal
 * equalities.
 */

#ifndef GFP_SIM_PROFILER_H
#define GFP_SIM_PROFILER_H

#include <array>
#include <cstdint>
#include <map>
#include <utility>
#include <vector>

#include "isa/isa.h"

namespace gfp {

class PcProfile
{
  public:
    /** Counts attributed to one program counter. */
    struct PcCount
    {
        uint64_t instrs = 0;
        uint64_t cycles = 0;
        bool operator==(const PcCount &o) const = default;
    };

    /**
     * Size the dense per-PC table to cover [0, code_bytes).  Aligned
     * PCs inside the region hit a flat array; everything else (PCs past
     * the region, unaligned pcs from a corrupted jump) still counts,
     * through the overflow map.  Clears any accumulated counts.
     */
    void
    configure(uint32_t code_bytes)
    {
        dense_.assign(code_bytes / 4, PcCount());
        overflow_.clear();
        class_ops_.fill(0);
        class_cycles_.fill(0);
        total_instrs_ = 0;
        total_cycles_ = 0;
    }

    /** Drop all counts, keeping the configured region. */
    void
    clear()
    {
        for (auto &c : dense_)
            c = PcCount();
        overflow_.clear();
        class_ops_.fill(0);
        class_cycles_.fill(0);
        total_instrs_ = 0;
        total_cycles_ = 0;
    }

    /** Attribute one retired instruction.  Hot path — kept inline. */
    void
    record(uint32_t pc, InstrClass cls, unsigned cycles)
    {
        ++total_instrs_;
        total_cycles_ += cycles;
        const unsigned ci = static_cast<unsigned>(cls);
        ++class_ops_[ci];
        class_cycles_[ci] += cycles;
        const uint32_t idx = pc >> 2;
        if ((pc & 3u) == 0 && idx < dense_.size()) {
            ++dense_[idx].instrs;
            dense_[idx].cycles += cycles;
        } else {
            PcCount &c = overflow_[pc];
            ++c.instrs;
            c.cycles += cycles;
        }
    }

    /**
     * Attribute @p count retirements of the same instruction in one
     * call — how the translated dispatch path replays a block that
     * executed count times.  Equivalent to count record() calls (all
     * counters are linear), just without the per-iteration cost.
     */
    void
    record(uint32_t pc, InstrClass cls, unsigned cycles, uint64_t count)
    {
        if (count == 0)
            return;
        total_instrs_ += count;
        total_cycles_ += cycles * count;
        const unsigned ci = static_cast<unsigned>(cls);
        class_ops_[ci] += count;
        class_cycles_[ci] += cycles * count;
        const uint32_t idx = pc >> 2;
        if ((pc & 3u) == 0 && idx < dense_.size()) {
            dense_[idx].instrs += count;
            dense_[idx].cycles += cycles * count;
        } else {
            PcCount &c = overflow_[pc];
            c.instrs += count;
            c.cycles += cycles * count;
        }
    }

    uint64_t instrs() const { return total_instrs_; }
    uint64_t cycles() const { return total_cycles_; }

    uint64_t
    classOps(InstrClass cls) const
    {
        return class_ops_[static_cast<unsigned>(cls)];
    }
    uint64_t
    classCycles(InstrClass cls) const
    {
        return class_cycles_[static_cast<unsigned>(cls)];
    }

    /** Counts for one pc (zero if never executed). */
    PcCount at(uint32_t pc) const;

    /** Every pc with a nonzero count, ascending by pc. */
    std::vector<std::pair<uint32_t, PcCount>> nonZero() const;

    /** Sum of per-PC instruction counts (dense + overflow). */
    uint64_t sumPcInstrs() const;
    /** Sum of per-PC cycle counts (dense + overflow). */
    uint64_t sumPcCycles() const;

    /** Internal tie-out: per-PC sums and per-class sums both equal the
     *  totals.  A false return means an attribution path dropped or
     *  double-counted a record. */
    bool consistent() const;

  private:
    std::vector<PcCount> dense_;           // pc>>2 indexed, aligned in-region
    std::map<uint32_t, PcCount> overflow_; // everything else
    std::array<uint64_t, kNumInstrClasses> class_ops_{};
    std::array<uint64_t, kNumInstrClasses> class_cycles_{};
    uint64_t total_instrs_ = 0;
    uint64_t total_cycles_ = 0;
};

} // namespace gfp

#endif // GFP_SIM_PROFILER_H
