/**
 * @file
 * Abstract interpretation over an assembled GFP Program — the value
 * analysis underneath the certificate emitters (analysis/certify.h).
 *
 * The domain is a reduced product per register:
 *
 *   - an unsigned interval [lo, hi] (no wraparound representation; an
 *     operation whose result may straddle 2^32 goes to top), and
 *   - known-bits: two masks recording the bits proven 0 and proven 1
 *     (tri-state per bit), which is what address-alignment and
 *     field-mask reasoning want.
 *
 * This is the one value analysis of src/analysis: the certifier and the
 * linter's address rules both read it.  The fixpoint runs over the
 * instruction-granularity CFG (cfg.h): calls propagate the caller state
 * into the callee entry and, through the CFG's function summaries, a
 * may-def-clobbered state to the return site.  Widening (with a small
 * threshold ladder) fires at retreating-edge targets and function
 * entries after a short delay; two narrowing sweeps follow
 * convergence.  Conditional branches refine the compared register on
 * both out-edges using the tracked cmp/cmpi operands, which is also how
 * constant branch directions prune infeasible edges.
 *
 * On top of the fixpoint:
 *
 *   - loop-bound inference: natural loops (dominator back edges), a
 *     single-definition affine induction variable (addi/subi with
 *     rd == rs1), and an exit guard whose cmp dominates every back
 *     edge yield a proven bound on head visits.  Proven iteration
 *     ranges are fed back as head-state clamps and the fixpoint rerun,
 *     which is what rescues down-counted loops from widening.
 *   - indirect-jump refinement: a `jr rX` whose register is proven
 *     constant, or whose block-local defining load reads a
 *     store-untouched jump table (at most 4096 bytes) at proven
 *     addresses, gets precise CFG edges via
 *     ControlFlowGraph::refineIndirectTargets.
 *
 * Value-tracked memory is limited to word-aligned cells at constant
 * addresses (AbsState::cell), kept consistent across calls by
 * assume-guarantee store/return summaries; all other loads are typed
 * top.  Loop bounds additionally recognize a memory-held induction
 * variable (load / step / store-back / compare in a straight-line
 * window) and derive affine travel clamps for registers stepped once
 * per iteration of a bounded loop.
 *
 * Soundness caveats (mirrored in docs/ANALYSIS.md): relational facts
 * between registers are not tracked (e.g. r1 <= r2 from a guard), lr
 * save/restore through memory is trusted (the CFG's lr-integrity pass
 * guards it), and self-modifying code voids every certificate —
 * certify.h declines when a store may hit the code section.
 */

#ifndef GFP_ANALYSIS_ABSINT_H
#define GFP_ANALYSIS_ABSINT_H

#include <array>
#include <cstdint>
#include <map>
#include <set>
#include <string>
#include <vector>

#include "analysis/cfg.h"
#include "isa/isa.h"
#include "isa/program.h"

namespace gfp {

/** Unsigned value interval [lo, hi]; lo <= hi always holds. */
struct Interval
{
    uint32_t lo = 0;
    uint32_t hi = 0xffffffffu;

    static Interval top() { return {}; }
    static Interval constant(uint32_t v) { return {v, v}; }
    static Interval range(uint32_t lo, uint32_t hi) { return {lo, hi}; }

    bool isTop() const { return lo == 0 && hi == 0xffffffffu; }
    bool isConst() const { return lo == hi; }
    bool contains(uint32_t v) const { return lo <= v && v <= hi; }
    uint64_t width() const { return uint64_t{hi} - lo + 1; }
    bool operator==(const Interval &o) const = default;

    std::string describe() const;
};

/** Tri-state bit knowledge: bits proven 0 and bits proven 1. */
struct KnownBits
{
    uint32_t zeros = 0;
    uint32_t ones = 0;

    uint32_t known() const { return zeros | ones; }
    bool matches(uint32_t v) const
    {
        return (v & zeros) == 0 && (v & ones) == ones;
    }
    bool operator==(const KnownBits &o) const = default;
};

/** Reduced product of Interval and KnownBits. */
struct AbsValue
{
    Interval iv;
    KnownBits kb;

    static AbsValue top() { return {}; }
    static AbsValue constant(uint32_t v);
    static AbsValue range(uint32_t lo, uint32_t hi);

    bool isConst(uint32_t *v = nullptr) const;
    /** Propagate knowledge between the two component domains. */
    void reduce();

    bool operator==(const AbsValue &o) const = default;
    std::string describe() const;
};

/** Per-program-point abstract state. */
struct AbsState
{
    /** False = bottom: no execution reaches this point (yet). */
    bool reachable = false;

    std::array<AbsValue, kNumRegs> reg{};

    /**
     * Tracked memory cells: word-aligned 4-byte locations at *constant*
     * addresses whose content is known at this point.  Absence means
     * top (unknown); joins intersect the key sets.  This is what makes
     * register spills analyzable — the kernels' helper routines park
     * pointer arguments and loop counters in named save slots, and
     * without cell tracking every reload would be top.  Stores with
     * imprecise addresses and calls (via per-function may-store
     * summaries) invalidate overlapping cells.
     */
    std::map<uint32_t, AbsValue> cell;

    /** Must-analysis: a gfcfg definitely retired on every path here
     *  (so the GFAU is explicitly, not just default-, configured). */
    bool cfg_loaded = false;

    /** Operands of the dominating cmp/cmpi feeding the NZCV flags:
     *  lhs register, and either a constant or a register rhs.
     *  cmp_lhs < 0 when the flags' origin is unknown. */
    int cmp_lhs = -1;
    int cmp_rhs_reg = -1;  ///< >= 0: rhs is a register
    uint32_t cmp_rhs_k = 0; ///< rhs constant when cmp_rhs_reg < 0

    bool operator==(const AbsState &o) const = default;
};

/** One natural loop with its inferred head-visit bound. */
struct LoopBound
{
    uint32_t head = 0;               ///< word index of the loop header
    std::vector<uint32_t> members;   ///< sorted word indices
    std::vector<uint32_t> back_sources; ///< sources of the back edges

    bool bounded = false;
    uint64_t max_head_visits = 0;    ///< valid when bounded

    int iv_reg = -1;                 ///< induction register (when bounded)
    uint32_t guard = ~0u;            ///< word index of the proving guard
    std::string reason;              ///< how bounded / why not

    std::string describe(const ControlFlowGraph &cfg) const;
};

/** A reachable load/store/gfcfg with its proven address range. */
struct MemAccess
{
    uint32_t idx = 0;        ///< word index of the instruction
    Interval addr;           ///< byte address interval (top if unproven)
    unsigned size = 0;       ///< access width in bytes
    bool is_store = false;
    bool proven = false;     ///< addr is better than top
};

struct AbsIntOptions
{
    /** Guest memory size; must match the Machine the program runs on. */
    size_t mem_bytes = 256 * 1024;
};

/**
 * The abstract interpreter.  Construction is cheap; run() performs the
 * fixpoint rounds (initial, post-indirect-refinement, post-clamp) and
 * the loop-bound inference.  All queries below are valid after run().
 *
 * The ControlFlowGraph is held by reference and *mutated* when
 * indirect-jump refinement succeeds.
 */
class AbsInterp
{
  public:
    AbsInterp(ControlFlowGraph &cfg, AbsIntOptions opts = {});

    void run();

    const ControlFlowGraph &cfg() const { return cfg_; }
    const AbsIntOptions &options() const { return opts_; }

    /** Abstract state on entry to node @p idx (bottom if unreachable). */
    const AbsState &inState(uint32_t idx) const { return in_[idx]; }

    /** All natural loops found, with bounds where proven. */
    const std::vector<LoopBound> &loops() const { return loops_; }
    const LoopBound *loopWithHead(uint32_t head) const;

    /** Functions (entry word indices) whose body contains a retreating
     *  edge that is not a dominator back edge — irreducible control
     *  flow the loop bounder must decline. */
    const std::set<uint32_t> &irreducibleFunctions() const
    {
        return irreducible_;
    }

    /** Every reachable memory access with its address interval. */
    const std::vector<MemAccess> &memAccesses() const { return mem_; }
    const MemAccess *memAccessAt(uint32_t idx) const;

    /** May any reachable store write into [addr, addr + len)? */
    bool storesMayTouch(uint32_t addr, uint32_t len) const;

    /** True if some reachable store has a completely unproven address
     *  (and therefore may touch anything). */
    bool storesUnbounded() const { return stores_unbounded_; }

    /** Indirect jumps whose target set was proven and installed into
     *  the CFG. */
    unsigned refinedIndirects() const { return refined_indirects_; }

    /** True if every possible target of the (reachable) indirect jump
     *  at @p idx was proven to be a valid, decodable code word. */
    bool indirectTargetsOk(uint32_t idx) const
    {
        return indirect_ok_.count(idx) != 0;
    }

  private:
    /** Byte spans a function's stores (transitively, through callees)
     *  may write; `unbounded` when any reachable store is unproven. */
    struct StoreSummary
    {
        bool unbounded = false;
        std::vector<std::pair<uint64_t, uint64_t>> spans; ///< [lo, hi]

        bool coveredBy(const StoreSummary &outer) const;
    };

    void computeWidenPoints();
    /** Intersect @p st with the proven clamps installed at @p idx;
     *  false when the clamped state is empty (the inflow is
     *  infeasible). */
    bool applyClamps(uint32_t idx, AbsState &st) const;
    void runOnce();
    void narrow();
    void collectMemAccesses();
    /** Extract per-function may-store summaries from the current
     *  solution's memory accesses (call-graph-transitive). */
    std::map<uint32_t, StoreSummary> extractStoreSummaries() const;
    /** Extract per-function return-value summaries: the join of the
     *  register states at every reachable return of the function. */
    std::map<uint32_t, std::array<AbsValue, kNumRegs>>
    extractRetSummaries() const;
    /** True when the assumed store/return summaries cover what the
     *  current solution extracted (@p got, @p got_ret). */
    bool summariesCover(
        const std::map<uint32_t, StoreSummary> &got,
        const std::map<uint32_t, std::array<AbsValue, kNumRegs>> &got_ret)
        const;
    /** Assume-guarantee iteration: rerun the fixpoint with extracted
     *  store/return summaries until the extraction is covered by the
     *  assumption. */
    void stabilizeStoreSummaries();
    void refineIndirectJumps();
    void inferLoopBounds();
    bool deriveClamps();

    // Transfer: compute the per-successor out states of node idx given
    // its in state.  Implemented in absint.cc.
    template <typename Emit>
    void flowNode(uint32_t idx, const AbsState &in, Emit &&emit) const;

    AbsState entryState() const;

    ControlFlowGraph &cfg_;
    AbsIntOptions opts_;

    std::vector<AbsState> in_;
    std::vector<bool> widen_point_;
    std::vector<LoopBound> loops_;
    std::set<uint32_t> irreducible_;
    std::vector<MemAccess> mem_;
    std::map<uint32_t, unsigned> mem_index_;  ///< idx -> mem_ position
    bool stores_unbounded_ = false;
    unsigned refined_indirects_ = 0;
    std::set<uint32_t> indirect_ok_;

    /// Assumed per-function may-store summaries; a missing entry means
    /// "may store anywhere" (calls then drop every tracked cell).
    std::map<uint32_t, StoreSummary> store_summary_;

    /// Assumed per-function return-value summaries: what each clobbered
    /// register may hold after the call returns.  Missing entry = all
    /// top.  lr is always top at return sites regardless (its concrete
    /// value is the caller-specific return address).
    std::map<uint32_t, std::array<AbsValue, kNumRegs>> ret_summary_;

    /// Proven head-state clamps: head idx -> (reg -> interval), applied
    /// to every state joined into the head.  pending_ holds the clamps
    /// derived by the latest loop-inference pass, before installation.
    std::map<uint32_t, std::map<int, Interval>> clamps_;
    std::map<uint32_t, std::map<int, Interval>> pending_clamps_;
};

} // namespace gfp

#endif // GFP_ANALYSIS_ABSINT_H
