/**
 * @file
 * Control-flow graph over an assembled GFP Program, the substrate for
 * the guest-program static analyzer (analysis/lint.h).
 *
 * The graph is built at instruction granularity — GFP programs are
 * small (kernels are a few hundred words), so one node per code word is
 * simpler and loses nothing.  Structure captured:
 *
 *  - decode of every code word (undecodable words become invalid nodes
 *    with no successors — exactly the words the core would trap on);
 *  - direct edges: fall-through, conditional/unconditional PC-relative
 *    branch targets;
 *  - calls: `bl` sites and their targets form a call graph; for
 *    intraprocedural walks a call is summarized as an edge to its
 *    return site, taken only if the callee can actually return
 *    (mayReturn fixpoint below);
 *  - returns: `ret` and `jr lr` end a function;
 *  - indirect jumps: `jr rX` is over-approximated as "may go to any
 *    labeled instruction" — the only addresses a well-formed program
 *    can name are its labels;
 *  - interprocedural reachability from the entry point at pc 0;
 *  - per-function must/may-def summaries, which the linter's
 *    use-before-def pass and the abstract interpreter (absint.h) both
 *    use to summarize calls;
 *  - lr-integrity: returns a called function may reach with lr
 *    overwritten, read by the linter and the certifier alike.
 *
 * Everything here is derived purely from the Program bytes + symbol
 * table; the simulator is never consulted.
 */

#ifndef GFP_ANALYSIS_CFG_H
#define GFP_ANALYSIS_CFG_H

#include <cstdint>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "isa/isa.h"
#include "isa/program.h"

namespace gfp {

/** True for the GF ops whose result depends on the reduction matrix
 *  (gfmuls/gfinvs/gfsqs/gfpows).  gfadds is a pure XOR and gf32mul
 *  data-gates the reduction stage, so neither needs a configuration. */
bool usesReductionMatrix(Op op);

/// Dataflow register masks: bits 0..15 are the architectural
/// registers, bit 16 is the "GFAU explicitly configured"
/// pseudo-register written by gfcfg and read by the reduction-dependent
/// GF ops.
constexpr uint32_t kCfgBit = 1u << 16;
constexpr uint32_t kAllDefined = (1u << 17) - 1;

/** One code word of the program under analysis. */
struct CfgNode
{
    Instr in;                  ///< decoded instruction (when valid)
    bool valid = false;        ///< word decodes to an instruction
    bool leader = false;       ///< starts a basic block
    bool falls_through = false; ///< execution can continue at idx + 1
    bool has_target = false;   ///< direct branch/call target below
    uint32_t target = 0;       ///< word index of the branch/call target
    bool target_in_code = true; ///< target lands inside the code section
    bool is_call = false;      ///< bl
    bool is_return = false;    ///< ret, or jr lr
    bool is_indirect = false;  ///< jr rX with rX != lr
    bool is_halt = false;

    uint32_t pc() const { return pc_; }
    uint32_t pc_ = 0;
};

/** Registers node @p nd writes, plus kCfgBit for gfcfg. */
uint32_t defs32(const CfgNode &nd);

class ControlFlowGraph
{
  public:
    /** Build the CFG for @p prog.  Never fails: undecodable words and
     *  out-of-range targets are recorded, not rejected. */
    explicit ControlFlowGraph(const Program &prog);

    const Program &program() const { return *prog_; }
    size_t size() const { return nodes_.size(); }
    const CfgNode &node(uint32_t idx) const { return nodes_[idx]; }
    const std::vector<CfgNode> &nodes() const { return nodes_; }

    /** Word indices of every labeled instruction (indirect-jump
     *  over-approximation set). */
    const std::vector<uint32_t> &labeledNodes() const { return labeled_; }

    /** Word indices of every `bl` instruction. */
    const std::vector<uint32_t> &callSites() const { return call_sites_; }

    /** Word indices of every distinct `bl` target (function entries). */
    const std::vector<uint32_t> &functionEntries() const { return entries_; }

    /**
     * Intraprocedural successors of node @p idx: fall-through and
     * branch-target edges; a call contributes its return site when the
     * callee mayReturn(); returns and halts have none; an indirect jump
     * contributes every labeled node.  Invalid nodes have none.
     */
    std::vector<uint32_t> intraSucc(uint32_t idx) const;

    /** True if the function entered at @p entry can reach a ret/jr-lr.
     *  Queries on non-entry nodes return the value for the walk started
     *  there, which is what a fall-into-function analysis wants. */
    bool mayReturn(uint32_t entry) const;

    /** Nodes of the function entered at @p entry: reachable from it via
     *  intraprocedural edges (calls summarized, returns terminal). */
    std::vector<uint32_t> functionNodes(uint32_t entry) const;

    /** Interprocedural reachability from pc 0: calls enter the callee,
     *  returns resume at every return site of the callee's callers. */
    const std::vector<bool> &reachable() const { return reachable_; }

    /** Registers (with kCfgBit) the function entered at @p entry writes
     *  on every path to a return, callees' must-defs included;
     *  kAllDefined when it never returns, 0 for a non-entry. */
    uint32_t mustDef(uint32_t entry) const;

    /** Registers (with kCfgBit) the function entered at @p entry may
     *  write, callees included; kAllDefined for a non-entry. */
    uint32_t mayDef(uint32_t entry) const;

    /**
     * lr-integrity: for every reachable function entry that may return,
     * the first return it can reach with lr no longer holding the
     * value it was entered with (a nested bl, or a write to lr other
     * than the word-load and register-move restore idioms).  Pairs of
     * (entry, return word index), in function-entry order.
     */
    std::vector<std::pair<uint32_t, uint32_t>> lrClobberedReturns() const;

    /**
     * Replace the labeled-nodes over-approximation of the indirect jump
     * at @p idx with a proven target set (from the abstract
     * interpreter's const-propagation of the jump register / jump
     * table).  Downstream structure (mayReturn, reachability, the
     * function summaries) is recomputed; the refined targets become
     * block leaders.  Passing an
     * empty set is legal and means "no in-code target is feasible" —
     * the node then has no successors, like a halt.
     */
    void refineIndirectTargets(uint32_t idx, std::vector<uint32_t> targets);

    /** True if refineIndirectTargets() has been applied to @p idx. */
    bool indirectRefined(uint32_t idx) const
    {
        return indirect_targets_.count(idx) != 0;
    }

    /**
     * Strongly connected components of the *intraprocedural* edge
     * relation, restricted to reachable nodes.  Each inner vector is
     * one SCC; only SCCs that contain a cycle (more than one node, or a
     * self-loop) are returned.
     */
    std::vector<std::vector<uint32_t>> cyclicSccs() const;

    /** Human-readable location of node @p idx: nearest preceding label
     *  plus offset, e.g. "loop+0x8", or the raw pc. */
    std::string describeNode(uint32_t idx) const;

  private:
    void decodeAll();
    void markStructure();
    void computeMayReturn();
    void computeReachable();
    void computeSummaries();

    const Program *prog_;
    std::vector<CfgNode> nodes_;
    std::map<uint32_t, std::vector<uint32_t>> indirect_targets_;
    std::vector<uint32_t> labeled_;
    std::vector<uint32_t> call_sites_;
    std::vector<uint32_t> entries_;
    std::vector<bool> may_return_;  ///< per node: a walk from here rets
    std::vector<bool> reachable_;
    std::map<uint32_t, uint32_t> must_def_; ///< per function entry
    std::map<uint32_t, uint32_t> may_def_;  ///< per function entry
};

} // namespace gfp

#endif // GFP_ANALYSIS_CFG_H
