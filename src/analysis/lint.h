/**
 * @file
 * Guest-program static analyzer ("gfp-lint" pass 1).
 *
 * Runs a set of dataflow lints over the control-flow graph of an
 * assembled Program, catching the guest failures the trap architecture
 * (sim/trap.h) only reports at runtime — before a single simulated
 * cycle:
 *
 *   kUndecodable        reachable word that does not decode
 *   kBadBranchTarget    direct branch/call target outside the code
 *   kFallOffEnd         reachable path falls past the end of the code
 *                       section (missing halt)
 *   kUseBeforeDef       register read while possibly never written
 *                       (entry state: r0..r3 arguments + sp)
 *   kGfBeforeConfig     reduction-dependent GF instruction reachable
 *                       before any gfcfg (silently computes in the
 *                       power-on default field)
 *   kUnreachable        code no path from the entry reaches
 *   kOobAddress         load/store whose address the abstract
 *                       interpreter (absint.h) proves constant, outside
 *                       the memory array (would trap OutOfRangeAccess)
 *   kAddrBeyondImage    constant address past the program image but
 *                       inside memory (legal, usually a bug); accesses
 *                       based on sp are stack traffic and exempt
 *   kStoreToCode        constant-address store into the code section
 *                       (self-modifying code)
 *   kInfiniteLoop       loop with no exit edge, or a branch-to-self
 *                       with no flag update in between
 *   kMaybeInfiniteLoop  loop whose only exits are conditional branches
 *                       but whose body never updates the flags
 *   kCallNoReturn       bl to a function from which no ret/jr lr is
 *                       reachable
 *   kLrClobbered        called function may return with lr overwritten
 *                       (nested bl without save, or lr used as scratch)
 *   kConfigBlobOob      gfcfg blob address outside memory
 *   kBadConfigBlob      initialized gfcfg blob carries an invalid field
 *                       width (would trap GfConfigCorrupt)
 *   kSuspectConfigBlob  blob loads but its P matrix matches no
 *                       irreducible polynomial and is not the circulant
 *                       ring configuration (silent wrong-field class)
 *
 * Findings carry a severity and the 1-based source line (via the
 * assembler's Program::line_of_word debug info).  The analysis is
 * purely static — it never constructs a simulator.
 */

#ifndef GFP_ANALYSIS_LINT_H
#define GFP_ANALYSIS_LINT_H

#include <cstdint>
#include <string>
#include <vector>

#include "isa/program.h"

namespace gfp {

enum class LintRule : uint8_t {
    kUndecodable,
    kBadBranchTarget,
    kFallOffEnd,
    kUseBeforeDef,
    kGfBeforeConfig,
    kUnreachable,
    kOobAddress,
    kAddrBeyondImage,
    kStoreToCode,
    kInfiniteLoop,
    kMaybeInfiniteLoop,
    kCallNoReturn,
    kLrClobbered,
    kConfigBlobOob,
    kBadConfigBlob,
    kSuspectConfigBlob,
};

/** Stable kebab-case name for a rule ("use-before-def", ...). */
const char *lintRuleName(LintRule rule);

enum class Severity : uint8_t { kWarning, kError };

struct Finding
{
    LintRule rule;
    Severity severity;
    uint32_t pc = 0;   ///< byte address of the offending instruction
    int line = 0;      ///< 1-based source line; 0 when unknown
    std::string message;

    /** "line 12: error: ... [use-before-def]" (pc-based when no line). */
    std::string describe() const;
};

struct LintOptions
{
    /** Memory array size the program will run against (address-range
     *  checks); the Machine default. */
    size_t mem_bytes = 256 * 1024;

    /** Treat r0..r3 as defined at entry (the Machine::setArgs calling
     *  convention).  sp is always defined (reset() seeds it). */
    bool entry_args_defined = true;

    /** Stop after this many findings (0 = unlimited). */
    size_t max_findings = 200;
};

struct LintReport
{
    std::vector<Finding> findings;

    unsigned errorCount() const;
    unsigned warningCount() const;
    bool hasErrors() const { return errorCount() > 0; }
    bool clean() const { return findings.empty(); }

    /** "3 errors, 1 warning" */
    std::string summary() const;
};

/** Run every lint over @p prog. */
LintReport lintProgram(const Program &prog, const LintOptions &opts = {});

} // namespace gfp

#endif // GFP_ANALYSIS_LINT_H
