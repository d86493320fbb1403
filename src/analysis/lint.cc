#include "analysis/lint.h"

#include <algorithm>
#include <deque>
#include <set>

#include "analysis/absint.h"
#include "analysis/cfg.h"
#include "analysis/config_verifier.h"
#include "common/strutil.h"
#include "gfau/config_reg.h"

namespace gfp {

const char *
lintRuleName(LintRule rule)
{
    switch (rule) {
      case LintRule::kUndecodable:        return "undecodable";
      case LintRule::kBadBranchTarget:    return "bad-branch-target";
      case LintRule::kFallOffEnd:         return "fall-off-end";
      case LintRule::kUseBeforeDef:       return "use-before-def";
      case LintRule::kGfBeforeConfig:     return "gf-before-config";
      case LintRule::kUnreachable:        return "unreachable";
      case LintRule::kOobAddress:         return "oob-address";
      case LintRule::kAddrBeyondImage:    return "addr-beyond-image";
      case LintRule::kStoreToCode:        return "store-to-code";
      case LintRule::kInfiniteLoop:       return "infinite-loop";
      case LintRule::kMaybeInfiniteLoop:  return "maybe-infinite-loop";
      case LintRule::kCallNoReturn:       return "call-no-return";
      case LintRule::kLrClobbered:        return "lr-clobbered";
      case LintRule::kConfigBlobOob:      return "config-blob-oob";
      case LintRule::kBadConfigBlob:      return "bad-config-blob";
      case LintRule::kSuspectConfigBlob:  return "suspect-config-blob";
    }
    return "?";
}

std::string
Finding::describe() const
{
    const char *sev = severity == Severity::kError ? "error" : "warning";
    if (line > 0)
        return strprintf("line %d: %s: %s [%s]", line, sev, message.c_str(),
                         lintRuleName(rule));
    return strprintf("pc 0x%x: %s: %s [%s]", pc, sev, message.c_str(),
                     lintRuleName(rule));
}

unsigned
LintReport::errorCount() const
{
    unsigned n = 0;
    for (const Finding &f : findings)
        n += f.severity == Severity::kError;
    return n;
}

unsigned
LintReport::warningCount() const
{
    return static_cast<unsigned>(findings.size()) - errorCount();
}

std::string
LintReport::summary() const
{
    unsigned e = errorCount(), w = warningCount();
    return strprintf("%u error%s, %u warning%s", e, e == 1 ? "" : "s", w,
                     w == 1 ? "" : "s");
}

namespace {

uint32_t
uses32(const CfgNode &nd)
{
    uint32_t u = regUses(nd.in);
    if (usesReductionMatrix(nd.in.op))
        u |= kCfgBit;
    return u;
}

std::string
maskRegNames(uint32_t mask)
{
    std::string out;
    for (unsigned r = 0; r < kNumRegs; ++r) {
        if (mask & (1u << r)) {
            if (!out.empty())
                out += ", ";
            out += regName(r);
        }
    }
    return out;
}

class Linter
{
  public:
    Linter(const Program &prog, const LintOptions &opts)
        : prog_(prog), opts_(opts), cfg_(prog)
    {
    }

    LintReport run();

  private:
    void add(LintRule rule, Severity sev, uint32_t word_idx,
             std::string message);
    void checkStructure();
    void checkUnreachable();
    void checkUseBeforeDef();
    void checkAddresses();
    void checkConfigBlob(uint32_t idx);
    void checkLoops();
    void checkCalls();

    const Program &prog_;
    const LintOptions &opts_;
    ControlFlowGraph cfg_;
    LintReport report_;
};

void
Linter::add(LintRule rule, Severity sev, uint32_t word_idx,
            std::string message)
{
    Finding f;
    f.rule = rule;
    f.severity = sev;
    f.pc = word_idx * 4;
    f.line = prog_.lineOfWord(word_idx);
    f.message = std::move(message);
    report_.findings.push_back(std::move(f));
}

LintReport
Linter::run()
{
    checkStructure();
    checkUnreachable();
    checkUseBeforeDef();
    checkAddresses();
    checkLoops();
    checkCalls();

    std::stable_sort(report_.findings.begin(), report_.findings.end(),
                     [](const Finding &a, const Finding &b) {
                         return a.pc < b.pc;
                     });
    if (opts_.max_findings && report_.findings.size() > opts_.max_findings)
        report_.findings.resize(opts_.max_findings);
    return std::move(report_);
}

void
Linter::checkStructure()
{
    const uint32_t n = static_cast<uint32_t>(cfg_.size());
    const auto &reach = cfg_.reachable();
    for (uint32_t i = 0; i < n; ++i) {
        const CfgNode &nd = cfg_.node(i);
        if (!reach[i])
            continue;
        if (!nd.valid) {
            add(LintRule::kUndecodable, Severity::kError, i,
                strprintf("reachable word 0x%08x at %s does not decode",
                          prog_.code[i], cfg_.describeNode(i).c_str()));
            continue;
        }
        if (nd.has_target && !nd.target_in_code) {
            add(LintRule::kBadBranchTarget, Severity::kError, i,
                strprintf("%s target lands outside the code section",
                          opName(nd.in.op)));
        }
        // A reachable path that runs past the last code word executes
        // whatever bytes follow (a missing halt).
        bool continues = nd.is_call
            ? (!nd.target_in_code || cfg_.mayReturn(nd.target))
            : nd.falls_through;
        if (continues && i + 1 == n) {
            add(LintRule::kFallOffEnd, Severity::kError, i,
                strprintf("execution can fall past the end of the code "
                          "section after %s (missing halt?)",
                          cfg_.describeNode(i).c_str()));
        }
    }
}

void
Linter::checkUnreachable()
{
    const uint32_t n = static_cast<uint32_t>(cfg_.size());
    const auto &reach = cfg_.reachable();
    std::set<uint32_t> labeled(cfg_.labeledNodes().begin(),
                               cfg_.labeledNodes().end());
    // Runs of unreachable code are split at labels, and a run that
    // *starts* at a label is not reported: labeled code is addressable
    // (typically an uncalled routine of a shared helper library), while
    // unlabeled dead code can never execute under any caller.
    uint32_t i = 0;
    while (i < n) {
        if (reach[i]) {
            ++i;
            continue;
        }
        uint32_t start = i;
        ++i;
        while (i < n && !reach[i] && !labeled.count(i))
            ++i;
        if (labeled.count(start))
            continue;
        add(LintRule::kUnreachable, Severity::kWarning, start,
            strprintf("%u unreachable instruction%s starting at %s",
                      i - start, i - start == 1 ? "" : "s",
                      cfg_.describeNode(start).c_str()));
    }
}

void
Linter::checkUseBeforeDef()
{
    const uint32_t n = static_cast<uint32_t>(cfg_.size());
    if (n == 0)
        return;

    // Forward must-defined analysis over the whole program, meeting by
    // intersection; calls are entered (so callee bodies are checked
    // against the meet of their call-site states) *and* summarized (so
    // the return site credits the callee's must-defs).
    std::vector<uint32_t> in(n, kAllDefined);
    uint32_t entry_mask = 1u << kRegSp;
    if (opts_.entry_args_defined)
        entry_mask |= 0xf; // r0..r3 (Machine::setArgs)
    in[0] = entry_mask;

    std::deque<uint32_t> work{0};
    std::vector<bool> queued(n, false);
    queued[0] = true;
    auto push = [&](uint32_t idx, uint32_t state) {
        uint32_t next = in[idx] & state;
        if (next != in[idx]) {
            in[idx] = next;
            if (!queued[idx]) {
                queued[idx] = true;
                work.push_back(idx);
            }
        }
    };
    while (!work.empty()) {
        uint32_t i = work.front();
        work.pop_front();
        queued[i] = false;
        const CfgNode &nd = cfg_.node(i);
        if (!nd.valid)
            continue;
        uint32_t out = in[i] | defs32(nd);
        if (nd.is_call && nd.target_in_code) {
            // Callee entry sees the pre-call state plus lr.
            push(nd.target, in[i] | (1u << kRegLr));
            out |= cfg_.mustDef(nd.target);
        }
        for (uint32_t s : cfg_.intraSucc(i))
            push(s, out);
    }

    const auto &reach = cfg_.reachable();
    for (uint32_t i = 0; i < n; ++i) {
        const CfgNode &nd = cfg_.node(i);
        if (!reach[i] || !nd.valid)
            continue;
        uint32_t missing = uses32(nd) & ~in[i];
        if (missing & 0xffff) {
            add(LintRule::kUseBeforeDef, Severity::kWarning, i,
                strprintf("%s reads %s, which may be used before being "
                          "written",
                          opName(nd.in.op),
                          maskRegNames(missing & 0xffff).c_str()));
        }
        if (missing & kCfgBit) {
            add(LintRule::kGfBeforeConfig, Severity::kWarning, i,
                strprintf("%s may execute before any gfcfg; it would "
                          "silently use the power-on default field "
                          "GF(2^8)/0x11d",
                          opName(nd.in.op)));
        }
    }
}

void
Linter::checkAddresses()
{
    // AbsInterp refines indirect jumps in the graph it runs on, so it
    // gets a copy: the structural rules keep reading the unrefined one.
    ControlFlowGraph refined = cfg_;
    AbsIntOptions aopts;
    aopts.mem_bytes = opts_.mem_bytes;
    AbsInterp ai(refined, aopts);
    ai.run();

    const uint32_t n = static_cast<uint32_t>(cfg_.size());
    const auto &reach = cfg_.reachable();
    const uint64_t code_bytes = uint64_t{n} * 4;
    const uint64_t image_end = prog_.footprint();

    for (uint32_t i = 0; i < n; ++i) {
        const CfgNode &nd = cfg_.node(i);
        if (!reach[i] || !nd.valid)
            continue;
        const Instr &in = nd.in;
        if (in.op == Op::kGfCfg) {
            checkConfigBlob(i);
            continue;
        }
        // A constant address interval is the 32-bit sum of constant
        // operands, wrapped as the core computes it.
        const MemAccess *a = ai.memAccessAt(i);
        if (!a || !a->addr.isConst())
            continue;
        const uint32_t addr = a->addr.lo;

        const uint64_t end = uint64_t{addr} + a->size;
        if (end > opts_.mem_bytes) {
            add(LintRule::kOobAddress, Severity::kError, i,
                strprintf("%s at constant address 0x%x is outside the "
                          "%zu-byte memory (would trap OutOfRangeAccess)",
                          opName(in.op), addr, opts_.mem_bytes));
        } else if (a->is_store && addr < code_bytes) {
            add(LintRule::kStoreToCode, Severity::kWarning, i,
                strprintf("%s at constant address 0x%x writes into the "
                          "code section (self-modifying code)",
                          opName(in.op), addr));
        } else if (addr >= image_end && in.rs1 != kRegSp) {
            // sp-based accesses are stack traffic, which lives past the
            // image by design (reset puts sp at the top of memory).
            add(LintRule::kAddrBeyondImage, Severity::kWarning, i,
                strprintf("%s at constant address 0x%x is past the "
                          "program image (footprint 0x%zx); such scratch "
                          "memory is legal but usually a bug",
                          opName(in.op), addr,
                          static_cast<size_t>(image_end)));
        }
    }
}

void
Linter::checkConfigBlob(uint32_t idx)
{
    const CfgNode &nd = cfg_.node(idx);
    const uint32_t addr = static_cast<uint32_t>(nd.in.imm);
    if (uint64_t{addr} + 8 > opts_.mem_bytes) {
        add(LintRule::kConfigBlobOob, Severity::kError, idx,
            strprintf("gfcfg blob address 0x%x is outside the %zu-byte "
                      "memory",
                      addr, opts_.mem_bytes));
        return;
    }

    const uint64_t image_end = prog_.footprint();
    if (addr < prog_.data_base || uint64_t{addr} + 8 > image_end) {
        add(LintRule::kSuspectConfigBlob, Severity::kWarning, idx,
            strprintf("gfcfg reads its blob from 0x%x, outside the "
                      "initialized data section [0x%x, 0x%zx); contents "
                      "cannot be validated statically",
                      addr, prog_.data_base,
                      static_cast<size_t>(image_end)));
        return;
    }

    uint64_t blob = 0;
    for (unsigned b = 0; b < 8; ++b)
        blob |= uint64_t{prog_.data[addr - prog_.data_base + b]} << (8 * b);

    if (blob == 0) {
        add(LintRule::kSuspectConfigBlob, Severity::kWarning, idx,
            strprintf("gfcfg blob at 0x%x is all-zero — invalid unless "
                      "the host patches it before launch",
                      addr));
        return;
    }

    GFConfig cfg;
    if (!GFConfig::tryUnpack(blob, cfg)) {
        add(LintRule::kBadConfigBlob, Severity::kError, idx,
            strprintf("gfcfg blob at 0x%x carries invalid field width "
                      "m=%u (would trap GfConfigCorrupt)",
                      addr, cfg.m));
        return;
    }

    ConfigClassification cls = classifyConfig(cfg);
    if (cls.cls == ConfigClass::kUnknown) {
        add(LintRule::kSuspectConfigBlob, Severity::kWarning, idx,
            strprintf("gfcfg blob at 0x%x (m=%u) matches no irreducible "
                      "polynomial's reduction matrix and is not the "
                      "circulant ring configuration",
                      addr, cfg.m));
    }
}

void
Linter::checkLoops()
{
    // A branch that targets itself is a special case the SCC heuristics
    // below cannot see through (it may sit inside a larger loop that
    // does update flags): between two executions of the *same* branch
    // nothing runs, so a taken iteration repeats forever.
    const auto &reach = cfg_.reachable();
    for (uint32_t i = 0; i < cfg_.size(); ++i) {
        const CfgNode &nd = cfg_.node(i);
        if (!reach[i] || !nd.valid || !nd.has_target || !nd.target_in_code)
            continue;
        if (nd.target == i && nd.in.op != Op::kBl) {
            add(LintRule::kInfiniteLoop, Severity::kError, i,
                strprintf("%s at %s branches to itself%s",
                          opName(nd.in.op), cfg_.describeNode(i).c_str(),
                          nd.in.op == Op::kB
                              ? ""
                              : " and nothing can change the flags it "
                                "tests"));
        }
    }

    for (const auto &scc : cfg_.cyclicSccs()) {
        if (scc.size() == 1)
            continue; // self-loops handled above
        std::set<uint32_t> members(scc.begin(), scc.end());
        bool has_exit = false;
        bool has_flag_setter = false;
        bool has_call = false;
        bool has_indirect = false;
        for (uint32_t i : scc) {
            const CfgNode &nd = cfg_.node(i);
            const Op op = nd.in.op;
            if (op == Op::kCmp || op == Op::kCmpi)
                has_flag_setter = true;
            if (nd.is_call)
                has_call = true; // callee may cmp — flags are global
            if (nd.is_indirect)
                has_indirect = true;
            std::vector<uint32_t> succ = cfg_.intraSucc(i);
            if (succ.empty() && nd.valid)
                has_exit = true; // halt / ret / non-returning call
            for (uint32_t s : succ)
                if (!members.count(s))
                    has_exit = true;
        }
        if (has_indirect)
            continue; // over-approximated edges; stay quiet

        const std::string where = cfg_.describeNode(scc[0]);
        if (!has_exit) {
            add(LintRule::kInfiniteLoop, Severity::kError, scc[0],
                strprintf("loop at %s (%zu instruction%s) has no exit "
                          "path",
                          where.c_str(), scc.size(),
                          scc.size() == 1 ? "" : "s"));
        } else if (!has_flag_setter && !has_call) {
            // The loop can only leave through conditional branches, but
            // nothing inside ever updates the flags — the exit
            // condition is frozen at loop entry.
            add(LintRule::kMaybeInfiniteLoop, Severity::kWarning, scc[0],
                strprintf("loop at %s never updates the flags; its "
                          "conditional exit is decided before the loop "
                          "is entered",
                          where.c_str()));
        }
    }
}

void
Linter::checkCalls()
{
    const auto &reach = cfg_.reachable();

    std::set<uint32_t> reported;
    for (uint32_t cs : cfg_.callSites()) {
        if (!reach[cs])
            continue;
        const CfgNode &nd = cfg_.node(cs);
        if (!nd.target_in_code || cfg_.mayReturn(nd.target))
            continue;
        if (!reported.insert(nd.target).second)
            continue;
        add(LintRule::kCallNoReturn, Severity::kWarning, cs,
            strprintf("call to %s never returns (no ret/jr lr reachable "
                      "from it)",
                      cfg_.describeNode(nd.target).c_str()));
    }

    // lr-integrity: a called function must reach its returns with the
    // lr value it was entered with — a nested bl (or using lr as
    // scratch) without a save/restore sends `ret` somewhere stale.
    for (const auto &[entry, ret] : cfg_.lrClobberedReturns()) {
        add(LintRule::kLrClobbered, Severity::kWarning, ret,
            strprintf("function %s may return through a clobbered lr "
                      "(nested bl without a save/restore?)",
                      cfg_.describeNode(entry).c_str()));
    }
}

} // namespace

LintReport
lintProgram(const Program &prog, const LintOptions &opts)
{
    Linter linter(prog, opts);
    return linter.run();
}

} // namespace gfp
