/**
 * @file
 * Certificate emitters (analysis/certify.h) on top of the abstract
 * interpreter.  See the header for the contract; the interesting code
 * here is the WCET engine: a bottom-up walk of the call graph that
 * collapses natural loops innermost-first (loop weight = proven head
 * visits x longest acyclic body path) and then takes the longest path
 * through each function's loop-collapsed DAG.  Instruction weights are
 * the worst-case cycle costs the simulator itself retires
 * (sim/cost_model.h), so the static bound and the dynamic counter are
 * the same accounting by construction.
 */

#include "analysis/certify.h"

#include <algorithm>
#include <cstdio>
#include <functional>
#include <limits>
#include <map>
#include <optional>
#include <set>
#include <sstream>

#include "analysis/config_verifier.h"
#include "gfau/config_reg.h"
#include "hwmodel/energy_model.h"
#include "isa/isa.h"
#include "sim/cost_model.h"

namespace gfp {

namespace {

uint64_t
satAdd(uint64_t a, uint64_t b)
{
    const uint64_t s = a + b;
    return s < a ? std::numeric_limits<uint64_t>::max() : s;
}

uint64_t
satMul(uint64_t a, uint64_t b)
{
    if (a == 0 || b == 0)
        return 0;
    if (a > std::numeric_limits<uint64_t>::max() / b)
        return std::numeric_limits<uint64_t>::max();
    return a * b;
}

/** Per-path cost vector; each component is maximized independently,
 *  which upper-bounds every concrete path on every component. */
struct Weights
{
    uint64_t instrs = 0;
    uint64_t cycles = 0;
    uint64_t gf_cycles = 0;

    Weights operator+(const Weights &o) const
    {
        return {satAdd(instrs, o.instrs), satAdd(cycles, o.cycles),
                satAdd(gf_cycles, o.gf_cycles)};
    }
    Weights scaled(uint64_t k) const
    {
        return {satMul(instrs, k), satMul(cycles, k), satMul(gf_cycles, k)};
    }
    void maxWith(const Weights &o)
    {
        instrs = std::max(instrs, o.instrs);
        cycles = std::max(cycles, o.cycles);
        gf_cycles = std::max(gf_cycles, o.gf_cycles);
    }
};

/** Worst-case weight of retiring the instruction at @p nd once,
 *  excluding any callee cost. */
Weights
ownWeight(const CfgNode &nd)
{
    if (!nd.valid)
        return {1, kDefaultCycles, 0};
    const unsigned cyc = worstCaseCycles(nd.in.op);
    const bool gf = EnergyModel::usesGfau(classOf(nd.in.op));
    return {1, cyc, gf ? cyc : 0};
}

/**
 * Bottom-up WCET over the call graph.  costOf(entry) returns the
 * worst-case weight of one activation of the function entered at
 * @p entry, or nullopt (with reason() set) when the analysis declines:
 * recursion, irreducible control flow, an unbounded loop, or an
 * unrefined indirect jump.
 */
class WcetEngine
{
  public:
    WcetEngine(const AbsInterp &ai) : ai_(ai), cfg_(ai.cfg()) {}

    std::optional<Weights> costOf(uint32_t entry);
    const std::string &reason() const { return reason_; }

  private:
    std::optional<Weights> compute(uint32_t entry);

    /** Longest path through a region (function body or one loop body)
     *  whose cycles have been collapsed into single items. */
    std::optional<Weights>
    regionLongestPath(const std::set<uint32_t> &nodes, uint32_t start,
                      const std::vector<const LoopBound *> &loops,
                      const std::map<uint32_t, Weights> &loop_weight,
                      const std::map<uint32_t, Weights> &node_weight,
                      bool drop_edges_to_start);

    /** Innermost loop (among @p loops, excluding head @p self) whose
     *  member set contains @p v; nullptr when v is a plain node. */
    static const LoopBound *
    innermostLoop(uint32_t v, const std::vector<const LoopBound *> &loops,
                  uint32_t self);

    const AbsInterp &ai_;
    const ControlFlowGraph &cfg_;
    std::map<uint32_t, std::optional<Weights>> memo_;
    std::set<uint32_t> in_progress_;
    std::string reason_;
};

std::optional<Weights>
WcetEngine::costOf(uint32_t entry)
{
    auto it = memo_.find(entry);
    if (it != memo_.end())
        return it->second;
    if (in_progress_.count(entry)) {
        if (reason_.empty())
            reason_ = "recursive call through " + cfg_.describeNode(entry);
        return std::nullopt;
    }
    in_progress_.insert(entry);
    auto r = compute(entry);
    in_progress_.erase(entry);
    memo_[entry] = r;
    return r;
}

const LoopBound *
WcetEngine::innermostLoop(uint32_t v,
                          const std::vector<const LoopBound *> &loops,
                          uint32_t self)
{
    const LoopBound *best = nullptr;
    for (const LoopBound *L : loops) {
        if (L->head == self)
            continue;
        if (!std::binary_search(L->members.begin(), L->members.end(), v))
            continue;
        if (!best || L->members.size() < best->members.size())
            best = L;
    }
    return best;
}

std::optional<Weights>
WcetEngine::regionLongestPath(const std::set<uint32_t> &nodes, uint32_t start,
                              const std::vector<const LoopBound *> &loops,
                              const std::map<uint32_t, Weights> &loop_weight,
                              const std::map<uint32_t, Weights> &node_weight,
                              bool drop_edges_to_start)
{
    // Items: plain nodes map to themselves; nodes inside one of the
    // region's sub-loops map to that loop's head.  The item graph of a
    // reducible region with every sub-loop collapsed is acyclic.
    auto itemOf = [&](uint32_t v) -> uint32_t {
        const LoopBound *L = innermostLoop(v, loops, start);
        return L ? L->head : v;
    };
    // For nesting, map to the OUTERMOST sub-loop of this region: the
    // loops vector passed in holds only immediate sub-regions, so the
    // innermost-containing lookup over it is exactly that.

    std::map<uint32_t, std::vector<uint32_t>> succ;
    std::map<uint32_t, unsigned> indeg;
    std::set<uint32_t> items;
    for (uint32_t u : nodes)
        items.insert(itemOf(u));
    for (uint32_t u : nodes) {
        const uint32_t a = itemOf(u);
        for (uint32_t v : cfg_.intraSucc(u)) {
            if (!nodes.count(v))
                continue; // region exit
            const uint32_t b = itemOf(v);
            if (a == b)
                continue;
            if (drop_edges_to_start && b == itemOf(start))
                continue; // back edge of the loop being collapsed
            succ[a].push_back(b);
        }
    }
    for (auto &[a, vs] : succ) {
        std::sort(vs.begin(), vs.end());
        vs.erase(std::unique(vs.begin(), vs.end()), vs.end());
        for (uint32_t b : vs)
            ++indeg[b];
    }

    auto weightOf = [&](uint32_t item) -> Weights {
        auto lw = loop_weight.find(item);
        if (lw != loop_weight.end() && item != start)
            return lw->second;
        // `start` of a loop region is the head *node*, priced as a node
        // even when a same-head entry exists in loop_weight.
        auto nw = node_weight.find(item);
        return nw != node_weight.end() ? nw->second : Weights{};
    };

    // Kahn topological order; a leftover item means a cycle survived
    // loop collapse (should be unreachable given the irreducibility
    // pre-check — decline rather than under-approximate).
    std::vector<uint32_t> order;
    std::vector<uint32_t> ready;
    for (uint32_t it2 : items)
        if (indeg.find(it2) == indeg.end())
            ready.push_back(it2);
    while (!ready.empty()) {
        uint32_t a = ready.back();
        ready.pop_back();
        order.push_back(a);
        auto sit = succ.find(a);
        if (sit == succ.end())
            continue;
        for (uint32_t b : sit->second)
            if (--indeg[b] == 0)
                ready.push_back(b);
    }
    if (order.size() != items.size()) {
        if (reason_.empty())
            reason_ = "cycle survived loop collapse near " +
                      cfg_.describeNode(start);
        return std::nullopt;
    }

    const uint32_t start_item = itemOf(start);
    std::map<uint32_t, Weights> dist;
    std::set<uint32_t> seen;
    dist[start_item] = weightOf(start_item);
    seen.insert(start_item);
    Weights best = dist[start_item];
    for (uint32_t a : order) {
        if (!seen.count(a))
            continue;
        best.maxWith(dist[a]);
        auto sit = succ.find(a);
        if (sit == succ.end())
            continue;
        for (uint32_t b : sit->second) {
            Weights w = dist[a] + weightOf(b);
            if (!seen.count(b)) {
                dist[b] = w;
                seen.insert(b);
            } else {
                dist[b].maxWith(w);
            }
        }
    }
    return best;
}

std::optional<Weights>
WcetEngine::compute(uint32_t entry)
{
    if (ai_.irreducibleFunctions().count(entry)) {
        if (reason_.empty())
            reason_ = "irreducible control flow in " +
                      cfg_.describeNode(entry);
        return std::nullopt;
    }

    // Region nodes: the function body, restricted to what the abstract
    // interpreter still considers reachable (it may have pruned
    // infeasible branch edges the raw CFG keeps).
    std::set<uint32_t> body;
    for (uint32_t v : cfg_.functionNodes(entry))
        if (ai_.inState(v).reachable)
            body.insert(v);
    if (body.empty())
        return Weights{};

    // Per-node weights, with callee costs folded into call sites.
    std::map<uint32_t, Weights> node_weight;
    for (uint32_t v : body) {
        const CfgNode &nd = cfg_.node(v);
        Weights w = ownWeight(nd);
        if (nd.valid && nd.is_indirect && !cfg_.indirectRefined(v)) {
            if (reason_.empty())
                reason_ = "unrefined indirect jump at " +
                          cfg_.describeNode(v);
            return std::nullopt;
        }
        if (nd.valid && nd.is_call && nd.target_in_code) {
            auto callee = costOf(nd.target);
            if (!callee)
                return std::nullopt;
            w = w + *callee;
        }
        node_weight[v] = w;
    }

    // Loops of this region, all of which must be bounded.
    std::vector<const LoopBound *> loops;
    for (const LoopBound &L : ai_.loops()) {
        if (!body.count(L.head))
            continue;
        if (!L.bounded) {
            if (reason_.empty())
                reason_ = "unbounded loop at " + cfg_.describeNode(L.head) +
                          " (" + L.reason + ")";
            return std::nullopt;
        }
        loops.push_back(&L);
    }
    // Innermost-first, so nested loop weights exist before their parent
    // collapses them.
    std::sort(loops.begin(), loops.end(),
              [](const LoopBound *a, const LoopBound *b) {
                  return a->members.size() < b->members.size();
              });

    std::map<uint32_t, Weights> loop_weight;
    for (const LoopBound *L : loops) {
        std::set<uint32_t> lnodes;
        for (uint32_t v : L->members)
            if (body.count(v))
                lnodes.insert(v);
        if (!lnodes.count(L->head))
            continue; // head pruned: loop cannot execute
        // Immediate sub-loops of L: strictly smaller loops whose head is
        // one of L's members.
        std::vector<const LoopBound *> subs;
        for (const LoopBound *M : loops) {
            if (M == L || M->members.size() >= L->members.size())
                continue;
            if (std::binary_search(L->members.begin(), L->members.end(),
                                   M->head) &&
                M->head != L->head)
                subs.push_back(M);
        }
        auto iter = regionLongestPath(lnodes, L->head, subs, loop_weight,
                                      node_weight,
                                      /*drop_edges_to_start=*/true);
        if (!iter)
            return std::nullopt;
        loop_weight[L->head] = iter->scaled(L->max_head_visits);
    }

    // Function level: collapse only the top-level loops (those not
    // nested inside another loop of this region).
    std::vector<const LoopBound *> top;
    for (const LoopBound *L : loops) {
        bool nested = false;
        for (const LoopBound *M : loops)
            if (M != L && M->head != L->head &&
                std::binary_search(M->members.begin(), M->members.end(),
                                   L->head))
                nested = true;
        if (!nested)
            top.push_back(L);
    }
    return regionLongestPath(body, entry, top, loop_weight, node_weight,
                             /*drop_edges_to_start=*/false);
}

/** Static read of the 8-byte gfcfg blob at @p addr from the program
 *  image (little-endian), when it lies fully inside initialized data or
 *  the code section. */
bool
readStaticBlob(const Program &prog, uint32_t addr, uint64_t &out)
{
    uint64_t v = 0;
    for (unsigned b = 0; b < 8; ++b) {
        const uint64_t a = uint64_t{addr} + b;
        uint8_t byte;
        if (a < uint64_t{prog.code.size()} * 4) {
            byte = static_cast<uint8_t>(prog.code[a / 4] >> (8 * (a % 4)));
        } else if (a >= prog.data_base &&
                   a - prog.data_base < prog.data.size()) {
            byte = prog.data[a - prog.data_base];
        } else {
            return false;
        }
        v |= uint64_t{byte} << (8 * b);
    }
    out = v;
    return true;
}

ConfigCertificate
certifyConfigSite(const Program &prog, const AbsInterp &ai, uint32_t idx,
                  uint32_t addr, size_t mem_bytes)
{
    ConfigCertificate cc;
    cc.idx = idx;
    cc.addr = addr;

    if (uint64_t{addr} + 8 > mem_bytes) {
        cc.verdict = ConfigVerdict::kBlobOob;
        cc.message = "blob outside memory: gfcfg traps OutOfRangeAccess";
        return cc;
    }
    for (unsigned b = 0; b < 8; ++b)
        if (ai.storesMayTouch(addr + b, 1))
            cc.tainted_bytes |= static_cast<uint8_t>(1u << b);
    if (cc.tainted_bytes != 0) {
        cc.verdict = ConfigVerdict::kTainted;
        char buf[64];
        std::snprintf(buf, sizeof buf,
                      "stores may rewrite blob bytes (mask 0x%02x)",
                      cc.tainted_bytes);
        cc.message = buf;
        return cc;
    }

    uint64_t blob = 0;
    if (!readStaticBlob(prog, addr, blob)) {
        // Inside memory, beyond the image, untouched by any store: the
        // bytes are the zero-initialized power-on state, and the
        // all-zero blob has an invalid width.
        cc.verdict = ConfigVerdict::kInvalid;
        cc.message = "uninitialized (zero) blob: gfcfg traps "
                     "GfConfigCorrupt";
        return cc;
    }

    GFConfig gcfg;
    if (!GFConfig::tryUnpack(blob, gcfg)) {
        cc.verdict = ConfigVerdict::kInvalid;
        cc.message = "invalid field width: gfcfg traps GfConfigCorrupt";
        return cc;
    }
    cc.m = gcfg.m;
    const ConfigClassification cls = classifyConfig(gcfg);
    switch (cls.cls) {
      case ConfigClass::kField: {
        cc.verdict = ConfigVerdict::kVerifiedField;
        char buf[64];
        std::snprintf(buf, sizeof buf, "GF(2^%u), polynomial 0x%x", cls.m,
                      cls.poly);
        cc.message = buf;
        break;
      }
      case ConfigClass::kCirculant: {
        cc.verdict = ConfigVerdict::kVerifiedCirculant;
        char buf[48];
        std::snprintf(buf, sizeof buf, "circulant ring mod x^%u+1", cls.m);
        cc.message = buf;
        break;
      }
      case ConfigClass::kInvalid:
        cc.verdict = ConfigVerdict::kInvalid;
        cc.message = "invalid field width: gfcfg traps GfConfigCorrupt";
        break;
      case ConfigClass::kUnknown:
        cc.verdict = ConfigVerdict::kRefuted;
        cc.message = "P matrix matches no irreducible polynomial and is "
                     "not the circulant configuration";
        break;
    }
    return cc;
}

} // namespace

const char *
configVerdictName(ConfigVerdict v)
{
    switch (v) {
      case ConfigVerdict::kVerifiedField:     return "verified-field";
      case ConfigVerdict::kVerifiedCirculant: return "verified-circulant";
      case ConfigVerdict::kRefuted:           return "refuted";
      case ConfigVerdict::kInvalid:           return "invalid";
      case ConfigVerdict::kTainted:           return "tainted";
      case ConfigVerdict::kOutOfImage:        return "out-of-image";
      case ConfigVerdict::kBlobOob:           return "blob-oob";
    }
    return "?";
}

unsigned
ProgramCertificate::reachableBlocks() const
{
    unsigned n = 0;
    for (const auto &b : blocks)
        n += b.reachable;
    return n;
}

unsigned
ProgramCertificate::trapFreeBlocks() const
{
    unsigned n = 0;
    for (const auto &b : blocks)
        n += b.reachable && b.trapFree();
    return n;
}

unsigned
ProgramCertificate::boundedLoops() const
{
    unsigned n = 0;
    for (const auto &l : loops)
        n += l.bounded;
    return n;
}

std::string
ProgramCertificate::summary() const
{
    std::ostringstream os;
    os << (trap_free ? "trap-free" : "NOT trap-free") << ", "
       << (jit_safe ? "jit-safe" : "not jit-safe") << "; blocks "
       << trapFreeBlocks() << "/" << reachableBlocks() << " certified; loops "
       << boundedLoops() << "/" << loops.size() << " bounded";
    if (cost.bounded) {
        os << "; wcet " << cost.cycle_bound << " cycles ("
           << cost.instr_bound << " instrs, " << cost.gf_cycle_bound
           << " GFAU cycles), energy <= " << cost.energy_nominal_pj / 1000.0
           << " nJ @0.9V / " << cost.energy_07v_pj / 1000.0 << " nJ @0.7V";
    } else {
        os << "; wcet unbounded (" << cost.reason << "), watchdog fallback "
           << cost.instr_bound << " instrs";
    }
    return os.str();
}

ProgramCertificate
certifyProgram(const Program &prog, const CertifyOptions &opts)
{
    ProgramCertificate pc;

    ControlFlowGraph cfg(prog);
    // lr-integrity refutes the lr save/restore idiom the value analysis
    // otherwise trusts.  It reads the graph before AbsInterp refines its
    // indirect jumps, as the linter does.
    std::set<uint32_t> lr_suspect_words;
    for (const auto &[entry, ret] : cfg.lrClobberedReturns())
        lr_suspect_words.insert(ret);

    AbsIntOptions aopts;
    aopts.mem_bytes = opts.mem_bytes;
    AbsInterp ai(cfg, aopts);
    ai.run();

    pc.loops = ai.loops();
    pc.refined_indirects = ai.refinedIndirects();

    const uint32_t n = static_cast<uint32_t>(cfg.size());
    const uint64_t code_bytes = uint64_t{n} * 4;

    // ------------------------------------------------------------------
    // Config certificates (one per reachable gfcfg site).
    std::map<uint32_t, unsigned> config_at; // node idx -> pc.configs slot
    for (uint32_t i = 0; i < n; ++i) {
        const CfgNode &nd = cfg.node(i);
        if (!nd.valid || nd.in.op != Op::kGfCfg || !ai.inState(i).reachable)
            continue;
        config_at[i] = static_cast<unsigned>(pc.configs.size());
        pc.configs.push_back(certifyConfigSite(
            prog, ai, i, static_cast<uint32_t>(nd.in.imm), opts.mem_bytes));
    }

    // ------------------------------------------------------------------
    // Block certificates.
    auto describeIdx = [&](uint32_t i) { return cfg.describeNode(i); };
    for (uint32_t i = 0; i < n;) {
        uint32_t end = i + 1;
        while (end < n && !cfg.node(end).leader)
            ++end;
        BlockCertificate bc;
        bc.first = i;
        bc.last = end - 1;
        for (uint32_t w = i; w < end; ++w) {
            if (!ai.inState(w).reachable)
                continue;
            bc.reachable = true;
            const CfgNode &nd = cfg.node(w);
            if (!nd.valid) {
                bc.decode_ok = false;
                bc.obstacles.push_back("undecodable word at " +
                                       describeIdx(w));
                continue;
            }
            pc.has_gf_ops = pc.has_gf_ops || isGfOp(nd.in.op);
            if (nd.has_target && !nd.target_in_code) {
                bc.branch_ok = false;
                bc.obstacles.push_back("branch target outside code at " +
                                       describeIdx(w));
            }
            if (nd.is_indirect && !ai.indirectTargetsOk(w)) {
                bc.branch_ok = false;
                bc.obstacles.push_back("indirect jump with unproven "
                                       "targets at " + describeIdx(w));
            }
            if (nd.falls_through && w + 1 == n) {
                bc.branch_ok = false;
                bc.obstacles.push_back("execution can fall off the end of "
                                       "the code section at " +
                                       describeIdx(w));
            }
            if (lr_suspect_words.count(w)) {
                bc.branch_ok = false;
                bc.obstacles.push_back("lr may be clobbered across the "
                                       "call at " + describeIdx(w));
            }
            if (const MemAccess *a = ai.memAccessAt(w)) {
                if (nd.in.op == Op::kGfCfg) {
                    auto cit = config_at.find(w);
                    if (cit != config_at.end()) {
                        const ConfigCertificate &cc = pc.configs[cit->second];
                        if (!cc.trapFree()) {
                            bc.gfcfg_ok = false;
                            bc.obstacles.push_back(
                                "gfcfg at " + describeIdx(w) + ": " +
                                cc.message);
                        }
                    }
                } else if (!a->proven) {
                    bc.mem_ok = false;
                    bc.obstacles.push_back("unproven address for the "
                                           "access at " + describeIdx(w));
                } else {
                    if (uint64_t{a->addr.hi} + a->size > opts.mem_bytes) {
                        bc.mem_ok = false;
                        bc.obstacles.push_back(
                            "access may leave memory (" +
                            a->addr.describe() + " size " +
                            std::to_string(a->size) + ") at " +
                            describeIdx(w));
                    }
                    if (a->is_store && a->addr.lo < code_bytes) {
                        bc.no_smc = false;
                        bc.obstacles.push_back(
                            "store may hit the code section (" +
                            a->addr.describe() + ") at " + describeIdx(w));
                    }
                }
            }
            if (nd.in.op != Op::kGfCfg && usesReductionMatrix(nd.in.op) &&
                !ai.inState(w).cfg_loaded) {
                bc.gf_configured = false;
                bc.obstacles.push_back("GF op may execute in the power-on "
                                       "default field at " + describeIdx(w));
            }
        }
        pc.blocks.push_back(std::move(bc));
        i = end;
    }

    // ------------------------------------------------------------------
    // WCET / energy.
    WcetEngine wcet(ai);
    auto w = wcet.costOf(0);
    pc.cost.watchdog = opts.watchdog_max_instrs;
    if (w) {
        pc.cost.bounded = true;
        pc.cost.instr_bound = w->instrs;
        pc.cost.cycle_bound = w->cycles;
        pc.cost.gf_cycle_bound = w->gf_cycles;
        pc.cost.within_watchdog = w->instrs <= opts.watchdog_max_instrs;
        if (!pc.cost.within_watchdog)
            pc.cost.reason = "proven instruction bound exceeds the "
                             "watchdog";
    } else {
        pc.cost.bounded = false;
        pc.cost.reason = wcet.reason().empty() ? "analysis declined"
                                               : wcet.reason();
        // Sound fallback: the watchdog retires at most `watchdog`
        // instructions before trapping, each at most kMemCycles cycles.
        pc.cost.instr_bound = opts.watchdog_max_instrs;
        pc.cost.cycle_bound = satMul(opts.watchdog_max_instrs, kMemCycles);
        pc.cost.gf_cycle_bound = pc.cost.cycle_bound;
        pc.cost.within_watchdog = false;
    }
    {
        const EnergyModel nom = EnergyModel::nominal();
        const EnergyModel low = EnergyModel::scaled07v();
        pc.cost.energy_nominal_pj =
            nom.shellPjPerCycle() * static_cast<double>(pc.cost.cycle_bound) +
            nom.gfauPjPerCycle() *
                static_cast<double>(pc.cost.gf_cycle_bound);
        pc.cost.energy_07v_pj =
            low.shellPjPerCycle() * static_cast<double>(pc.cost.cycle_bound) +
            low.gfauPjPerCycle() *
                static_cast<double>(pc.cost.gf_cycle_bound);
    }

    // ------------------------------------------------------------------
    // Aggregate verdicts + caveats.
    bool all_trap_free = true;
    bool all_jit_safe = true;
    for (const auto &b : pc.blocks) {
        if (!b.reachable)
            continue;
        all_trap_free = all_trap_free && b.trapFree();
        all_jit_safe = all_jit_safe && b.jitSafe();
        if (!b.trapFree() || !b.jitSafe())
            for (const auto &o : b.obstacles)
                pc.caveats.push_back(o);
    }
    bool configs_ok = true;
    for (const auto &c : pc.configs) {
        configs_ok = configs_ok && c.ok();
        if (!c.ok())
            pc.caveats.push_back(std::string("gfcfg config ") +
                                 configVerdictName(c.verdict) + ": " +
                                 c.message);
    }
    if (!pc.cost.within_watchdog)
        pc.caveats.push_back("watchdog may fire: " + pc.cost.reason);

    pc.trap_free = all_trap_free && pc.cost.within_watchdog;
    pc.jit_safe = pc.trap_free && all_jit_safe && configs_ok;
    return pc;
}

} // namespace gfp
