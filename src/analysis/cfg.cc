#include "analysis/cfg.h"

#include <algorithm>
#include <deque>

#include "common/strutil.h"
#include "isa/encoding.h"

namespace gfp {

bool
usesReductionMatrix(Op op)
{
    switch (op) {
      case Op::kGfMuls:
      case Op::kGfInvs:
      case Op::kGfSqs:
      case Op::kGfPows:
        return true;
      default:
        return false;
    }
}

uint32_t
defs32(const CfgNode &nd)
{
    uint32_t d = regDefs(nd.in);
    if (nd.in.op == Op::kGfCfg)
        d |= kCfgBit;
    return d;
}

ControlFlowGraph::ControlFlowGraph(const Program &prog) : prog_(&prog)
{
    decodeAll();
    markStructure();
    computeMayReturn();
    computeReachable();
    computeSummaries();
}

void
ControlFlowGraph::decodeAll()
{
    nodes_.resize(prog_->code.size());
    for (uint32_t i = 0; i < nodes_.size(); ++i) {
        CfgNode &n = nodes_[i];
        n.pc_ = i * 4;
        n.valid = tryDecode(prog_->code[i], n.in);
    }
    for (const auto &[name, addr] : prog_->symbols) {
        if (addr % 4 == 0 && addr / 4 < nodes_.size())
            labeled_.push_back(addr / 4);
    }
    std::sort(labeled_.begin(), labeled_.end());
    labeled_.erase(std::unique(labeled_.begin(), labeled_.end()),
                   labeled_.end());
}

void
ControlFlowGraph::markStructure()
{
    const uint32_t n = static_cast<uint32_t>(nodes_.size());
    for (uint32_t i = 0; i < n; ++i) {
        CfgNode &nd = nodes_[i];
        if (!nd.valid)
            continue;
        const Op op = nd.in.op;
        if (isPcRelBranch(op)) {
            // Branch targets are word offsets relative to the next
            // instruction.
            int64_t t = int64_t{i} + 1 + nd.in.imm;
            nd.has_target = true;
            nd.target_in_code = t >= 0 && t < int64_t{n};
            nd.target = nd.target_in_code ? static_cast<uint32_t>(t) : 0;
            nd.is_call = op == Op::kBl;
            // Everything but the unconditional `b` can fall through —
            // conditionals when untaken, `bl` when the callee returns.
            nd.falls_through = op != Op::kB;
            if (nd.is_call && nd.target_in_code) {
                call_sites_.push_back(i);
                entries_.push_back(nd.target);
            }
        } else if (op == Op::kJr) {
            if (nd.in.rs1 == kRegLr)
                nd.is_return = true;
            else
                nd.is_indirect = true;
        } else if (op == Op::kRet) {
            nd.is_return = true;
        } else if (op == Op::kHalt) {
            nd.is_halt = true;
        } else {
            nd.falls_through = true;
        }
    }
    std::sort(entries_.begin(), entries_.end());
    entries_.erase(std::unique(entries_.begin(), entries_.end()),
                   entries_.end());

    // Basic-block leaders: entry, every branch/call target, every
    // labeled instruction, and every instruction after a control
    // transfer.
    auto lead = [&](uint32_t idx) {
        if (idx < n)
            nodes_[idx].leader = true;
    };
    lead(0);
    for (uint32_t i : labeled_)
        lead(i);
    for (uint32_t i = 0; i < n; ++i) {
        const CfgNode &nd = nodes_[i];
        if (!nd.valid) {
            lead(i + 1);
            continue;
        }
        if (nd.has_target && nd.target_in_code)
            lead(nd.target);
        if (nd.has_target || nd.is_return || nd.is_indirect || nd.is_halt)
            lead(i + 1);
    }
}

std::vector<uint32_t>
ControlFlowGraph::intraSucc(uint32_t idx) const
{
    std::vector<uint32_t> out;
    const uint32_t n = static_cast<uint32_t>(nodes_.size());
    const CfgNode &nd = nodes_[idx];
    if (!nd.valid)
        return out;
    if (nd.is_indirect) {
        // Refined target set when the analyzer proved one, otherwise
        // the over-approximation: any labeled instruction.
        auto it = indirect_targets_.find(idx);
        out = it != indirect_targets_.end() ? it->second : labeled_;
        return out;
    }
    if (nd.is_return || nd.is_halt)
        return out;
    if (nd.is_call) {
        // Call summarized as an edge to the return site, taken when the
        // callee can return.  An out-of-code target is a separate lint
        // finding; assume it returns so diagnostics don't cascade.
        bool returns = !nd.target_in_code || may_return_[nd.target];
        if (returns && idx + 1 < n)
            out.push_back(idx + 1);
        return out;
    }
    if (nd.has_target && nd.target_in_code)
        out.push_back(nd.target);
    if (nd.falls_through && idx + 1 < n)
        out.push_back(idx + 1);
    return out;
}

void
ControlFlowGraph::refineIndirectTargets(uint32_t idx,
                                        std::vector<uint32_t> targets)
{
    if (idx >= nodes_.size() || !nodes_[idx].is_indirect)
        return;
    std::sort(targets.begin(), targets.end());
    targets.erase(std::unique(targets.begin(), targets.end()),
                  targets.end());
    for (uint32_t t : targets) {
        if (t < nodes_.size())
            nodes_[t].leader = true;
    }
    indirect_targets_[idx] = std::move(targets);
    // The refined edge set can only shrink mayReturn/reachable, but
    // both feed intraSucc (call return-site edges), so recompute from
    // scratch rather than patching.
    computeMayReturn();
    computeReachable();
    computeSummaries();
}

void
ControlFlowGraph::computeMayReturn()
{
    // "A walk started at this node reaches a ret/jr-lr."  The relation
    // feeds back into intraSucc (a call's return-site edge exists only
    // if the callee may return), so iterate to the monotone fixpoint.
    may_return_.assign(nodes_.size(), false);
    bool changed = true;
    while (changed) {
        changed = false;
        for (uint32_t i = static_cast<uint32_t>(nodes_.size()); i-- > 0;) {
            if (may_return_[i] || !nodes_[i].valid)
                continue;
            bool v = nodes_[i].is_return;
            if (!v) {
                for (uint32_t s : intraSucc(i)) {
                    if (may_return_[s]) {
                        v = true;
                        break;
                    }
                }
            }
            if (v) {
                may_return_[i] = true;
                changed = true;
            }
        }
    }
}

bool
ControlFlowGraph::mayReturn(uint32_t entry) const
{
    return entry < may_return_.size() && may_return_[entry];
}

std::vector<uint32_t>
ControlFlowGraph::functionNodes(uint32_t entry) const
{
    std::vector<uint32_t> out;
    if (entry >= nodes_.size())
        return out;
    std::vector<bool> seen(nodes_.size(), false);
    std::deque<uint32_t> work{entry};
    seen[entry] = true;
    while (!work.empty()) {
        uint32_t i = work.front();
        work.pop_front();
        out.push_back(i);
        for (uint32_t s : intraSucc(i)) {
            if (!seen[s]) {
                seen[s] = true;
                work.push_back(s);
            }
        }
    }
    std::sort(out.begin(), out.end());
    return out;
}

void
ControlFlowGraph::computeReachable()
{
    reachable_.assign(nodes_.size(), false);
    if (nodes_.empty())
        return;
    std::deque<uint32_t> work{0};
    reachable_[0] = true;
    auto push = [&](uint32_t i) {
        if (i < nodes_.size() && !reachable_[i]) {
            reachable_[i] = true;
            work.push_back(i);
        }
    };
    while (!work.empty()) {
        uint32_t i = work.front();
        work.pop_front();
        for (uint32_t s : intraSucc(i))
            push(s);
        // Calls additionally make the callee body reachable.
        const CfgNode &nd = nodes_[i];
        if (nd.is_call && nd.target_in_code)
            push(nd.target);
    }
}

void
ControlFlowGraph::computeSummaries()
{
    // Greatest-fixpoint must-def summaries (optimistic init: everything
    // defined), least-fixpoint may-def summaries (init: nothing).
    must_def_.clear();
    may_def_.clear();
    for (uint32_t e : entries_) {
        must_def_[e] = kAllDefined;
        may_def_[e] = 0;
    }

    bool changed = true;
    while (changed) {
        changed = false;
        for (auto &[entry, summary] : must_def_) {
            std::vector<uint32_t> nodes = functionNodes(entry);
            // Dense per-function maps.
            std::map<uint32_t, uint32_t> out_state;
            for (uint32_t idx : nodes)
                out_state[idx] = kAllDefined;
            std::map<uint32_t, std::vector<uint32_t>> preds;
            for (uint32_t idx : nodes)
                for (uint32_t s : intraSucc(idx))
                    if (out_state.count(s))
                        preds[s].push_back(idx);
            bool local = true;
            while (local) {
                local = false;
                for (uint32_t idx : nodes) {
                    uint32_t in = idx == entry ? 0u : kAllDefined;
                    if (idx != entry)
                        for (uint32_t p : preds[idx])
                            in &= out_state[p];
                    const CfgNode &nd = nodes_[idx];
                    uint32_t out = in | defs32(nd);
                    if (nd.is_call && nd.target_in_code)
                        out |= mustDef(nd.target);
                    if (out != out_state[idx]) {
                        out_state[idx] = out;
                        local = true;
                    }
                }
            }
            uint32_t s = kAllDefined;
            bool any_ret = false;
            for (uint32_t idx : nodes) {
                if (nodes_[idx].is_return) {
                    s &= out_state[idx];
                    any_ret = true;
                }
            }
            if (!any_ret)
                s = kAllDefined; // never returns; summary is unused
            if (s != summary) {
                summary = s;
                changed = true;
            }

            // May-def grows monotonically from 0.
            uint32_t md = may_def_[entry];
            for (uint32_t idx : nodes) {
                const CfgNode &nd = nodes_[idx];
                md |= defs32(nd);
                if (nd.is_call && nd.target_in_code)
                    md |= mayDef(nd.target);
            }
            if (md != may_def_[entry]) {
                may_def_[entry] = md;
                changed = true;
            }
        }
    }
}

uint32_t
ControlFlowGraph::mustDef(uint32_t entry) const
{
    auto it = must_def_.find(entry);
    return it != must_def_.end() ? it->second : 0;
}

uint32_t
ControlFlowGraph::mayDef(uint32_t entry) const
{
    auto it = may_def_.find(entry);
    return it != may_def_.end() ? it->second : kAllDefined;
}

std::vector<std::pair<uint32_t, uint32_t>>
ControlFlowGraph::lrClobberedReturns() const
{
    std::vector<std::pair<uint32_t, uint32_t>> out;
    for (uint32_t entry : entries_) {
        if (!reachable_[entry] || !mayReturn(entry))
            continue;
        std::vector<uint32_t> nodes = functionNodes(entry);
        std::map<uint32_t, char> dirty_in;
        for (uint32_t idx : nodes)
            dirty_in[idx] = 0;
        bool changed = true;
        while (changed) {
            changed = false;
            for (uint32_t idx : nodes) {
                const CfgNode &nd = nodes_[idx];
                if (!nd.valid)
                    continue;
                char dirty = dirty_in[idx];
                if (nd.is_call) {
                    dirty = 1;
                } else if (regDefs(nd.in) & (1u << kRegLr)) {
                    // Word loads and register moves into lr are the
                    // restore idioms; anything else taints it.
                    const Op op = nd.in.op;
                    bool restore = op == Op::kLdr || op == Op::kLdrr ||
                                   op == Op::kMov;
                    dirty = restore ? 0 : 1;
                }
                for (uint32_t s : intraSucc(idx)) {
                    auto it = dirty_in.find(s);
                    if (it != dirty_in.end() && dirty && !it->second) {
                        it->second = 1;
                        changed = true;
                    }
                }
            }
        }
        for (uint32_t idx : nodes) {
            if (nodes_[idx].is_return && dirty_in[idx]) {
                out.emplace_back(entry, idx);
                break; // the first such return per function
            }
        }
    }
    return out;
}

std::vector<std::vector<uint32_t>>
ControlFlowGraph::cyclicSccs() const
{
    // Iterative Tarjan over the intraprocedural edges, reachable nodes
    // only.
    const uint32_t n = static_cast<uint32_t>(nodes_.size());
    std::vector<int64_t> index(n, -1), low(n, 0);
    std::vector<bool> on_stack(n, false);
    std::vector<uint32_t> stack;
    std::vector<std::vector<uint32_t>> sccs;
    int64_t counter = 0;

    struct Frame
    {
        uint32_t node;
        std::vector<uint32_t> succ;
        size_t next = 0;
    };

    for (uint32_t root = 0; root < n; ++root) {
        if (index[root] >= 0 || !reachable_[root])
            continue;
        std::vector<Frame> frames;
        frames.push_back({root, intraSucc(root), 0});
        index[root] = low[root] = counter++;
        stack.push_back(root);
        on_stack[root] = true;
        while (!frames.empty()) {
            Frame &f = frames.back();
            if (f.next < f.succ.size()) {
                uint32_t w = f.succ[f.next++];
                if (!reachable_[w])
                    continue;
                if (index[w] < 0) {
                    index[w] = low[w] = counter++;
                    stack.push_back(w);
                    on_stack[w] = true;
                    frames.push_back({w, intraSucc(w), 0});
                } else if (on_stack[w]) {
                    low[f.node] = std::min(low[f.node], index[w]);
                }
            } else {
                uint32_t v = f.node;
                if (low[v] == index[v]) {
                    std::vector<uint32_t> scc;
                    uint32_t w;
                    do {
                        w = stack.back();
                        stack.pop_back();
                        on_stack[w] = false;
                        scc.push_back(w);
                    } while (w != v);
                    bool cyclic = scc.size() > 1;
                    if (!cyclic) {
                        for (uint32_t s : intraSucc(v)) {
                            if (s == v) {
                                cyclic = true;
                                break;
                            }
                        }
                    }
                    if (cyclic) {
                        std::sort(scc.begin(), scc.end());
                        sccs.push_back(std::move(scc));
                    }
                }
                frames.pop_back();
                if (!frames.empty()) {
                    Frame &p = frames.back();
                    low[p.node] = std::min(low[p.node], low[v]);
                }
            }
        }
    }
    return sccs;
}

std::string
ControlFlowGraph::describeNode(uint32_t idx) const
{
    const uint32_t pc = idx * 4;
    std::string best;
    uint32_t best_addr = 0;
    for (const auto &[name, addr] : prog_->symbols) {
        if (addr <= pc && addr / 4 < nodes_.size() &&
            (best.empty() || addr > best_addr)) {
            best = name;
            best_addr = addr;
        }
    }
    if (best.empty())
        return strprintf("pc 0x%x", pc);
    if (best_addr == pc)
        return best;
    return strprintf("%s+0x%x", best.c_str(), pc - best_addr);
}

} // namespace gfp
