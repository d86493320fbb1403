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

ControlFlowGraph::ControlFlowGraph(const Program &prog) : prog_(&prog)
{
    decodeAll();
    markStructure();
    computeMayReturn();
    computeReachable();
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
