#include "analysis/absint.h"

#include <algorithm>
#include <bit>
#include <deque>

#include "common/strutil.h"

namespace gfp {

// ---------------------------------------------------------------------------
// Interval arithmetic.  All helpers keep the no-wraparound contract: a
// result that could straddle 2^32 collapses to top, except when *every*
// concrete result wraps, in which case the wrapped interval is exact.

namespace {

constexpr uint64_t kTwo32 = uint64_t{1} << 32;

Interval
ivAdd(Interval a, Interval b)
{
    const uint64_t lo = uint64_t{a.lo} + b.lo;
    const uint64_t hi = uint64_t{a.hi} + b.hi;
    if (hi < kTwo32)
        return {static_cast<uint32_t>(lo), static_cast<uint32_t>(hi)};
    if (lo >= kTwo32)
        return {static_cast<uint32_t>(lo - kTwo32),
                static_cast<uint32_t>(hi - kTwo32)};
    return Interval::top();
}

Interval
ivSub(Interval a, Interval b)
{
    const int64_t lo = int64_t{a.lo} - b.hi;
    const int64_t hi = int64_t{a.hi} - b.lo;
    if (lo >= 0)
        return {static_cast<uint32_t>(lo), static_cast<uint32_t>(hi)};
    if (hi < 0)
        return {static_cast<uint32_t>(lo + int64_t{kTwo32}),
                static_cast<uint32_t>(hi + int64_t{kTwo32})};
    return Interval::top();
}

Interval
ivMul(Interval a, Interval b)
{
    const uint64_t hi = uint64_t{a.hi} * b.hi;
    if (hi >= kTwo32)
        return Interval::top();
    return {a.lo * b.lo, static_cast<uint32_t>(hi)};
}

/// All-ones mask from bit 0 through the highest set bit of m.
uint32_t
smear(uint32_t m)
{
    m |= m >> 1;
    m |= m >> 2;
    m |= m >> 4;
    m |= m >> 8;
    m |= m >> 16;
    return m;
}

Interval
ivAnd(Interval a, Interval b)
{
    return {0, std::min(a.hi, b.hi)};
}

Interval
ivOrr(Interval a, Interval b)
{
    return {std::max(a.lo, b.lo), smear(a.hi | b.hi)};
}

Interval
ivEor(Interval a, Interval b)
{
    return {0, smear(a.hi | b.hi)};
}

// ---------------------------------------------------------------------------
// Known-bits transfer.

KnownBits
kbAnd(KnownBits a, KnownBits b)
{
    return {a.zeros | b.zeros, a.ones & b.ones};
}

KnownBits
kbOrr(KnownBits a, KnownBits b)
{
    return {a.zeros & b.zeros, a.ones | b.ones};
}

KnownBits
kbEor(KnownBits a, KnownBits b)
{
    const uint32_t known = a.known() & b.known();
    const uint32_t v = (a.ones ^ b.ones) & known;
    return {known & ~v, v};
}

/// add/sub/mul: the low bits below the shorter fully-known low run of
/// the operands are exact (no carry flows into bit 0).
template <typename F>
KnownBits
kbLowRun(KnownBits a, KnownBits b, F f)
{
    const unsigned run = std::min(std::countr_one(a.known()),
                                  std::countr_one(b.known()));
    if (run == 0)
        return {};
    const uint32_t mask = run >= 32 ? ~0u : ((1u << run) - 1);
    const uint32_t v = f(a.ones, b.ones) & mask;
    return {mask & ~v, v};
}

KnownBits
kbShl(KnownBits a, unsigned sh)
{
    const uint32_t low = sh ? ((1u << sh) - 1) : 0;
    return {(a.zeros << sh) | low, a.ones << sh};
}

KnownBits
kbShr(KnownBits a, unsigned sh)
{
    const uint32_t high = sh ? ~(~0u >> sh) : 0;
    return {(a.zeros >> sh) | high, a.ones >> sh};
}

} // namespace

std::string
Interval::describe() const
{
    if (isTop())
        return "T";
    if (isConst())
        return strprintf("0x%x", lo);
    return strprintf("[0x%x, 0x%x]", lo, hi);
}

AbsValue
AbsValue::constant(uint32_t v)
{
    AbsValue out;
    out.iv = Interval::constant(v);
    out.kb = {~v, v};
    return out;
}

AbsValue
AbsValue::range(uint32_t lo, uint32_t hi)
{
    AbsValue out;
    out.iv = Interval::range(lo, hi);
    out.reduce();
    return out;
}

bool
AbsValue::isConst(uint32_t *v) const
{
    if (!iv.isConst())
        return false;
    if (v)
        *v = iv.lo;
    return true;
}

void
AbsValue::reduce()
{
    // known-bits -> interval: forced ones give a floor, forced zeros
    // cap the ceiling.
    const uint32_t minv = kb.ones;
    const uint32_t maxv = kb.ones | ~kb.known();
    if (minv > iv.lo)
        iv.lo = minv;
    if (maxv < iv.hi)
        iv.hi = maxv;
    if (iv.lo > iv.hi) {
        // Contradictory knowledge only arises on an infeasible path;
        // fall back to the known-bits hull to stay well-formed.
        iv = {minv, maxv};
    }
    // interval -> known-bits: bits above the ceiling's width are zero,
    // and a constant is fully known.
    if (iv.isConst()) {
        kb = {~iv.lo, iv.lo};
        return;
    }
    const unsigned w = std::bit_width(iv.hi);
    if (w < 32)
        kb.zeros |= ~((1u << w) - 1);
}

std::string
AbsValue::describe() const
{
    std::string s = iv.describe();
    if (!iv.isConst() && kb.known() != 0)
        s += strprintf(" kb(0:%08x 1:%08x)", kb.zeros, kb.ones);
    return s;
}

// ---------------------------------------------------------------------------
// Lattice operations on AbsValue / AbsState.

namespace {

AbsValue
joinValue(const AbsValue &a, const AbsValue &b)
{
    AbsValue out;
    out.iv = {std::min(a.iv.lo, b.iv.lo), std::max(a.iv.hi, b.iv.hi)};
    out.kb = {a.kb.zeros & b.kb.zeros, a.kb.ones & b.kb.ones};
    out.reduce();
    return out;
}

/// Widening thresholds: small-type ceilings plus the memory size, so
/// address-shaped values stabilize at a bound certify() can still use.
AbsValue
widenValue(const AbsValue &old, const AbsValue &next, uint32_t mem_bytes)
{
    AbsValue out = next;
    if (next.iv.lo < old.iv.lo)
        out.iv.lo = 0;
    else
        out.iv.lo = old.iv.lo;
    if (next.iv.hi > old.iv.hi) {
        const uint32_t ladder[] = {0xffu, 0xffffu, mem_bytes - 1,
                                   mem_bytes, 0xffffffu, 0xffffffffu};
        uint32_t pick = 0xffffffffu;
        for (uint32_t t : ladder) {
            if (t >= next.iv.hi) {
                pick = t;
                break;
            }
        }
        out.iv.hi = pick;
    } else {
        out.iv.hi = old.iv.hi;
    }
    out.reduce();
    return out;
}

bool
joinState(AbsState &into, const AbsState &from)
{
    if (!from.reachable)
        return false;
    if (!into.reachable) {
        into = from;
        return true;
    }
    AbsState old = into;
    for (unsigned r = 0; r < kNumRegs; ++r)
        into.reg[r] = joinValue(into.reg[r], from.reg[r]);
    // Cells: key intersection (absent = top), value join; a join that
    // reaches top drops the key to keep the maps small.
    for (auto it = into.cell.begin(); it != into.cell.end();) {
        auto fit = from.cell.find(it->first);
        if (fit == from.cell.end()) {
            it = into.cell.erase(it);
            continue;
        }
        it->second = joinValue(it->second, fit->second);
        if (it->second == AbsValue::top())
            it = into.cell.erase(it);
        else
            ++it;
    }
    into.cfg_loaded = into.cfg_loaded && from.cfg_loaded;
    if (into.cmp_lhs != from.cmp_lhs ||
        into.cmp_rhs_reg != from.cmp_rhs_reg ||
        (into.cmp_rhs_reg < 0 && into.cmp_rhs_k != from.cmp_rhs_k)) {
        into.cmp_lhs = -1;
        into.cmp_rhs_reg = -1;
        into.cmp_rhs_k = 0;
    }
    return !(into == old);
}

// ---------------------------------------------------------------------------
// Branch-condition refinement.

enum class Rel { kEq, kNe, kUlt, kUle, kUgt, kUge, kSlt, kSle, kSgt, kSge };

bool
relOf(Op op, Rel *out)
{
    switch (op) {
      case Op::kBeq: *out = Rel::kEq; return true;
      case Op::kBne: *out = Rel::kNe; return true;
      case Op::kBlt: *out = Rel::kSlt; return true;
      case Op::kBge: *out = Rel::kSge; return true;
      case Op::kBgt: *out = Rel::kSgt; return true;
      case Op::kBle: *out = Rel::kSle; return true;
      case Op::kBlo: *out = Rel::kUlt; return true;
      case Op::kBhs: *out = Rel::kUge; return true;
      case Op::kBhi: *out = Rel::kUgt; return true;
      case Op::kBls: *out = Rel::kUle; return true;
      default: return false;
    }
}

Rel
negateRel(Rel r)
{
    switch (r) {
      case Rel::kEq:  return Rel::kNe;
      case Rel::kNe:  return Rel::kEq;
      case Rel::kUlt: return Rel::kUge;
      case Rel::kUle: return Rel::kUgt;
      case Rel::kUgt: return Rel::kUle;
      case Rel::kUge: return Rel::kUlt;
      case Rel::kSlt: return Rel::kSge;
      case Rel::kSle: return Rel::kSgt;
      case Rel::kSgt: return Rel::kSle;
      case Rel::kSge: return Rel::kSlt;
    }
    return r;
}

/// Relation seen from the right operand: a R b  <=>  b swap(R) a.
Rel
swapRel(Rel r)
{
    switch (r) {
      case Rel::kUlt: return Rel::kUgt;
      case Rel::kUle: return Rel::kUge;
      case Rel::kUgt: return Rel::kUlt;
      case Rel::kUge: return Rel::kUle;
      case Rel::kSlt: return Rel::kSgt;
      case Rel::kSle: return Rel::kSge;
      case Rel::kSgt: return Rel::kSlt;
      case Rel::kSge: return Rel::kSle;
      default: return r; // eq/ne are symmetric
    }
}

/// Trim a single value out of an interval edge; false = empty.
bool
trimNe(Interval &a, uint32_t k)
{
    if (a.isConst())
        return a.lo != k;
    if (a.lo == k)
        ++a.lo;
    else if (a.hi == k)
        --a.hi;
    return true;
}

/// Refine both operand intervals under "a rel b"; false = infeasible.
/// Signed relations only refine when both operands are provably in
/// [0, 2^31), where signed and unsigned order agree.
bool
refinePair(Interval &a, Interval &b, Rel rel)
{
    switch (rel) {
      case Rel::kSlt: case Rel::kSle: case Rel::kSgt: case Rel::kSge:
        if (a.hi >= 0x80000000u || b.hi >= 0x80000000u)
            return true; // can't reason; no refinement, still feasible
        switch (rel) {
          case Rel::kSlt: rel = Rel::kUlt; break;
          case Rel::kSle: rel = Rel::kUle; break;
          case Rel::kSgt: rel = Rel::kUgt; break;
          default:        rel = Rel::kUge; break;
        }
        break;
      default:
        break;
    }
    switch (rel) {
      case Rel::kEq: {
        const uint32_t lo = std::max(a.lo, b.lo);
        const uint32_t hi = std::min(a.hi, b.hi);
        if (lo > hi)
            return false;
        a = b = {lo, hi};
        return true;
      }
      case Rel::kNe:
        if (b.isConst() && !trimNe(a, b.lo))
            return false;
        if (a.isConst() && !trimNe(b, a.lo))
            return false;
        return true;
      case Rel::kUlt:
        if (b.hi == 0)
            return false;
        a.hi = std::min(a.hi, b.hi - 1);
        if (a.lo == 0xffffffffu)
            return false;
        b.lo = std::max(b.lo, a.lo + 1);
        return a.lo <= a.hi && b.lo <= b.hi;
      case Rel::kUle:
        a.hi = std::min(a.hi, b.hi);
        b.lo = std::max(b.lo, a.lo);
        return a.lo <= a.hi && b.lo <= b.hi;
      case Rel::kUgt:
        return refinePair(b, a, Rel::kUlt);
      case Rel::kUge:
        return refinePair(b, a, Rel::kUle);
      default:
        return true;
    }
}

/// Apply the cmp-tracked relation to @p st; false = edge infeasible.
bool
applyRel(AbsState &st, Rel rel)
{
    if (st.cmp_lhs < 0)
        return true;
    Interval a = st.reg[st.cmp_lhs].iv;
    Interval b = st.cmp_rhs_reg >= 0 ? st.reg[st.cmp_rhs_reg].iv
                                     : Interval::constant(st.cmp_rhs_k);
    if (!refinePair(a, b, rel))
        return false;
    st.reg[st.cmp_lhs].iv = a;
    st.reg[st.cmp_lhs].reduce();
    if (st.cmp_rhs_reg >= 0) {
        st.reg[st.cmp_rhs_reg].iv = b;
        st.reg[st.cmp_rhs_reg].reduce();
    }
    return true;
}

uint64_t
ceilDiv(uint64_t a, uint64_t b)
{
    return (a + b - 1) / b;
}

/// Cap on tracked memory cells per state, to bound join/copy cost.
constexpr size_t kMaxCells = 64;

/// Give up enumerating a jump table wider than this many bytes.
constexpr uint32_t kMaxTableBytes = 4096;

/// Drop every tracked 4-byte cell overlapping the byte span [lo, hi].
void
invalidateCells(std::map<uint32_t, AbsValue> &cells, uint64_t lo, uint64_t hi)
{
    auto it = cells.lower_bound(lo >= 3 ? static_cast<uint32_t>(lo - 3) : 0);
    while (it != cells.end() && it->first <= hi)
        it = cells.erase(it);
}

} // namespace

// ---------------------------------------------------------------------------
// Transfer function.

template <typename Emit>
void
AbsInterp::flowNode(uint32_t idx, const AbsState &st, Emit &&emit) const
{
    const uint32_t n = static_cast<uint32_t>(cfg_.size());
    const CfgNode &nd = cfg_.node(idx);
    if (!nd.valid || !st.reachable)
        return;
    const Instr &in = nd.in;
    const Op op = in.op;

    AbsState out = st;
    auto &reg = out.reg;
    const uint32_t immu = static_cast<uint32_t>(in.imm);

    auto binop = [&](Interval (*fi)(Interval, Interval),
                     KnownBits (*fk)(KnownBits, KnownBits)) {
        AbsValue v;
        v.iv = fi(st.reg[in.rs1].iv, st.reg[in.rs2].iv);
        v.kb = fk ? fk(st.reg[in.rs1].kb, st.reg[in.rs2].kb) : KnownBits{};
        v.reduce();
        reg[in.rd] = v;
    };
    auto immval = AbsValue::constant(immu);
    auto immop = [&](Interval (*fi)(Interval, Interval),
                     KnownBits (*fk)(KnownBits, KnownBits)) {
        AbsValue v;
        v.iv = fi(st.reg[in.rs1].iv, immval.iv);
        v.kb = fk ? fk(st.reg[in.rs1].kb, immval.kb) : KnownBits{};
        v.reduce();
        reg[in.rd] = v;
    };
    auto kbAddWrap = [](KnownBits a, KnownBits b) {
        return kbLowRun(a, b, [](uint32_t x, uint32_t y) { return x + y; });
    };
    auto kbSubWrap = [](KnownBits a, KnownBits b) {
        return kbLowRun(a, b, [](uint32_t x, uint32_t y) { return x - y; });
    };
    auto kbMulWrap = [](KnownBits a, KnownBits b) {
        return kbLowRun(a, b, [](uint32_t x, uint32_t y) { return x * y; });
    };
    auto shiftop = [&](bool is_imm, bool left, bool arith) {
        const AbsValue &a = st.reg[in.rs1];
        uint32_t sh = 0;
        bool sh_const = is_imm ? (sh = immu & 31, true)
                               : st.reg[in.rs2].isConst(&sh);
        sh &= 31;
        AbsValue v; // top
        if (sh_const) {
            if (left) {
                v.iv = ivMul(a.iv, Interval::constant(1u << sh));
                v.kb = kbShl(a.kb, sh);
            } else if (!arith || a.iv.hi < 0x80000000u ||
                       (a.kb.zeros & 0x80000000u)) {
                v.iv = {a.iv.lo >> sh, a.iv.hi >> sh};
                v.kb = kbShr(a.kb, sh);
            } else if (a.iv.lo >= 0x80000000u) {
                // Provably negative: the shift fills with ones and stays
                // monotonic over the interval.
                const uint32_t fill = sh ? ~(~0u >> sh) : 0;
                v.iv = {(a.iv.lo >> sh) | fill, (a.iv.hi >> sh) | fill};
                v.kb = {a.kb.zeros >> sh, (a.kb.ones >> sh) | fill};
            }
        } else if (!left && (!arith || a.iv.hi < 0x80000000u)) {
            v.iv = {0, a.iv.hi}; // right shift by unknown amount shrinks
        }
        v.reduce();
        reg[in.rd] = v;
    };

    switch (op) {
      case Op::kAdd:  binop(ivAdd, nullptr); reg[in.rd].kb =
                          kbAddWrap(st.reg[in.rs1].kb, st.reg[in.rs2].kb);
                      reg[in.rd].reduce(); break;
      case Op::kSub:  binop(ivSub, nullptr); reg[in.rd].kb =
                          kbSubWrap(st.reg[in.rs1].kb, st.reg[in.rs2].kb);
                      reg[in.rd].reduce(); break;
      case Op::kAnd:  binop(ivAnd, kbAnd); break;
      case Op::kOrr:  binop(ivOrr, kbOrr); break;
      case Op::kEor:
      case Op::kGfAdds: // gfadds is architecturally a pure XOR
        binop(ivEor, kbEor);
        break;
      case Op::kMul:  binop(ivMul, nullptr); reg[in.rd].kb =
                          kbMulWrap(st.reg[in.rs1].kb, st.reg[in.rs2].kb);
                      reg[in.rd].reduce(); break;
      case Op::kMov:  reg[in.rd] = st.reg[in.rs1]; break;
      case Op::kLsl:  shiftop(false, true, false); break;
      case Op::kLsr:  shiftop(false, false, false); break;
      case Op::kAsr:  shiftop(false, false, true); break;

      case Op::kAddi: {
        AbsValue v;
        v.iv = ivAdd(st.reg[in.rs1].iv, immval.iv);
        v.kb = kbAddWrap(st.reg[in.rs1].kb, immval.kb);
        v.reduce();
        reg[in.rd] = v;
        break;
      }
      case Op::kSubi: {
        AbsValue v;
        v.iv = ivSub(st.reg[in.rs1].iv, immval.iv);
        v.kb = kbSubWrap(st.reg[in.rs1].kb, immval.kb);
        v.reduce();
        reg[in.rd] = v;
        break;
      }
      case Op::kAndi: immop(ivAnd, kbAnd); break;
      case Op::kOrri: immop(ivOrr, kbOrr); break;
      case Op::kEori: immop(ivEor, kbEor); break;
      case Op::kLsli: shiftop(true, true, false); break;
      case Op::kLsri: shiftop(true, false, false); break;
      case Op::kAsri: shiftop(true, false, true); break;
      case Op::kMovi: reg[in.rd] = AbsValue::constant(immu & 0xffff); break;
      case Op::kMovt: {
        const AbsValue &old = st.reg[in.rd];
        AbsValue v;
        const uint32_t hi16 = (immu & 0xffff) << 16;
        v.kb.ones = (old.kb.ones & 0xffff) | hi16;
        v.kb.zeros = (old.kb.zeros & 0xffff) | (~hi16 & 0xffff0000u);
        if (old.iv.hi <= 0xffff)
            v.iv = {old.iv.lo + hi16, old.iv.hi + hi16};
        v.reduce();
        reg[in.rd] = v;
        break;
      }

      case Op::kCmp:
        out.cmp_lhs = in.rs1;
        out.cmp_rhs_reg = in.rs2;
        out.cmp_rhs_k = 0;
        break;
      case Op::kCmpi:
        out.cmp_lhs = in.rs1;
        out.cmp_rhs_reg = -1;
        out.cmp_rhs_k = immu;
        break;

      case Op::kLdrb: case Op::kLdrbr:
        reg[in.rd] = AbsValue::range(0, 0xff);
        break;
      case Op::kLdrh: case Op::kLdrhr:
        reg[in.rd] = AbsValue::range(0, 0xffff);
        break;
      case Op::kLdr: case Op::kLdrr: {
        reg[in.rd] = AbsValue::top();
        const Interval a = op == Op::kLdrr
            ? ivAdd(st.reg[in.rs1].iv, st.reg[in.rs2].iv)
            : ivAdd(st.reg[in.rs1].iv, immval.iv);
        if (a.isConst() && (a.lo & 3u) == 0) {
            auto it = st.cell.find(a.lo);
            if (it != st.cell.end())
                reg[in.rd] = it->second;
        }
        break;
      }

      case Op::kStr: case Op::kStrr:
      case Op::kStrh: case Op::kStrhr:
      case Op::kStrb: case Op::kStrbr: {
        const bool reg_form =
            op == Op::kStrr || op == Op::kStrhr || op == Op::kStrbr;
        const unsigned size = (op == Op::kStr || op == Op::kStrr) ? 4
                            : (op == Op::kStrh || op == Op::kStrhr) ? 2
                                                                    : 1;
        const Interval a = reg_form
            ? ivAdd(st.reg[in.rs1].iv, st.reg[in.rs2].iv)
            : ivAdd(st.reg[in.rs1].iv, immval.iv);
        if (a.isTop()) {
            out.cell.clear();
        } else {
            invalidateCells(out.cell, a.lo, uint64_t{a.hi} + size - 1);
            if (size == 4 && a.isConst() && (a.lo & 3u) == 0 &&
                out.cell.size() < kMaxCells)
                out.cell[a.lo] = st.reg[in.rd];
        }
        break;
      }

      case Op::kGfCfg:
        out.cfg_loaded = true;
        break;

      default:
        // Stores and remaining GF ops: clobber whatever they define.
        for (unsigned r = 0; r < kNumRegs; ++r)
            if (regDefs(in) & (1u << r))
                reg[r] = AbsValue::top();
        break;
    }

    // A redefinition of a cmp operand makes the flags' origin stale for
    // refinement purposes.
    const uint32_t d = defs32(nd);
    if (out.cmp_lhs >= 0 && op != Op::kCmp && op != Op::kCmpi) {
        if ((d & (1u << out.cmp_lhs)) ||
            (out.cmp_rhs_reg >= 0 && (d & (1u << out.cmp_rhs_reg)))) {
            out.cmp_lhs = -1;
            out.cmp_rhs_reg = -1;
        }
    }

    // Control flow.
    if (nd.is_call) {
        if (nd.target_in_code) {
            AbsState callee = out;
            callee.reg[kRegLr] = AbsValue::top();
            emit(nd.target, callee);
            if (cfg_.mayReturn(nd.target) && idx + 1 < n) {
                AbsState ret = out;
                const uint32_t clobber =
                    cfg_.mayDef(nd.target) | (1u << kRegLr);
                auto rs = ret_summary_.find(nd.target);
                for (unsigned r = 0; r < kNumRegs; ++r)
                    if (clobber & (1u << r))
                        ret.reg[r] =
                            (r != kRegLr && rs != ret_summary_.end())
                                ? rs->second[r]
                                : AbsValue::top();
                if (cfg_.mustDef(nd.target) & kCfgBit)
                    ret.cfg_loaded = true;
                auto ss = store_summary_.find(nd.target);
                if (ss == store_summary_.end() || ss->second.unbounded) {
                    ret.cell.clear();
                } else {
                    for (const auto &[slo, shi] : ss->second.spans)
                        invalidateCells(ret.cell, slo, shi);
                }
                ret.cmp_lhs = -1;
                ret.cmp_rhs_reg = -1;
                emit(idx + 1, ret);
            }
        } else if (idx + 1 < n) {
            // Out-of-code callee: a structural lint error; assume it
            // returns having clobbered everything, so diagnostics
            // downstream don't cascade.
            AbsState ret = out;
            for (unsigned r = 0; r < kNumRegs; ++r)
                ret.reg[r] = AbsValue::top();
            ret.cell.clear();
            ret.cmp_lhs = -1;
            ret.cmp_rhs_reg = -1;
            emit(idx + 1, ret);
        }
        return;
    }
    if (nd.is_return || nd.is_halt)
        return;
    if (nd.is_indirect) {
        for (uint32_t s : cfg_.intraSucc(idx))
            emit(s, out);
        return;
    }
    Rel rel;
    if (nd.has_target && relOf(op, &rel)) {
        // Conditional: refine each out-edge by the branch condition;
        // an infeasible refinement prunes the edge.
        if (nd.target_in_code) {
            AbsState taken = out;
            if (applyRel(taken, rel))
                emit(nd.target, taken);
        }
        AbsState fall = out;
        if (applyRel(fall, negateRel(rel)) && idx + 1 < n)
            emit(idx + 1, fall);
        return;
    }
    if (nd.has_target) { // unconditional b
        if (nd.target_in_code)
            emit(nd.target, out);
        return;
    }
    if (nd.falls_through && idx + 1 < n)
        emit(idx + 1, out);
}

// ---------------------------------------------------------------------------
// The interpreter driver.

AbsInterp::AbsInterp(ControlFlowGraph &cfg, AbsIntOptions opts)
    : cfg_(cfg), opts_(opts)
{
}

AbsState
AbsInterp::entryState() const
{
    // Machine/Core reset contract: all registers zero, sp = top of
    // memory - 16, r0..r3 may be overwritten by setArgs -> top.
    AbsState st;
    st.reachable = true;
    for (unsigned r = 0; r < 4; ++r)
        st.reg[r] = AbsValue::top();
    for (unsigned r = 4; r < kNumRegs; ++r)
        st.reg[r] = AbsValue::constant(0);
    st.reg[kRegSp] = AbsValue::constant(
        static_cast<uint32_t>(opts_.mem_bytes) - 16);
    return st;
}

void
AbsInterp::computeWidenPoints()
{
    // Retreating-edge targets of a DFS over the static edge relation
    // (intraprocedural successors + call-entry edges), plus every
    // function entry (recursion cycles bypass intra heads).
    const uint32_t n = static_cast<uint32_t>(cfg_.size());
    widen_point_.assign(n, false);
    if (n == 0)
        return;
    for (uint32_t e : cfg_.functionEntries())
        widen_point_[e] = true;

    auto staticSucc = [&](uint32_t i) {
        std::vector<uint32_t> s = cfg_.intraSucc(i);
        const CfgNode &nd = cfg_.node(i);
        if (nd.is_call && nd.target_in_code)
            s.push_back(nd.target);
        return s;
    };

    std::vector<uint8_t> color(n, 0); // 0 white, 1 grey, 2 black
    struct Frame
    {
        uint32_t node;
        std::vector<uint32_t> succ;
        size_t next = 0;
    };
    std::vector<Frame> stack;
    stack.push_back({0, staticSucc(0), 0});
    color[0] = 1;
    while (!stack.empty()) {
        Frame &f = stack.back();
        if (f.next < f.succ.size()) {
            uint32_t s = f.succ[f.next++];
            if (color[s] == 1)
                widen_point_[s] = true;
            else if (color[s] == 0) {
                color[s] = 1;
                stack.push_back({s, staticSucc(s), 0});
            }
        } else {
            color[f.node] = 2;
            stack.pop_back();
        }
    }
}

bool
AbsInterp::applyClamps(uint32_t idx, AbsState &st) const
{
    auto it = clamps_.find(idx);
    if (it == clamps_.end())
        return true;
    for (const auto &[r, clamp] : it->second) {
        Interval &iv = st.reg[r].iv;
        iv.lo = std::max(iv.lo, clamp.lo);
        iv.hi = std::min(iv.hi, clamp.hi);
        if (iv.lo > iv.hi)
            return false; // this inflow can't actually happen
        st.reg[r].reduce();
    }
    return true;
}

void
AbsInterp::runOnce()
{
    const uint32_t n = static_cast<uint32_t>(cfg_.size());
    in_.assign(n, AbsState{});
    if (n == 0)
        return;

    constexpr unsigned kWidenDelay = 3;
    std::vector<unsigned> bumps(n, 0);
    std::deque<uint32_t> work;
    std::vector<bool> queued(n, false);

    auto push = [&](uint32_t idx, AbsState st) {
        if (!st.reachable || idx >= n)
            return;
        if (!applyClamps(idx, st))
            return;
        bool changed;
        if (!in_[idx].reachable) {
            in_[idx] = std::move(st);
            changed = true;
        } else {
            AbsState joined = in_[idx];
            changed = joinState(joined, st);
            if (changed && widen_point_[idx] && ++bumps[idx] > kWidenDelay) {
                for (unsigned r = 0; r < kNumRegs; ++r)
                    joined.reg[r] = widenValue(
                        in_[idx].reg[r], joined.reg[r],
                        static_cast<uint32_t>(opts_.mem_bytes));
                // Joined cell keys are a subset of the old keys, so the
                // pointwise widen is total over the joined map.
                for (auto it = joined.cell.begin();
                     it != joined.cell.end();) {
                    auto old = in_[idx].cell.find(it->first);
                    it->second = widenValue(
                        old != in_[idx].cell.end() ? old->second
                                                   : AbsValue::top(),
                        it->second,
                        static_cast<uint32_t>(opts_.mem_bytes));
                    if (it->second == AbsValue::top())
                        it = joined.cell.erase(it);
                    else
                        ++it;
                }
            }
            changed = !(joined == in_[idx]);
            if (changed)
                in_[idx] = std::move(joined);
        }
        if (changed && !queued[idx]) {
            queued[idx] = true;
            work.push_back(idx);
        }
    };

    push(0, entryState());
    while (!work.empty()) {
        uint32_t i = work.front();
        work.pop_front();
        queued[i] = false;
        flowNode(i, in_[i],
                 [&](uint32_t s, const AbsState &st) { push(s, st); });
    }

    narrow();
}

void
AbsInterp::narrow()
{
    const uint32_t n = static_cast<uint32_t>(cfg_.size());

    // Predecessor lists under the *current* solution (infeasible edges
    // pruned by the transfer stay pruned).
    std::vector<std::vector<uint32_t>> preds(n);
    for (uint32_t i = 0; i < n; ++i) {
        if (!in_[i].reachable)
            continue;
        flowNode(i, in_[i], [&](uint32_t s, const AbsState &) {
            if (s < n)
                preds[s].push_back(i);
        });
    }
    for (auto &p : preds) {
        std::sort(p.begin(), p.end());
        p.erase(std::unique(p.begin(), p.end()), p.end());
    }

    // Reverse-postorder over the same edges.
    std::vector<uint32_t> rpo;
    {
        std::vector<uint8_t> seen(n, 0);
        struct Frame
        {
            uint32_t node;
            std::vector<uint32_t> succ;
            size_t next = 0;
        };
        auto succOf = [&](uint32_t i) {
            std::vector<uint32_t> s;
            if (in_[i].reachable)
                flowNode(i, in_[i], [&](uint32_t t, const AbsState &) {
                    s.push_back(t);
                });
            return s;
        };
        std::vector<Frame> stack;
        if (n > 0 && in_[0].reachable) {
            stack.push_back({0, succOf(0), 0});
            seen[0] = 1;
        }
        while (!stack.empty()) {
            Frame &f = stack.back();
            if (f.next < f.succ.size()) {
                uint32_t s = f.succ[f.next++];
                if (s < n && !seen[s]) {
                    seen[s] = 1;
                    stack.push_back({s, succOf(s), 0});
                }
            } else {
                rpo.push_back(f.node);
                stack.pop_back();
            }
        }
        std::reverse(rpo.begin(), rpo.end());
    }

    // Two decreasing sweeps: recompute each in-state as the plain join
    // of its predecessors' contributions (no widening).  Every
    // recomputation of a post-fixpoint stays above the least fixpoint,
    // so this only sharpens.
    for (int pass = 0; pass < 2; ++pass) {
        for (uint32_t idx : rpo) {
            AbsState acc;
            if (idx == 0) {
                acc = entryState();
                if (!applyClamps(idx, acc))
                    acc = AbsState{};
            }
            for (uint32_t p : preds[idx]) {
                if (!in_[p].reachable)
                    continue;
                flowNode(p, in_[p], [&](uint32_t s, const AbsState &st) {
                    if (s != idx)
                        return;
                    AbsState c = st;
                    if (applyClamps(idx, c))
                        joinState(acc, c);
                });
            }
            if (acc.reachable)
                in_[idx] = std::move(acc);
        }
    }
}

void
AbsInterp::collectMemAccesses()
{
    mem_.clear();
    mem_index_.clear();
    stores_unbounded_ = false;
    const uint32_t n = static_cast<uint32_t>(cfg_.size());
    const auto &reach = cfg_.reachable();

    for (uint32_t i = 0; i < n; ++i) {
        const CfgNode &nd = cfg_.node(i);
        if (!reach[i] || !nd.valid || !in_[i].reachable)
            continue;
        const Instr &in = nd.in;
        MemAccess a;
        a.idx = i;
        bool reg_form = false;
        switch (in.op) {
          case Op::kLdr:  a.size = 4; break;
          case Op::kStr:  a.size = 4; a.is_store = true; break;
          case Op::kLdrh: a.size = 2; break;
          case Op::kStrh: a.size = 2; a.is_store = true; break;
          case Op::kLdrb: a.size = 1; break;
          case Op::kStrb: a.size = 1; a.is_store = true; break;
          case Op::kLdrr:  a.size = 4; reg_form = true; break;
          case Op::kStrr:  a.size = 4; a.is_store = true; reg_form = true; break;
          case Op::kLdrhr: a.size = 2; reg_form = true; break;
          case Op::kStrhr: a.size = 2; a.is_store = true; reg_form = true; break;
          case Op::kLdrbr: a.size = 1; reg_form = true; break;
          case Op::kStrbr: a.size = 1; a.is_store = true; reg_form = true; break;
          case Op::kGfCfg:
            a.size = 8;
            a.addr = Interval::constant(static_cast<uint32_t>(in.imm));
            a.proven = true;
            mem_index_[i] = static_cast<unsigned>(mem_.size());
            mem_.push_back(a);
            continue;
          default:
            continue;
        }
        const AbsState &st = in_[i];
        a.addr = reg_form
            ? ivAdd(st.reg[in.rs1].iv, st.reg[in.rs2].iv)
            : ivAdd(st.reg[in.rs1].iv,
                    Interval::constant(static_cast<uint32_t>(in.imm)));
        a.proven = !a.addr.isTop();
        if (a.is_store && !a.proven)
            stores_unbounded_ = true;
        mem_index_[i] = static_cast<unsigned>(mem_.size());
        mem_.push_back(a);
    }
}

const MemAccess *
AbsInterp::memAccessAt(uint32_t idx) const
{
    auto it = mem_index_.find(idx);
    return it != mem_index_.end() ? &mem_[it->second] : nullptr;
}

bool
AbsInterp::storesMayTouch(uint32_t addr, uint32_t len) const
{
    if (len == 0)
        return false;
    const uint64_t lo = addr, hi = uint64_t{addr} + len - 1;
    for (const MemAccess &a : mem_) {
        if (!a.is_store)
            continue;
        const uint64_t alo = a.addr.lo;
        const uint64_t ahi = uint64_t{a.addr.hi} + a.size - 1;
        if (alo <= hi && lo <= ahi)
            return true;
    }
    return false;
}

// ---------------------------------------------------------------------------
// Per-function may-store summaries (assume-guarantee).

bool
AbsInterp::StoreSummary::coveredBy(const StoreSummary &outer) const
{
    if (outer.unbounded)
        return true;
    if (unbounded)
        return false;
    // Both span lists are coalesced (sorted, disjoint, non-adjacent), so
    // containment in a single outer span is an exact check.
    for (const auto &[lo, hi] : spans) {
        bool ok = false;
        for (const auto &[olo, ohi] : outer.spans)
            if (olo <= lo && hi <= ohi) {
                ok = true;
                break;
            }
        if (!ok)
            return false;
    }
    return true;
}

namespace {

/// Sort and merge overlapping-or-adjacent spans; collapse to a single
/// hull past a size cap so summary application stays cheap.
void
coalesceSpans(std::vector<std::pair<uint64_t, uint64_t>> &spans)
{
    if (spans.empty())
        return;
    std::sort(spans.begin(), spans.end());
    std::vector<std::pair<uint64_t, uint64_t>> merged;
    merged.push_back(spans.front());
    for (size_t i = 1; i < spans.size(); ++i) {
        if (spans[i].first <= merged.back().second + 1)
            merged.back().second =
                std::max(merged.back().second, spans[i].second);
        else
            merged.push_back(spans[i]);
    }
    if (merged.size() > 32)
        merged = {{merged.front().first, merged.back().second}};
    spans = std::move(merged);
}

} // namespace

std::map<uint32_t, AbsInterp::StoreSummary>
AbsInterp::extractStoreSummaries() const
{
    std::set<uint32_t> entries{0};
    for (uint32_t e : cfg_.functionEntries())
        entries.insert(e);

    // Own-body spans and the (reachable) call edges per function.
    std::map<uint32_t, StoreSummary> sum;
    std::map<uint32_t, std::set<uint32_t>> callees;
    for (uint32_t e : entries) {
        StoreSummary &s = sum[e];
        for (uint32_t i : cfg_.functionNodes(e)) {
            const CfgNode &nd = cfg_.node(i);
            if (!nd.valid || !in_[i].reachable)
                continue;
            if (nd.is_call) {
                if (nd.target_in_code)
                    callees[e].insert(nd.target);
                else
                    s.unbounded = true; // unknown code: assume anything
                continue;
            }
            const MemAccess *a = memAccessAt(i);
            if (!a || !a->is_store)
                continue;
            if (!a->proven) {
                s.unbounded = true;
                continue;
            }
            s.spans.emplace_back(a->addr.lo,
                                 uint64_t{a->addr.hi} + a->size - 1);
        }
        coalesceSpans(s.spans);
    }

    // Transitive closure over the call graph.  Merging rounds bounded by
    // the longest acyclic call chain (cycles converge the same way).
    for (size_t round = 0; round <= entries.size(); ++round) {
        for (auto &[e, s] : sum) {
            if (s.unbounded)
                continue;
            for (uint32_t c : callees[e]) {
                auto it = sum.find(c);
                if (it == sum.end() || it->second.unbounded) {
                    s.unbounded = true;
                    break;
                }
                s.spans.insert(s.spans.end(), it->second.spans.begin(),
                               it->second.spans.end());
            }
            coalesceSpans(s.spans);
        }
    }
    for (auto &[e, s] : sum)
        if (s.unbounded)
            s.spans.clear();
    return sum;
}

std::map<uint32_t, std::array<AbsValue, kNumRegs>>
AbsInterp::extractRetSummaries() const
{
    std::set<uint32_t> entries{0};
    for (uint32_t e : cfg_.functionEntries())
        entries.insert(e);

    std::map<uint32_t, std::array<AbsValue, kNumRegs>> sum;
    for (uint32_t e : entries) {
        bool any = false;
        std::array<AbsValue, kNumRegs> acc{};
        for (uint32_t i : cfg_.functionNodes(e)) {
            const CfgNode &nd = cfg_.node(i);
            if (!nd.valid || !nd.is_return || !in_[i].reachable)
                continue;
            if (!any) {
                acc = in_[i].reg;
                any = true;
            } else {
                for (unsigned r = 0; r < kNumRegs; ++r)
                    acc[r] = joinValue(acc[r], in_[i].reg[r]);
            }
        }
        if (any)
            sum[e] = acc;
    }
    return sum;
}

bool
AbsInterp::summariesCover(
    const std::map<uint32_t, StoreSummary> &got,
    const std::map<uint32_t, std::array<AbsValue, kNumRegs>> &got_ret) const
{
    for (const auto &[e, s] : got) {
        auto it = store_summary_.find(e);
        if (it == store_summary_.end() || !s.coveredBy(it->second))
            return false;
    }
    // Return-value coverage: an assumed entry must be at least as wide
    // as what the solution's returns actually produce.  A missing
    // assumed entry is top and covers anything.
    for (const auto &[e, assumed] : ret_summary_) {
        auto g = got_ret.find(e);
        if (g == got_ret.end())
            continue; // no reachable return under the new solution
        for (unsigned r = 0; r < kNumRegs; ++r)
            if (joinValue(assumed[r], g->second[r]) != assumed[r])
                return false;
    }
    return true;
}

void
AbsInterp::stabilizeStoreSummaries()
{
    // Assume-guarantee iteration.  Start *optimistically* — assume every
    // function stores nothing, so calls preserve all tracked cells —
    // because the precise solution is often self-supporting yet
    // unreachable from the pessimistic side: a callee's stores are only
    // proven when a spilled pointer cell survives the calls around it,
    // which in turn needs the callee's summary bounded.  Each round
    // reruns the fixpoint under the assumed summaries and extracts what
    // the resulting solution actually stores; the round is accepted only
    // if the extraction is covered by the assumption (the coinductive
    // soundness condition), otherwise the extraction becomes the next
    // assumption.  Assumptions only grow, so this descends toward the
    // conservative solution and the fallback rerun is the floor.
    store_summary_.clear();
    store_summary_[0] = {};
    for (uint32_t e : cfg_.functionEntries())
        store_summary_[e] = {};
    ret_summary_.clear(); // missing entry = all top: pessimistic start
    for (int round = 0; round < 4; ++round) {
        runOnce();
        collectMemAccesses();
        const auto got = extractStoreSummaries();
        const auto got_ret = extractRetSummaries();
        if (summariesCover(got, got_ret))
            return;
        store_summary_ = got;
        ret_summary_ = got_ret;
    }
    store_summary_.clear();
    ret_summary_.clear();
    runOnce();
    collectMemAccesses();
}

void
AbsInterp::refineIndirectJumps()
{
    const uint32_t n = static_cast<uint32_t>(cfg_.size());
    const Program &prog = cfg_.program();
    const uint64_t image_end = prog.footprint();
    bool any = false;

    for (uint32_t i = 0; i < n; ++i) {
        const CfgNode &nd = cfg_.node(i);
        if (!nd.is_indirect || !in_[i].reachable || cfg_.indirectRefined(i))
            continue;

        std::vector<uint32_t> candidates; // candidate pc values
        bool have = false;
        uint32_t c;
        if (in_[i].reg[nd.in.rs1].isConst(&c)) {
            candidates.push_back(c);
            have = true;
        } else {
            // Block-local jump-table pattern: the defining load of the
            // jump register reads a store-untouched table inside the
            // initialized data image at enumerable addresses.
            uint32_t def = ~0u;
            for (uint32_t j = i; j-- > 0;) {
                const CfgNode &dj = cfg_.node(j);
                if (!dj.valid || !dj.falls_through || dj.has_target)
                    break;
                if (defs32(dj) & (1u << nd.in.rs1)) {
                    def = j;
                    break;
                }
                if (dj.leader)
                    break;
            }
            if (def != ~0u && (cfg_.node(def).in.op == Op::kLdr ||
                               cfg_.node(def).in.op == Op::kLdrr) &&
                in_[def].reachable) {
                const Instr &ld = cfg_.node(def).in;
                const AbsState &ds = in_[def];
                Interval addr;
                KnownBits akb;
                if (ld.op == Op::kLdr) {
                    const AbsValue imm =
                        AbsValue::constant(static_cast<uint32_t>(ld.imm));
                    addr = ivAdd(ds.reg[ld.rs1].iv, imm.iv);
                    akb = kbLowRun(ds.reg[ld.rs1].kb, imm.kb,
                                   [](uint32_t x, uint32_t y) {
                                       return x + y;
                                   });
                } else {
                    addr = ivAdd(ds.reg[ld.rs1].iv, ds.reg[ld.rs2].iv);
                    akb = kbLowRun(ds.reg[ld.rs1].kb, ds.reg[ld.rs2].kb,
                                   [](uint32_t x, uint32_t y) {
                                       return x + y;
                                   });
                }
                const uint64_t span = addr.isTop() ? ~0ull : addr.width();
                if (span <= kMaxTableBytes &&
                    addr.lo >= prog.data_base &&
                    uint64_t{addr.hi} + 4 <= image_end &&
                    !storesMayTouch(addr.lo,
                                    static_cast<uint32_t>(span) + 3)) {
                    have = true;
                    for (uint64_t a = addr.lo; a <= addr.hi; ++a) {
                        if (!akb.matches(static_cast<uint32_t>(a)))
                            continue;
                        uint32_t word = 0;
                        for (unsigned b = 0; b < 4; ++b)
                            word |= uint32_t{prog.data[a - prog.data_base +
                                                       b]}
                                    << (8 * b);
                        candidates.push_back(word);
                    }
                    if (candidates.empty())
                        have = false; // nothing enumerable: stay safe
                }
            }
        }
        if (!have)
            continue;

        std::vector<uint32_t> targets;
        bool all_ok = true;
        for (uint32_t pc : candidates) {
            if (pc % 4 == 0 && pc / 4 < n && cfg_.node(pc / 4).valid)
                targets.push_back(pc / 4);
            else
                all_ok = false;
        }
        cfg_.refineIndirectTargets(i, std::move(targets));
        ++refined_indirects_;
        if (all_ok)
            indirect_ok_.insert(i);
        any = true;
    }

    if (any) {
        // Edges changed: the widening points must be rebuilt (the CFG
        // rebuilt its own function summaries).
        computeWidenPoints();
    }
}

// ---------------------------------------------------------------------------
// Loop-bound inference.

namespace {

/// Dense per-function dominator bitsets over @p nodes (sorted), rooted
/// at nodes[0]'s position of @p entry.
struct DomSets
{
    std::vector<uint32_t> nodes;          // sorted function nodes
    std::map<uint32_t, unsigned> pos;     // node -> dense index
    std::vector<std::vector<uint64_t>> dom;
    unsigned words = 0;

    bool dominates(uint32_t a, uint32_t b) const
    {
        auto ia = pos.find(a), ib = pos.find(b);
        if (ia == pos.end() || ib == pos.end())
            return false;
        return (dom[ib->second][ia->second / 64] >>
                (ia->second % 64)) & 1;
    }
};

DomSets
computeDominators(const ControlFlowGraph &cfg, uint32_t entry,
                  const std::vector<uint32_t> &nodes)
{
    DomSets d;
    d.nodes = nodes;
    for (unsigned i = 0; i < nodes.size(); ++i)
        d.pos[nodes[i]] = i;
    const unsigned m = static_cast<unsigned>(nodes.size());
    d.words = (m + 63) / 64;

    std::vector<std::vector<unsigned>> preds(m);
    for (unsigned i = 0; i < m; ++i)
        for (uint32_t s : cfg.intraSucc(nodes[i])) {
            auto it = d.pos.find(s);
            if (it != d.pos.end())
                preds[it->second].push_back(i);
        }

    const unsigned e = d.pos.at(entry);
    std::vector<uint64_t> all(d.words, ~0ull);
    if (m % 64)
        all[d.words - 1] = (~0ull) >> (64 - m % 64);
    d.dom.assign(m, all);
    std::vector<uint64_t> only_e(d.words, 0);
    only_e[e / 64] = 1ull << (e % 64);
    d.dom[e] = only_e;

    bool changed = true;
    while (changed) {
        changed = false;
        for (unsigned i = 0; i < m; ++i) {
            if (i == e)
                continue;
            std::vector<uint64_t> nv = all;
            if (preds[i].empty())
                nv.assign(d.words, 0); // unreachable within the function
            for (unsigned p : preds[i])
                for (unsigned w = 0; w < d.words; ++w)
                    nv[w] &= d.dom[p][w];
            nv[i / 64] |= 1ull << (i % 64);
            if (nv != d.dom[i]) {
                d.dom[i] = std::move(nv);
                changed = true;
            }
        }
    }
    return d;
}

/// soleDef() results that name no loop member.
constexpr uint32_t kNoDef = ~0u;
constexpr uint32_t kManyDefs = ~0u - 1;

/// Narrow the clamp for register @p r in @p acc by @p clamp, or install
/// it; an empty intersection keeps the old clamp.
void
intersectClamp(std::map<int, Interval> &acc, int r, Interval clamp)
{
    auto [it, fresh] = acc.try_emplace(r, clamp);
    if (fresh)
        return;
    const uint32_t lo = std::max(it->second.lo, clamp.lo);
    const uint32_t hi = std::min(it->second.hi, clamp.hi);
    if (lo <= hi)
        it->second = {lo, hi};
}

/// A loop's proven trip count, and when the guard tests the post-step
/// value, the range the induction value keeps at the head.
struct TripCount
{
    bool ok = false;
    uint64_t visits = 0;     ///< bound on head visits
    Interval clamp;
    bool have_clamp = false;
};

/**
 * Head visits of a loop whose induction value enters in @p C, moves by
 * @p step (nonzero) per iteration, and continues while "value @p cont
 * R".  @p post: the guard tests the value after the step.
 */
TripCount
tripCount(Rel cont, Interval C, Interval R, int64_t step, bool post)
{
    TripCount t;
    const uint64_t s_abs = step > 0 ? static_cast<uint64_t>(step)
                                    : static_cast<uint64_t>(-step);

    // Signed relations demand both sides provably non-negative; then
    // they coincide with the unsigned ones under a 2^31 value ceiling.
    Rel cn = cont;
    uint64_t limit = kTwo32;
    switch (cn) {
      case Rel::kSlt: case Rel::kSle: case Rel::kSgt: case Rel::kSge:
        if (C.hi >= 0x80000000u || R.hi >= 0x80000000u)
            return t;
        limit = uint64_t{1} << 31;
        switch (cn) {
          case Rel::kSlt: cn = Rel::kUlt; break;
          case Rel::kSle: cn = Rel::kUle; break;
          case Rel::kSgt: cn = Rel::kUgt; break;
          default:        cn = Rel::kUge; break;
        }
        break;
      default:
        break;
    }

    switch (cn) {
      case Rel::kNe: {
        // Exact-hit exit: needs constant endpoints and a step that
        // divides the distance.
        if (!R.isConst() || !C.isConst())
            return t;
        const uint64_t c = C.lo, k = R.lo;
        if (step < 0) {
            if (c < k + (post ? 1 : 0) || (c - k) % s_abs)
                return t;
            t.visits = (c - k) / s_abs + (post ? 0 : 1);
            t.clamp = post ? Interval{static_cast<uint32_t>(k + s_abs),
                                      static_cast<uint32_t>(c)}
                           : Interval{static_cast<uint32_t>(k),
                                      static_cast<uint32_t>(c)};
        } else {
            if (k < c + (post ? 1 : 0) || (k - c) % s_abs)
                return t;
            t.visits = (k - c) / s_abs + (post ? 0 : 1);
            t.clamp = post ? Interval{static_cast<uint32_t>(c),
                                      static_cast<uint32_t>(k - s_abs)}
                           : Interval{static_cast<uint32_t>(c),
                                      static_cast<uint32_t>(k)};
        }
        t.ok = t.have_clamp = true;
        return t;
      }
      case Rel::kUlt: case Rel::kUle: {
        if (step < 0)
            return t;
        uint64_t k = R.hi;
        if (cn == Rel::kUle) {
            if (k + 1 >= limit)
                return t; // "<= max": never exits here
            k += 1;
        }
        // Continue while v < k.  No-wrap: the largest value ever taken
        // is k - 1 + step.
        if (k + s_abs > limit)
            return t;
        const uint64_t trips = C.lo < k ? ceilDiv(k - C.lo, s_abs) : 0;
        t.visits = post ? std::max<uint64_t>(1, trips) : trips + 1;
        if (k >= 1) {
            t.clamp = {C.lo, std::max(C.hi, static_cast<uint32_t>(k - 1))};
            t.have_clamp = post;
        }
        t.ok = true;
        return t;
      }
      case Rel::kUgt: case Rel::kUge: {
        if (step > 0)
            return t;
        uint64_t k = R.lo;
        if (cn == Rel::kUgt) {
            if (k + 1 >= limit)
                return t; // "> max": infeasible to stay
            k += 1;
        }
        // Continue while v >= k ("k == 0": never exits here).  No-wrap:
        // the smallest value ever taken is k - step.
        if (k == 0 || k < s_abs)
            return t;
        const uint64_t trips = C.hi >= k ? ceilDiv(C.hi - k + 1, s_abs) : 0;
        t.visits = post ? std::max<uint64_t>(1, trips) : trips + 1;
        t.clamp = {std::min(C.lo, static_cast<uint32_t>(k)), C.hi};
        t.have_clamp = post;
        t.ok = true;
        return t;
      }
      default:
        return t;
    }
}

} // namespace

std::string
LoopBound::describe(const ControlFlowGraph &cfg) const
{
    if (bounded)
        return strprintf("loop at %s: <= %llu head visits (%s)",
                         cfg.describeNode(head).c_str(),
                         static_cast<unsigned long long>(max_head_visits),
                         reason.c_str());
    return strprintf("loop at %s: unbounded (%s)",
                     cfg.describeNode(head).c_str(), reason.c_str());
}

const LoopBound *
AbsInterp::loopWithHead(uint32_t head) const
{
    for (const LoopBound &l : loops_)
        if (l.head == head)
            return &l;
    return nullptr;
}

void
AbsInterp::inferLoopBounds()
{
    loops_.clear();
    irreducible_.clear();
    pending_clamps_.clear();
    const uint32_t n = static_cast<uint32_t>(cfg_.size());
    if (n == 0)
        return;
    const auto &reach = cfg_.reachable();

    // Global predecessor lists under the current solution, for the
    // loop-entry (initial-value) state joins.
    std::vector<std::vector<uint32_t>> gpreds(n);
    for (uint32_t i = 0; i < n; ++i) {
        if (!in_[i].reachable || !reach[i])
            continue;
        flowNode(i, in_[i], [&](uint32_t s, const AbsState &) {
            if (s < n)
                gpreds[s].push_back(i);
        });
    }

    std::vector<uint32_t> entries{0};
    for (uint32_t e : cfg_.functionEntries())
        if (e != 0 && reach[e])
            entries.push_back(e);

    std::set<uint32_t> heads_seen;

    for (uint32_t entry : entries) {
        std::vector<uint32_t> nodes = cfg_.functionNodes(entry);
        if (nodes.empty())
            continue;
        DomSets dom = computeDominators(cfg_, entry, nodes);
        std::set<uint32_t> in_fn(nodes.begin(), nodes.end());

        // Back edges + irreducibility via DFS retreating edges.
        std::vector<std::pair<uint32_t, uint32_t>> back; // (src, head)
        {
            std::map<uint32_t, uint8_t> color;
            struct Frame
            {
                uint32_t node;
                std::vector<uint32_t> succ;
                size_t next = 0;
            };
            auto succOf = [&](uint32_t i) {
                std::vector<uint32_t> s;
                for (uint32_t t : cfg_.intraSucc(i))
                    if (in_fn.count(t))
                        s.push_back(t);
                return s;
            };
            std::vector<Frame> stack;
            stack.push_back({entry, succOf(entry), 0});
            color[entry] = 1;
            while (!stack.empty()) {
                Frame &f = stack.back();
                if (f.next < f.succ.size()) {
                    uint32_t s = f.succ[f.next++];
                    if (color[s] == 1) {
                        if (dom.dominates(s, f.node))
                            back.push_back({f.node, s});
                        else
                            irreducible_.insert(entry);
                    } else if (color[s] == 0) {
                        color[s] = 1;
                        stack.push_back({s, succOf(s), 0});
                    }
                } else {
                    color[f.node] = 2;
                    stack.pop_back();
                }
            }
        }

        // Natural loops, merged by head.
        std::map<uint32_t, LoopBound> by_head;
        std::map<uint32_t, std::vector<uint32_t>> rev; // preds within fn
        for (uint32_t i : nodes)
            for (uint32_t s : cfg_.intraSucc(i))
                if (in_fn.count(s))
                    rev[s].push_back(i);
        for (const auto &[src, head] : back) {
            LoopBound &L = by_head[head];
            L.head = head;
            L.back_sources.push_back(src);
            std::set<uint32_t> members{head};
            std::deque<uint32_t> work;
            if (src != head) {
                members.insert(src);
                work.push_back(src);
            }
            while (!work.empty()) {
                uint32_t i = work.front();
                work.pop_front();
                for (uint32_t p : rev[i]) {
                    if (!members.count(p)) {
                        members.insert(p);
                        work.push_back(p);
                    }
                }
            }
            for (uint32_t mnode : members)
                L.members.push_back(mnode);
            std::sort(L.members.begin(), L.members.end());
            L.members.erase(
                std::unique(L.members.begin(), L.members.end()),
                L.members.end());
        }

        // Bound one loop: find an affine induction variable with a
        // single in-loop definition, and an exit guard whose cmp
        // dominates every back edge; the guard's continue-relation,
        // the step, and the loop-entry value interval give the bound
        // on head visits (plus, for guards testing the post-step
        // value, a proven head-range clamp fed back into the next
        // fixpoint round).
        auto inferOne = [&](LoopBound &L) {
            const std::set<uint32_t> mem(L.members.begin(),
                                         L.members.end());
            std::set<uint32_t> nested;
            for (const auto &[h2, L2] : by_head) {
                if (h2 == L.head || !mem.count(h2))
                    continue;
                nested.insert(L2.members.begin(), L2.members.end());
            }

            // Loop-entry state: join of contributions from outside-loop
            // predecessors (plus the reset state when the head is the
            // program entry).
            AbsState init;
            for (uint32_t p : gpreds[L.head]) {
                if (mem.count(p) || !in_[p].reachable)
                    continue;
                flowNode(p, in_[p],
                         [&](uint32_t s, const AbsState &st) {
                             if (s == L.head)
                                 joinState(init, st);
                         });
            }
            if (L.head == 0)
                joinState(init, entryState());
            if (!init.reachable) {
                L.reason = "loop head has no analyzable entry state";
                return;
            }

            // The one loop member that defines r, counting what an
            // in-loop call may define: kNoDef when no member does,
            // kManyDefs when more than one does or a call may.
            auto soleDef = [&](int r) {
                uint32_t def = kNoDef;
                for (uint32_t mi : L.members) {
                    const CfgNode &dn = cfg_.node(mi);
                    if (!dn.valid)
                        continue;
                    uint32_t d32 = defs32(dn);
                    if (dn.is_call)
                        d32 |= dn.target_in_code ? cfg_.mayDef(dn.target)
                                                 : 0xffffu;
                    if (!(d32 & (1u << r)))
                        continue;
                    if (def != kNoDef || dn.is_call)
                        return kManyDefs;
                    def = mi;
                }
                return def;
            };
            auto dominatesBackEdges = [&](uint32_t v) {
                for (uint32_t b : L.back_sources)
                    if (!dom.dominates(v, b))
                        return false;
                return true;
            };

            // Exit guards: conditional branches outside any nested loop
            // with exactly one out-edge in the loop, testing flags from
            // a tracked cmp/cmpi.  `cont` is the relation under which
            // the loop continues.
            struct ExitGuard
            {
                uint32_t idx;
                Rel cont;
            };
            std::vector<ExitGuard> guards;
            for (uint32_t g : L.members) {
                const CfgNode &gn = cfg_.node(g);
                if (!gn.valid || nested.count(g))
                    continue;
                Rel rel;
                if (!gn.has_target || !relOf(gn.in.op, &rel))
                    continue;
                const bool t_in =
                    gn.target_in_code && mem.count(gn.target);
                const bool f_in = (g + 1 < n) && mem.count(g + 1);
                if (t_in == f_in)
                    continue;
                if (!in_[g].reachable || in_[g].cmp_lhs < 0)
                    continue;
                guards.push_back({g, t_in ? rel : negateRel(rel)});
            }

            bool have = false;
            uint64_t best = 0;
            std::string best_desc;
            int best_reg = -1;
            uint32_t best_guard = ~0u;
            std::map<int, Interval> clamp_acc;
            auto consider = [&](uint64_t visits, int r, uint32_t g,
                                std::string desc) {
                if (!have || visits < best) {
                    best = visits;
                    best_reg = r;
                    best_guard = g;
                    best_desc = std::move(desc);
                }
                have = true;
            };

            for (const ExitGuard &eg : guards) {
                const uint32_t g = eg.idx;
                const AbsState &gs = in_[g];
                struct Orient
                {
                    int ivr;
                    Rel cont;
                    int other_reg;
                    uint32_t k;
                };
                std::vector<Orient> orients;
                orients.push_back({gs.cmp_lhs, eg.cont, gs.cmp_rhs_reg,
                                   gs.cmp_rhs_k});
                if (gs.cmp_rhs_reg >= 0)
                    orients.push_back(
                        {gs.cmp_rhs_reg, swapRel(eg.cont), gs.cmp_lhs, 0});

                for (const Orient &o : orients) {
                    const int r = o.ivr;
                    // Exactly one in-loop definition of r, and it is an
                    // affine step (addi/subi r, r, #imm) outside any
                    // nested loop.
                    const uint32_t def = soleDef(r);
                    if (def == kNoDef || def == kManyDefs ||
                        nested.count(def))
                        continue;
                    const Instr &di = cfg_.node(def).in;
                    if (!((di.op == Op::kAddi || di.op == Op::kSubi) &&
                          di.rd == r && di.rs1 == r))
                        continue;
                    const int64_t step = di.op == Op::kAddi
                                             ? int64_t{di.imm}
                                             : -int64_t{di.imm};
                    if (step == 0 || !dominatesBackEdges(def) ||
                        !dominatesBackEdges(g))
                        continue;

                    // Comparison bound: a constant, or a loop-invariant
                    // register's interval.
                    Interval R = Interval::constant(o.k);
                    if (o.other_reg >= 0) {
                        if (soleDef(o.other_reg) != kNoDef)
                            continue;
                        R = gs.reg[o.other_reg].iv;
                    }
                    const Interval C = init.reg[r].iv;
                    const TripCount t = tripCount(o.cont, C, R, step,
                                                  dom.dominates(def, g));
                    if (!t.ok)
                        continue;
                    consider(t.visits, r, g,
                             strprintf("induction %s step %+lld, %s guard "
                                       "at %s, entry %s",
                                       regName(r).c_str(),
                                       static_cast<long long>(step),
                                       opName(cfg_.node(g).in.op),
                                       cfg_.describeNode(g).c_str(),
                                       C.describe().c_str()));
                    if (t.have_clamp)
                        intersectClamp(clamp_acc, r, t.clamp);
                }
            }

            // Memory-held induction variable: kernels that park a loop
            // counter in a save slot round-trip it through memory each
            // iteration — load, step, store back, compare — so no
            // register has a unique affine def.  Recognize the
            // straight-line window
            //     ldr r,[A]; ...; addi/subi r,r,#c; str r,[A]; cmp; bcc
            // ending at an exit guard, with the 4-byte cell A written
            // nowhere else in the loop (including through callee store
            // summaries); then cell A is the induction variable, its
            // loop-entry value comes from the tracked cell at the head's
            // outside predecessors, and the guard tests the post-step
            // value.
            if (!have) {
                for (const ExitGuard &eg : guards) {
                    const uint32_t g = eg.idx;
                    const AbsState &gs = in_[g];
                    if (gs.cmp_rhs_reg >= 0 || !dominatesBackEdges(g))
                        continue;
                    const int r = gs.cmp_lhs;

                    // Backward straight-line walk from the guard: the first
                    // def of r reached must be the affine step, the next one
                    // the reload of the stored cell.
                    uint32_t lo_node = ~0u, d_node = ~0u, s_node = ~0u;
                    uint32_t A = 0;
                    int64_t step = 0;
                    for (uint32_t j = g; lo_node == ~0u && j > 0;) {
                        const auto &gp = gpreds[j];
                        if (gp.empty() ||
                            !std::all_of(gp.begin(), gp.end(),
                                         [&](uint32_t p) {
                                             return p == j - 1;
                                         }))
                            break;
                        --j;
                        if (!mem.count(j) || nested.count(j))
                            break;
                        const CfgNode &dn = cfg_.node(j);
                        if (!dn.valid || dn.is_call || dn.has_target ||
                            !dn.falls_through)
                            break;
                        const Instr &di = dn.in;
                        if ((di.op == Op::kStr || di.op == Op::kStrr) &&
                            di.rd == r && s_node == ~0u && d_node == ~0u) {
                            const MemAccess *a = memAccessAt(j);
                            if (a && a->proven && a->addr.isConst() &&
                                (a->addr.lo & 3u) == 0) {
                                s_node = j;
                                A = a->addr.lo;
                            }
                            continue;
                        }
                        if (!(defs32(dn) & (1u << r)))
                            continue;
                        if (d_node == ~0u) {
                            if ((di.op == Op::kAddi || di.op == Op::kSubi) &&
                                di.rd == r && di.rs1 == r && di.imm != 0 &&
                                s_node != ~0u) {
                                d_node = j;
                                step = di.op == Op::kAddi ? int64_t{di.imm}
                                                          : -int64_t{di.imm};
                            } else {
                                break;
                            }
                        } else {
                            const MemAccess *a = memAccessAt(j);
                            if ((di.op == Op::kLdr || di.op == Op::kLdrr) &&
                                di.rd == r && a && a->proven &&
                                a->addr.isConst() && a->addr.lo == A)
                                lo_node = j;
                            break;
                        }
                    }

                    if (lo_node == ~0u)
                        continue;

                    // The cell must be written only by the window store:
                    // every other in-loop store misses [A, A+3], and every
                    // in-loop call's store summary excludes it.
                    bool cell_ok = true;
                    for (uint32_t mi : L.members) {
                        const CfgNode &dn = cfg_.node(mi);
                        if (!dn.valid || !in_[mi].reachable)
                            continue;
                        if (dn.is_call) {
                            auto it = dn.target_in_code
                                          ? store_summary_.find(dn.target)
                                          : store_summary_.end();
                            if (it == store_summary_.end() ||
                                it->second.unbounded) {
                                cell_ok = false;
                                break;
                            }
                            for (const auto &[slo, shi] : it->second.spans)
                                if (slo <= uint64_t{A} + 3 && A <= shi) {
                                    cell_ok = false;
                                    break;
                                }
                            if (!cell_ok)
                                break;
                            continue;
                        }
                        const MemAccess *a = memAccessAt(mi);
                        if (!a || !a->is_store || mi == s_node)
                            continue;
                        if (!a->proven) {
                            cell_ok = false;
                            break;
                        }
                        const uint64_t ahi =
                            uint64_t{a->addr.hi} + a->size - 1;
                        if (a->addr.lo <= uint64_t{A} + 3 && A <= ahi) {
                            cell_ok = false;
                            break;
                        }
                    }
                    if (!cell_ok)
                        continue;

                    auto ci = init.cell.find(A);
                    if (ci == init.cell.end())
                        continue;
                    const Interval C = ci->second.iv;
                    // The store and the cmp both sit after the affine def in
                    // the window, so the guard tests the post-step value.
                    const TripCount t =
                        tripCount(eg.cont, C, Interval::constant(gs.cmp_rhs_k),
                                  step, /*post=*/true);
                    if (!t.ok)
                        continue;
                    consider(t.visits, r, g,
                             strprintf("memory induction cell 0x%x step %+lld "
                                       "via %s, %s guard at %s, entry %s",
                                       A, static_cast<long long>(step),
                                       regName(r).c_str(),
                                       opName(cfg_.node(g).in.op),
                                       cfg_.describeNode(g).c_str(),
                                       C.describe().c_str()));
                }
            }

            if (have) {
                L.bounded = true;
                L.max_head_visits = best;
                L.iv_reg = best_reg;
                L.guard = best_guard;
                L.reason = best_desc;

                // Derived affine clamps: in a loop with at most `best`
                // head visits, a register whose only in-loop definition
                // is an affine step (never clobbered by a call, not in a
                // nested loop) advances monotonically at most best - 1
                // times before any head visit, so its head value stays
                // within the entry interval extended by that travel.
                // This is what bounds derived pointers (e.g. a round-key
                // cursor stepped by 16) that are not the loop's guard
                // subject.
                for (int q = 0; best > 0 && q < static_cast<int>(kNumRegs);
                     ++q) {
                    const uint32_t def = soleDef(q);
                    if (def == kNoDef || def == kManyDefs ||
                        nested.count(def))
                        continue;
                    const Instr &di = cfg_.node(def).in;
                    if (!((di.op == Op::kAddi || di.op == Op::kSubi) &&
                          di.rd == q && di.rs1 == q && di.imm > 0))
                        continue;
                    const Interval I = init.reg[q].iv;
                    if (I.isTop())
                        continue;
                    const uint64_t travel =
                        uint64_t{static_cast<uint32_t>(di.imm)} * (best - 1);
                    Interval clamp;
                    if (di.op == Op::kAddi) {
                        const uint64_t hi = uint64_t{I.hi} + travel;
                        if (hi >= kTwo32)
                            continue; // may wrap: no safe clamp
                        clamp = {I.lo, static_cast<uint32_t>(hi)};
                    } else {
                        if (travel > I.lo)
                            continue; // may wrap below zero
                        clamp = {static_cast<uint32_t>(I.lo - travel), I.hi};
                    }
                    intersectClamp(clamp_acc, q, clamp);
                }

                if (!clamp_acc.empty())
                    pending_clamps_[L.head] = clamp_acc;
            } else if (L.reason.empty()) {
                L.reason = "no provable induction/guard pair";
            }
        };

        const bool fn_irreducible = irreducible_.count(entry) != 0;
        for (auto &[head, L] : by_head) {
            if (heads_seen.count(head))
                continue;
            heads_seen.insert(head);
            std::sort(L.back_sources.begin(), L.back_sources.end());
            L.back_sources.erase(std::unique(L.back_sources.begin(),
                                             L.back_sources.end()),
                                 L.back_sources.end());
            if (fn_irreducible) {
                L.reason = "function has irreducible control flow";
                loops_.push_back(L);
                continue;
            }
            inferOne(L);
            loops_.push_back(L);
        }
    }

    std::sort(loops_.begin(), loops_.end(),
              [](const LoopBound &a, const LoopBound &b) {
                  return a.head < b.head;
              });
}

bool
AbsInterp::deriveClamps()
{
    // Install the clamps the latest loop inference proved, intersected
    // with whatever is already installed (clamps only ever shrink, so
    // the clamp rounds terminate).
    auto next = clamps_;
    for (const auto &[head, regs] : pending_clamps_)
        for (const auto &[r, iv] : regs)
            intersectClamp(next[head], r, iv);
    if (next == clamps_)
        return false;
    clamps_ = std::move(next);
    return true;
}

void
AbsInterp::run()
{
    computeWidenPoints();
    runOnce();
    collectMemAccesses();
    stabilizeStoreSummaries();

    refineIndirectJumps();
    if (refined_indirects_ != 0) {
        runOnce();
        collectMemAccesses();
        stabilizeStoreSummaries();
    }

    inferLoopBounds();
    // Feed proven head ranges back and resolve: each round can tighten
    // loop entry values (e.g. a down-counted inner loop's exact-hit
    // clamp proving its byte-index loads in range), which can tighten
    // further bounds.  Clamps shrink monotonically; three rounds is
    // plenty for the nesting depth of real kernels.
    for (int round = 0; round < 3 && deriveClamps(); ++round) {
        runOnce();
        collectMemAccesses();
        inferLoopBounds();
    }

    // Final assume-guarantee check: the solution must justify the store
    // summaries it was computed under.  Clamps only tighten accesses, so
    // this holds by construction; if it ever fires, fall back to the
    // conservative no-summary, no-clamp solution.
    if ((!store_summary_.empty() || !ret_summary_.empty()) &&
        !summariesCover(extractStoreSummaries(), extractRetSummaries())) {
        store_summary_.clear();
        ret_summary_.clear();
        clamps_.clear();
        pending_clamps_.clear();
        runOnce();
        collectMemAccesses();
        inferLoopBounds();
    }
}

} // namespace gfp
