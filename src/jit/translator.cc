#include "jit/translator.h"

#include <algorithm>
#include <set>

#include "common/logging.h"
#include "common/strutil.h"
#include "isa/encoding.h"
#include "jit/code_cache.h"
#include "sim/cost_model.h"

namespace gfp::jit {

namespace {

#if defined(__x86_64__)
constexpr bool kHaveTemplates = true;
#else
constexpr bool kHaveTemplates = false;
#endif

bool
isCondBranch(Op op)
{
    switch (op) {
      case Op::kBeq: case Op::kBne: case Op::kBlt: case Op::kBge:
      case Op::kBgt: case Op::kBle: case Op::kBlo: case Op::kBhs:
      case Op::kBhi: case Op::kBls:
        return true;
      default:
        return false;
    }
}

bool
isControlTransfer(Op op)
{
    switch (op) {
      case Op::kB: case Op::kBl: case Op::kJr: case Op::kRet:
      case Op::kHalt:
        return true;
      default:
        return isCondBranch(op);
    }
}

/** Ops the JIT refuses to put inside a block.  gfcfg is a translation
 *  barrier (it changes the reduction matrix the GF helper tables are
 *  keyed on, and it can trap on its blob); GF ops on a baseline core
 *  and undecodable words trap unconditionally — all of them exit to
 *  Core::step(), which raises the exact architectural behavior. */
bool
translatable(const Instr &in, CoreKind kind)
{
    if (in.op == Op::kGfCfg)
        return false;
    if (kind == CoreKind::kBaseline && isGfOp(in.op))
        return false;
    return true;
}

} // namespace

std::string
CompiledProgram::summary() const
{
    return strprintf("%s backend, %zu block%s, %u/%zu words translated%s%s",
                  backendName(), blocks_.size(),
                  blocks_.size() == 1 ? "" : "s", translated_words_,
                  words_.size(), policy_note_.empty() ? "" : " — ",
                  policy_note_.c_str());
}

void
CompiledProgram::run(JitContext &ctx, uint32_t entry_word) const
{
    auto enter = reinterpret_cast<void (*)(JitContext *, const void *)>(
        const_cast<void *>(native_.enter));
    enter(&ctx, reinterpret_cast<const void *>(native_.entries[entry_word]));
}

const char *
nativeBackendName()
{
    return kHaveTemplates ? "x86-64" : "none";
}

std::shared_ptr<const CompiledProgram>
translate(const Program &prog, CoreKind kind, const TranslateOptions &)
{
    auto cp = std::make_shared<CompiledProgram>();
    cp->kind_ = kind;
    cp->words_ = prog.code;
    const uint32_t n = static_cast<uint32_t>(prog.code.size());
    cp->block_at_.assign(n, -1);

    // No templates for this host: no blocks, so Core::run steps every
    // instruction (bit-exact, only slower).
    if (!kHaveTemplates) {
        cp->policy_note_ = "no native backend on this host";
        return cp;
    }

    // Decode every word once; undecodable words are block barriers.
    std::vector<Instr> decoded(n);
    std::vector<bool> ok(n, false);
    for (uint32_t i = 0; i < n; ++i)
        ok[i] = tryDecode(prog.code[i], decoded[i]) &&
                translatable(decoded[i], kind);

    // Leaders, liberally: entry, every label, every direct target,
    // every word after a control transfer or an untranslatable word —
    // so indirect jumps (which can only name labels in a well-formed
    // program) and post-barrier resumption always find a block head.
    std::set<uint32_t> leaders;
    leaders.insert(0);
    for (const auto &[name, addr] : prog.symbols)
        if ((addr & 3u) == 0 && addr / 4 < n)
            leaders.insert(addr / 4);
    for (uint32_t i = 0; i < n; ++i) {
        if (!ok[i]) {
            leaders.insert(i + 1);
            continue;
        }
        const Instr &in = decoded[i];
        if (!isControlTransfer(in.op))
            continue;
        leaders.insert(i + 1);
        if (in.op != Op::kJr && in.op != Op::kRet &&
            in.op != Op::kHalt) {
            const uint32_t target =
                i + 1 + static_cast<uint32_t>(decoded[i].imm);
            if (target < n)
                leaders.insert(target);
        }
    }

    // Grow one straight-line block per translatable leader.
    for (uint32_t lead : leaders) {
        if (lead >= n || !ok[lead])
            continue;
        Block b;
        b.first = lead;
        for (uint32_t i = lead;; ++i) {
            const Instr &in = decoded[i];
            b.body.push_back(in);
            b.cls.push_back(classOf(in.op));
            if (isGfOp(in.op))
                b.has_gf = true;
            if (isControlTransfer(in.op)) {
                // Conditional terminators are costed not-taken in the
                // static base; the taken counter pays the refill delta.
                const bool always_taken = !isCondBranch(in.op);
                b.cycles.push_back(static_cast<uint8_t>(
                    cyclesFor(in.op, always_taken)));
                switch (in.op) {
                  case Op::kB:
                    b.term = TermKind::kBranch;
                    break;
                  case Op::kBl:
                    b.term = TermKind::kCall;
                    break;
                  case Op::kJr:
                  case Op::kRet:
                    b.term = TermKind::kIndirect;
                    break;
                  case Op::kHalt:
                    b.term = TermKind::kHalt;
                    break;
                  default:
                    b.term = TermKind::kCondBranch;
                    break;
                }
                if (b.term == TermKind::kBranch ||
                    b.term == TermKind::kCall ||
                    b.term == TermKind::kCondBranch)
                    b.target = i + 1 + static_cast<uint32_t>(in.imm);
                b.next = i + 1;
                break;
            }
            b.cycles.push_back(
                static_cast<uint8_t>(cyclesFor(in.op, false)));
            if (i + 1 >= n || leaders.count(i + 1) != 0 || !ok[i + 1]) {
                b.term = TermKind::kFallThrough;
                b.next = i + 1;
                break;
            }
        }
        b.len = static_cast<uint32_t>(b.body.size());
        for (uint32_t k = 0; k < b.len; ++k)
            b.base.record(b.cls[k], b.cycles[k]);
        // Table row per GF multiply: a source the block never writes
        // is the same on every pass of a loop, so its four table rows
        // stay in L1 while the other operand changes.
        uint16_t written = 0;
        for (const Instr &in : b.body)
            written |= regDefs(in);
        b.mul_row.assign(b.len, 0);
        for (uint32_t k = 0; k < b.len; ++k) {
            const Instr &in = b.body[k];
            if (in.op != Op::kGfMuls)
                continue;
            const bool fixed1 = ((written >> in.rs1) & 1u) == 0;
            const bool fixed2 = ((written >> in.rs2) & 1u) == 0;
            b.mul_row[k] = fixed1 && !fixed2 ? in.rs1 : in.rs2;
        }
        if (b.term == TermKind::kCondBranch) {
            b.taken_extra.cycles = kTakenBranchCycles - kDefaultCycles;
            b.taken_extra.branch_cycles = b.taken_extra.cycles;
        }
        cp->block_at_[b.first] = static_cast<int32_t>(cp->blocks_.size());
        cp->translated_words_ += b.len;
        cp->uses_gf_ = cp->uses_gf_ || b.has_gf;
        cp->blocks_.push_back(std::move(b));
    }

    if (cp->blocks_.empty()) {
        cp->policy_note_ = "no translatable blocks";
        return cp;
    }
    emitX64(*cp, cp->native_);
    return cp;
}

} // namespace gfp::jit
