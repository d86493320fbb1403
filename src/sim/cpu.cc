#include "sim/cpu.h"

#include "common/logging.h"
#include "isa/encoding.h"
#include "sim/cost_model.h"
#include "sim/profiler.h"
#include "sim/translation.h"

namespace gfp {

const char *
dispatchModeName(DispatchMode mode)
{
    switch (mode) {
      case DispatchMode::kPlain:      return "plain";
      case DispatchMode::kTranslated: return "translated";
    }
    return "?";
}

bool
parseDispatchMode(std::string_view name, DispatchMode &out)
{
    if (name == "plain")
        out = DispatchMode::kPlain;
    else if (name == "translated")
        out = DispatchMode::kTranslated;
    else
        return false;
    return true;
}

Core::Core(Memory &mem, CoreKind kind) : mem_(mem), kind_(kind)
{
    reset();
}

Core::~Core() = default; // here so ~Translation is complete

void
Core::setTranslation(std::unique_ptr<Translation> translation)
{
    translation_ = std::move(translation);
}

void
Core::reset(uint32_t pc)
{
    regs_.fill(0);
    regs_[kRegSp] = static_cast<uint32_t>(mem_.size()) - 16;
    pc_ = pc;
    flags_ = Flags();
    halted_ = false;
    trap_ = Trap();
    pending_trap_ = TrapKind::kNone;
    requested_trap_ = TrapKind::kNone;
}

uint32_t
Core::reg(unsigned idx) const
{
    GFP_ASSERT(idx < kNumRegs);
    return regs_[idx];
}

void
Core::setReg(unsigned idx, uint32_t value)
{
    GFP_ASSERT(idx < kNumRegs);
    regs_[idx] = value;
}

GFArithmeticUnit &
Core::gfau()
{
    GFP_ASSERT(kind_ == CoreKind::kGfProcessor,
               "baseline core has no GF arithmetic unit");
    return gfau_;
}

const GFArithmeticUnit &
Core::gfau() const
{
    GFP_ASSERT(kind_ == CoreKind::kGfProcessor);
    return gfau_;
}

void
Core::setFlagsSub(uint32_t a, uint32_t b)
{
    uint32_t r = a - b;
    flags_.n = (r >> 31) & 1;
    flags_.z = r == 0;
    flags_.c = a >= b; // ARM convention: C set means "no borrow"
    flags_.v = (((a ^ b) & (a ^ r)) >> 31) & 1;
}

bool
Core::condition(Op op) const
{
    switch (op) {
      case Op::kB:
      case Op::kBl:
        return true;
      case Op::kBeq: return flags_.z;
      case Op::kBne: return !flags_.z;
      case Op::kBlt: return flags_.n != flags_.v;
      case Op::kBge: return flags_.n == flags_.v;
      case Op::kBgt: return !flags_.z && flags_.n == flags_.v;
      case Op::kBle: return flags_.z || flags_.n != flags_.v;
      case Op::kBlo: return !flags_.c;
      case Op::kBhs: return flags_.c;
      case Op::kBhi: return flags_.c && !flags_.z;
      case Op::kBls: return !flags_.c || flags_.z;
      default:
        GFP_PANIC("condition() on non-branch %s", opName(op));
    }
}

unsigned
Core::execute(const Instr &in)
{
    auto &r = regs_;
    const uint32_t next_pc = pc_ + 4;
    uint32_t new_pc = next_pc;
    bool taken = false;

    if (isGfOp(in.op) && kind_ == CoreKind::kBaseline) {
        pending_trap_ = TrapKind::kGfOnBaseline;
        pending_addr_ = static_cast<uint32_t>(in.op);
        return 0;
    }
    // An SEU in the m field of the live config register leaves the
    // datapath in an undefined mode: detect it at the next GF
    // instruction (gfcfg excepted — reloading is how software scrubs).
    if (isGfOp(in.op) && in.op != Op::kGfCfg &&
        kind_ == CoreKind::kGfProcessor && !gfau_.configValid()) {
        pending_trap_ = TrapKind::kGfConfigCorrupt;
        pending_addr_ = 0;
        return 0;
    }

    switch (in.op) {
      case Op::kAdd: r[in.rd] = r[in.rs1] + r[in.rs2]; break;
      case Op::kSub: r[in.rd] = r[in.rs1] - r[in.rs2]; break;
      case Op::kAnd: r[in.rd] = r[in.rs1] & r[in.rs2]; break;
      case Op::kOrr: r[in.rd] = r[in.rs1] | r[in.rs2]; break;
      case Op::kEor: r[in.rd] = r[in.rs1] ^ r[in.rs2]; break;
      case Op::kLsl: r[in.rd] = r[in.rs1] << (r[in.rs2] & 31); break;
      case Op::kLsr: r[in.rd] = r[in.rs1] >> (r[in.rs2] & 31); break;
      case Op::kAsr:
        r[in.rd] = static_cast<uint32_t>(
            static_cast<int32_t>(r[in.rs1]) >> (r[in.rs2] & 31));
        break;
      case Op::kMul: r[in.rd] = r[in.rs1] * r[in.rs2]; break;
      case Op::kMov: r[in.rd] = r[in.rs1]; break;
      case Op::kCmp: setFlagsSub(r[in.rs1], r[in.rs2]); break;

      case Op::kAddi: r[in.rd] = r[in.rs1] + static_cast<uint32_t>(in.imm); break;
      case Op::kSubi: r[in.rd] = r[in.rs1] - static_cast<uint32_t>(in.imm); break;
      case Op::kAndi: r[in.rd] = r[in.rs1] & static_cast<uint32_t>(in.imm); break;
      case Op::kOrri: r[in.rd] = r[in.rs1] | static_cast<uint32_t>(in.imm); break;
      case Op::kEori: r[in.rd] = r[in.rs1] ^ static_cast<uint32_t>(in.imm); break;
      case Op::kLsli: r[in.rd] = r[in.rs1] << (in.imm & 31); break;
      case Op::kLsri: r[in.rd] = r[in.rs1] >> (in.imm & 31); break;
      case Op::kAsri:
        r[in.rd] = static_cast<uint32_t>(
            static_cast<int32_t>(r[in.rs1]) >> (in.imm & 31));
        break;
      case Op::kMovi: r[in.rd] = static_cast<uint32_t>(in.imm) & 0xffff; break;
      case Op::kMovt:
        r[in.rd] = (r[in.rd] & 0xffff) |
                   ((static_cast<uint32_t>(in.imm) & 0xffff) << 16);
        break;
      case Op::kCmpi: setFlagsSub(r[in.rs1], static_cast<uint32_t>(in.imm)); break;

      case Op::kLdr:
        r[in.rd] = mem_.read32(r[in.rs1] + static_cast<uint32_t>(in.imm));
        break;
      case Op::kStr:
        mem_.write32(r[in.rs1] + static_cast<uint32_t>(in.imm), r[in.rd]);
        break;
      case Op::kLdrb:
        r[in.rd] = mem_.read8(r[in.rs1] + static_cast<uint32_t>(in.imm));
        break;
      case Op::kStrb:
        mem_.write8(r[in.rs1] + static_cast<uint32_t>(in.imm),
                    static_cast<uint8_t>(r[in.rd]));
        break;
      case Op::kLdrh:
        r[in.rd] = mem_.read16(r[in.rs1] + static_cast<uint32_t>(in.imm));
        break;
      case Op::kStrh:
        mem_.write16(r[in.rs1] + static_cast<uint32_t>(in.imm),
                     static_cast<uint16_t>(r[in.rd]));
        break;
      case Op::kLdrr:
        r[in.rd] = mem_.read32(r[in.rs1] + r[in.rs2]);
        break;
      case Op::kStrr:
        mem_.write32(r[in.rs1] + r[in.rs2], r[in.rd]);
        break;
      case Op::kLdrbr:
        r[in.rd] = mem_.read8(r[in.rs1] + r[in.rs2]);
        break;
      case Op::kStrbr:
        mem_.write8(r[in.rs1] + r[in.rs2], static_cast<uint8_t>(r[in.rd]));
        break;
      case Op::kLdrhr:
        r[in.rd] = mem_.read16(r[in.rs1] + r[in.rs2]);
        break;
      case Op::kStrhr:
        mem_.write16(r[in.rs1] + r[in.rs2], static_cast<uint16_t>(r[in.rd]));
        break;

      case Op::kB:
      case Op::kBeq:
      case Op::kBne:
      case Op::kBlt:
      case Op::kBge:
      case Op::kBgt:
      case Op::kBle:
      case Op::kBlo:
      case Op::kBhs:
      case Op::kBhi:
      case Op::kBls:
      case Op::kBl:
        taken = condition(in.op);
        if (taken) {
            if (in.op == Op::kBl)
                r[kRegLr] = next_pc;
            new_pc = next_pc + static_cast<uint32_t>(in.imm) * 4;
        }
        break;
      case Op::kJr:
        new_pc = r[in.rs1];
        break;
      case Op::kRet:
        new_pc = r[kRegLr];
        break;
      case Op::kNop:
        break;
      case Op::kHalt:
        halted_ = true;
        break;

      case Op::kGfMuls:
        r[in.rd] = gfau_.simdMult(r[in.rs1], r[in.rs2]);
        break;
      case Op::kGfInvs:
        r[in.rd] = gfau_.simdInverse(r[in.rs1]);
        break;
      case Op::kGfSqs:
        r[in.rd] = gfau_.simdSquare(r[in.rs1]);
        break;
      case Op::kGfPows:
        r[in.rd] = gfau_.simdPower(r[in.rs1], r[in.rs2]);
        break;
      case Op::kGfAdds:
        r[in.rd] = gfau_.simdAdd(r[in.rs1], r[in.rs2]);
        break;
      case Op::kGf32Mul: {
        uint32_t hi, lo;
        gfau_.mult32(r[in.rs1], r[in.rs2], hi, lo);
        r[in.rd] = hi;
        r[in.rd2] = lo;
        break;
      }
      case Op::kGfCfg: {
        uint64_t blob = mem_.read64(static_cast<uint32_t>(in.imm));
        GFConfig cfg;
        if (!GFConfig::tryUnpack(blob, cfg)) {
            pending_trap_ = TrapKind::kGfConfigCorrupt;
            pending_addr_ = static_cast<uint32_t>(in.imm);
            return 0;
        }
        gfau_.loadConfig(cfg);
        break;
      }

      default:
        GFP_PANIC("unhandled opcode %s", opName(in.op));
    }

    pc_ = new_pc;
    return cyclesFor(in.op, taken);
}

Core::StepResult
Core::takeTrap(TrapKind kind, uint32_t addr)
{
    trap_ = Trap{kind, pc_, addr, stats_.cycles};
    StepResult out;
    out.trap = trap_;
    return out;
}

void
Core::enablePredecode(uint32_t code_bytes)
{
    predecode_enabled_ = true;
    if (code_bytes > mem_.size())
        code_bytes = static_cast<uint32_t>(mem_.size());
    predecode_limit_ = code_bytes & ~3u;
    mem_.watchCode(predecode_limit_);
    rebuildPredecode();
}

void
Core::disablePredecode()
{
    predecode_enabled_ = false;
    predecode_limit_ = 0;
    mem_.watchCode(0);
    icache_.clear();
}

void
Core::rebuildPredecode()
{
    icache_.assign(predecode_limit_ / 4, PredecodedWord());
    for (uint32_t i = 0; i < predecode_limit_ / 4; ++i) {
        PredecodedWord &p = icache_[i];
        p.valid = tryDecode(mem_.read32(4 * i), p.in);
        if (p.valid)
            p.cls = classOf(p.in.op);
    }
    predecode_epoch_ = mem_.codeEpoch();
}

Core::StepResult
Core::step()
{
    GFP_ASSERT(!stopped(), "step() on a stopped core");

    // A fault hook asked for a trap (e.g. a parity-signaled SEU):
    // deliver it before fetching the next instruction.
    if (requested_trap_ != TrapKind::kNone) {
        TrapKind kind = requested_trap_;
        requested_trap_ = TrapKind::kNone;
        return takeTrap(kind, 0);
    }

    // Fast fetch through the predecoded-instruction cache; anything it
    // cannot serve (stale cache, pc outside or unaligned with the code
    // region, undecodable word) diverts to the memory fetch below.
    const Instr *fetched = nullptr;
    InstrClass cls = InstrClass::kAlu;
    if (predecode_enabled_) {
        if (predecode_epoch_ != mem_.codeEpoch())
            rebuildPredecode();
        if (pc_ < predecode_limit_ && (pc_ & 3u) == 0) {
            const PredecodedWord &p = icache_[pc_ >> 2];
            if (p.valid) {
                fetched = &p.in;
                cls = p.cls;
            }
        }
    }

    Instr slow;
    if (!fetched) {
        uint32_t word;
        try {
            word = mem_.read32(pc_);
        } catch (const MemoryFault &f) {
            return takeTrap(TrapKind::kOutOfRangeAccess, f.addr());
        }
        if (!tryDecode(word, slow))
            return takeTrap(TrapKind::kIllegalInstruction, word);
        fetched = &slow;
        cls = classOf(slow.op);
    }
    const Instr &in = *fetched;
    if (trace_)
        trace_(pc_, in);
    const uint32_t retire_pc = pc_;

    StepResult out;
    try {
        out.cycles = execute(in);
    } catch (const MemoryFault &f) {
        return takeTrap(TrapKind::kOutOfRangeAccess, f.addr());
    }
    if (pending_trap_ != TrapKind::kNone) {
        TrapKind kind = pending_trap_;
        pending_trap_ = TrapKind::kNone;
        return takeTrap(kind, pending_addr_);
    }

    stats_.record(cls, out.cycles);
    if (profile_)
        profile_->record(retire_pc, cls, out.cycles);
    if (fault_hook_)
        fault_hook_(*this, stats_.cycles);
    return out;
}

RunResult
Core::run(uint64_t max_instrs)
{
    CycleStats before = stats_;
    RunResult res;
    if (trap_) {
        // A trapped core stays trapped until reset(): report the same
        // trap again instead of re-executing.
        res.trap = trap_;
        return res;
    }
    // Translated dispatch runs the blocks the JIT compiled and exits at
    // anything it did not (or no longer may) cover — a gfcfg barrier, a
    // pc that heads no block, a stale translation after a code-epoch
    // bump, a deopt.  step() then executes exactly one instruction —
    // raising any architectural trap — before the loop offers the JIT
    // the new pc again, so progress is always made.  Trace and fault
    // hooks need every retire, so they keep the whole run on step();
    // the code watch that keeps a translation honest under SMC comes
    // with predecode, so the JIT needs that too.
    const bool translated = dispatch_mode_ == DispatchMode::kTranslated &&
                            translation_ != nullptr && predecode_enabled_ &&
                            !trace_ && !fault_hook_;
    while (!halted_) {
        if (translated && requested_trap_ == TrapKind::kNone) {
            translation_->run(*this, res, max_instrs);
            if (halted_)
                break;
        }
        if (res.instrs >= max_instrs) {
            // Runaway guard: report a Watchdog trap but leave the core
            // runnable — whether to grant more instructions is host
            // policy, not core state.
            res.trap = Trap{TrapKind::kWatchdog, pc_, 0, stats_.cycles};
            break;
        }
        StepResult s = step();
        if (s.trap) {
            res.trap = s.trap;
            break;
        }
        ++res.instrs;
    }
    res.halted = halted_;
    res.stats = stats_ - before;
    return res;
}

void
Core::injectFault(FaultTarget target, uint32_t index, unsigned bit)
{
    switch (target) {
      case FaultTarget::kDataMemory:
        mem_.flipBit(index % static_cast<uint32_t>(mem_.size()), bit);
        ++stats_.faults_mem;
        break;
      case FaultTarget::kRegisterFile:
        regs_[index % kNumRegs] ^= 1u << (bit % 32);
        ++stats_.faults_reg;
        break;
      case FaultTarget::kConfigReg:
        GFP_ASSERT(kind_ == CoreKind::kGfProcessor,
                   "config-register fault on a baseline core");
        gfau_.injectConfigBitFlip(bit);
        ++stats_.faults_cfg;
        break;
    }
}

} // namespace gfp
