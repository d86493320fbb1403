/**
 * @file
 * x86-64 template backend.
 *
 * Copy-patches one short host-code template per guest instruction into
 * a W^X code cache.  Host register convention (SysV, all callee-saved
 * so the GF helper calls need no spills):
 *
 *   rbx  JitContext*            r14  guest memory size
 *   r12  guest register file    r15  remaining watchdog budget
 *   r13  guest memory base
 *
 * Guest NZCV lives in the context's flag bytes: `cmp` templates end in
 * four setcc stores (sets/setz/setae/seto map exactly to the guest's
 * n/z/c/v definitions), conditional branches re-test the bytes.  That
 * keeps flags correct across helper calls and across every exit
 * without a sync step.
 *
 * Every template carries the guards that keep it equal to Core::step(),
 * the semantic reference: block budget at entry, bounds on every
 * access, watch-limit on every store, entry-table membership on every
 * indirect branch.  Guard failures jump to per-instruction deopt stubs
 * emitted after each block, which record (pc, block, k) and leave
 * through the shared epilogue with nothing committed for the faulting
 * instruction, so step() re-executes it.  The dispatch differential
 * suite checks the result against plain stepping.
 */

#include <cstring>

#include "common/logging.h"
#include "jit/code_cache.h"
#include "jit/gf_tables.h"
#include "jit/translator.h"

namespace gfp::jit {

namespace {

// Context-field byte offsets (static_asserted in jit/context.h).
constexpr uint8_t kOffMemSize = 16;  // unused: cached in r14
constexpr uint8_t kOffWatch = 24;
constexpr uint8_t kOffBudget = 32;
constexpr uint8_t kOffExec = 40;
constexpr uint8_t kOffTaken = 48;
constexpr uint8_t kOffEntries = 56;
constexpr uint8_t kOffGf = 64;
constexpr uint8_t kOffFlagN = 72;
constexpr uint8_t kOffFlagZ = 73;
constexpr uint8_t kOffFlagC = 74;
constexpr uint8_t kOffFlagV = 75;
constexpr uint8_t kOffExitPc = 76;
constexpr uint8_t kOffExitReason = 80;
constexpr uint8_t kOffDeoptBlock = 84;
constexpr uint8_t kOffDeoptK = 88;
constexpr uint8_t kOffDirtyLo = 96;
constexpr uint8_t kOffDirtyHi = 104;

// jcc condition nibbles (0F 8x rel32).
constexpr uint8_t kCcB = 0x2;  // unsigned <
constexpr uint8_t kCcAe = 0x3; // unsigned >=
constexpr uint8_t kCcE = 0x4;
constexpr uint8_t kCcNe = 0x5;
constexpr uint8_t kCcBe = 0x6; // unsigned <=
constexpr uint8_t kCcA = 0x7;  // unsigned >

/** Minimal one-pass assembler: rel32 labels, byte emission. */
class Asm
{
  public:
    std::vector<uint8_t> buf;

    size_t
    newLabel()
    {
        labels_.push_back(-1);
        return labels_.size() - 1;
    }

    void
    bind(size_t label)
    {
        GFP_ASSERT(labels_[label] < 0, "label bound twice");
        labels_[label] = static_cast<int64_t>(buf.size());
    }

    void u8(uint8_t v) { buf.push_back(v); }
    void
    u32(uint32_t v)
    {
        for (int i = 0; i < 4; ++i)
            buf.push_back(static_cast<uint8_t>(v >> (8 * i)));
    }
    void
    u64(uint64_t v)
    {
        for (int i = 0; i < 8; ++i)
            buf.push_back(static_cast<uint8_t>(v >> (8 * i)));
    }

    /** jmp rel32 to @p label. */
    void
    jmp(size_t label)
    {
        u8(0xE9);
        ref(label);
    }

    /** jcc rel32 to @p label. */
    void
    jcc(uint8_t cc, size_t label)
    {
        u8(0x0F);
        u8(0x80 | cc);
        ref(label);
    }

    /** Patch every label reference; all labels must be bound. */
    void
    finalize()
    {
        for (const Fixup &f : fixups_) {
            const int64_t at = labels_[f.label];
            GFP_ASSERT(at >= 0, "unbound jit label");
            const int64_t rel = at - static_cast<int64_t>(f.at) - 4;
            GFP_ASSERT(rel >= INT32_MIN && rel <= INT32_MAX,
                       "jit branch out of rel32 range");
            const uint32_t r = static_cast<uint32_t>(rel);
            for (int i = 0; i < 4; ++i)
                buf[f.at + i] = static_cast<uint8_t>(r >> (8 * i));
        }
        fixups_.clear();
    }

  private:
    struct Fixup
    {
        size_t at;
        size_t label;
    };

    void
    ref(size_t label)
    {
        fixups_.push_back({buf.size(), label});
        u32(0);
    }

    std::vector<int64_t> labels_;
    std::vector<Fixup> fixups_;
};

/** The per-program emitter state. */
struct Emitter
{
    Asm a;
    const CompiledProgram &cp;
    size_t exit_label;                ///< shared epilogue
    std::vector<size_t> block_label;  ///< one per block

    explicit Emitter(const CompiledProgram &c) : cp(c), exit_label(0) {}

    // --- tiny template library -------------------------------------

    /** mov eax/ecx/edx, [r12 + 4*greg] (reg = 0/1/2). */
    void
    loadGuest(uint8_t hostreg, unsigned greg)
    {
        a.u8(0x41);
        a.u8(0x8B);
        a.u8(0x44 | (hostreg << 3));
        a.u8(0x24);
        a.u8(static_cast<uint8_t>(4 * greg));
    }

    /** mov [r12 + 4*greg], eax/ecx/edx. */
    void
    storeGuest(unsigned greg, uint8_t hostreg)
    {
        a.u8(0x41);
        a.u8(0x89);
        a.u8(0x44 | (hostreg << 3));
        a.u8(0x24);
        a.u8(static_cast<uint8_t>(4 * greg));
    }

    /** op eax, [r12 + 4*greg] — @p opcode is the r32, r/m32 form. */
    void
    aluGuest(uint8_t opcode, unsigned greg)
    {
        a.u8(0x41);
        a.u8(opcode);
        a.u8(0x44);
        a.u8(0x24);
        a.u8(static_cast<uint8_t>(4 * greg));
    }

    /** op eax, imm32 — @p opcode is the eax-short-form. */
    void
    aluImm(uint8_t opcode, uint32_t imm)
    {
        a.u8(opcode);
        a.u32(imm);
    }

    /** mov dword [rbx + off8], imm32. */
    void
    movCtx32(uint8_t off, uint32_t imm)
    {
        a.u8(0xC7);
        a.u8(0x43);
        a.u8(off);
        a.u32(imm);
    }

    /** Record an exit: exit_pc/exit_reason, then the epilogue. */
    void
    exitWith(uint32_t pc, uint32_t reason)
    {
        movCtx32(kOffExitPc, pc);
        movCtx32(kOffExitReason, reason);
        a.jmp(exit_label);
    }

    /** Continue at word @p w: direct jump if translated, exit if not. */
    void
    resolve(uint32_t w)
    {
        const int32_t nb = cp.blockAt(w);
        if (nb >= 0)
            a.jmp(block_label[static_cast<size_t>(nb)]);
        else
            exitWith(w * 4, kExitExternal);
    }

    /** add qword [rax + 8*idx], 1 — counter bump, rax = table base. */
    void
    bumpCounter(uint32_t idx)
    {
        a.u8(0x48);
        a.u8(0x83);
        a.u8(0x80);
        a.u32(8 * idx);
        a.u8(0x01);
    }

    /** cmp byte [rbx + off8], 0. */
    void
    cmpFlagZero(uint8_t off)
    {
        a.u8(0x80);
        a.u8(0x7B);
        a.u8(off);
        a.u8(0x00);
    }

    /** mov al, [rbx+n]; cmp al, [rbx+v]. */
    void
    cmpFlagPair(uint8_t off_a, uint8_t off_b)
    {
        a.u8(0x8A);
        a.u8(0x43);
        a.u8(off_a);
        a.u8(0x3A);
        a.u8(0x43);
        a.u8(off_b);
    }

    /** The four setcc stores after a cmp: n/z/c/v into the context. */
    void
    setFlags()
    {
        static constexpr uint8_t cc[4] = {0x98, 0x94, 0x93, 0x90};
        static constexpr uint8_t off[4] = {kOffFlagN, kOffFlagZ,
                                           kOffFlagC, kOffFlagV};
        for (int i = 0; i < 4; ++i) {
            a.u8(0x0F);
            a.u8(cc[i]);
            a.u8(0x43);
            a.u8(off[i]);
        }
    }

    /** mov rax, imm64; call rax. */
    void
    callAbs(const void *fn)
    {
        a.u8(0x48);
        a.u8(0xB8);
        a.u64(reinterpret_cast<uint64_t>(fn));
        a.u8(0xFF);
        a.u8(0xD0);
    }

    /** mov rdi, [rbx + kOffGf] — helper table argument. */
    void
    loadGfArg()
    {
        a.u8(0x48);
        a.u8(0x8B);
        a.u8(0x7B);
        a.u8(kOffGf);
    }

    /** mov esi/edx/edi, [r12 + 4*greg] for helper args. */
    void
    loadArg(uint8_t hostreg, unsigned greg)
    {
        // hostreg: 7 = edi, 6 = esi, 2 = edx
        a.u8(0x41);
        a.u8(0x8B);
        a.u8(0x44 | (hostreg << 3));
        a.u8(0x24);
        a.u8(static_cast<uint8_t>(4 * greg));
    }

    // --- per-instruction emission ----------------------------------

    /**
     * Address formation + bounds guard shared by loads and stores:
     * eax = rs1 + (imm | r[rs2]); rcx = addr + bytes; deopt unless
     * rcx <= mem_size.  Leaves the address zero-extended in rax.
     */
    void
    emitAddress(const Instr &in, bool reg_offset, unsigned bytes,
                size_t deopt)
    {
        loadGuest(0, in.rs1); // eax
        if (reg_offset)
            aluGuest(0x03, in.rs2); // add eax, [r12+4*rs2]
        else if (in.imm != 0)
            aluImm(0x05, static_cast<uint32_t>(in.imm));
        // lea rcx, [rax + bytes]
        a.u8(0x48);
        a.u8(0x8D);
        a.u8(0x48);
        a.u8(static_cast<uint8_t>(bytes));
        // cmp rcx, r14 ; ja deopt
        a.u8(0x4C);
        a.u8(0x39);
        a.u8(0xF1);
        a.jcc(kCcA, deopt);
    }

    void
    emitLoad(const Instr &in, bool reg_offset, unsigned bytes,
             size_t deopt)
    {
        emitAddress(in, reg_offset, bytes, deopt);
        // load edx from [r13 + rax]
        switch (bytes) {
          case 1: // movzx edx, byte [r13+rax]
            a.u8(0x41);
            a.u8(0x0F);
            a.u8(0xB6);
            a.u8(0x54);
            a.u8(0x05);
            a.u8(0x00);
            break;
          case 2: // movzx edx, word [r13+rax]
            a.u8(0x41);
            a.u8(0x0F);
            a.u8(0xB7);
            a.u8(0x54);
            a.u8(0x05);
            a.u8(0x00);
            break;
          default: // mov edx, [r13+rax]
            a.u8(0x41);
            a.u8(0x8B);
            a.u8(0x54);
            a.u8(0x05);
            a.u8(0x00);
            break;
        }
        storeGuest(in.rd, 2); // mov [r12+4*rd], edx
    }

    void
    emitStore(const Instr &in, bool reg_offset, unsigned bytes,
              size_t deopt)
    {
        emitAddress(in, reg_offset, bytes, deopt);
        // Watched code region: cmp rax, [rbx+kOffWatch]; jb deopt
        a.u8(0x48);
        a.u8(0x3B);
        a.u8(0x43);
        a.u8(kOffWatch);
        a.jcc(kCcB, deopt);
        // dirty_lo = min(dirty_lo, rax)
        size_t skip_lo = a.newLabel();
        a.u8(0x48); // cmp rax, [rbx+kOffDirtyLo]
        a.u8(0x3B);
        a.u8(0x43);
        a.u8(kOffDirtyLo);
        a.jcc(kCcAe, skip_lo);
        a.u8(0x48); // mov [rbx+kOffDirtyLo], rax
        a.u8(0x89);
        a.u8(0x43);
        a.u8(kOffDirtyLo);
        a.bind(skip_lo);
        // dirty_hi = max(dirty_hi, rcx)
        size_t skip_hi = a.newLabel();
        a.u8(0x48); // cmp rcx, [rbx+kOffDirtyHi]
        a.u8(0x3B);
        a.u8(0x4B);
        a.u8(kOffDirtyHi);
        a.jcc(kCcBe, skip_hi);
        a.u8(0x48); // mov [rbx+kOffDirtyHi], rcx
        a.u8(0x89);
        a.u8(0x4B);
        a.u8(kOffDirtyHi);
        a.bind(skip_hi);
        // value from r[rd] (the value register of stores), then commit
        loadGuest(2, in.rd); // edx
        switch (bytes) {
          case 1: // mov [r13+rax], dl
            a.u8(0x41);
            a.u8(0x88);
            a.u8(0x54);
            a.u8(0x05);
            a.u8(0x00);
            break;
          case 2: // mov [r13+rax], dx
            a.u8(0x66);
            a.u8(0x41);
            a.u8(0x89);
            a.u8(0x54);
            a.u8(0x05);
            a.u8(0x00);
            break;
          default: // mov [r13+rax], edx
            a.u8(0x41);
            a.u8(0x89);
            a.u8(0x54);
            a.u8(0x05);
            a.u8(0x00);
            break;
        }
    }

    /** Shift by cl (reg count) or imm; @p ext is the /r extension. */
    void
    emitShiftReg(const Instr &in, uint8_t ext)
    {
        loadGuest(1, in.rs2); // ecx (count; hardware masks by 31)
        loadGuest(0, in.rs1);
        a.u8(0xD3);
        a.u8(0xE0 | (ext << 3)); // shl/shr/sar eax, cl
        storeGuest(in.rd, 0);
    }

    void
    emitShiftImm(const Instr &in, uint8_t ext)
    {
        loadGuest(0, in.rs1);
        a.u8(0xC1);
        a.u8(0xE0 | (ext << 3));
        a.u8(static_cast<uint8_t>(in.imm & 31));
        storeGuest(in.rd, 0);
    }

    /** One body instruction (not a control-transfer terminator). */
    void
    emitInstr(const Instr &in, size_t deopt)
    {
        switch (in.op) {
          case Op::kAdd:
          case Op::kSub:
          case Op::kAnd:
          case Op::kOrr:
          case Op::kEor: {
            static constexpr uint8_t opc[] = {0x03, 0x2B, 0x23, 0x0B,
                                              0x33};
            loadGuest(0, in.rs1);
            aluGuest(opc[static_cast<int>(in.op) -
                         static_cast<int>(Op::kAdd)],
                     in.rs2);
            storeGuest(in.rd, 0);
            break;
          }
          case Op::kMul:
            loadGuest(0, in.rs1);
            // imul eax, [r12+4*rs2]
            a.u8(0x41);
            a.u8(0x0F);
            a.u8(0xAF);
            a.u8(0x44);
            a.u8(0x24);
            a.u8(static_cast<uint8_t>(4 * in.rs2));
            storeGuest(in.rd, 0);
            break;
          case Op::kLsl: emitShiftReg(in, 4); break;
          case Op::kLsr: emitShiftReg(in, 5); break;
          case Op::kAsr: emitShiftReg(in, 7); break;
          case Op::kMov:
            loadGuest(0, in.rs1);
            storeGuest(in.rd, 0);
            break;
          case Op::kCmp:
            loadGuest(0, in.rs1);
            aluGuest(0x3B, in.rs2);
            setFlags();
            break;

          case Op::kAddi:
          case Op::kSubi:
          case Op::kAndi:
          case Op::kOrri:
          case Op::kEori: {
            static constexpr uint8_t opc[] = {0x05, 0x2D, 0x25, 0x0D,
                                              0x35};
            loadGuest(0, in.rs1);
            aluImm(opc[static_cast<int>(in.op) -
                       static_cast<int>(Op::kAddi)],
                   static_cast<uint32_t>(in.imm));
            storeGuest(in.rd, 0);
            break;
          }
          case Op::kLsli: emitShiftImm(in, 4); break;
          case Op::kLsri: emitShiftImm(in, 5); break;
          case Op::kAsri: emitShiftImm(in, 7); break;
          case Op::kMovi:
            // mov dword [r12+4*rd], imm
            a.u8(0x41);
            a.u8(0xC7);
            a.u8(0x44);
            a.u8(0x24);
            a.u8(static_cast<uint8_t>(4 * in.rd));
            a.u32(static_cast<uint32_t>(in.imm) & 0xffff);
            break;
          case Op::kMovt:
            loadGuest(0, in.rd);
            aluImm(0x25, 0xffff); // and eax, 0xffff
            aluImm(0x0D, (static_cast<uint32_t>(in.imm) & 0xffff)
                             << 16); // or eax, hi
            storeGuest(in.rd, 0);
            break;
          case Op::kCmpi:
            loadGuest(0, in.rs1);
            aluImm(0x3D, static_cast<uint32_t>(in.imm));
            setFlags();
            break;

          case Op::kLdr:  emitLoad(in, false, 4, deopt); break;
          case Op::kLdrh: emitLoad(in, false, 2, deopt); break;
          case Op::kLdrb: emitLoad(in, false, 1, deopt); break;
          case Op::kLdrr:  emitLoad(in, true, 4, deopt); break;
          case Op::kLdrhr: emitLoad(in, true, 2, deopt); break;
          case Op::kLdrbr: emitLoad(in, true, 1, deopt); break;
          case Op::kStr:  emitStore(in, false, 4, deopt); break;
          case Op::kStrh: emitStore(in, false, 2, deopt); break;
          case Op::kStrb: emitStore(in, false, 1, deopt); break;
          case Op::kStrr:  emitStore(in, true, 4, deopt); break;
          case Op::kStrhr: emitStore(in, true, 2, deopt); break;
          case Op::kStrbr: emitStore(in, true, 1, deopt); break;

          case Op::kNop:
            break;

          case Op::kGfMuls:
            loadGfArg();
            loadArg(6, in.rs1); // esi
            loadArg(2, in.rs2); // edx
            callAbs(reinterpret_cast<const void *>(&gfp_jit_gfmuls));
            storeGuest(in.rd, 0);
            break;
          case Op::kGfSqs:
            loadGfArg();
            loadArg(6, in.rs1);
            callAbs(reinterpret_cast<const void *>(&gfp_jit_gfsqs));
            storeGuest(in.rd, 0);
            break;
          case Op::kGfInvs:
            loadGfArg();
            loadArg(6, in.rs1);
            callAbs(reinterpret_cast<const void *>(&gfp_jit_gfinvs));
            storeGuest(in.rd, 0);
            break;
          case Op::kGfPows:
            loadGfArg();
            loadArg(6, in.rs1);
            loadArg(2, in.rs2);
            callAbs(reinterpret_cast<const void *>(&gfp_jit_gfpows));
            storeGuest(in.rd, 0);
            break;
          case Op::kGfAdds:
            loadGuest(0, in.rs1);
            aluGuest(0x33, in.rs2); // xor — carry-less lane add
            storeGuest(in.rd, 0);
            break;
          case Op::kGf32Mul:
            loadArg(7, in.rs1); // edi
            loadArg(6, in.rs2); // esi
            callAbs(reinterpret_cast<const void *>(&gfp_jit_gf32mul));
            // rcx = rax >> 32 (hi); write hi to rd first, lo to rd2 —
            // rd == rd2 keeps the low word, like the interpreter.
            a.u8(0x48); // mov rcx, rax
            a.u8(0x89);
            a.u8(0xC1);
            a.u8(0x48); // shr rcx, 32
            a.u8(0xC1);
            a.u8(0xE9);
            a.u8(0x20);
            storeGuest(in.rd, 1);  // hi (ecx)
            storeGuest(in.rd2, 0); // lo (eax)
            break;

          default:
            GFP_FATAL("unexpected op in jit block body");
        }
    }

    /** Branch-taken test for a conditional terminator: jump to
     *  @p taken / @p not_taken per the guest flag bytes, falling
     *  through means not taken. */
    void
    emitCondTest(Op op, size_t taken, size_t not_taken)
    {
        switch (op) {
          case Op::kBeq:
            cmpFlagZero(kOffFlagZ);
            a.jcc(kCcNe, taken);
            break;
          case Op::kBne:
            cmpFlagZero(kOffFlagZ);
            a.jcc(kCcE, taken);
            break;
          case Op::kBlo:
            cmpFlagZero(kOffFlagC);
            a.jcc(kCcE, taken);
            break;
          case Op::kBhs:
            cmpFlagZero(kOffFlagC);
            a.jcc(kCcNe, taken);
            break;
          case Op::kBlt:
            cmpFlagPair(kOffFlagN, kOffFlagV);
            a.jcc(kCcNe, taken);
            break;
          case Op::kBge:
            cmpFlagPair(kOffFlagN, kOffFlagV);
            a.jcc(kCcE, taken);
            break;
          case Op::kBgt:
            cmpFlagZero(kOffFlagZ);
            a.jcc(kCcNe, not_taken);
            cmpFlagPair(kOffFlagN, kOffFlagV);
            a.jcc(kCcE, taken);
            break;
          case Op::kBle:
            cmpFlagZero(kOffFlagZ);
            a.jcc(kCcNe, taken);
            cmpFlagPair(kOffFlagN, kOffFlagV);
            a.jcc(kCcNe, taken);
            break;
          case Op::kBhi:
            cmpFlagZero(kOffFlagC);
            a.jcc(kCcE, not_taken);
            cmpFlagZero(kOffFlagZ);
            a.jcc(kCcE, taken);
            break;
          case Op::kBls:
            cmpFlagZero(kOffFlagC);
            a.jcc(kCcE, taken);
            cmpFlagZero(kOffFlagZ);
            a.jcc(kCcNe, taken);
            break;
          default:
            GFP_FATAL("not a conditional branch");
        }
    }

    void
    emitBlock(uint32_t bi)
    {
        const Block &b = cp.blocks()[bi];
        a.bind(block_label[bi]);

        // Budget gate: the whole block retires or none of it starts.
        size_t fits = a.newLabel();
        a.u8(0x49); // cmp r15, imm32
        a.u8(0x81);
        a.u8(0xFF);
        a.u32(b.len);
        a.jcc(kCcAe, fits);
        exitWith(b.first * 4, kExitBudget);
        a.bind(fits);
        a.u8(0x49); // sub r15, imm32
        a.u8(0x81);
        a.u8(0xEF);
        a.u32(b.len);
        // mov rax, [rbx+kOffExec]; add qword [rax+8*bi], 1
        a.u8(0x48);
        a.u8(0x8B);
        a.u8(0x43);
        a.u8(kOffExec);
        bumpCounter(bi);

        // Per-instruction deopt stubs, emitted after the terminator.
        std::vector<std::pair<size_t, uint32_t>> deopts;
        const uint32_t body_len =
            b.term == TermKind::kFallThrough ? b.len : b.len - 1;
        for (uint32_t k = 0; k < body_len; ++k) {
            size_t deopt = a.newLabel();
            deopts.emplace_back(deopt, k);
            emitInstr(b.body[k], deopt);
        }

        switch (b.term) {
          case TermKind::kFallThrough:
            resolve(b.next);
            break;
          case TermKind::kBranch:
            resolve(b.target);
            break;
          case TermKind::kCondBranch: {
            size_t taken = a.newLabel();
            size_t not_taken = a.newLabel();
            emitCondTest(b.body.back().op, taken, not_taken);
            a.bind(not_taken);
            resolve(b.next);
            a.bind(taken);
            a.u8(0x48); // mov rax, [rbx+kOffTaken]
            a.u8(0x8B);
            a.u8(0x43);
            a.u8(kOffTaken);
            bumpCounter(bi);
            resolve(b.target);
            break;
          }
          case TermKind::kCall:
            // lr = return address
            a.u8(0x41);
            a.u8(0xC7);
            a.u8(0x44);
            a.u8(0x24);
            a.u8(static_cast<uint8_t>(4 * kRegLr));
            a.u32((b.first + b.len) * 4);
            resolve(b.target);
            break;
          case TermKind::kIndirect: {
            const Instr &in = b.body.back();
            const unsigned src = in.op == Op::kRet ? kRegLr : in.rs1;
            size_t ext = a.newLabel();
            loadGuest(0, src); // eax = target pc
            a.u8(0xA8);        // test al, 3
            a.u8(0x03);
            a.jcc(kCcNe, ext);
            // cmp rax, code_bytes ; jae ext
            a.u8(0x48);
            a.u8(0x3D);
            a.u32(static_cast<uint32_t>(cp.words().size() * 4));
            a.jcc(kCcAe, ext);
            // rcx = entries[pc/4] = [entries + rax*2]
            a.u8(0x48); // mov rcx, [rbx+kOffEntries]
            a.u8(0x8B);
            a.u8(0x4B);
            a.u8(kOffEntries);
            a.u8(0x48); // mov rcx, [rcx + rax*2]
            a.u8(0x8B);
            a.u8(0x0C);
            a.u8(0x41);
            a.u8(0x48); // test rcx, rcx
            a.u8(0x85);
            a.u8(0xC9);
            a.jcc(kCcE, ext);
            a.u8(0xFF); // jmp rcx
            a.u8(0xE1);
            a.bind(ext);
            // exit_pc = dynamic target (eax), reason external
            a.u8(0x89); // mov [rbx+kOffExitPc], eax
            a.u8(0x43);
            a.u8(kOffExitPc);
            movCtx32(kOffExitReason, kExitExternal);
            a.jmp(exit_label);
            break;
          }
          case TermKind::kHalt:
            exitWith((b.first + b.len) * 4, kExitHalt);
            break;
        }

        // Deopt stubs: record the faulting instruction, commit nothing.
        for (const auto &[label, k] : deopts) {
            a.bind(label);
            movCtx32(kOffExitPc, (b.first + k) * 4);
            movCtx32(kOffExitReason, kExitDeopt);
            movCtx32(kOffDeoptBlock, bi);
            movCtx32(kOffDeoptK, k);
            a.jmp(exit_label);
        }
    }

    size_t
    emitEnter()
    {
        const size_t off = a.buf.size();
        // push rbx, r12..r15
        a.u8(0x53);
        a.u8(0x41);
        a.u8(0x54);
        a.u8(0x41);
        a.u8(0x55);
        a.u8(0x41);
        a.u8(0x56);
        a.u8(0x41);
        a.u8(0x57);
        a.u8(0x48); // mov rbx, rdi (ctx)
        a.u8(0x89);
        a.u8(0xFB);
        a.u8(0x4C); // mov r12, [rbx+0]  regs
        a.u8(0x8B);
        a.u8(0x23);
        a.u8(0x4C); // mov r13, [rbx+8]  mem
        a.u8(0x8B);
        a.u8(0x6B);
        a.u8(0x08);
        a.u8(0x4C); // mov r14, [rbx+16] mem_size
        a.u8(0x8B);
        a.u8(0x73);
        a.u8(0x10);
        a.u8(0x4C); // mov r15, [rbx+32] budget
        a.u8(0x8B);
        a.u8(0x7B);
        a.u8(kOffBudget);
        a.u8(0xFF); // jmp rsi (block entry)
        a.u8(0xE6);
        return off;
    }

    void
    emitExit()
    {
        a.bind(exit_label);
        a.u8(0x4C); // mov [rbx+kOffBudget], r15
        a.u8(0x89);
        a.u8(0x7B);
        a.u8(kOffBudget);
        a.u8(0x41); // pop r15..r12, rbx
        a.u8(0x5F);
        a.u8(0x41);
        a.u8(0x5E);
        a.u8(0x41);
        a.u8(0x5D);
        a.u8(0x41);
        a.u8(0x5C);
        a.u8(0x5B);
        a.u8(0xC3); // ret
    }
};

} // namespace

void
emitX64(const CompiledProgram &cp, NativeCode &out)
{
    Emitter e(cp);
    e.exit_label = e.a.newLabel();
    for (size_t i = 0; i < cp.blocks().size(); ++i)
        e.block_label.push_back(e.a.newLabel());

    const size_t enter_off = e.emitEnter();
    e.emitExit();
    std::vector<size_t> block_off(cp.blocks().size());
    for (uint32_t bi = 0; bi < cp.blocks().size(); ++bi) {
        block_off[bi] = e.a.buf.size();
        e.emitBlock(bi);
    }
    e.a.finalize();

    auto cache = std::make_shared<CodeCache>(e.a.buf.size());
    std::memcpy(cache->base(), e.a.buf.data(), e.a.buf.size());
    cache->finalize(e.a.buf.size());

    const uint64_t base = reinterpret_cast<uint64_t>(cache->base());
    out.cache = std::move(cache);
    out.entries.assign(cp.words().size(), 0);
    for (uint32_t bi = 0; bi < cp.blocks().size(); ++bi)
        out.entries[cp.blocks()[bi].first] = base + block_off[bi];
    out.enter = reinterpret_cast<const void *>(base + enter_off);
}

} // namespace gfp::jit
