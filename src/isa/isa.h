/**
 * @file
 * The GFP instruction set.
 *
 * The paper's processor executes "a subset of Cortex M0+ instructions"
 * for control / integer / memory work plus the Table 1 GF instructions.
 * This reproduction defines an equivalent load/store ISA with the same
 * architectural parameters: 16 32-bit general registers, NZCV flags, a
 * 32-bit datapath, and the seven GF instructions.  The cycle model (in
 * src/sim) matches the paper's accounting: loads/stores take 2 cycles,
 * everything else — including every GF instruction — takes 1 cycle,
 * with a 1-cycle refill penalty for taken branches in the two-stage
 * pipeline.
 */

#ifndef GFP_ISA_ISA_H
#define GFP_ISA_ISA_H

#include <cstdint>
#include <string>

namespace gfp {

enum class Op : uint8_t {
    // ALU, register operands
    kAdd,   ///< rd = rs1 + rs2
    kSub,   ///< rd = rs1 - rs2
    kAnd,   ///< rd = rs1 & rs2
    kOrr,   ///< rd = rs1 | rs2
    kEor,   ///< rd = rs1 ^ rs2
    kLsl,   ///< rd = rs1 << (rs2 & 31)
    kLsr,   ///< rd = rs1 >> (rs2 & 31) (logical)
    kAsr,   ///< rd = rs1 >> (rs2 & 31) (arithmetic)
    kMul,   ///< rd = low32(rs1 * rs2)
    kMov,   ///< rd = rs1
    kCmp,   ///< set NZCV from rs1 - rs2

    // ALU, immediate operand (signed 12-bit unless noted)
    kAddi,
    kSubi,
    kAndi,
    kOrri,
    kEori,
    kLsli,  ///< shift amount 0..31
    kLsri,
    kAsri,
    kMovi,  ///< rd = zero-extended 16-bit immediate
    kMovt,  ///< rd = (rd & 0xffff) | (imm16 << 16)
    kCmpi,

    // Memory (base register + signed 12-bit byte offset)
    kLdr,   ///< word load
    kStr,
    kLdrb,  ///< byte load, zero-extended
    kStrb,
    kLdrh,  ///< halfword load, zero-extended
    kStrh,

    // Memory (base register + index register)
    kLdrr,
    kStrr,
    kLdrbr,
    kStrbr,
    kLdrhr,
    kStrhr,

    // Control (targets are word offsets relative to the next instruction)
    kB,
    kBeq,   ///< Z
    kBne,   ///< !Z
    kBlt,   ///< signed <
    kBge,   ///< signed >=
    kBgt,   ///< signed >
    kBle,   ///< signed <=
    kBlo,   ///< unsigned <
    kBhs,   ///< unsigned >=
    kBhi,   ///< unsigned >
    kBls,   ///< unsigned <=
    kBl,    ///< call: lr = return address, branch
    kJr,    ///< jump to register rs1
    kRet,   ///< jump to lr
    kNop,
    kHalt,

    // Galois-field extension (paper Table 1)
    kGfMuls,  ///< gfMult_simd    rd = rs1 (x) rs2, 4 x 8-bit lanes
    kGfInvs,  ///< gfMultInv_simd rd = rs1^-1 per lane
    kGfSqs,   ///< gfSq_simd      rd = rs1^2 per lane
    kGfPows,  ///< gfPower_simd   rd = rs1^rs2 per lane
    kGfAdds,  ///< gfAdd_simd     rd = rs1 xor rs2
    kGf32Mul, ///< gf32bMult      rd:rd2 = rs1 x rs2 carry-free
    kGfCfg,   ///< gfConfig       load 64-bit config blob from address imm

    kNumOps
};

/** Broad classification used by the cycle/statistics model.  Every
 *  opcode maps to exactly one class, so the per-class counters in
 *  CycleStats partition `instrs`/`cycles` (asserted by
 *  CycleStats::consistent()). */
enum class InstrClass : uint8_t {
    kAlu,    ///< integer/bitwise data processing (incl. cmp/cmpi)
    kLoad,
    kStore,
    kBranch, ///< all control transfers: b.cc, bl, jr, ret
    kCtrl,   ///< nop and halt (no dataflow, no transfer)
    kGfSimd,
    kGf32,
    kGfCfg,
};

/** Number of InstrClass values (for per-class accumulation arrays). */
constexpr unsigned kNumInstrClasses = 8;

/** Human-readable class name ("alu", "load", ...). */
const char *instrClassName(InstrClass cls);

/** A decoded instruction. */
struct Instr
{
    Op op = Op::kNop;
    uint8_t rd = 0;
    uint8_t rs1 = 0;
    uint8_t rs2 = 0;
    uint8_t rd2 = 0;  ///< second destination, used by gf32mul (low word)
    int32_t imm = 0;

    bool operator==(const Instr &o) const = default;
};

/** Mnemonic for an opcode ("add", "gfmuls", ...). */
const char *opName(Op op);

/** Classification for cycle accounting. */
InstrClass classOf(Op op);

/** True for any of the GF-extension opcodes. */
bool isGfOp(Op op);

/** True for conditional/unconditional PC-relative branches (not JR/RET). */
bool isPcRelBranch(Op op);

/** Register name: "r4", with "sp"/"lr" for r13/r14. */
std::string regName(unsigned r);

/** Number of architectural registers. */
constexpr unsigned kNumRegs = 16;
constexpr unsigned kRegSp = 13;
constexpr unsigned kRegLr = 14;

/** Registers read by @p in, as a bit mask (bit i = register i). */
uint16_t regUses(const Instr &in);

/** Registers written by @p in, as a bit mask. */
uint16_t regDefs(const Instr &in);

} // namespace gfp

#endif // GFP_ISA_ISA_H
