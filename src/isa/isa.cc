#include "isa/isa.h"

#include "common/logging.h"
#include "common/strutil.h"

namespace gfp {

const char *
opName(Op op)
{
    switch (op) {
      case Op::kAdd: return "add";
      case Op::kSub: return "sub";
      case Op::kAnd: return "and";
      case Op::kOrr: return "orr";
      case Op::kEor: return "eor";
      case Op::kLsl: return "lsl";
      case Op::kLsr: return "lsr";
      case Op::kAsr: return "asr";
      case Op::kMul: return "mul";
      case Op::kMov: return "mov";
      case Op::kCmp: return "cmp";
      case Op::kAddi: return "addi";
      case Op::kSubi: return "subi";
      case Op::kAndi: return "andi";
      case Op::kOrri: return "orri";
      case Op::kEori: return "eori";
      case Op::kLsli: return "lsli";
      case Op::kLsri: return "lsri";
      case Op::kAsri: return "asri";
      case Op::kMovi: return "movi";
      case Op::kMovt: return "movt";
      case Op::kCmpi: return "cmpi";
      case Op::kLdr: return "ldr";
      case Op::kStr: return "str";
      case Op::kLdrb: return "ldrb";
      case Op::kStrb: return "strb";
      case Op::kLdrh: return "ldrh";
      case Op::kStrh: return "strh";
      case Op::kLdrr: return "ldr";
      case Op::kStrr: return "str";
      case Op::kLdrbr: return "ldrb";
      case Op::kStrbr: return "strb";
      case Op::kLdrhr: return "ldrh";
      case Op::kStrhr: return "strh";
      case Op::kB: return "b";
      case Op::kBeq: return "beq";
      case Op::kBne: return "bne";
      case Op::kBlt: return "blt";
      case Op::kBge: return "bge";
      case Op::kBgt: return "bgt";
      case Op::kBle: return "ble";
      case Op::kBlo: return "blo";
      case Op::kBhs: return "bhs";
      case Op::kBhi: return "bhi";
      case Op::kBls: return "bls";
      case Op::kBl: return "bl";
      case Op::kJr: return "jr";
      case Op::kRet: return "ret";
      case Op::kNop: return "nop";
      case Op::kHalt: return "halt";
      case Op::kGfMuls: return "gfmuls";
      case Op::kGfInvs: return "gfinvs";
      case Op::kGfSqs: return "gfsqs";
      case Op::kGfPows: return "gfpows";
      case Op::kGfAdds: return "gfadds";
      case Op::kGf32Mul: return "gf32mul";
      case Op::kGfCfg: return "gfcfg";
      default:
        GFP_PANIC("opName: bad opcode %d", static_cast<int>(op));
    }
}

InstrClass
classOf(Op op)
{
    switch (op) {
      case Op::kLdr:
      case Op::kLdrb:
      case Op::kLdrh:
      case Op::kLdrr:
      case Op::kLdrbr:
      case Op::kLdrhr:
        return InstrClass::kLoad;
      case Op::kStr:
      case Op::kStrb:
      case Op::kStrh:
      case Op::kStrr:
      case Op::kStrbr:
      case Op::kStrhr:
        return InstrClass::kStore;
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
      case Op::kJr:
      case Op::kRet:
        return InstrClass::kBranch;
      case Op::kGfMuls:
      case Op::kGfInvs:
      case Op::kGfSqs:
      case Op::kGfPows:
      case Op::kGfAdds:
        return InstrClass::kGfSimd;
      case Op::kGf32Mul:
        return InstrClass::kGf32;
      case Op::kGfCfg:
        return InstrClass::kGfCfg;
      case Op::kNop:
      case Op::kHalt:
        return InstrClass::kCtrl;
      default:
        return InstrClass::kAlu;
    }
}

const char *
instrClassName(InstrClass cls)
{
    switch (cls) {
      case InstrClass::kAlu:    return "alu";
      case InstrClass::kLoad:   return "load";
      case InstrClass::kStore:  return "store";
      case InstrClass::kBranch: return "branch";
      case InstrClass::kCtrl:   return "ctrl";
      case InstrClass::kGfSimd: return "gfsimd";
      case InstrClass::kGf32:   return "gf32";
      case InstrClass::kGfCfg:  return "gfcfg";
    }
    GFP_PANIC("instrClassName: bad class %d", static_cast<int>(cls));
}

bool
isGfOp(Op op)
{
    switch (classOf(op)) {
      case InstrClass::kGfSimd:
      case InstrClass::kGf32:
      case InstrClass::kGfCfg:
        return true;
      default:
        return false;
    }
}

uint16_t
regUses(const Instr &in)
{
    auto m = [](unsigned r) { return static_cast<uint16_t>(1u << r); };
    switch (in.op) {
      // Three-register ALU / GF.
      case Op::kAdd: case Op::kSub: case Op::kAnd: case Op::kOrr:
      case Op::kEor: case Op::kLsl: case Op::kLsr: case Op::kAsr:
      case Op::kMul:
      case Op::kGfMuls: case Op::kGfPows: case Op::kGfAdds:
      case Op::kGf32Mul:
        return m(in.rs1) | m(in.rs2);
      case Op::kMov: case Op::kGfInvs: case Op::kGfSqs:
        return m(in.rs1);
      case Op::kCmp:
        return m(in.rs1) | m(in.rs2);
      case Op::kCmpi:
        return m(in.rs1);
      // Immediate ALU reads rs1; movi reads nothing; movt reads rd.
      case Op::kAddi: case Op::kSubi: case Op::kAndi: case Op::kOrri:
      case Op::kEori: case Op::kLsli: case Op::kLsri: case Op::kAsri:
        return m(in.rs1);
      case Op::kMovi:
        return 0;
      case Op::kMovt:
        return m(in.rd);
      // Loads read the address registers; stores also read the data.
      case Op::kLdr: case Op::kLdrb: case Op::kLdrh:
        return m(in.rs1);
      case Op::kLdrr: case Op::kLdrbr: case Op::kLdrhr:
        return m(in.rs1) | m(in.rs2);
      case Op::kStr: case Op::kStrb: case Op::kStrh:
        return m(in.rd) | m(in.rs1);
      case Op::kStrr: case Op::kStrbr: case Op::kStrhr:
        return m(in.rd) | m(in.rs1) | m(in.rs2);
      case Op::kJr:
        return m(in.rs1);
      case Op::kRet:
        return m(kRegLr);
      default:
        return 0;
    }
}

uint16_t
regDefs(const Instr &in)
{
    auto m = [](unsigned r) { return static_cast<uint16_t>(1u << r); };
    switch (in.op) {
      case Op::kAdd: case Op::kSub: case Op::kAnd: case Op::kOrr:
      case Op::kEor: case Op::kLsl: case Op::kLsr: case Op::kAsr:
      case Op::kMul: case Op::kMov:
      case Op::kAddi: case Op::kSubi: case Op::kAndi: case Op::kOrri:
      case Op::kEori: case Op::kLsli: case Op::kLsri: case Op::kAsri:
      case Op::kMovi: case Op::kMovt:
      case Op::kLdr: case Op::kLdrb: case Op::kLdrh:
      case Op::kLdrr: case Op::kLdrbr: case Op::kLdrhr:
      case Op::kGfMuls: case Op::kGfInvs: case Op::kGfSqs:
      case Op::kGfPows: case Op::kGfAdds:
        return m(in.rd);
      case Op::kGf32Mul:
        return m(in.rd) | m(in.rd2);
      case Op::kBl:
        return m(kRegLr);
      default:
        return 0;
    }
}

bool
isPcRelBranch(Op op)
{
    switch (op) {
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
        return true;
      default:
        return false;
    }
}

std::string
regName(unsigned r)
{
    GFP_ASSERT(r < kNumRegs, "bad register %u", r);
    if (r == kRegSp)
        return "sp";
    if (r == kRegLr)
        return "lr";
    return strprintf("r%u", r);
}

} // namespace gfp
