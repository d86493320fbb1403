/**
 * @file
 * Tests for the two-stage core simulator: per-instruction semantics,
 * flags and branch conditions, the cycle model (LD/ST = 2, taken branch
 * = 2, everything else 1), subroutine calls, GF instructions through
 * the machine, and the statistics categories.
 */

#include <gtest/gtest.h>

#include "common/bitops.h"
#include "common/strutil.h"
#include "gf/field.h"
#include "sim/machine.h"

namespace gfp {
namespace {

/** Run a snippet on the GF core and return the machine for inspection. */
Machine
runGf(const std::string &src)
{
    Machine m(src, CoreKind::kGfProcessor);
    m.runOk();
    return m;
}

TEST(Sim, MoviMovtLi)
{
    Machine m = runGf(R"(
        movi r1, #0x1234
        movt r1, #0xabcd
        li   r2, #0xdeadbeef
        li   r3, #7
        halt
    )");
    EXPECT_EQ(m.core().reg(1), 0xabcd1234u);
    EXPECT_EQ(m.core().reg(2), 0xdeadbeefu);
    EXPECT_EQ(m.core().reg(3), 7u);
}

TEST(Sim, AluOps)
{
    Machine m = runGf(R"(
        li   r1, #100
        li   r2, #7
        add  r3, r1, r2
        sub  r4, r1, r2
        and  r5, r1, r2
        orr  r6, r1, r2
        eor  r7, r1, r2
        mul  r8, r1, r2
        lsli r9, r1, #3
        lsri r10, r1, #2
        li   r11, #-64
        asri r11, r11, #3
        halt
    )");
    EXPECT_EQ(m.core().reg(3), 107u);
    EXPECT_EQ(m.core().reg(4), 93u);
    EXPECT_EQ(m.core().reg(5), 100u & 7u);
    EXPECT_EQ(m.core().reg(6), 100u | 7u);
    EXPECT_EQ(m.core().reg(7), 100u ^ 7u);
    EXPECT_EQ(m.core().reg(8), 700u);
    EXPECT_EQ(m.core().reg(9), 800u);
    EXPECT_EQ(m.core().reg(10), 25u);
    EXPECT_EQ(static_cast<int32_t>(m.core().reg(11)), -8);
}

TEST(Sim, RegisterShifts)
{
    Machine m = runGf(R"(
        li  r1, #1
        li  r2, #12
        lsl r3, r1, r2
        lsr r4, r3, r2
        halt
    )");
    EXPECT_EQ(m.core().reg(3), 1u << 12);
    EXPECT_EQ(m.core().reg(4), 1u);
}

TEST(Sim, MemoryAccessWidths)
{
    Machine m = runGf(R"(
        la   r1, buf
        li   r2, #0xa1b2c3d4
        str  r2, [r1]
        ldrb r3, [r1]
        ldrb r4, [r1, #3]
        ldrh r5, [r1]
        ldrh r6, [r1, #2]
        ldr  r7, [r1]
        li   r8, #0xff
        strb r8, [r1, #1]
        ldr  r9, [r1]
        halt
    .data
    buf: .space 8
    )");
    EXPECT_EQ(m.core().reg(3), 0xd4u);
    EXPECT_EQ(m.core().reg(4), 0xa1u);
    EXPECT_EQ(m.core().reg(5), 0xc3d4u);
    EXPECT_EQ(m.core().reg(6), 0xa1b2u);
    EXPECT_EQ(m.core().reg(7), 0xa1b2c3d4u);
    EXPECT_EQ(m.core().reg(9), 0xa1b2ffd4u);
}

TEST(Sim, RegisterOffsetAddressing)
{
    Machine m = runGf(R"(
        la    r1, arr
        movi  r2, #2
        ldrb  r3, [r1, r2]
        lsli  r4, r2, #1       ; byte offset 4 -> the word
        ldr   r5, [r1, r4]
        halt
    .data
    arr: .byte 9, 8, 7, 6
         .word 0x11223344
    )");
    EXPECT_EQ(m.core().reg(3), 7u);
    EXPECT_EQ(m.core().reg(5), 0x11223344u);
}

struct BranchCase
{
    const char *cond;
    int32_t a, b;
    bool taken;
};

// Without this, gtest prints the raw bytes of the case (the address of the
// mnemonic and the padding after `taken`), and ctest names the test after
// them, so the names would differ from build to build.
void PrintTo(const BranchCase &c, std::ostream *os)
{
    *os << c.cond << ' ' << c.a << ',' << c.b
        << (c.taken ? " taken" : " not taken");
}

class BranchTest : public ::testing::TestWithParam<BranchCase>
{
};

TEST_P(BranchTest, ConditionSemantics)
{
    const BranchCase &c = GetParam();
    std::string src = strprintf(R"(
        li   r1, #%d
        li   r2, #%d
        movi r0, #0
        cmp  r1, r2
        %s   yes
        halt
    yes:
        movi r0, #1
        halt
    )", c.a, c.b, c.cond);
    Machine m(src, CoreKind::kGfProcessor);
    m.runOk();
    EXPECT_EQ(m.core().reg(0), c.taken ? 1u : 0u)
        << ::testing::PrintToString(c);
}

INSTANTIATE_TEST_SUITE_P(
    AllConds, BranchTest,
    ::testing::Values(
        BranchCase{"beq", 5, 5, true}, BranchCase{"beq", 5, 6, false},
        BranchCase{"bne", 5, 6, true}, BranchCase{"bne", 5, 5, false},
        BranchCase{"blt", -1, 0, true}, BranchCase{"blt", 0, -1, false},
        BranchCase{"bge", 3, 3, true}, BranchCase{"bge", -5, 3, false},
        BranchCase{"bgt", 4, 3, true}, BranchCase{"bgt", 3, 3, false},
        BranchCase{"ble", 3, 3, true}, BranchCase{"ble", 4, 3, false},
        BranchCase{"blo", 1, 2, true}, BranchCase{"blo", -1, 2, false},
        BranchCase{"bhs", -1, 2, true}, BranchCase{"bhs", 1, 2, false},
        BranchCase{"bhi", -1, 1, true}, BranchCase{"bhi", 2, 2, false},
        BranchCase{"bls", 2, 2, true}, BranchCase{"bls", -1, 1, false}),
    [](const ::testing::TestParamInfo<BranchCase> &info) {
        return std::string(info.param.cond) + "_" +
               std::to_string(info.index);
    });

TEST(Sim, CallReturn)
{
    Machine m = runGf(R"(
        li  r1, #5
        bl  double_it
        bl  double_it
        halt
    double_it:
        add r1, r1, r1
        ret
    )");
    EXPECT_EQ(m.core().reg(1), 20u);
}

TEST(Sim, NestedCallWithStack)
{
    Machine m = runGf(R"(
        li  r1, #3
        bl  outer
        halt
    outer:
        subi sp, sp, #4
        str  lr, [sp]
        bl   inner       ; clobbers lr
        addi r1, r1, #1
        ldr  lr, [sp]
        addi sp, sp, #4
        ret
    inner:
        lsli r1, r1, #1
        ret
    )");
    EXPECT_EQ(m.core().reg(1), 7u);
}

TEST(Sim, JrJumpsToRegister)
{
    Machine m = runGf(R"(
        la  r1, target
        jr  r1
        movi r0, #99
        halt
    target:
        movi r0, #1
        halt
    )");
    EXPECT_EQ(m.core().reg(0), 1u);
}

TEST(Sim, CycleModel)
{
    // movi(1) + ldr(2) + str(2) + add(1) + untaken bne(1) + halt(1) = 8
    Machine m(R"(
        movi r1, #0
        ldr  r2, [r1, #0x40]
        str  r2, [r1, #0x44]
        add  r3, r2, r2
        cmpi r3, #0
        beq  skip             ; taken: the loaded memory is zero
    skip:
        halt
    )", CoreKind::kGfProcessor);
    CycleStats s = m.runOk();
    // movi 1, ldr 2, str 2, add 1, cmpi 1, beq taken 2, halt 1 = 10
    EXPECT_EQ(s.cycles, 10u);
    EXPECT_EQ(s.instrs, 7u);
    EXPECT_EQ(s.load_ops, 1u);
    EXPECT_EQ(s.load_cycles, 2u);
    EXPECT_EQ(s.store_ops, 1u);
    EXPECT_EQ(s.store_cycles, 2u);
    EXPECT_EQ(s.branch_ops, 1u);
    EXPECT_EQ(s.branch_cycles, 2u);
}

TEST(Sim, UntakenBranchIsOneCycle)
{
    Machine m(R"(
        movi r1, #1
        cmpi r1, #2
        beq  nope
        halt
    nope:
        halt
    )", CoreKind::kGfProcessor);
    CycleStats s = m.runOk();
    EXPECT_EQ(s.branch_cycles, 1u);
}

TEST(Sim, GfInstructionsExecute)
{
    GFField aes(8, 0x11b);
    uint64_t blob = GFConfig::derive(8, 0x11b).pack();
    std::string src = strprintf(R"(
        gfcfg cfg
        li r1, #0x57575757
        li r2, #0x83838383
        gfmuls r3, r1, r2
        gfinvs r4, r1
        gfsqs  r5, r1
        gfadds r6, r1, r2
        li r7, #3
        gfpows r8, r1, r7
        li r9, #0xffffffff
        gf32mul r10, r11, r9, r9
        halt
    .data
    .align 8
    cfg: .word 0x%x, 0x%x
    )", static_cast<uint32_t>(blob), static_cast<uint32_t>(blob >> 32));

    Machine m = runGf(src);
    EXPECT_EQ(m.core().reg(3), splat(aes.mul(0x57, 0x83)));
    EXPECT_EQ(m.core().reg(4), splat(aes.inv(0x57)));
    EXPECT_EQ(m.core().reg(5), splat(aes.sqr(0x57)));
    EXPECT_EQ(m.core().reg(6), splat(0x57 ^ 0x83));
    EXPECT_EQ(lane(m.core().reg(8), 0), aes.pow(0x57, 3));
    uint64_t prod = clmul32(0xffffffff, 0xffffffff);
    EXPECT_EQ(m.core().reg(10), static_cast<uint32_t>(prod >> 32));
    EXPECT_EQ(m.core().reg(11), static_cast<uint32_t>(prod));
}

TEST(Sim, GfOpsAreSingleCycle)
{
    Machine m(R"(
        li r1, #0x01020304
        gfmuls r2, r1, r1
        gfinvs r3, r1
        gf32mul r4, r5, r1, r1
        halt
    )", CoreKind::kGfProcessor);
    CycleStats s = m.runOk();
    EXPECT_EQ(s.gf_simd_ops, 2u);
    EXPECT_EQ(s.gf_simd_cycles, 2u);
    EXPECT_EQ(s.gf32_ops, 1u);
    EXPECT_EQ(s.gf32_cycles, 1u);
}

TEST(Sim, BaselineCoreRejectsGfOps)
{
    Machine m("gfmuls r1, r2, r3\nhalt", CoreKind::kBaseline);
    RunResult r = m.runToHalt();
    EXPECT_FALSE(r.ok());
    EXPECT_EQ(r.trap.kind, TrapKind::kGfOnBaseline);
    EXPECT_EQ(r.trap.pc, 0u);
    EXPECT_TRUE(m.core().trapped());
}

TEST(Sim, BaselineRunsPlainCode)
{
    Machine m("li r1, #21\nadd r1, r1, r1\nhalt", CoreKind::kBaseline);
    m.runOk();
    EXPECT_EQ(m.core().reg(1), 42u);
}

TEST(Sim, RunawayGuardTraps)
{
    Machine m("loop: b loop", CoreKind::kBaseline);
    RunResult r = m.runToHalt(1000);
    EXPECT_FALSE(r.halted);
    EXPECT_EQ(r.trap.kind, TrapKind::kWatchdog);
    EXPECT_EQ(r.instrs, 1000u);
    // The watchdog is host policy, not core state: the core is still
    // runnable and the host may grant it more instructions.
    EXPECT_FALSE(m.core().trapped());
    EXPECT_FALSE(m.core().stopped());
}

TEST(Sim, MachineHelpers)
{
    Machine m(R"(
        la   r1, in
        ldr  r2, [r1]
        la   r3, out
        str  r2, [r3]
        halt
    .data
    in:  .word 0
    out: .word 0
    )", CoreKind::kGfProcessor);
    m.writeWord("in", 0xcafef00d);
    m.runOk();
    EXPECT_EQ(m.readWord("out"), 0xcafef00du);

    m.reset();
    m.writeWord("in", 0x12345678);
    m.runOk();
    EXPECT_EQ(m.readWord("out"), 0x12345678u);
}

TEST(Sim, ArgsInRegisters)
{
    Machine m("add r0, r0, r1\nhalt", CoreKind::kGfProcessor);
    m.setArgs({40, 2});
    m.runOk();
    EXPECT_EQ(m.core().reg(0), 42u);
}

TEST(Sim, MemoryBoundsTrap)
{
    Machine m(R"(
        li  r1, #0x7fffffff
        ldr r2, [r1]
        halt
    )", CoreKind::kGfProcessor);
    RunResult r = m.runToHalt();
    EXPECT_FALSE(r.ok());
    EXPECT_EQ(r.trap.kind, TrapKind::kOutOfRangeAccess);
    EXPECT_EQ(r.trap.addr, 0x7fffffffu);
    EXPECT_NE(r.trap.describe().find("OutOfRangeAccess"),
              std::string::npos);
}

TEST(Sim, IllegalInstructionTraps)
{
    // Jump into a data word: 0xffffffff decodes to no known opcode.
    Machine m(R"(
        la r1, bad
        jr r1
    .data
    .align 4
    bad: .word 0xffffffff
    )", CoreKind::kBaseline);
    RunResult r = m.runToHalt();
    EXPECT_FALSE(r.ok());
    EXPECT_EQ(r.trap.kind, TrapKind::kIllegalInstruction);
    EXPECT_EQ(r.trap.pc, m.addr("bad"));
    EXPECT_EQ(r.trap.addr, 0xffffffffu); // the undecodable word
}

TEST(Sim, PcFallsOffMemoryTraps)
{
    // No halt: execution runs off the end of the loaded image, through
    // zero-filled memory (opcode 0 = add), until the fetch itself goes
    // out of range — contained as a trap, never a host abort.
    Machine m("movi r1, #7", CoreKind::kBaseline, 1024);
    RunResult r = m.runToHalt();
    EXPECT_FALSE(r.ok());
    EXPECT_EQ(r.trap.kind, TrapKind::kOutOfRangeAccess);
    EXPECT_EQ(r.trap.addr, 1024u); // first fetch past the end
}

TEST(Sim, TrappedCoreRefusesFurtherSteps)
{
    Machine m("gfmuls r1, r2, r3\nhalt", CoreKind::kBaseline);
    ASSERT_FALSE(m.runToHalt().ok());
    // Repeated runs on a trapped core return the same trap instead of
    // re-executing.
    RunResult again = m.runToHalt();
    EXPECT_EQ(again.trap.kind, TrapKind::kGfOnBaseline);
    // reset() clears the trap and makes the core runnable again.
    m.reset();
    EXPECT_FALSE(m.core().trapped());
}

TEST(Sim, TrapDoesNotCommitSideEffects)
{
    // The faulting store must not advance pc or alter the target
    // register before the trap is taken.
    Machine m(R"(
        li  r1, #0x7fffffff
        li  r2, #0xdeadbeef
        str r2, [r1]
        halt
    )", CoreKind::kGfProcessor);
    RunResult r = m.runToHalt();
    ASSERT_EQ(r.trap.kind, TrapKind::kOutOfRangeAccess);
    EXPECT_EQ(m.core().pc(), r.trap.pc);
    EXPECT_EQ(m.core().reg(2), 0xdeadbeefu);
}

TEST(Sim, StatsSummaryRenders)
{
    Machine m("movi r1, #1\nhalt", CoreKind::kGfProcessor);
    CycleStats s = m.runOk();
    EXPECT_NE(s.summary().find("instrs=2"), std::string::npos);
}

} // namespace
} // namespace gfp
