/**
 * @file
 * Abstract-interpretation engine tests (analysis/absint.h): the
 * interval / known-bits product domain, constant propagation, guard
 * refinement, loop-bound inference for register and memory-held
 * induction variables, derived affine clamps for stepped pointers,
 * tracked-memory-cell invalidation, and the indirect-jump refinement
 * regression fixtures (constant register and guarded jump table).
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <string>

#include "analysis/absint.h"
#include "analysis/cfg.h"
#include "isa/assembler.h"
#include "isa/program.h"

namespace gfp {
namespace {

Program
assembleOrDie(const std::string &src)
{
    Program prog;
    AsmDiagnostic diag;
    if (!Assembler::tryAssemble(src, prog, diag))
        ADD_FAILURE() << "assembly failed: " << diag.message;
    return prog;
}

/** Word index of label @p name; labels live in the code section. */
uint32_t
wordOf(const Program &prog, const std::string &name)
{
    auto it = prog.symbols.find(name);
    EXPECT_NE(it, prog.symbols.end()) << "no label " << name;
    return it == prog.symbols.end() ? 0 : it->second / 4;
}

/** Run the interpreter over @p src; the CFG outlives the call via
 *  the fixture holding both. */
struct Analyzed
{
    Program prog;
    ControlFlowGraph cfg;
    AbsInterp ai;

    explicit Analyzed(const std::string &src)
        : prog(assembleOrDie(src)), cfg(prog), ai(cfg)
    {
        ai.run();
    }
};

TEST(AbsDomain, IntervalBasics)
{
    Interval t = Interval::top();
    EXPECT_TRUE(t.isTop());
    EXPECT_TRUE(t.contains(0));
    EXPECT_TRUE(t.contains(0xffffffffu));

    Interval c = Interval::constant(42);
    EXPECT_TRUE(c.isConst());
    EXPECT_TRUE(c.contains(42));
    EXPECT_FALSE(c.contains(43));
    EXPECT_EQ(c.width(), 1u);

    Interval r = Interval::range(10, 20);
    EXPECT_EQ(r.width(), 11u);
    EXPECT_FALSE(r.isTop());
    EXPECT_FALSE(r.isConst());
}

TEST(AbsDomain, KnownBitsAndReduction)
{
    AbsValue v = AbsValue::constant(0xa5);
    uint32_t k = 0;
    EXPECT_TRUE(v.isConst(&k));
    EXPECT_EQ(k, 0xa5u);
    // A constant knows every bit.
    EXPECT_EQ(v.kb.known(), 0xffffffffu);
    EXPECT_TRUE(v.kb.matches(0xa5));
    EXPECT_FALSE(v.kb.matches(0xa4));

    // A small range pins the high bits to zero.
    AbsValue r = AbsValue::range(0, 7);
    EXPECT_EQ(r.kb.zeros & ~7u, ~7u);
}

TEST(AbsInt, ConstantsPropagateToHalt)
{
    Analyzed a(R"(
    movi r1, #5
    li   r2, #70000
    la   r3, slot
    add  r4, r1, r1
done:
    halt
.data
.align 4
slot:
    .space 4
)");
    const AbsState &st = a.ai.inState(wordOf(a.prog, "done"));
    ASSERT_TRUE(st.reachable);
    uint32_t v = 0;
    EXPECT_TRUE(st.reg[1].isConst(&v));
    EXPECT_EQ(v, 5u);
    EXPECT_TRUE(st.reg[2].isConst(&v));
    EXPECT_EQ(v, 70000u);
    EXPECT_TRUE(st.reg[3].isConst(&v));
    EXPECT_EQ(v, a.prog.symbols.at("slot"));
    EXPECT_TRUE(st.reg[4].isConst(&v));
    EXPECT_EQ(v, 10u);
}

TEST(AbsInt, ArithmeticShiftOfNegativeValueKeepsItsRange)
{
    // asr of a provably negative value fills with ones and is monotonic,
    // so a constant stays constant and a range maps endpoint to endpoint.
    Analyzed a(R"(
    li   r1, #0xfffffff0
    asri r2, r1, #2
    li   r3, #0x80000000
    andi r5, r0, #15
    add  r3, r3, r5
    asri r4, r3, #2
done:
    halt
)");
    const AbsState &st = a.ai.inState(wordOf(a.prog, "done"));
    ASSERT_TRUE(st.reachable);
    uint32_t v = 0;
    EXPECT_TRUE(st.reg[2].isConst(&v));
    EXPECT_EQ(v, 0xfffffffcu);
    EXPECT_EQ(st.reg[4].iv, Interval::range(0xe0000000u, 0xe0000003u));
}

TEST(AbsInt, GuardRefinesComparedRegister)
{
    // r1 is unknown (loaded from memory); the blo guard bounds it on
    // the taken edge.
    Analyzed a(R"(
    la   r2, slot
    ldr  r1, [r2, #0]
    cmpi r1, #10
    blo  small
    halt
small:
    halt
.data
.align 4
slot:
    .space 4
)");
    const AbsState &st = a.ai.inState(wordOf(a.prog, "small"));
    ASSERT_TRUE(st.reachable);
    EXPECT_FALSE(st.reg[1].iv.isTop());
    EXPECT_LE(st.reg[1].iv.hi, 9u);
}

TEST(AbsInt, RegisterLoopBoundDownCount)
{
    Analyzed a(R"(
    movi r8, #10
loop:
    subi r8, r8, #1
    cmpi r8, #0
    bne  loop
    halt
)");
    ASSERT_EQ(a.ai.loops().size(), 1u);
    const LoopBound &lb = a.ai.loops()[0];
    EXPECT_TRUE(lb.bounded) << lb.reason;
    EXPECT_EQ(lb.max_head_visits, 10u);
    EXPECT_EQ(lb.iv_reg, 8);
}

TEST(AbsInt, RegisterLoopBoundUpCount)
{
    Analyzed a(R"(
    movi r8, #0
loop:
    addi r8, r8, #1
    cmpi r8, #16
    blo  loop
    halt
)");
    ASSERT_EQ(a.ai.loops().size(), 1u);
    const LoopBound &lb = a.ai.loops()[0];
    EXPECT_TRUE(lb.bounded) << lb.reason;
    EXPECT_EQ(lb.max_head_visits, 16u);
}

TEST(AbsInt, MemoryCellInductionVariable)
{
    // The counter lives in memory: load / step / store-back / compare.
    // No register carries it across the back edge, so only the tracked
    // cell domain can bound this loop.
    Analyzed a(R"(
    movi r3, #5
    la   r4, counter
    str  r3, [r4]
loop:
    la   r4, counter
    ldr  r3, [r4]
    subi r3, r3, #1
    str  r3, [r4]
    cmpi r3, #0
    bne  loop
    halt
.data
.align 4
counter:
    .space 4
)");
    ASSERT_EQ(a.ai.loops().size(), 1u);
    const LoopBound &lb = a.ai.loops()[0];
    EXPECT_TRUE(lb.bounded) << lb.reason;
    EXPECT_EQ(lb.max_head_visits, 5u);
    EXPECT_NE(lb.reason.find("memory induction"), std::string::npos)
        << lb.reason;
}

TEST(AbsInt, MemoryCellIvSurvivesCallWithBoundedStores)
{
    // Same memory-held counter, but with an interposed call whose
    // store summary (writes through its pointer arguments into buf)
    // must be proven to miss the counter cell.
    Analyzed a(R"(
    movi r3, #5
    la   r4, counter
    str  r3, [r4]
loop:
    la   r0, buf
    mov  r2, r0
    bl   work
    la   r4, counter
    ldr  r3, [r4]
    subi r3, r3, #1
    str  r3, [r4]
    cmpi r3, #0
    bne  loop
    halt
work:
    ldr  r5, [r0]
    addi r5, r5, #1
    str  r5, [r2]
    ret
.data
.align 4
buf:
    .space 32
counter:
    .space 4
)");
    ASSERT_EQ(a.ai.loops().size(), 1u);
    const LoopBound &lb = a.ai.loops()[0];
    EXPECT_TRUE(lb.bounded) << lb.reason;
    EXPECT_EQ(lb.max_head_visits, 5u);
}

TEST(AbsInt, DerivedClampKeepsSteppedPointerProven)
{
    // r1 walks buf one byte per iteration of a loop bounded at 8;
    // the derived affine clamp must keep the strb address inside
    // [buf, buf + 7] instead of widening to top.
    Analyzed a(R"(
    movi r8, #8
    la   r1, buf
loop:
    strb r0, [r1, #0]
    addi r1, r1, #1
    subi r8, r8, #1
    cmpi r8, #0
    bne  loop
    halt
.data
buf:
    .space 8
)");
    ASSERT_EQ(a.ai.loops().size(), 1u);
    EXPECT_TRUE(a.ai.loops()[0].bounded) << a.ai.loops()[0].reason;

    uint32_t buf = a.prog.symbols.at("buf");
    const MemAccess *ma = a.ai.memAccessAt(wordOf(a.prog, "loop"));
    ASSERT_NE(ma, nullptr);
    EXPECT_TRUE(ma->is_store);
    EXPECT_TRUE(ma->proven);
    EXPECT_GE(ma->addr.lo, buf);
    EXPECT_LE(ma->addr.hi, buf + 7);
}

TEST(AbsInt, ImpreciseStoreInvalidatesTrackedCell)
{
    // A store through an unknown pointer must drop the tracked cell:
    // r3 (reloaded before) stays constant, r5 (reloaded after) is top.
    Analyzed a(R"(
    la   r1, slot
    movi r2, #7
    str  r2, [r1, #0]
    ldr  r3, [r1, #0]
    la   r6, wild
    ldr  r4, [r6, #0]
    str  r2, [r4, #0]
    ldr  r5, [r1, #0]
done:
    halt
.data
.align 4
slot:
    .space 4
wild:
    .space 4
)");
    const AbsState &st = a.ai.inState(wordOf(a.prog, "done"));
    ASSERT_TRUE(st.reachable);
    uint32_t v = 0;
    EXPECT_TRUE(st.reg[3].isConst(&v));
    EXPECT_EQ(v, 7u);
    EXPECT_TRUE(st.reg[5].iv.isTop());
}

TEST(AbsInt, InputDependentLoopStaysUnbounded)
{
    // The trip count is host-written data: soundness demands the
    // bounder declines rather than guesses.
    Analyzed a(R"(
    la   r1, n
    ldr  r8, [r1, #0]
loop:
    subi r8, r8, #1
    cmpi r8, #0
    bne  loop
    halt
.data
.align 4
n:
    .space 4
)");
    ASSERT_EQ(a.ai.loops().size(), 1u);
    EXPECT_FALSE(a.ai.loops()[0].bounded);
    EXPECT_FALSE(a.ai.loops()[0].reason.empty());
}

TEST(AbsInt, IndirectJumpConstantRegisterRefined)
{
    Analyzed a(R"(
    la   r2, t0
    jr   r2
t0:
    halt
)");
    EXPECT_EQ(a.ai.refinedIndirects(), 1u);
    uint32_t jr = wordOf(a.prog, "t0") - 1;
    EXPECT_TRUE(a.ai.indirectTargetsOk(jr));
    auto succ = a.cfg.intraSucc(jr);
    ASSERT_EQ(succ.size(), 1u);
    EXPECT_EQ(succ[0], wordOf(a.prog, "t0"));
}

/** Regression fixture for jump-table refinement: a `jr` through a
 *  block-local load from a store-untouched table, index bounded by a
 *  guard, must get exactly the table's targets as CFG edges (and the
 *  loop after the join must still certify bounded). */
TEST(AbsInt, IndirectJumpTableRefined)
{
    Analyzed a(R"(
    la   r1, sel
    ldr  r3, [r1, #0]
    cmpi r3, #2
    bhs  out
    lsli r3, r3, #2
    la   r2, table
    ldr  r2, [r2, r3]
    jr   r2
t0:
    movi r4, #1
    b    join
t1:
    movi r4, #2
join:
    movi r8, #4
loop:
    subi r8, r8, #1
    cmpi r8, #0
    bne  loop
out:
    halt
.data
.align 4
sel:
    .space 4
table:
    .word t0, t1
)");
    EXPECT_EQ(a.ai.refinedIndirects(), 1u);
    uint32_t jr = wordOf(a.prog, "t0") - 1;
    EXPECT_TRUE(a.ai.indirectTargetsOk(jr));

    auto succ = a.cfg.intraSucc(jr);
    ASSERT_EQ(succ.size(), 2u);
    EXPECT_EQ(succ[0], wordOf(a.prog, "t0"));
    EXPECT_EQ(succ[1], wordOf(a.prog, "t1"));

    // Both arms reach the join; the loop behind it still bounds.
    bool found = false;
    for (const LoopBound &lb : a.ai.loops()) {
        if (lb.head != wordOf(a.prog, "loop"))
            continue;
        found = true;
        EXPECT_TRUE(lb.bounded) << lb.reason;
        EXPECT_EQ(lb.max_head_visits, 4u);
    }
    EXPECT_TRUE(found);
}

} // namespace
} // namespace gfp
