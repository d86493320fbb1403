/**
 * @file
 * Differential proof that translated dispatch — the x86-64 templates,
 * with everything they do not cover stepped — is bit-exact with the
 * plain single-stepping interpreter.  Every catalog kernel, every
 * GF(2^m) field the GFAU supports, seeded random programs biased
 * toward hot instruction pairs, branch-into-block corners,
 * self-modifying code, SEU bit flips, and programs with no
 * translatable block at all (what every program is on a host without
 * templates) run through a translated core and a plain core and must
 * produce identical registers, memory, traps, and full CycleStats.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "common/random.h"
#include "gf/field.h"
#include "gf/polys.h"
#include "gfau/config_reg.h"
#include "isa/encoding.h"
#include "isa/program.h"
#include "jit/core_translation.h"
#include "jit/translator.h"
#include "kernels/kernel_catalog.h"
#include "sim/cpu.h"
#include "sim/machine.h"
#include "sim/memory.h"

namespace gfp {
namespace {

void
expectStatsEq(const CycleStats &a, const CycleStats &b,
              const std::string &what)
{
    EXPECT_EQ(a.instrs, b.instrs) << what;
    EXPECT_EQ(a.cycles, b.cycles) << what;
    EXPECT_EQ(a.load_ops, b.load_ops) << what;
    EXPECT_EQ(a.load_cycles, b.load_cycles) << what;
    EXPECT_EQ(a.store_ops, b.store_ops) << what;
    EXPECT_EQ(a.store_cycles, b.store_cycles) << what;
    EXPECT_EQ(a.alu_ops, b.alu_ops) << what;
    EXPECT_EQ(a.alu_cycles, b.alu_cycles) << what;
    EXPECT_EQ(a.branch_ops, b.branch_ops) << what;
    EXPECT_EQ(a.branch_cycles, b.branch_cycles) << what;
    EXPECT_EQ(a.ctrl_ops, b.ctrl_ops) << what;
    EXPECT_EQ(a.ctrl_cycles, b.ctrl_cycles) << what;
    EXPECT_EQ(a.gf_simd_ops, b.gf_simd_ops) << what;
    EXPECT_EQ(a.gf_simd_cycles, b.gf_simd_cycles) << what;
    EXPECT_EQ(a.gf32_ops, b.gf32_ops) << what;
    EXPECT_EQ(a.gf32_cycles, b.gf32_cycles) << what;
    EXPECT_EQ(a.gfcfg_ops, b.gfcfg_ops) << what;
    EXPECT_EQ(a.gfcfg_cycles, b.gfcfg_cycles) << what;
    EXPECT_EQ(a.faults_mem, b.faults_mem) << what;
    EXPECT_EQ(a.faults_reg, b.faults_reg) << what;
    EXPECT_EQ(a.faults_cfg, b.faults_cfg) << what;
}

void
expectRunEq(const RunResult &a, const RunResult &b, const std::string &what)
{
    EXPECT_EQ(a.halted, b.halted) << what;
    EXPECT_EQ(a.instrs, b.instrs) << what;
    EXPECT_EQ(a.trap.kind, b.trap.kind)
        << what << ": " << a.trap.describe() << " vs " << b.trap.describe();
    EXPECT_EQ(a.trap.pc, b.trap.pc) << what;
    EXPECT_EQ(a.trap.addr, b.trap.addr) << what;
    EXPECT_EQ(a.trap.cycle, b.trap.cycle) << what;
    expectStatsEq(a.stats, b.stats, what);
}

/** A raw word program on its own 16 KiB memory + core, no Machine
 *  wrapper — lets the tests control every code byte (invalid words
 *  included).  Plain dispatch, or translated when @p translated. */
struct Rig
{
    Memory mem;
    Core core;
    jit::CoreTranslation *ct = nullptr; ///< set when translated

    Rig(const std::vector<uint32_t> &words, CoreKind kind,
        bool translated = false)
        : mem(16 * 1024), core(mem, kind)
    {
        for (size_t i = 0; i < words.size(); ++i)
            mem.write32(static_cast<uint32_t>(4 * i), words[i]);
        if (translated) {
            Program prog;
            prog.code = words;
            auto owned = std::make_unique<jit::CoreTranslation>(
                jit::translate(prog, kind));
            ct = owned.get();
            core.setTranslation(std::move(owned));
            core.setDispatchMode(DispatchMode::kTranslated);
        }
        core.enablePredecode(static_cast<uint32_t>(4 * words.size()));
    }
};

void
expectCoresEq(Rig &fast, Rig &slow, const std::string &what)
{
    for (unsigned r = 0; r < kNumRegs; ++r)
        EXPECT_EQ(fast.core.reg(r), slow.core.reg(r))
            << what << " r" << r;
    EXPECT_EQ(fast.core.pc(), slow.core.pc()) << what;
    EXPECT_EQ(fast.core.halted(), slow.core.halted()) << what;
    EXPECT_EQ(fast.mem.snapshot(), slow.mem.snapshot()) << what;
    expectStatsEq(fast.core.stats(), slow.core.stats(), what);
}

/** Run the same word program plain and translated and compare
 *  everything: end state, trap, per-class statistics. */
void
runDifferential(const std::vector<uint32_t> &words, CoreKind kind,
                uint64_t max_instrs, const std::string &what)
{
    Rig slow(words, kind);
    RunResult rs = slow.core.run(max_instrs);
    Rig fast(words, kind, true);
    RunResult rf = fast.core.run(max_instrs);
    expectRunEq(rf, rs, what);
    expectCoresEq(fast, slow, what);
}

uint32_t
enc(Op op, unsigned rd = 0, unsigned rs1 = 0, unsigned rs2 = 0,
    int32_t imm = 0, unsigned rd2 = 0)
{
    Instr in;
    in.op = op;
    in.rd = static_cast<uint8_t>(rd);
    in.rs1 = static_cast<uint8_t>(rs1);
    in.rs2 = static_cast<uint8_t>(rs2);
    in.rd2 = static_cast<uint8_t>(rd2);
    in.imm = imm;
    return encode(in);
}

// ------------------- every shipped kernel, both ways -----------------

TEST(DispatchDifferential, AllCatalogKernelsMatchPlainStepping)
{
    // Zeroed input buffers are still a complete differential workload:
    // both cores see identical data, and several kernels take early
    // exits or run full fixed-trip loops either way.
    for (const KernelSource &k : kernelCatalog()) {
        Machine slow(k.source, k.kind);
        slow.core().setDispatchMode(DispatchMode::kPlain);
        RunResult rs = slow.runToHalt(5'000'000);
        Machine fast(k.source, k.kind);
        jit::installTranslation(fast);
        RunResult rf = fast.runToHalt(5'000'000);
        expectRunEq(rf, rs, k.name);
        for (unsigned r = 0; r < kNumRegs; ++r)
            EXPECT_EQ(fast.core().reg(r), slow.core().reg(r))
                << k.name << " r" << r;
        EXPECT_EQ(fast.core().pc(), slow.core().pc()) << k.name;
        EXPECT_EQ(fast.memory().snapshot(), slow.memory().snapshot())
            << k.name;
    }
}

// A kernel run with predecode disabled entirely (pure fetch-decode
// path) as a second reference for one representative of each family.
TEST(DispatchDifferential, FastPathMatchesNoPredecodeReference)
{
    for (const char *name :
         {"syndrome-gfcore", "aes-block-gfcore", "inverse233"}) {
        std::string src;
        for (const KernelSource &k : kernelCatalog())
            if (k.name == name)
                src = k.source;
        ASSERT_FALSE(src.empty()) << name;

        Machine fast(src, CoreKind::kGfProcessor);
        jit::installTranslation(fast);
        Machine ref(src, CoreKind::kGfProcessor);
        ref.core().disablePredecode();
        RunResult rf = fast.runToHalt(5'000'000);
        RunResult rr = ref.runToHalt(5'000'000);
        expectRunEq(rf, rr, name);
        EXPECT_EQ(fast.memory().snapshot(), ref.memory().snapshot())
            << name;
    }
}

// --------------------- every GF(2^m) field, both ways ----------------

/**
 * The random programs below never execute gfcfg, so they reach the
 * JIT's GF tables for the power-on field only.  Here every field the
 * config verifier proves — the 69 irreducible polynomials of degree
 * 2..8 — gets one program that loads the field's packed config with
 * gfcfg, runs gfsqs and gfinvs over every byte value in every lane and
 * gfmuls, gfadds and gfpows over a seeded sample of in-field lane
 * pairs, and stores each result.  Translated must match plain in
 * outputs and CycleStats, and plain must match GFField on every
 * in-field lane.
 */
TEST(DispatchDifferential, EveryFieldConfigMatchesPlainAndGFField)
{
    constexpr uint32_t kOutAddr = 0x2000;
    constexpr uint32_t kCfgAddr = 0x3800;
    struct Expect
    {
        Op op;
        uint32_t a, b;
    };
    unsigned fields = 0;
    for (unsigned m = 2; m <= 8; ++m) {
        for (uint32_t poly : irreduciblePolys(m)) {
            const GFField field(m, poly);
            char what[32];
            std::snprintf(what, sizeof what, "GF(2^%u)/0x%x", m, poly);
            Rng rng(1000 * m + poly);
            std::vector<uint32_t> words;
            std::vector<Expect> expects;
            auto emit = [&](uint32_t w) { words.push_back(w); };
            auto li = [&](unsigned rd, uint32_t v) {
                emit(enc(Op::kMovi, rd, 0, 0,
                         static_cast<int32_t>(v & 0xffff)));
                emit(enc(Op::kMovt, rd, 0, 0,
                         static_cast<int32_t>(v >> 16)));
            };
            // r10 walks the output area: result k lands at
            // kOutAddr + 4k, in the order of `expects`.
            int32_t off = 0;
            auto store = [&](unsigned rs, Op op, uint32_t a, uint32_t b) {
                if (off >= 2000) {
                    emit(enc(Op::kAddi, 10, 10, 0, off));
                    off = 0;
                }
                emit(enc(Op::kStr, rs, 10, 0, off));
                off += 4;
                expects.push_back({op, a, b});
            };
            auto lanes = [&](unsigned bound) {
                uint32_t v = 0;
                for (unsigned l = 0; l < 4; ++l)
                    v |= static_cast<uint32_t>(rng.below(bound)) << (8 * l);
                return v;
            };

            const uint64_t blob = GFConfig::derive(m, poly).pack();
            li(1, static_cast<uint32_t>(blob));
            li(2, static_cast<uint32_t>(blob >> 32));
            li(3, kCfgAddr);
            emit(enc(Op::kStr, 1, 3, 0, 0));
            emit(enc(Op::kStr, 2, 3, 0, 4));
            emit(enc(Op::kGfCfg, 0, 0, 0, kCfgAddr));
            li(10, kOutAddr);
            for (uint32_t v = 0; v < 256; v += 4) {
                const uint32_t a =
                    v | (v + 1) << 8 | (v + 2) << 16 | (v + 3) << 24;
                li(1, a);
                emit(enc(Op::kGfSqs, 2, 1));
                store(2, Op::kGfSqs, a, 0);
                emit(enc(Op::kGfInvs, 2, 1));
                store(2, Op::kGfInvs, a, 0);
            }
            for (unsigned k = 0; k < 64; ++k) {
                const uint32_t a = lanes(1u << m), b = lanes(1u << m);
                const uint32_t e = lanes(256);
                li(1, a);
                li(4, b);
                li(5, e);
                emit(enc(Op::kGfMuls, 2, 1, 4));
                store(2, Op::kGfMuls, a, b);
                emit(enc(Op::kGfAdds, 2, 1, 4));
                store(2, Op::kGfAdds, a, b);
                emit(enc(Op::kGfPows, 2, 1, 5));
                store(2, Op::kGfPows, a, e);
            }
            emit(enc(Op::kHalt));

            runDifferential(words, CoreKind::kGfProcessor, 100'000, what);

            Rig plain(words, CoreKind::kGfProcessor);
            ASSERT_TRUE(plain.core.run(100'000).halted) << what;
            for (size_t k = 0; k < expects.size(); ++k) {
                const Expect &x = expects[k];
                const uint32_t got = plain.mem.read32(
                    kOutAddr + 4 * static_cast<uint32_t>(k));
                for (unsigned l = 0; l < 4; ++l) {
                    const GFElem a = (x.a >> (8 * l)) & 0xff;
                    const GFElem b = (x.b >> (8 * l)) & 0xff;
                    if (!field.contains(a))
                        continue;
                    GFElem want = 0;
                    switch (x.op) {
                      case Op::kGfSqs: want = field.sqr(a); break;
                      case Op::kGfInvs: want = field.inv(a); break;
                      case Op::kGfMuls: want = field.mul(a, b); break;
                      case Op::kGfAdds: want = GFField::add(a, b); break;
                      default: want = field.pow(a, b); break;
                    }
                    EXPECT_EQ((got >> (8 * l)) & 0xff, want)
                        << what << " " << opName(x.op) << " lane " << l
                        << " a=" << a << " b=" << b;
                }
            }
            ++fields;
        }
    }
    EXPECT_EQ(fields, 69u);
}

// ----------------------- gfmuls operand forms -----------------------

/**
 * One loop block with every gfmuls operand form the translator's
 * table-row choice (jit/ir.h Block::mul_row) tells apart: rd == rs1,
 * rd == rs2 and rs1 == rs2, the BMA coefficient form `rd, r11, rb`, and
 * a row operand the block rewrites after the multiply.  Translated must
 * match plain under the power-on field and under P bits flipped
 * mid-run, and the loop block must record the expected rows.
 */
TEST(DispatchDifferential, GfMulsOperandFormsMatchPlain)
{
    std::vector<uint32_t> words;
    auto emit = [&](uint32_t w) { words.push_back(w); };
    auto li = [&](unsigned rd, uint32_t v) {
        emit(enc(Op::kMovi, rd, 0, 0, static_cast<int32_t>(v & 0xffff)));
        emit(enc(Op::kMovt, rd, 0, 0, static_cast<int32_t>(v >> 16)));
    };
    li(1, 0x8e4d2b17);  // loop-invariant multiplier
    li(2, 0x01020304);  // accumulator
    li(6, 0x55aa33cc);
    li(7, 0x0badf00d);
    li(10, 0x13579bdf);
    li(11, 0x1d3c5a79); // BMA coefficient
    li(12, 0x0f0e0d0c);
    li(13, 0x01010101); // byte splat
    emit(enc(Op::kMovi, 3, 0, 0, 200));
    const uint32_t loop = static_cast<uint32_t>(words.size());
    emit(enc(Op::kSubi, 3, 3, 0, 1));
    emit(enc(Op::kGfMuls, 2, 2, 1));   // rd == rs1; row r1
    emit(enc(Op::kGfMuls, 5, 1, 2));   // row r1 (rs1)
    emit(enc(Op::kGfMuls, 7, 1, 7));   // rd == rs2; row r1
    emit(enc(Op::kGfMuls, 6, 6, 6));   // rs1 == rs2
    emit(enc(Op::kMul, 8, 3, 13));     // rb = splat(counter)
    emit(enc(Op::kGfMuls, 9, 11, 8));  // BMA form; row r11
    emit(enc(Op::kGfMuls, 10, 10, 12)); // row r12, rewritten below
    emit(enc(Op::kAddi, 12, 12, 0, 0x35));
    emit(enc(Op::kGfAdds, 2, 2, 8));
    emit(enc(Op::kEor, 7, 7, 9));
    emit(enc(Op::kCmpi, 0, 3, 0, 0));
    emit(enc(Op::kBne, 0, 0, 0,
             static_cast<int32_t>(loop) -
                 static_cast<int32_t>(words.size()) - 1));
    emit(enc(Op::kHalt));

    runDifferential(words, CoreKind::kGfProcessor, 100'000,
                    "gfmuls forms");

    Rig rig(words, CoreKind::kGfProcessor, true);
    const int32_t bi = rig.ct->compiled().blockAt(loop);
    ASSERT_GE(bi, 0);
    const jit::Block &blk =
        rig.ct->compiled().blocks()[static_cast<size_t>(bi)];
    std::vector<unsigned> rows;
    for (uint32_t k = 0; k < blk.len; ++k)
        if (blk.body[k].op == Op::kGfMuls)
            rows.push_back(blk.mul_row[k]);
    EXPECT_EQ(rows, (std::vector<unsigned>{1, 1, 1, 6, 11, 12}));

    // Same loop after an SEU in the P columns: the tables for the
    // corrupted register must reproduce the unit's wrong products.
    for (unsigned bit : {3u, 13u, 22u, 50u}) {
        Rig fast(words, CoreKind::kGfProcessor, true);
        Rig slow(words, CoreKind::kGfProcessor);
        RunResult pf = fast.core.run(40);
        RunResult ps = slow.core.run(40);
        ASSERT_EQ(pf.trap.kind, TrapKind::kWatchdog);
        ASSERT_EQ(ps.trap.kind, TrapKind::kWatchdog);
        fast.core.injectFault(FaultTarget::kConfigReg, 0, bit);
        slow.core.injectFault(FaultTarget::kConfigReg, 0, bit);
        RunResult rf = fast.core.run(100'000);
        RunResult rs = slow.core.run(100'000);
        const std::string what = "gfmuls forms, P bit " + std::to_string(bit);
        EXPECT_TRUE(rs.halted) << what;
        expectRunEq(rf, rs, what);
        expectCoresEq(fast, slow, what);
        EXPECT_GT(fast.ct->entries(), 1u) << what;
    }
}

// ----------------------- seeded random programs ----------------------

/**
 * Random programs biased toward hot instruction pairs (cmp+bcc, movi
 * feeding loads/stores, gfsqs chains, loads feeding GF ops) plus
 * hazards: branches into the middle of blocks, out-of-range accesses,
 * undecodable words, runaway loops (equal watchdogs), and pc running
 * off the end of the program.
 */
std::vector<uint32_t>
randomProgram(uint64_t seed, CoreKind kind, unsigned n_words)
{
    Rng rng(seed);
    std::vector<uint32_t> words;
    words.reserve(n_words);

    auto reg = [&] { return static_cast<unsigned>(rng.below(13)); };
    auto emit = [&](uint32_t w) { words.push_back(w); };

    while (words.size() + 2 < n_words) {
        switch (rng.below(kind == CoreKind::kGfProcessor ? 10 : 7)) {
          case 0: { // random register ALU op
            Op ops[] = {Op::kAdd, Op::kSub, Op::kAnd, Op::kOrr, Op::kEor,
                        Op::kLsl, Op::kLsr, Op::kAsr, Op::kMul, Op::kMov};
            emit(enc(ops[rng.below(10)], reg(), reg(), reg()));
            break;
          }
          case 1: { // random immediate ALU op
            Op ops[] = {Op::kAddi, Op::kSubi, Op::kAndi, Op::kOrri,
                        Op::kEori, Op::kLsli, Op::kLsri, Op::kAsri};
            emit(enc(ops[rng.below(8)], reg(), reg(), 0,
                     static_cast<int32_t>(rng.below(4096)) - 2048));
            break;
          }
          case 2: { // movi / movt pair (materializes constants)
            unsigned rd = reg();
            emit(enc(Op::kMovi, rd, 0, 0,
                     static_cast<int32_t>(rng.below(65536))));
            if (rng.chance(0.5))
                emit(enc(Op::kMovt, rd, 0, 0,
                         static_cast<int32_t>(rng.below(65536))));
            break;
          }
          case 3: { // address-gen ALU feeding a load/store
            unsigned rb = reg();
            bool in_range = rng.chance(0.8);
            emit(enc(Op::kMovi, rb, 0, 0,
                     static_cast<int32_t>(
                         in_range ? 8192 + rng.below(4096) : 65535)));
            Op mems[] = {Op::kLdr, Op::kStr, Op::kLdrb, Op::kStrb,
                         Op::kLdrh, Op::kStrh};
            emit(enc(mems[rng.below(6)], reg(), rb, 0,
                     static_cast<int32_t>(rng.below(64))));
            break;
          }
          case 4: { // register-indexed memory op
            unsigned rb = reg(), ri = reg();
            emit(enc(Op::kMovi, rb, 0, 0,
                     static_cast<int32_t>(8192 + rng.below(4096))));
            emit(enc(Op::kAndi, ri, ri, 0, 255));
            Op mems[] = {Op::kLdrr, Op::kStrr, Op::kLdrbr, Op::kStrbr,
                         Op::kLdrhr, Op::kStrhr};
            emit(enc(mems[rng.below(6)], reg(), rb, ri));
            break;
          }
          case 5: { // compare + conditional branch, forward
            Op bccs[] = {Op::kBeq, Op::kBne, Op::kBlt, Op::kBge,
                         Op::kBgt, Op::kBle, Op::kBlo, Op::kBhs,
                         Op::kBhi, Op::kBls};
            if (rng.chance(0.5))
                emit(enc(Op::kCmp, 0, reg(), reg()));
            else
                emit(enc(Op::kCmpi, 0, reg(), 0,
                         static_cast<int32_t>(rng.below(4096)) - 2048));
            emit(enc(bccs[rng.below(10)], 0, 0, 0,
                     static_cast<int32_t>(rng.below(4))));
            break;
          }
          case 6: { // unconditional control flow
            if (rng.chance(0.7)) {
                emit(enc(Op::kB, 0, 0, 0,
                         static_cast<int32_t>(rng.below(3))));
            } else {
                emit(enc(Op::kNop));
            }
            break;
          }
          case 7: { // SIMD GF op, possibly behind a load
            Op gfs[] = {Op::kGfMuls, Op::kGfInvs, Op::kGfSqs,
                        Op::kGfPows, Op::kGfAdds};
            unsigned rd = reg();
            if (rng.chance(0.5)) {
                unsigned rb = reg();
                emit(enc(Op::kMovi, rb, 0, 0,
                         static_cast<int32_t>(8192 + rng.below(1024))));
                emit(enc(Op::kLdr, rd, rb, 0, 0));
            }
            emit(enc(gfs[rng.below(5)], reg(), rd, reg()));
            break;
          }
          case 8: { // gfsqs square chain
            unsigned rd = reg(), rs = reg();
            emit(enc(Op::kGfSqs, rd, rs));
            unsigned run = 1 + static_cast<unsigned>(rng.below(6));
            for (unsigned k = 0; k < run && words.size() + 2 < n_words;
                 ++k)
                emit(enc(Op::kGfSqs, rd, rd));
            break;
          }
          case 9: { // 32-bit partial product
            emit(enc(Op::kGf32Mul, reg(), reg(), reg(), 0, reg()));
            break;
          }
        }
        // Occasionally corrupt a word outright: both cores must raise
        // the identical IllegalInstruction if execution reaches it.
        if (rng.chance(0.02))
            words.back() = 0xff000000u | rng.next32() >> 8;
    }
    while (words.size() + 1 < n_words)
        emit(enc(Op::kNop));
    emit(enc(Op::kHalt));
    return words;
}

TEST(DispatchDifferential, SeededRandomProgramsGfCore)
{
    for (uint64_t seed = 1; seed <= 40; ++seed)
        runDifferential(randomProgram(seed, CoreKind::kGfProcessor, 96),
                        CoreKind::kGfProcessor, 20'000,
                        "gf seed " + std::to_string(seed));
}

TEST(DispatchDifferential, SeededRandomProgramsBaseline)
{
    // On the baseline core every GF opcode must trap kGfOnBaseline at
    // the same point on both paths; reuse GF-biased programs for that.
    for (uint64_t seed = 1; seed <= 20; ++seed) {
        runDifferential(randomProgram(seed, CoreKind::kBaseline, 96),
                        CoreKind::kBaseline, 20'000,
                        "base seed " + std::to_string(seed));
        runDifferential(randomProgram(seed, CoreKind::kGfProcessor, 96),
                        CoreKind::kBaseline, 20'000,
                        "base/gfprog seed " + std::to_string(seed));
    }
}

// ------------------------- handcrafted corners -----------------------

TEST(DispatchDifferential, BranchIntoMiddleOfFusedPair)
{
    // Words 1+2 form a cmpi+beq pair inside the entry block.  Word 4
    // later branches straight to word 2 (the branch half) with
    // *different* flags, so the translated path must enter at word 2,
    // a block head of its own.
    std::vector<uint32_t> words = {
        enc(Op::kMovi, 0, 0, 0, 7), // 0
        enc(Op::kCmpi, 0, 0, 0, 9), // 1  flags != (pair head)
        enc(Op::kBeq, 0, 0, 0, 3),  // 2  not taken; later target
        enc(Op::kCmpi, 0, 0, 0, 7), // 3  flags ==
        enc(Op::kB, 0, 0, 0, -3),   // 4  jump back to word 2
        enc(Op::kHalt),             // 5  (unreachable)
        enc(Op::kHalt),             // 6  beq target on second visit
    };
    runDifferential(words, CoreKind::kGfProcessor, 1'000,
                    "branch into cmp+bcc pair");

    // The taken beq on the second visit is what halts the program.
    Rig plain(words, CoreKind::kGfProcessor);
    EXPECT_TRUE(plain.core.run(1'000).halted);
}

TEST(DispatchDifferential, SelfModifyingStoreDefusesExactly)
{
    // The program overwrites its own infinite loop with a halt through
    // a movi+str pair; the store must invalidate the translation (and
    // the predecoded words) before word 6 executes again.
    const uint32_t haltw = enc(Op::kHalt);
    std::vector<uint32_t> words = {
        enc(Op::kMovi, 1, 0, 0, static_cast<int32_t>(haltw & 0xffff)),
        enc(Op::kMovt, 1, 0, 0, static_cast<int32_t>(haltw >> 16)),
        enc(Op::kMovi, 2, 0, 0, 24), // address of word 6
        enc(Op::kStr, 1, 2, 0, 0),   // store into the code region
        enc(Op::kNop),
        enc(Op::kNop),
        enc(Op::kB, 0, 0, 0, -1), // infinite loop unless overwritten
    };
    runDifferential(words, CoreKind::kGfProcessor, 1'000,
                    "self-modifying store");

    // And the rewritten program must have actually halted (not hit the
    // watchdog) on the translated path: the store replaced the loop
    // before it spun.
    Rig rig(words, CoreKind::kGfProcessor, true);
    RunResult r = rig.core.run(1'000);
    EXPECT_TRUE(r.halted) << r.trap.describe();
}

TEST(DispatchDifferential, SeuFlipInCodeRegionDefusesExactly)
{
    // Pause both cores mid-run with an equal watchdog, deliver the
    // same SEU into an instruction word, resume: the stale translation
    // must be refused and the flipped word executed identically.
    std::vector<uint32_t> words = {
        enc(Op::kMovi, 3, 0, 0, 5), // 0
        enc(Op::kNop),              // 1
        enc(Op::kNop),              // 2
        enc(Op::kAddi, 3, 3, 0, 1), // 3 <- flip lands here
        enc(Op::kNop),              // 4
        enc(Op::kHalt),             // 5
    };
    for (unsigned bit : {0u, 5u, 26u}) { // imm, rd2 field, opcode bits
        Rig fast(words, CoreKind::kGfProcessor, true);
        Rig slow(words, CoreKind::kGfProcessor);
        RunResult pf = fast.core.run(2);
        RunResult ps = slow.core.run(2);
        ASSERT_EQ(pf.trap.kind, TrapKind::kWatchdog);
        ASSERT_EQ(ps.trap.kind, TrapKind::kWatchdog);
        fast.core.injectFault(FaultTarget::kDataMemory, 4 * 3 + bit / 8,
                              bit % 8);
        slow.core.injectFault(FaultTarget::kDataMemory, 4 * 3 + bit / 8,
                              bit % 8);
        RunResult rf = fast.core.run(1'000);
        RunResult rs = slow.core.run(1'000);
        const std::string what = "seu bit " + std::to_string(bit);
        expectRunEq(rf, rs, what);
        expectCoresEq(fast, slow, what);
    }
}

TEST(DispatchDifferential, SeuMakesWordUndecodable)
{
    // Setting a high opcode bit yields an undecodable word: both paths
    // must raise kIllegalInstruction at the same pc with the same
    // faulting word.
    std::vector<uint32_t> words = {
        enc(Op::kNop), enc(Op::kNop), enc(Op::kNop), enc(Op::kHalt)};
    Rig fast(words, CoreKind::kGfProcessor, true);
    Rig slow(words, CoreKind::kGfProcessor);
    (void)fast.core.run(1);
    (void)slow.core.run(1);
    fast.core.injectFault(FaultTarget::kDataMemory, 4 * 2 + 3, 7);
    slow.core.injectFault(FaultTarget::kDataMemory, 4 * 2 + 3, 7);
    RunResult rf = fast.core.run(1'000);
    RunResult rs = slow.core.run(1'000);
    EXPECT_EQ(rf.trap.kind, TrapKind::kIllegalInstruction);
    expectRunEq(rf, rs, "undecodable");
    expectCoresEq(fast, slow, "undecodable");
}

TEST(DispatchDifferential, ConfigCorruptionTrapsIdentically)
{
    // A config-register SEU before a GF instruction: translated code
    // must bail (committing nothing) and deliver the identical
    // kGfConfigCorrupt trap through step().
    std::vector<uint32_t> words = {
        enc(Op::kMovi, 1, 0, 0, 0x1234), // 0
        enc(Op::kNop),                   // 1
        enc(Op::kGfMuls, 2, 1, 1),       // 2
        enc(Op::kHalt),                  // 3
    };
    Rig fast(words, CoreKind::kGfProcessor, true);
    Rig slow(words, CoreKind::kGfProcessor);
    (void)fast.core.run(1);
    (void)slow.core.run(1);
    // m=8, flipping bit 57 yields m=10: invalid field width.
    fast.core.injectFault(FaultTarget::kConfigReg, 0, 57);
    slow.core.injectFault(FaultTarget::kConfigReg, 0, 57);
    RunResult rf = fast.core.run(1'000);
    RunResult rs = slow.core.run(1'000);
    EXPECT_EQ(rf.trap.kind, TrapKind::kGfConfigCorrupt);
    expectRunEq(rf, rs, "config corrupt");
    expectCoresEq(fast, slow, "config corrupt");
}

TEST(DispatchDifferential, RunawayLoopWatchdogsIdentically)
{
    std::vector<uint32_t> words = {
        enc(Op::kMovi, 0, 0, 0, 0),  // 0
        enc(Op::kAddi, 0, 0, 0, 1),  // 1
        enc(Op::kCmpi, 0, 0, 0, 50), // 2  pairs with 3
        enc(Op::kBne, 0, 0, 0, -4),  // 3  loop back to word 1
        enc(Op::kB, 0, 0, 0, -1),    // 4  spin forever
    };
    // Cut the budget at every point of a block's retirement.
    for (uint64_t cap : {1u, 2u, 3u, 100u, 151u, 152u, 153u, 400u})
        runDifferential(words, CoreKind::kGfProcessor, cap,
                        "watchdog cap " + std::to_string(cap));
}

TEST(DispatchDifferential, NoTranslatableBlockStepsEveryInstruction)
{
    // translate() finds no block in these programs, so the translated
    // core steps every instruction, as every program does on a host
    // without templates.  With a valid field config at kCfgAddr the
    // gfcfg program runs on through zeroed data (add r0, r0, r0) until
    // pc reaches the config blob, which does not decode.
    constexpr uint32_t kCfgAddr = 0x3800;
    const uint32_t gfcfg = enc(Op::kGfCfg, 0, 0, 0, kCfgAddr);
    const struct
    {
        const char *what;
        CoreKind kind;
        std::vector<uint32_t> words;
        TrapKind trap;
    } cases[] = {
        {"gf ops on baseline", CoreKind::kBaseline,
         {enc(Op::kGfMuls, 2, 1, 1), enc(Op::kGfAdds, 2, 1, 1)},
         TrapKind::kGfOnBaseline},
        {"undecodable words", CoreKind::kGfProcessor,
         {0xff000001u, 0xff000002u}, TrapKind::kIllegalInstruction},
        {"gfcfg into data", CoreKind::kGfProcessor, {gfcfg, gfcfg},
         TrapKind::kIllegalInstruction},
    };
    for (const auto &c : cases) {
        Rig slow(c.words, c.kind);
        Rig fast(c.words, c.kind, true);
        for (Rig *rig : {&slow, &fast})
            rig->mem.write64(kCfgAddr, GFConfig::derive(8, 0x11d).pack());
        RunResult rs = slow.core.run(100'000);
        RunResult rf = fast.core.run(100'000);
        EXPECT_EQ(rs.trap.kind, c.trap) << c.what;
        expectRunEq(rf, rs, c.what);
        expectCoresEq(fast, slow, c.what);
        EXPECT_TRUE(fast.ct->compiled().blocks().empty()) << c.what;
        EXPECT_EQ(fast.ct->entries(), 0u) << c.what;
    }
}

TEST(DispatchDifferential, PcRunsOffIntoDataAndOutOfMemory)
{
    // No halt: pc falls past the predecoded region into zeroed data
    // (decodes as add r0,r0,r0), then off the end of memory.  Both
    // paths must take the same kOutOfRangeAccess fetch trap.
    std::vector<uint32_t> words = {
        enc(Op::kMovi, 5, 0, 0, 9),
        enc(Op::kNop),
    };
    runDifferential(words, CoreKind::kGfProcessor, 100'000,
                    "pc into data");
}

} // namespace
} // namespace gfp
