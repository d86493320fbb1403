/**
 * @file
 * Unit tests for the template JIT (src/jit): every serving program is
 * translated to x86-64 code that a job enters (no silent fallback to
 * stepping), eager translation of programs no certificate covers, the
 * deopt-to-interpreter edges (SMC, SEU, watchdog, traps) with their
 * entry/deopt accounting, and engine-level translated-dispatch parity.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "coding/channel.h"
#include "coding/rs.h"
#include "common/random.h"
#include "engine/batch_engine.h"
#include "isa/assembler.h"
#include "isa/encoding.h"
#include "isa/program.h"
#include "jit/core_translation.h"
#include "jit/translator.h"
#include "kernels/batch_kernels.h"
#include "kernels/wide_kernels.h"
#include "service/request_classes.h"
#include "sim/cpu.h"
#include "sim/memory.h"

namespace gfp {
namespace {

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

Program
progFromWords(const std::vector<uint32_t> &words)
{
    Program p;
    p.code = words;
    return p;
}

// ---------------------------- the backend ----------------------------

TEST(JitBackend, NativeBackendNameIsKnown)
{
    const std::string name = jit::nativeBackendName();
    EXPECT_TRUE(name == "x86-64" || name == "none") << name;
#if defined(__x86_64__)
    EXPECT_EQ(name, "x86-64");
#endif
}

TEST(JitBackend, AutoBackendMatchesHost)
{
    auto cp = jit::translate(
        progFromWords({enc(Op::kMovi, 0, 0, 0, 7), enc(Op::kHalt)}),
        CoreKind::kGfProcessor);
    ASSERT_NE(cp, nullptr);
    EXPECT_GT(cp->translatedWords(), 0u);
    EXPECT_STREQ(cp->backendName(), jit::nativeBackendName());
    EXPECT_FALSE(cp->summary().empty());

    // No silent fallback to stepping: each of the nine serving
    // programs is native, and one job on its engine's shared
    // translation enters translated code.  Parity tests alone would
    // pass with every instruction stepped.
    service::EngineSet set({.threads = 1});
    Job job;
    job.max_instrs = 10'000'000;
    for (unsigned i = 0; i < service::EngineSet::count(); ++i) {
        const auto id = static_cast<service::EngineId>(i);
        std::unique_ptr<Machine> machine;
        set.engine(id).runOn(machine, job);
        auto *ct = dynamic_cast<jit::CoreTranslation *>(
            machine->core().translation());
        ASSERT_NE(ct, nullptr) << service::engineName(id);
        EXPECT_TRUE(ct->compiled().native())
            << service::engineName(id) << ": " << ct->describe();
        EXPECT_GT(ct->entries(), 0u) << service::engineName(id);
    }
}

// ------------------- translation needs no certificate ----------------

TEST(JitTranslate, CompilesProgramsTheCertifierDeclines)
{
    // A bare spin loop has no bounded cost certificate, yet it is
    // translated like any other program (the run-time budget guard is
    // what stops it; JitDeopt.WatchdogCapInsideTranslatedLoop).
    const std::vector<uint32_t> words = {enc(Op::kMovi, 0, 0, 0, 1),
                                         enc(Op::kB, 0, 0, 0, -1)};
    auto cp = jit::translate(progFromWords(words), CoreKind::kGfProcessor);
    ASSERT_NE(cp, nullptr);
    EXPECT_EQ(cp->translatedWords(), 2u);
    EXPECT_TRUE(cp->policyNote().empty()) << cp->policyNote();

    // The serving programs the certifier declines (ECDH, both BMAs,
    // Forney) are translated too.
    GFField f8(8), f5(5);
    for (const BatchProgram &bp :
         {bmaBatchProgram(f8, 16), bmaBatchProgram(f5, 8),
          forneyBatchProgram(f8, 16),
          BatchProgram{Assembler::assemble(scalarMultAsm(true)),
                       CoreKind::kGfProcessor}}) {
        auto p = jit::translate(bp.program, bp.kind);
        EXPECT_GT(p->translatedWords(), bp.program.code.size() / 2)
            << p->summary();
    }
}

// ------------------------ deopt-to-interpreter -----------------------

/** A core with an installed translation whose counters stay visible. */
struct JitRig
{
    Memory mem;
    Core core;
    jit::CoreTranslation *ct = nullptr;

    JitRig(const std::vector<uint32_t> &words, CoreKind kind)
        : mem(16 * 1024), core(mem, kind)
    {
        for (size_t i = 0; i < words.size(); ++i)
            mem.write32(static_cast<uint32_t>(4 * i), words[i]);
        auto owned = std::make_unique<jit::CoreTranslation>(
            jit::translate(progFromWords(words), kind));
        ct = owned.get();
        core.setDispatchMode(DispatchMode::kTranslated);
        core.setTranslation(std::move(owned));
        core.enablePredecode(static_cast<uint32_t>(4 * words.size()));
    }
};

void
expectParity(const RunResult &a, const RunResult &b, Core &ca, Core &cb,
             const std::string &what)
{
    EXPECT_EQ(a.halted, b.halted) << what;
    EXPECT_EQ(a.instrs, b.instrs) << what;
    EXPECT_EQ(a.trap.kind, b.trap.kind)
        << what << ": " << a.trap.describe() << " vs "
        << b.trap.describe();
    EXPECT_EQ(a.trap.pc, b.trap.pc) << what;
    EXPECT_EQ(a.stats.cycles, b.stats.cycles) << what;
    EXPECT_EQ(a.stats.instrs, b.stats.instrs) << what;
    for (unsigned r = 0; r < kNumRegs; ++r)
        EXPECT_EQ(ca.reg(r), cb.reg(r)) << what << " r" << r;
    EXPECT_EQ(ca.pc(), cb.pc()) << what;
}

TEST(JitDeopt, TrapMidBlockDeoptsAndStaysBitExact)
{
    // The out-of-range store sits mid-block behind two committed
    // instructions: the generated code must deopt with *nothing*
    // committed, and the replayed prefix plus the interpreter's trap
    // must equal plain stepping exactly.
    std::vector<uint32_t> words = {
        enc(Op::kMovi, 0, 0, 0, 5),       // 0
        enc(Op::kAddi, 0, 0, 0, 2),       // 1
        enc(Op::kMovi, 1, 0, 0, 0x7ff0),  // 2  past 16 KiB of memory
        enc(Op::kStr, 0, 1, 0, 0),        // 3  out-of-range store
        enc(Op::kHalt),                   // 4
    };
    JitRig rig(words, CoreKind::kGfProcessor);
    Memory smem(16 * 1024);
    Core slow(smem, CoreKind::kGfProcessor);
    for (size_t i = 0; i < words.size(); ++i)
        smem.write32(static_cast<uint32_t>(4 * i), words[i]);
    slow.setDispatchMode(DispatchMode::kPlain);
    slow.enablePredecode(static_cast<uint32_t>(4 * words.size()));

    RunResult rf = rig.core.run(1'000);
    RunResult rs = slow.run(1'000);
    EXPECT_EQ(rf.trap.kind, TrapKind::kOutOfRangeAccess);
    expectParity(rf, rs, rig.core, slow, "trap deopt");
    EXPECT_GE(rig.ct->entries(), 1u);
    EXPECT_EQ(rig.ct->deopts(), 1u);
    EXPECT_FALSE(rig.ct->describe().empty());
}

TEST(JitDeopt, SmcEpochBumpRevalidatesAndFallsBack)
{
    // The guest overwrites its own loop with a halt: the store deopts
    // (it hits the code watch region), the epoch moves, and translated
    // entry must refuse the now-stale code while the interpreter
    // finishes the run — identical to plain stepping.
    const uint32_t haltw = enc(Op::kHalt);
    std::vector<uint32_t> words = {
        enc(Op::kMovi, 1, 0, 0, static_cast<int32_t>(haltw & 0xffff)),
        enc(Op::kMovt, 1, 0, 0, static_cast<int32_t>(haltw >> 16)),
        enc(Op::kMovi, 2, 0, 0, 24), // address of word 6
        enc(Op::kStr, 1, 2, 0, 0),
        enc(Op::kNop),
        enc(Op::kNop),
        enc(Op::kB, 0, 0, 0, -1), // spin unless overwritten
    };
    JitRig rig(words, CoreKind::kGfProcessor);
    Memory smem(16 * 1024);
    Core slow(smem, CoreKind::kGfProcessor);
    for (size_t i = 0; i < words.size(); ++i)
        smem.write32(static_cast<uint32_t>(4 * i), words[i]);
    slow.setDispatchMode(DispatchMode::kPlain);
    slow.enablePredecode(static_cast<uint32_t>(4 * words.size()));

    RunResult rf = rig.core.run(1'000);
    RunResult rs = slow.run(1'000);
    EXPECT_TRUE(rf.halted) << rf.trap.describe();
    expectParity(rf, rs, rig.core, slow, "smc epoch");
    EXPECT_GE(rig.ct->deopts(), 1u);
}

TEST(JitDeopt, SeuFlipOnTranslatedPageInvalidatesEntry)
{
    // An SEU lands on a word the JIT compiled; the epoch bump must
    // force revalidation, the memcmp must fail, and execution must
    // continue through the interpreter — matching plain stepping,
    // which sees the same flipped word.
    std::vector<uint32_t> words = {
        enc(Op::kMovi, 3, 0, 0, 5), // 0
        enc(Op::kNop),              // 1
        enc(Op::kNop),              // 2
        enc(Op::kAddi, 3, 3, 0, 1), // 3 <- flip lands here
        enc(Op::kNop),              // 4
        enc(Op::kHalt),             // 5
    };
    JitRig rig(words, CoreKind::kGfProcessor);
    Memory smem(16 * 1024);
    Core slow(smem, CoreKind::kGfProcessor);
    for (size_t i = 0; i < words.size(); ++i)
        smem.write32(static_cast<uint32_t>(4 * i), words[i]);
    slow.setDispatchMode(DispatchMode::kPlain);
    slow.enablePredecode(static_cast<uint32_t>(4 * words.size()));

    RunResult pf = rig.core.run(2);
    RunResult ps = slow.run(2);
    ASSERT_EQ(pf.trap.kind, TrapKind::kWatchdog);
    ASSERT_EQ(ps.trap.kind, TrapKind::kWatchdog);
    rig.core.injectFault(FaultTarget::kDataMemory, 4 * 3, 0);
    slow.injectFault(FaultTarget::kDataMemory, 4 * 3, 0);
    RunResult rf = rig.core.run(1'000);
    RunResult rs = slow.run(1'000);
    expectParity(rf, rs, rig.core, slow, "seu on code page");
}

TEST(JitDeopt, WatchdogCapInsideTranslatedLoop)
{
    // A certified-shape counting loop under watchdog caps that land on
    // every phase of a block: before the loop, mid-block, on the
    // back-edge, and past the halt.  Translated mode must retire
    // exactly the same instruction count as plain stepping.
    std::vector<uint32_t> words = {
        enc(Op::kMovi, 0, 0, 0, 0),   // 0
        enc(Op::kAddi, 0, 0, 0, 1),   // 1
        enc(Op::kCmpi, 0, 0, 0, 200), // 2
        enc(Op::kBne, 0, 0, 0, -3),   // 3  loop to word 1
        enc(Op::kHalt),               // 4
    };
    for (uint64_t cap : {1u, 2u, 3u, 4u, 5u, 300u, 601u, 602u, 5000u}) {
        JitRig rig(words, CoreKind::kGfProcessor);
        Memory smem(16 * 1024);
        Core slow(smem, CoreKind::kGfProcessor);
        for (size_t i = 0; i < words.size(); ++i)
            smem.write32(static_cast<uint32_t>(4 * i), words[i]);
        slow.setDispatchMode(DispatchMode::kPlain);
        slow.enablePredecode(static_cast<uint32_t>(4 * words.size()));

        RunResult rf = rig.core.run(cap);
        RunResult rs = slow.run(cap);
        expectParity(rf, rs, rig.core, slow,
                     "watchdog cap " + std::to_string(cap));
    }
}

// -------------------- engine-level translated mode -------------------

std::vector<Job>
makeSyndromeJobs(unsigned n, uint64_t seed)
{
    RSCode code(8, 8);
    Rng rng(seed);
    std::vector<Job> jobs;
    for (unsigned j = 0; j < n; ++j) {
        std::vector<GFElem> info(code.k());
        for (auto &s : info)
            s = rng.nextByte();
        ExactErrorInjector inj(seed + j);
        auto rx = inj.corruptSymbols(code.encode(info),
                                     j % (code.t() + 1), 8);
        jobs.push_back(syndromeJob(rx, 2 * code.t()));
    }
    return jobs;
}

TEST(JitEngine, TranslatedDispatchMatchesPlainBitForBit)
{
    GFField f(8);
    auto jobs = makeSyndromeJobs(32, 777);
    BatchEngine plain(syndromeBatchProgram(f, 255, 16),
                      {.threads = 1, .dispatch = DispatchMode::kPlain});
    BatchEngine trans(syndromeBatchProgram(f, 255, 16), {.threads = 1});
    auto rf = plain.runSerial(jobs);
    auto rt = trans.runSerial(jobs);
    ASSERT_EQ(rf.size(), rt.size());
    for (size_t i = 0; i < rf.size(); ++i) {
        EXPECT_EQ(rf[i].trap.kind, rt[i].trap.kind) << i;
        EXPECT_EQ(rf[i].outputs, rt[i].outputs) << i;
        EXPECT_EQ(rf[i].words, rt[i].words) << i;
        EXPECT_EQ(rf[i].stats.cycles, rt[i].stats.cycles) << i;
        EXPECT_EQ(rf[i].stats.instrs, rt[i].stats.instrs) << i;
    }
}

TEST(JitEngine, TranslatedParallelMatchesSerial)
{
    GFField f(8);
    auto jobs = makeSyndromeJobs(48, 4242);
    BatchEngine eng(syndromeBatchProgram(f, 255, 16), {.threads = 4});
    auto par = eng.run(jobs);
    auto ser = eng.runSerial(jobs);
    ASSERT_EQ(par.size(), ser.size());
    for (size_t i = 0; i < par.size(); ++i) {
        EXPECT_EQ(par[i].outputs, ser[i].outputs) << i;
        EXPECT_EQ(par[i].words, ser[i].words) << i;
        EXPECT_EQ(par[i].stats.cycles, ser[i].stats.cycles) << i;
    }
}

} // namespace
} // namespace gfp
