/**
 * @file
 * Certificate emitter tests (analysis/certify.h): dynamic WCET
 * soundness — every catalog kernel's measured instruction, cycle, and
 * GFAU-cycle counts must sit under its certified bounds in all three
 * dispatch modes — the trap-freedom floor over the catalog, watchdog
 * wiring, a mutation check (loosening a loop guard strictly inflates
 * the bound), config certificates, and JSON / SARIF rendering smoke.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "analysis/certify.h"
#include "analysis/lint.h"
#include "analysis/report_format.h"
#include "isa/assembler.h"
#include "jit/core_translation.h"
#include "kernels/kernel_catalog.h"
#include "sim/machine.h"

namespace gfp {
namespace {

enum class Dispatch { kTranslated, kPlain, kNoPredecode };

const char *
dispatchName(Dispatch d)
{
    switch (d) {
    case Dispatch::kTranslated: return "translated";
    case Dispatch::kPlain: return "plain";
    case Dispatch::kNoPredecode: return "nopredecode";
    }
    return "?";
}

struct MeasuredRun
{
    CycleStats stats;
    RunResult run;
};

MeasuredRun
measuredRun(const std::string &source, CoreKind kind, Dispatch d)
{
    MeasuredRun out;
    Machine m(source, kind);
    if (d == Dispatch::kTranslated)
        jit::installTranslation(m);
    if (d == Dispatch::kNoPredecode)
        m.core().disablePredecode();
    out.run = m.runToHalt(500'000'000);
    out.stats = m.core().stats();
    return out;
}

Program
assembleOrDie(const std::string &src)
{
    Program prog;
    AsmDiagnostic diag;
    if (!Assembler::tryAssemble(src, prog, diag))
        ADD_FAILURE() << "assembly failed: " << diag.message;
    return prog;
}

/** Every catalog kernel whose cost certificate claims a bound: the
 *  measured run must land at or under the bound — instructions,
 *  cycles, and the GFAU-active cycle partition — under every dispatch
 *  mode.  This is the dynamic validation the certificates ship with. */
TEST(Certify, CatalogWcetBoundsSoundInAllDispatchModes)
{
    unsigned bounded = 0;
    for (const auto &k : kernelCatalog()) {
        Program prog = assembleOrDie(k.source);
        ProgramCertificate cert = certifyProgram(prog);
        if (!cert.cost.bounded)
            continue;
        ++bounded;
        for (Dispatch d : {Dispatch::kTranslated, Dispatch::kPlain,
                           Dispatch::kNoPredecode}) {
            SCOPED_TRACE(k.name + " / " + dispatchName(d));
            MeasuredRun r = measuredRun(k.source, k.kind, d);
            EXPECT_TRUE(r.run.halted);
            EXPECT_LE(r.stats.instrs, cert.cost.instr_bound);
            EXPECT_LE(r.stats.cycles, cert.cost.cycle_bound);
            uint64_t gf = r.stats.gf_simd_cycles + r.stats.gf32_cycles +
                          r.stats.gfcfg_cycles;
            EXPECT_LE(gf, cert.cost.gf_cycle_bound);
        }
    }
    // The catalog must not silently lose WCET coverage.
    EXPECT_GE(bounded, 30u);
}

/** Trap-freedom floor: at least 30 of the 36 catalog kernels carry a
 *  whole-program trap-freedom certificate, and every decline explains
 *  itself through caveats.  Certified-trap-free kernels must also
 *  actually run clean. */
TEST(Certify, CatalogTrapFreedomFloor)
{
    unsigned total = 0, trap_free = 0;
    for (const auto &k : kernelCatalog()) {
        SCOPED_TRACE(k.name);
        ++total;
        Program prog = assembleOrDie(k.source);
        ProgramCertificate cert = certifyProgram(prog);
        if (cert.trap_free) {
            ++trap_free;
            MeasuredRun r =
                measuredRun(k.source, k.kind, Dispatch::kTranslated);
            EXPECT_TRUE(r.run.ok());
        } else {
            EXPECT_FALSE(cert.caveats.empty())
                << "undocumented trap-freedom decline";
        }
        // Bounded energy numbers come with the cycle bound.
        if (cert.cost.bounded) {
            EXPECT_GT(cert.cost.energy_nominal_pj, 0.0);
            EXPECT_GT(cert.cost.energy_07v_pj, 0.0);
            EXPECT_LT(cert.cost.energy_07v_pj, cert.cost.energy_nominal_pj);
        }
    }
    EXPECT_GE(total, 36u);
    EXPECT_GE(trap_free, 30u);
}

/** Mutation check on the bound itself: loosening the loop guard must
 *  strictly inflate the certified instruction and cycle bounds. */
TEST(Certify, LoosenedLoopGuardInflatesBound)
{
    auto certify = [&](unsigned trips) {
        std::string src = "    movi r8, #0\n"
                          "loop:\n"
                          "    addi r8, r8, #1\n"
                          "    cmpi r8, #" + std::to_string(trips) + "\n"
                          "    blo  loop\n"
                          "    halt\n";
        return certifyProgram(assembleOrDie(src));
    };
    ProgramCertificate tight = certify(8);
    ProgramCertificate loose = certify(16);
    ASSERT_TRUE(tight.cost.bounded) << tight.cost.reason;
    ASSERT_TRUE(loose.cost.bounded) << loose.cost.reason;
    EXPECT_GT(loose.cost.instr_bound, tight.cost.instr_bound);
    EXPECT_GT(loose.cost.cycle_bound, tight.cost.cycle_bound);
    EXPECT_GT(loose.cost.energy_nominal_pj, tight.cost.energy_nominal_pj);
}

/** A statically unbounded loop gets no cost certificate and therefore
 *  no trap-freedom claim (the watchdog can't be discharged). */
TEST(Certify, UnboundedLoopDeclined)
{
    Program prog = assembleOrDie(R"(
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
    ProgramCertificate cert = certifyProgram(prog);
    EXPECT_FALSE(cert.cost.bounded);
    EXPECT_FALSE(cert.cost.within_watchdog);
    EXPECT_FALSE(cert.trap_free);
    EXPECT_FALSE(cert.cost.reason.empty());
}

/** A bound that exceeds the configured watchdog voids trap freedom
 *  even though every block is individually trap-free. */
TEST(Certify, WatchdogCapsTrapFreedom)
{
    Program prog = assembleOrDie(R"(
    movi r8, #0
loop:
    addi r8, r8, #1
    cmpi r8, #100
    blo  loop
    halt
)");
    ProgramCertificate ok = certifyProgram(prog);
    EXPECT_TRUE(ok.cost.bounded);
    EXPECT_TRUE(ok.cost.within_watchdog);
    EXPECT_TRUE(ok.trap_free);

    CertifyOptions tight;
    tight.watchdog_max_instrs = 10;
    ProgramCertificate capped = certifyProgram(prog, tight);
    EXPECT_TRUE(capped.cost.bounded);
    EXPECT_FALSE(capped.cost.within_watchdog);
    EXPECT_FALSE(capped.trap_free);
    EXPECT_EQ(capped.cost.watchdog, 10u);
}

/** GF kernels carry config certificates; a kernel with no GF ops
 *  carries none. */
TEST(Certify, ConfigCertificatesCoverGfKernels)
{
    unsigned with_configs = 0;
    for (const auto &k : kernelCatalog()) {
        Program prog = assembleOrDie(k.source);
        ProgramCertificate cert = certifyProgram(prog);
        if (!cert.configs.empty()) {
            ++with_configs;
            EXPECT_TRUE(cert.has_gf_ops) << k.name;
            if (cert.trap_free) {
                for (const auto &c : cert.configs)
                    EXPECT_TRUE(c.trapFree()) << k.name;
            }
        }
    }
    EXPECT_GT(with_configs, 0u);
}

/** JSON / SARIF rendering smoke: structurally balanced output that
 *  carries the program name, the WCET numbers, and the SARIF schema
 *  version. */
TEST(Certify, ReportRenderingSmoke)
{
    Program prog = assembleOrDie(R"(
    movi r8, #0
loop:
    addi r8, r8, #1
    cmpi r8, #12
    blo  loop
    halt
)");
    ProgramReport rep;
    rep.name = "unit:loop12";
    rep.lint = lintProgram(prog);
    rep.certified = true;
    rep.cert = certifyProgram(prog);
    rep.prog = &prog;
    std::vector<ProgramReport> reports{rep};

    auto balanced = [](const std::string &s) {
        long depth = 0;
        for (char c : s) {
            if (c == '{' || c == '[') ++depth;
            if (c == '}' || c == ']') --depth;
            if (depth < 0) return false;
        }
        return depth == 0;
    };

    std::string json = renderJson(reports);
    EXPECT_TRUE(balanced(json));
    EXPECT_NE(json.find("unit:loop12"), std::string::npos);
    EXPECT_NE(json.find("wcet"), std::string::npos);

    std::string sarif = renderSarif(reports);
    EXPECT_TRUE(balanced(sarif));
    EXPECT_NE(sarif.find("2.1.0"), std::string::npos);
    EXPECT_NE(sarif.find("unit:loop12"), std::string::npos);

    EXPECT_NE(jsonEscape("a\"b\\c\n"), "a\"b\\c\n");
}

} // namespace
} // namespace gfp
