/**
 * @file
 * Observability layer tests: per-PC profiler attribution invariants
 * across all three dispatch modes (translated, plain, no-predecode) over
 * the full kernel catalog, attribution under traps and injected SEUs,
 * the CycleStats class-partition contract, Chrome trace_event export
 * and its structural validator, engine run metrics, and the 28nm
 * energy attribution constants.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "coding/channel.h"
#include "coding/rs.h"
#include "common/random.h"
#include "common/trace_event.h"
#include "engine/batch_engine.h"
#include "engine/metrics.h"
#include "hwmodel/energy_model.h"
#include "jit/core_translation.h"
#include "kernels/batch_kernels.h"
#include "kernels/coding_kernels.h"
#include "kernels/kernel_catalog.h"
#include "sim/fault_injector.h"
#include "sim/machine.h"
#include "sim/profiler.h"
#include "sim/tracer.h"

namespace gfp {
namespace {

enum class Dispatch { kTranslated, kPlain, kNoPredecode };

std::vector<uint8_t>
toBytes(const std::vector<GFElem> &symbols)
{
    return std::vector<uint8_t>(symbols.begin(), symbols.end());
}

/** A noisy RS(255,239) received word for the syndrome kernel. */
std::vector<uint8_t>
noisyRxBytes(uint64_t seed)
{
    RSCode code(8, 8);
    Rng rng(seed);
    std::vector<GFElem> info(code.k());
    for (auto &s : info)
        s = rng.nextByte();
    ExactErrorInjector inj(seed);
    return toBytes(inj.corruptSymbols(code.encode(info), 4, 8));
}

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

/** Run @p source under @p d with an attached profile; the machine is
 *  returned so callers can also inspect stats/traps. */
struct ProfiledRun
{
    PcProfile profile;
    CycleStats stats;
    RunResult run;
};

ProfiledRun
profiledRun(const std::string &source, CoreKind kind, Dispatch d)
{
    ProfiledRun out;
    Machine m(source, kind);
    if (d == Dispatch::kTranslated)
        jit::installTranslation(m);
    if (d == Dispatch::kNoPredecode)
        m.core().disablePredecode();
    out.profile.configure(
        static_cast<uint32_t>(4 * m.program().code.size()));
    m.core().setProfile(&out.profile);
    out.run = m.runToHalt(5'000'000);
    m.core().setProfile(nullptr);
    out.stats = m.core().stats();
    return out;
}

/** Every catalog kernel, every dispatch mode: the per-PC ledger must
 *  balance against the machine's CycleStats exactly, and the stats
 *  themselves must partition instrs/cycles across the eight classes. */
TEST(Profiler, CatalogAttributionBalancesInAllDispatchModes)
{
    for (const auto &k : kernelCatalog()) {
        for (Dispatch d : {Dispatch::kTranslated, Dispatch::kPlain,
                           Dispatch::kNoPredecode}) {
            SCOPED_TRACE(k.name + " / " + dispatchName(d));
            ProfiledRun r = profiledRun(k.source, k.kind, d);
            EXPECT_TRUE(r.run.halted);
            EXPECT_TRUE(r.stats.consistent());
            EXPECT_TRUE(r.profile.consistent());
            EXPECT_EQ(r.profile.instrs(), r.stats.instrs);
            EXPECT_EQ(r.profile.cycles(), r.stats.cycles);
            for (unsigned c = 0; c < kNumInstrClasses; ++c) {
                auto cls = static_cast<InstrClass>(c);
                EXPECT_EQ(r.profile.classOps(cls), r.stats.classOps(cls))
                    << instrClassName(cls);
                EXPECT_EQ(r.profile.classCycles(cls),
                          r.stats.classCycles(cls))
                    << instrClassName(cls);
            }
        }
    }
}

/** Translated blocks are replayed to their constituent PCs, so the
 *  translated profile must be *bit-identical* to single-stepping —
 *  same PCs, same per-PC instruction and cycle counts. */
TEST(Profiler, TranslatedProfileIdenticalToPlainPerPc)
{
    for (const auto &k : kernelCatalog()) {
        SCOPED_TRACE(k.name);
        ProfiledRun translated =
            profiledRun(k.source, k.kind, Dispatch::kTranslated);
        ProfiledRun plain = profiledRun(k.source, k.kind, Dispatch::kPlain);
        auto a = translated.profile.nonZero();
        auto b = plain.profile.nonZero();
        ASSERT_EQ(a.size(), b.size());
        for (size_t i = 0; i < a.size(); ++i) {
            EXPECT_EQ(a[i].first, b[i].first) << "pc order @" << i;
            EXPECT_EQ(a[i].second.instrs, b[i].second.instrs)
                << "pc 0x" << std::hex << a[i].first;
            EXPECT_EQ(a[i].second.cycles, b[i].second.cycles)
                << "pc 0x" << std::hex << a[i].first;
        }
    }
}

/** nop/halt land in the dedicated ctrl bucket (not the alu bucket),
 *  and the class partition still sums exactly. */
TEST(Profiler, CtrlClassCountsNopAndHalt)
{
    ProfiledRun r = profiledRun(R"(
        nop
        nop
        nop
        halt
    )",
                                CoreKind::kGfProcessor, Dispatch::kTranslated);
    EXPECT_TRUE(r.run.halted);
    EXPECT_EQ(r.stats.ctrl_ops, r.stats.instrs);
    EXPECT_EQ(r.stats.ctrl_cycles, r.stats.cycles);
    EXPECT_EQ(r.stats.alu_ops, 0u);
    EXPECT_TRUE(r.stats.consistent());
    EXPECT_EQ(r.profile.classOps(InstrClass::kCtrl), r.stats.ctrl_ops);
    // The paper's 4-bucket tables fold ctrl and branch into "alu".
    EXPECT_EQ(r.stats.aluBucketOps(), r.stats.instrs);
}

/** A trapping run still balances: everything retired *before* the trap
 *  is attributed, nothing after. */
TEST(Profiler, TrapRunStillBalances)
{
    ProfiledRun r = profiledRun(R"(
        li   r1, #0x00fffff0
        ldr  r2, [r1]         ; out-of-range load -> trap
        halt
    )",
                                CoreKind::kGfProcessor, Dispatch::kTranslated);
    EXPECT_FALSE(r.run.halted);
    EXPECT_NE(r.run.trap.kind, TrapKind::kNone);
    EXPECT_TRUE(r.profile.consistent());
    EXPECT_EQ(r.profile.instrs(), r.stats.instrs);
    EXPECT_EQ(r.profile.cycles(), r.stats.cycles);
}

/** SEU campaign: profiling stays balanced whether the upset is
 *  survived, corrected, or escalates to a trap. */
TEST(Profiler, SeuRunsStayBalanced)
{
    GFField f(8);
    for (uint64_t seed = 1; seed <= 8; ++seed) {
        SCOPED_TRACE("seed " + std::to_string(seed));
        Machine m(syndromeAsmGfcore(f, 255, 16), CoreKind::kGfProcessor);
        m.writeBytes("rxdata", noisyRxBytes(seed));
        FaultInjector inj;
        inj.setSchedule({FaultEvent{/*cycle=*/100 * seed,
                                    FaultTarget::kDataMemory,
                                    /*index=*/static_cast<uint32_t>(seed),
                                    /*bit=*/static_cast<unsigned>(seed % 8)}});
        inj.attach(m.core());
        PcProfile prof;
        prof.configure(static_cast<uint32_t>(4 * m.program().code.size()));
        m.core().setProfile(&prof);
        RunResult run = m.runToHalt(5'000'000);
        m.core().setFaultHook(nullptr);
        m.core().setProfile(nullptr);
        (void)run;
        EXPECT_TRUE(prof.consistent());
        EXPECT_EQ(prof.instrs(), m.core().stats().instrs);
        EXPECT_EQ(prof.cycles(), m.core().stats().cycles);
    }
}

/** Stray PCs (outside the configured dense region) fall back to the
 *  overflow map and still count. */
TEST(Profiler, OverflowMapCatchesOutOfRegionPcs)
{
    PcProfile prof;
    prof.configure(16); // dense region covers pcs 0, 4, 8, 12
    prof.record(4, InstrClass::kAlu, 1);
    prof.record(0x8000, InstrClass::kLoad, 2); // beyond the region
    prof.record(0x8000, InstrClass::kLoad, 2);
    EXPECT_EQ(prof.instrs(), 3u);
    EXPECT_EQ(prof.cycles(), 5u);
    EXPECT_EQ(prof.at(0x8000).instrs, 2u);
    EXPECT_EQ(prof.at(0x8000).cycles, 4u);
    EXPECT_TRUE(prof.consistent());
    auto nz = prof.nonZero();
    ASSERT_EQ(nz.size(), 2u);
    EXPECT_EQ(nz[0].first, 4u);
    EXPECT_EQ(nz[1].first, 0x8000u);
}

/** The guest tracer emits a structurally valid Chrome trace with at
 *  least one kernel-region span, and closes cleanly on a trap. */
TEST(Tracer, GuestTraceValidatesAndNamesRegions)
{
    GFField f(8);
    Machine m(syndromeAsmGfcore(f, 255, 16), CoreKind::kGfProcessor);
    m.writeBytes("rxdata", noisyRxBytes(3));
    TraceLog log;
    GuestTracer tracer(log, m.core(), m.program());
    tracer.attach();
    RunResult run = m.runToHalt(5'000'000);
    tracer.finish(run.ok() ? nullptr : &run.trap);
    EXPECT_TRUE(run.halted);
    EXPECT_GT(log.size(), 2u); // metadata + at least one span
    std::string err;
    EXPECT_TRUE(validateTraceEventJson(log.toJson(), &err)) << err;
    // Region names come from the program's code symbols.
    EXPECT_NE(log.toJson().find("\"ph\": \"X\""), std::string::npos);
}

TEST(Tracer, ValidatorRejectsMalformedTraces)
{
    std::string err;
    // Not an object at the root.
    EXPECT_FALSE(validateTraceEventJson("[]", &err));
    // Missing traceEvents.
    EXPECT_FALSE(validateTraceEventJson("{\"foo\": []}", &err));
    // Event without a name.
    EXPECT_FALSE(validateTraceEventJson(
        R"({"traceEvents": [{"ph": "i", "ts": 0, "pid": 1, "tid": 1}]})",
        &err));
    // Complete event without dur.
    EXPECT_FALSE(validateTraceEventJson(
        R"({"traceEvents": [{"name": "a", "ph": "X", "ts": 0,)"
        R"( "pid": 1, "tid": 1}]})",
        &err));
    // Non-metadata event without ts.
    EXPECT_FALSE(validateTraceEventJson(
        R"({"traceEvents": [{"name": "a", "ph": "i", "pid": 1,)"
        R"( "tid": 1}]})",
        &err));
    // Truncated JSON.
    EXPECT_FALSE(validateTraceEventJson("{\"traceEvents\": [", &err));
    // A well-formed minimal trace passes.
    EXPECT_TRUE(validateTraceEventJson(
        R"({"traceEvents": [{"name": "a", "ph": "X", "ts": 0,)"
        R"( "dur": 1, "pid": 1, "tid": 1}]})",
        &err))
        << err;
}

/** A batch run populates the engine metrics registry: job counts,
 *  throughput, per-worker utilization, and per-trap-kind failure
 *  counters; a trace log attached to the engine validates. */
TEST(EngineMetrics, RunPopulatesRegistryAndTrace)
{
    GFField f(8);
    RSCode code(8, 8);
    Rng rng(99);
    std::vector<Job> jobs;
    for (unsigned j = 0; j < 24; ++j) {
        std::vector<GFElem> info(code.k());
        for (auto &s : info)
            s = rng.nextByte();
        jobs.push_back(syndromeJob(code.encode(info), 2 * code.t()));
    }
    // One poisoned job: an SEU on the live GFAU config register m-field
    // escalates to a trap, which must land in the trap counters.
    jobs[5].faults = {FaultEvent{/*cycle=*/40, FaultTarget::kConfigReg,
                                 /*index=*/0, /*bit=*/57}};

    TraceLog trace;
    BatchEngine eng(syndromeBatchProgram(f, 255, 16), {.threads = 2});
    eng.setTraceLog(&trace);
    auto results = eng.run(jobs);

    const Metrics &m = eng.metrics();
    EXPECT_EQ(m.counter("jobs_total"), 24.0);
    EXPECT_EQ(m.counter("jobs_failed_total"), 1.0);
    EXPECT_EQ(m.gauge("workers"), 2.0);
    EXPECT_GT(m.gauge("jobs_per_sec"), 0.0);
    EXPECT_GE(m.gauge("worker0_utilization"), 0.0);
    EXPECT_LE(m.gauge("worker0_utilization"), 1.0);
    EXPECT_EQ(m.histogram("job_guest_cycles").count, 24u);
    // Exactly one trap_<kind>_total counter, matching the poisoned job.
    EXPECT_EQ(m.counter(std::string("trap_") +
                        trapKindName(results[5].trap.kind) + "_total"),
              1.0);

    std::string err;
    EXPECT_TRUE(validateTraceEventJson(trace.toJson(), &err)) << err;
    // The trapped job is flagged in its span category.
    EXPECT_NE(trace.toJson().find("job-trapped"), std::string::npos);

    // The snapshot itself must be well-formed JSON (reuse the trace
    // validator's parser via a smoke check on the braces).
    std::string json = m.toJson();
    EXPECT_EQ(json.front(), '{');
    EXPECT_EQ(json.back(), '\n');
    EXPECT_NE(json.find("\"counters\""), std::string::npos);
    EXPECT_NE(json.find("\"histograms\""), std::string::npos);
}

TEST(Metrics, HistogramBucketsAndClear)
{
    Metrics m;
    m.observe("lat", 1.0);
    m.observe("lat", 3.0);
    m.observe("lat", 1000.0);
    auto h = m.histogram("lat");
    EXPECT_EQ(h.count, 3u);
    EXPECT_EQ(h.sum, 1004.0);
    EXPECT_EQ(h.min, 1.0);
    EXPECT_EQ(h.max, 1000.0);
    m.add("c");
    m.add("c", 4.0);
    EXPECT_EQ(m.counter("c"), 5.0);
    m.clear();
    EXPECT_EQ(m.counter("c"), 0.0);
    EXPECT_EQ(m.histogram("lat").count, 0u);
}

/** The published Table 11 constants survive the uW/MHz -> pJ/cycle
 *  conversion, and whole-run attribution reproduces average power. */
TEST(EnergyModel, Table11ConstantsAndAttribution)
{
    EnergyModel nom = EnergyModel::nominal();
    EXPECT_DOUBLE_EQ(nom.shellPjPerCycle(), 2.79);
    EXPECT_DOUBLE_EQ(nom.gfauPjPerCycle(), 1.52);
    EXPECT_DOUBLE_EQ(nom.voltage(), 0.9);

    EnergyModel low = EnergyModel::scaled07v();
    EXPECT_DOUBLE_EQ(low.shellPjPerCycle(), 1.56);
    EXPECT_DOUBLE_EQ(low.gfauPjPerCycle(), 0.75);
    EXPECT_DOUBLE_EQ(low.voltage(), 0.7);

    EXPECT_TRUE(EnergyModel::usesGfau(InstrClass::kGfSimd));
    EXPECT_TRUE(EnergyModel::usesGfau(InstrClass::kGfCfg));
    EXPECT_FALSE(EnergyModel::usesGfau(InstrClass::kAlu));
    EXPECT_FALSE(EnergyModel::usesGfau(InstrClass::kCtrl));

    // A run that keeps the GFAU busy every cycle burns shell + GFAU on
    // each: back-to-back execution averages the full 431 uW of Table 11.
    CycleStats all_gf;
    all_gf.record(InstrClass::kGfSimd, 1);
    for (int i = 0; i < 99; ++i)
        all_gf.record(InstrClass::kGfSimd, 1);
    EXPECT_DOUBLE_EQ(nom.runEnergyPj(all_gf), 100 * (2.79 + 1.52));
    EXPECT_NEAR(nom.averagePowerUw(all_gf), 431.0, 1e-9);

    // An integer-only run idles the GFAU: shell power alone.
    CycleStats int_only;
    for (int i = 0; i < 50; ++i)
        int_only.record(InstrClass::kAlu, 1);
    EXPECT_DOUBLE_EQ(nom.gfauEnergyPj(int_only), 0.0);
    EXPECT_NEAR(nom.averagePowerUw(int_only), 279.0, 1e-9);
}

} // namespace
} // namespace gfp
