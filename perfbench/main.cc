/**
 * @file
 * gfp-perfbench — the repository benchmark: one process, one load
 * thread, all closed loop, every engine in translated dispatch with two
 * worker threads (README.md in this directory has the workloads, the
 * metrics and the layer map).
 *
 *   gfp-perfbench --workload serve_saturate|serve_idle|batch_direct|all
 *                 [--seed N] [--seconds S] [--trace 0|1]
 *                 [--commit ID] [--out-dir DIR]
 *
 * It prints the end-to-end metrics; with --trace 1 it also records
 * spans, writes them to DIR/trace_<workload>.json and prints the
 * per-layer metrics.  The first output line is the host header; the
 * last is the JSON result, which carries the end-to-end metrics with
 * --trace 0 and the per-layer ones with --trace 1.  Exit status: 0 when
 * every output verified, 1 on any wrong output (mismatch, trap, error
 * answer) or guest-statistics mismatch, 2 on usage errors or when the
 * peak resident set cannot be reset between workloads.
 */

#include <sys/stat.h>
#include <unistd.h>
#ifdef __GLIBC__
#include <malloc.h>
#endif

#include <algorithm>
#include <array>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <map>
#include <memory>
#include <numeric>
#include <string>

#include "analysis/certify.h"
#include "common/strutil.h"
#include "harness.h"
#include "isa/assembler.h"
#include "jit/core_translation.h"
#include "jit/translator.h"
#include "kernels/batch_kernels.h"
#include "kernels/wide_kernels.h"
#include "service/client.h"
#include "service/server.h"
#include "sim/machine.h"
#include "workload.h"

using namespace gfp;
using namespace gfp::service;
using namespace perfbench;

namespace {

constexpr unsigned kEngineThreads = 2;
/** Set-ups per run behind setup_s, which is their minimum.  The host's
 *  speed swings by up to 1.6x for a second or more at a time, so half
 *  the reps run before the timed phase and half after it, and the
 *  fastest one filters the swings out. */
constexpr unsigned kSetupReps = 40;
/** serve_saturate's closed-loop window.  16 outstanding requests keep
 *  every engine lane busy at about three quarters of the ok/s that 64
 *  or 256 reach, but at 64 and above queueing spreads the mix's latency
 *  so widely that its median moved by a fifth from run to run (per
 *  interval by a half), against a few percent at 16. */
constexpr size_t kSaturateWindow = 16;
/** Serve pool: distinct requests per mix class, sent cyclically. */
constexpr unsigned kServePerClass = 64;
/** batch_direct round: requests per mix class and ECDH jobs.  The mix
 *  keeps its served proportions so the direct rate compares like with
 *  like; one 32-bit-scalar ECDH job costs as much host time as about 240
 *  mix requests, so 4 of them take about a third of the round's job
 *  host time, next to the RS family's half. */
constexpr unsigned kDirectPerClass = 512;
constexpr unsigned kDirectEcdh = 4;
/** Hops per program re-run under kPlain for the statistics identity. */
constexpr size_t kPlainSamples = 8;
/** Seed of the fixed per-program probe inputs (kernels.* must repeat
 *  exactly whatever the workload seed). */
constexpr uint64_t kProbeSeed = 0x5eed;
/** Equal-length intervals a timed phase is cut into; each figure is
 *  that of its best interval (see summarize()). */
constexpr unsigned kIntervals = 20;

constexpr size_t kPrograms = EngineSet::count();

struct Cli
{
    std::string workload;
    uint64_t seed = 1;
    double seconds = 10;
    bool trace = false;
    std::string commit = "unknown";
    std::string out_dir = ".bench_out";
};

BatchEngine::Options
engineOptions()
{
    BatchEngine::Options o;
    o.threads = kEngineThreads;
    o.dispatch = DispatchMode::kTranslated;
    return o;
}

double
peakRssMb()
{
    std::ifstream in("/proc/self/status");
    std::string line;
    while (std::getline(in, line))
        if (line.rfind("VmHWM:", 0) == 0)
            return std::atof(line.c_str() + 6) / 1024.0;
    return 0;
}

/** Restart VmHWM at the current resident set (Linux 4.0+), so each
 *  workload of one process reports its own peak.  The heap the previous
 *  workload freed is handed back first, so it does not count. */
bool
resetPeakRss()
{
#ifdef __GLIBC__
    malloc_trim(0);
#endif
    std::ofstream out("/proc/self/clear_refs");
    out << "5";
    out.close();
    return !out.fail();
}

std::string
programName(size_t p)
{
    return engineName(static_cast<EngineId>(p));
}

// ---------------------------------------------------------------------
// Set-up layers measured from outside: the nine programs the service
// engines run, rebuilt here with each step timed.

struct ProgramSet
{
    struct Entry
    {
        BatchProgram bp;
        std::shared_ptr<const jit::CompiledProgram> cp;
        double assemble_ms = 0, certify_ms = 0, translate_ms = 0;
    };
    std::vector<Entry> entries;

    std::unique_ptr<Machine>
    machine(size_t p, DispatchMode mode) const
    {
        const Entry &e = entries[p];
        auto m = std::make_unique<Machine>(e.bp.program, e.bp.kind);
        m->core().setDispatchMode(mode);
        if (mode == DispatchMode::kTranslated && e.cp)
            m->core().setTranslation(jit::makeCoreTranslation(e.cp));
        return m;
    }
};

ProgramSet
buildPrograms(SpanLog &spans)
{
    const GFField f8(8), f5(5);
    using MakeProgram = std::function<BatchProgram()>;
    const std::array<MakeProgram, kPrograms> make = {
        [&] { return syndromeBatchProgram(f8, kRsN, 2 * kRsT); },
        [&] { return bmaBatchProgram(f8, 2 * kRsT); },
        [&] { return chienBatchProgram(f8, kRsN, kRsT); },
        [&] { return forneyBatchProgram(f8, 2 * kRsT); },
        [&] { return syndromeBatchProgram(f5, kBchN, 2 * kBchT); },
        [&] { return bmaBatchProgram(f5, 2 * kBchT); },
        [&] { return chienBatchProgram(f5, kBchN, kBchT); },
        [&] { return aesBlockBatchProgram(); },
        [&] {
            return BatchProgram{Assembler::assemble(scalarMultAsm(true)),
                                CoreKind::kGfProcessor};
        },
    };
    const BatchEngine::Options eo = engineOptions();
    ProgramSet set;
    const uint64_t parent = spans.add("setup.programs", spans.nowUs(),
                                      spans.nowUs(), 0, 0, 11);
    for (size_t p = 0; p < kPrograms; ++p) {
        ProgramSet::Entry e;
        double t0 = spans.nowUs();
        e.bp = make[p]();
        double t1 = spans.nowUs();
        spans.add("isa.assemble", t0, t1, parent, 0, 11, programName(p));
        e.assemble_ms = (t1 - t0) / 1e3;

        CertifyOptions co;
        co.mem_bytes = eo.mem_bytes;
        co.watchdog_max_instrs = eo.max_instrs;
        t0 = spans.nowUs();
        certifyProgram(e.bp.program, co);
        t1 = spans.nowUs();
        spans.add("analysis.certify", t0, t1, parent, 0, 11, programName(p));
        e.certify_ms = (t1 - t0) / 1e3;

        jit::TranslateOptions to;
        to.mem_bytes = eo.mem_bytes;
        to.watchdog_max_instrs = eo.max_instrs;
        t0 = spans.nowUs();
        e.cp = jit::translate(e.bp.program, e.bp.kind, to);
        t1 = spans.nowUs();
        spans.add("jit.translate", t0, t1, parent, 0, 11, programName(p));
        e.translate_ms = (t1 - t0) / 1e3;
        set.entries.push_back(std::move(e));
    }
    spans.end(parent, spans.nowUs());
    return set;
}

// ---------------------------------------------------------------------
// Chains on bare Machines: reference responses, guest statistics, and
// the plain-dispatch identity check.

struct ChainRun
{
    std::vector<Hop> hops;
    std::vector<uint64_t> instrs_per_request;
};

/**
 * Drive @p requests through their chains on one translated Machine per
 * program; every final response must equal its host reference.  The
 * first kPlainSamples hops of each program are re-run under kPlain and
 * must give the same outputs and CycleStats.
 */
ChainRun
chainOnMachines(const EngineSet &engines, const ProgramSet &programs,
                const std::vector<Request> &requests, Tally &tally)
{
    std::array<std::unique_ptr<Machine>, kPrograms> translated;
    auto run = [&](EngineId id, std::vector<Job> jobs,
                   const std::vector<size_t> &) {
        const size_t p = static_cast<size_t>(id);
        if (!translated[p])
            translated[p] = programs.machine(p, DispatchMode::kTranslated);
        std::vector<JobResult> out;
        for (const Job &job : jobs)
            out.push_back(runJobTimed(*translated[p], job, nullptr));
        return out;
    };
    ChainRun cr;
    auto steps = driveRequests(engines, requests, run, &cr.hops);
    for (size_t r = 0; r < requests.size(); ++r)
        tally.recordResponse(steps[r].status,
                             responseMatches(requests[r], steps[r]));

    cr.instrs_per_request.assign(requests.size(), 0);
    std::array<size_t, kPrograms> sampled{};
    std::array<std::unique_ptr<Machine>, kPrograms> plain;
    for (const Hop &h : cr.hops) {
        cr.instrs_per_request[h.request] += h.result.stats.instrs;
        const size_t p = static_cast<size_t>(h.engine);
        if (sampled[p] >= kPlainSamples)
            continue;
        ++sampled[p];
        if (!plain[p])
            plain[p] = programs.machine(p, DispatchMode::kPlain);
        ++tally.attempted;
        if (!sameResult(runJobTimed(*plain[p], h.job, nullptr), h.result)) {
            ++tally.stat_mismatch;
            std::fprintf(stderr, "perfbench: %s job differs between plain "
                                 "and translated dispatch\n",
                         programName(p).c_str());
        }
        else {
            ++tally.ok;
        }
    }
    return cr;
}

// ---------------------------------------------------------------------
// Per-layer probes shared by every workload's traced run.

/** Chains of the constant-seed probe requests (see chainOnMachines). */
ChainRun
probeChains(const EngineSet &engines, const ProgramSet &programs,
            Tally &tally)
{
    auto requests = makeMix(kProbeSeed, 4);
    auto ecdh = makeEcdh(kProbeSeed, 2);
    requests.insert(requests.end(), ecdh.begin(), ecdh.end());
    return chainOnMachines(engines, programs, requests, tally);
}

/** Guest work of one program's probe jobs, summed. */
struct KernelTotals
{
    uint64_t jobs = 0, instrs = 0, cycles = 0;

    bool
    operator==(const KernelTotals &o) const
    {
        return jobs == o.jobs && instrs == o.instrs && cycles == o.cycles;
    }
};

/**
 * The modelled design's figures on the probe inputs, in engineName()
 * order.  They change only with a kernel or the cycle model, and such a
 * change must update this table; any other difference fails the run.
 */
constexpr std::array<KernelTotals, kPrograms> kExpectedKernels = {{
    {12, 86244, 110820}, // rs_synd
    {4, 5048, 7022},     // rs_bma
    {4, 15400, 17464},   // rs_chien
    {8, 5800, 7372},     // rs_forney
    {4, 2752, 3520},     // bch_synd
    {4, 2654, 3712},     // bch_bma
    {4, 1960, 2232},     // bch_chien
    {4, 5152, 5476},     // aes_block
    {2, 367870, 495605}, // ecdh
}};

/** Per-program totals of @p probe; each program whose totals differ
 *  from kExpectedKernels counts as one statistics mismatch. */
std::array<KernelTotals, kPrograms>
checkKernels(const ChainRun &probe, Tally &tally)
{
    std::array<KernelTotals, kPrograms> got{};
    for (const Hop &h : probe.hops) {
        KernelTotals &k = got[static_cast<size_t>(h.engine)];
        ++k.jobs;
        k.instrs += h.result.stats.instrs;
        k.cycles += h.result.stats.cycles;
    }
    for (size_t p = 0; p < kPrograms; ++p) {
        ++tally.attempted;
        if (got[p] == kExpectedKernels[p]) {
            ++tally.ok;
            continue;
        }
        ++tally.stat_mismatch;
        const KernelTotals &want = kExpectedKernels[p];
        std::fprintf(stderr,
                     "perfbench: %s probe figures changed: jobs/instrs/"
                     "cycles %llu/%llu/%llu, expected %llu/%llu/%llu\n",
                     programName(p).c_str(),
                     static_cast<unsigned long long>(got[p].jobs),
                     static_cast<unsigned long long>(got[p].instrs),
                     static_cast<unsigned long long>(got[p].cycles),
                     static_cast<unsigned long long>(want.jobs),
                     static_cast<unsigned long long>(want.instrs),
                     static_cast<unsigned long long>(want.cycles));
    }
    return got;
}

struct SimProbe
{
    std::array<PhaseTimes, kPrograms> phase_median{};
    std::array<double, kPrograms> ns_per_instr{};
    std::array<double, kPrograms> word_share{};
    unsigned translated_programs = 0;
};

/** Times @p cr's jobs again, phase by phase (the traced run only). */
SimProbe
probeSim(const ChainRun &cr, const ProgramSet &programs, SpanLog &spans,
         Tally &tally)
{
    SimProbe out;
    for (size_t p = 0; p < kPrograms; ++p) {
        std::vector<const Hop *> hops;
        for (const Hop &h : cr.hops)
            if (static_cast<size_t>(h.engine) == p)
                hops.push_back(&h);
        const auto &e = programs.entries[p];
        const size_t words = e.bp.program.code.size();
        out.word_share[p] =
            e.cp && words ? static_cast<double>(e.cp->translatedWords()) /
                                static_cast<double>(words)
                          : 0.0;
        if (e.cp && e.cp->translatedWords() > 0 && e.cp->policyNote().empty())
            ++out.translated_programs;
        if (hops.empty())
            continue;

        // Time the same jobs on one translated Machine: at least 64
        // jobs and 50 ms per program, phases split per job.
        auto m = programs.machine(p, DispatchMode::kTranslated);
        std::vector<double> reset, input, run, extract;
        double run_total = 0;
        uint64_t run_instrs = 0;
        const auto t_start = Clock::now();
        for (size_t i = 0;
             i < 64 || secondsBetween(t_start, Clock::now()) < 0.05; ++i) {
            const Hop &h = *hops[i % hops.size()];
            PhaseTimes ph;
            const double t0 = spans.nowUs();
            JobResult r = runJobTimed(*m, h.job, &ph);
            if (spans.enabled() && i < 32) {
                const uint64_t job = spans.add("sim.job", t0, spans.nowUs(),
                                               0, 0, 10, programName(p));
                double t = t0;
                for (auto [name, dur] :
                     {std::pair{"sim.reset", ph.reset},
                      std::pair{"sim.input", ph.input},
                      std::pair{"sim.run", ph.run},
                      std::pair{"sim.extract", ph.extract}}) {
                    spans.add(name, t, t + dur * 1e6, job, 0, 10,
                              programName(p));
                    t += dur * 1e6;
                }
            }
            ++tally.attempted;
            if (sameResult(r, h.result)) {
                ++tally.ok;
            }
            else {
                ++tally.stat_mismatch;
                std::fprintf(stderr, "perfbench: %s probe rerun differs\n",
                             programName(p).c_str());
            }
            reset.push_back(ph.reset);
            input.push_back(ph.input);
            run.push_back(ph.run);
            extract.push_back(ph.extract);
            run_total += ph.run;
            run_instrs += r.stats.instrs;
        }
        out.phase_median[p] = {median(reset), median(input), median(run),
                               median(extract)};
        out.ns_per_instr[p] =
            run_instrs ? run_total * 1e9 / static_cast<double>(run_instrs)
                       : 0.0;
    }
    return out;
}

Job
firstJobOf(const std::vector<Hop> &hops, EngineId id)
{
    for (const Hop &h : hops)
        if (h.engine == id)
            return h.job;
    return Job{};
}

void addJobSpan(SpanLog &spans, double batch_start_us, const JobResult &r,
                uint64_t parent, uint64_t request, size_t p);

/** One-job submitBatch -> wait minus the job's host time, median. */
double
probeHandoffUs(EngineSet &engines, const Job &aes_job, SpanLog &spans)
{
    BatchEngine &eng = engines.engine(EngineId::kAesBlock);
    std::vector<double> samples;
    for (int i = 0; i < 400; ++i) {
        const double t0 = spans.nowUs();
        const auto c0 = Clock::now();
        auto res = eng.wait(eng.submitBatch({aes_job}));
        const double wall = secondsBetween(c0, Clock::now());
        const uint64_t b = spans.add("engine.batch", t0, spans.nowUs(), 0,
                                     0, 3, "aes_block");
        addJobSpan(spans, t0, res[0], b, 0,
                   static_cast<size_t>(EngineId::kAesBlock));
        samples.push_back((wall - res[0].host_seconds) * 1e6);
    }
    return median(samples);
}

/** Engine-layer figures derived from a set of JobResults: sums over
 *  every job, distributions over every 8th job of each program. */
struct EngineStats
{
    std::vector<double> queue_wait_us;
    std::array<std::vector<double>, kPrograms> host_us;
    std::array<uint64_t, kPrograms> program_jobs{};
    double host_seconds = 0;
    double wall_seconds = 0;
    uint64_t jobs = 0;

    void
    add(size_t p, const JobResult &r)
    {
        if (program_jobs[p]++ % 8 == 0) {
            queue_wait_us.push_back(r.start_seconds * 1e6);
            host_us[p].push_back(r.host_seconds * 1e6);
        }
        host_seconds += r.host_seconds;
        ++jobs;
    }

    /** Worker threads of the engines that ran jobs.  host_seconds is
     *  wall time on a worker, so this keeps utilization within [0, 1]
     *  however the threads share the cores. */
    double
    workers() const
    {
        size_t engines = 0;
        for (uint64_t n : program_jobs)
            engines += n ? 1 : 0;
        return static_cast<double>(kEngineThreads * engines);
    }
    double
    schedOverheadUs() const
    {
        return jobs ? (wall_seconds * workers() - host_seconds) * 1e6 /
                          static_cast<double>(jobs)
                    : 0.0;
    }
    double
    utilization() const
    {
        return wall_seconds > 0 ? host_seconds / (wall_seconds * workers())
                                : 0.0;
    }
};

/** Sum of the engines' steal counters (gauges published at batch end). */
std::pair<double, double>
stealCounts(const EngineSet &engines)
{
    double steals = 0, stolen = 0;
    for (size_t p = 0; p < kPrograms; ++p) {
        const Metrics &m = engines.engine(static_cast<EngineId>(p)).metrics();
        steals += m.gauge("steals");
        stolen += m.gauge("jobs_stolen");
    }
    return {steals, stolen};
}

double
jobsSubmitted(const EngineSet &engines)
{
    double n = 0;
    for (size_t p = 0; p < kPrograms; ++p)
        n += engines.engine(static_cast<EngineId>(p))
                 .metrics()
                 .counter("jobs_submitted_total");
    return n;
}

/** One engine.job span, placed by the JobResult's own timestamps. */
void
addJobSpan(SpanLog &spans, double batch_start_us, const JobResult &r,
           uint64_t parent, uint64_t request, size_t p)
{
    spans.add("engine.job", batch_start_us + r.start_seconds * 1e6,
              batch_start_us + (r.start_seconds + r.host_seconds) * 1e6,
              parent, request, 4 + static_cast<int>(r.worker),
              programName(p));
}

/**
 * Runs one wave of jobs on a real engine with submitBatch/wait.  With
 * @p traced set (and tracing on) it records each batch and up to 16 of
 * its jobs; a job span's request id is @p request_base + its request
 * index.
 */
HopRunner
engineRunner(EngineSet &engines, SpanLog &spans, EngineStats *stats,
             std::vector<double> *batch_end_us, bool traced,
             uint64_t request_base)
{
    return [&engines, &spans, stats, batch_end_us, traced, request_base](
               EngineId id, std::vector<Job> jobs,
               const std::vector<size_t> &requests) {
        const size_t p = static_cast<size_t>(id);
        BatchEngine &eng = engines.engine(id);
        const size_t n = jobs.size();
        const double t0 = spans.nowUs();
        auto results = eng.wait(eng.submitBatch(std::move(jobs)));
        const double t1 = spans.nowUs();
        if (stats)
            for (const JobResult &r : results)
                stats->add(p, r);
        if (traced && spans.enabled()) {
            const uint64_t b =
                spans.add("engine.batch", t0, t1, 0, 0, 3, programName(p));
            for (size_t i = 0; i < n; i += std::max<size_t>(1, n / 16))
                addJobSpan(spans, t0, results[i], b,
                           request_base + requests[i], p);
        }
        if (batch_end_us)
            batch_end_us->insert(batch_end_us->end(), n, t1);
        return results;
    };
}

// ---------------------------------------------------------------------
// Output.

struct Report
{
    std::vector<Metric> e2e;
    std::vector<Metric> layer;
    std::vector<std::string> notes; ///< human-readable extra lines
    Tally tally;
    bool invariants_ok = true;
    uint64_t busy_retries = 0; ///< serve_*: busy refusals sent again
    double mix_direct_rps = 0; ///< batch_direct: mix requests/s
    double throughput = 0;
};

void
addSetupLayers(Report &rep, const ProgramSet &programs, const SimProbe &sim,
               const std::array<KernelTotals, kPrograms> &kernels)
{
    auto perJob = [&](size_t p, uint64_t total) {
        return kernels[p].jobs ? static_cast<double>(total) /
                                     static_cast<double>(kernels[p].jobs)
                               : 0.0;
    };
    auto per = [&](const std::string &base, const std::string &unit,
                   auto value) {
        for (size_t p = 0; p < kPrograms; ++p)
            rep.layer.push_back({base + "." + programName(p), value(p), unit});
    };
    per("sim.reset_us", "us",
        [&](size_t p) { return sim.phase_median[p].reset * 1e6; });
    per("sim.input_us", "us",
        [&](size_t p) { return sim.phase_median[p].input * 1e6; });
    per("sim.run_us", "us",
        [&](size_t p) { return sim.phase_median[p].run * 1e6; });
    per("sim.extract_us", "us",
        [&](size_t p) { return sim.phase_median[p].extract * 1e6; });
    per("sim.ns_per_guest_instr", "ns",
        [&](size_t p) { return sim.ns_per_instr[p]; });
    rep.layer.push_back({"jit.translated_programs",
                         static_cast<double>(sim.translated_programs),
                         "count"});
    per("jit.translated_word_share", "share",
        [&](size_t p) { return sim.word_share[p]; });
    per("jit.translate_ms", "ms",
        [&](size_t p) { return programs.entries[p].translate_ms; });
    per("analysis.certify_ms", "ms",
        [&](size_t p) { return programs.entries[p].certify_ms; });
    per("isa.assemble_ms", "ms",
        [&](size_t p) { return programs.entries[p].assemble_ms; });
    per("kernels.guest_instrs_per_job", "count",
        [&](size_t p) { return perJob(p, kernels[p].instrs); });
    per("kernels.guest_cycles_per_job", "count",
        [&](size_t p) { return perJob(p, kernels[p].cycles); });
}

void
addEngineLayers(Report &rep, const EngineStats &es, double handoff_us,
                double steals_per_1k, double stolen_per_1k)
{
    std::vector<double> qw = es.queue_wait_us;
    std::sort(qw.begin(), qw.end());
    rep.layer.push_back(
        {"engine.queue_wait_us.p50", quantileSorted(qw, 0.5), "us"});
    const Percentile tail = tailPercentile(qw, {0.99});
    rep.layer.push_back({"engine.queue_wait_us.p99", tail.value, "us"});
    rep.notes.push_back(strprintf(
        "engine.queue_wait_us tail: p%g over %zu jobs (%zu beyond)",
        tail.q * 100, tail.count, tail.beyond));
    for (size_t p = 0; p < kPrograms; ++p)
        rep.layer.push_back({"engine.job_host_us." + programName(p),
                             median(es.host_us[p]), "us"});
    rep.layer.push_back(
        {"engine.sched_overhead_us", es.schedOverheadUs(), "us"});
    rep.layer.push_back({"engine.utilization", es.utilization(), "share"});
    rep.layer.push_back({"engine.handoff_us", handoff_us, "us"});
    rep.layer.push_back({"engine.steals", steals_per_1k, "per_1k_jobs"});
    rep.layer.push_back(
        {"engine.jobs_stolen", stolen_per_1k, "per_1k_jobs"});
}

/**
 * Waterfall row, mean microseconds per request, outermost layer first.
 * @p host_us (job host time per request) is split into the simulator
 * phases in the proportions the probe measured for the request's hops,
 * so the row adds up to its total.
 */
std::string
waterfall(const std::string &workload, double service_us, double engine_us,
          double host_us, const std::array<double, kPrograms> &hops_per_request,
          const SimProbe &sim)
{
    PhaseTimes probe;
    for (size_t p = 0; p < kPrograms; ++p) {
        probe.reset += hops_per_request[p] * sim.phase_median[p].reset;
        probe.input += hops_per_request[p] * sim.phase_median[p].input;
        probe.run += hops_per_request[p] * sim.phase_median[p].run;
        probe.extract += hops_per_request[p] * sim.phase_median[p].extract;
    }
    const double probe_total =
        probe.reset + probe.input + probe.run + probe.extract;
    const double scale = probe_total > 0 ? host_us / probe_total : 0.0;
    return strprintf(
        "waterfall %s (us per request): total=%.2f service=%.2f "
        "engine=%.2f sim.reset=%.2f sim.input=%.2f sim.run=%.2f "
        "sim.extract=%.2f",
        workload.c_str(), service_us + engine_us + host_us, service_us,
        engine_us, probe.reset * scale, probe.input * scale,
        probe.run * scale, probe.extract * scale);
}

// ---------------------------------------------------------------------
// Timed phases, shared by every workload.

/** One equal-length slice of a timed phase. */
struct Interval
{
    double wall = 0; ///< seconds of measured work in the slice
    uint64_t ok = 0; ///< verified requests or jobs
    uint64_t instrs = 0;
    std::vector<double> latency_us;
};

/** Best figures over the intervals [from, from + kIntervals). */
struct Summary
{
    double throughput = 0, p50_us = 0, p99_us = 0, minstr_per_s = 0;
    size_t samples = 0, beyond_p99 = 0;
};

/**
 * Each figure is its best interval: the highest rate and the lowest
 * latency percentile.  The host's speed drops by up to half for seconds
 * at a time, from load outside this process, and a regression of the
 * program shows in every interval, the best one included.  Intervals
 * without latency samples give no latency figure.
 */
Summary
summarize(std::vector<Interval> &intervals, size_t from)
{
    std::vector<double> tput, p50, p99, gips;
    Summary s;
    for (size_t k = from; k < from + kIntervals; ++k) {
        Interval &iv = intervals[k];
        std::sort(iv.latency_us.begin(), iv.latency_us.end());
        const double wall = iv.wall > 0 ? iv.wall : 1;
        tput.push_back(static_cast<double>(iv.ok) / wall);
        gips.push_back(static_cast<double>(iv.instrs) / wall / 1e6);
        if (iv.latency_us.empty())
            continue;
        p50.push_back(quantileSorted(iv.latency_us, 0.5));
        const Percentile tail = tailPercentile(iv.latency_us, {0.99});
        p99.push_back(tail.value);
        s.samples += tail.count;
        s.beyond_p99 += tail.beyond;
    }
    s.throughput = *std::max_element(tput.begin(), tput.end());
    s.minstr_per_s = *std::max_element(gips.begin(), gips.end());
    if (!p50.empty()) {
        s.p50_us = *std::min_element(p50.begin(), p50.end());
        s.p99_us = *std::min_element(p99.begin(), p99.end());
    }
    return s;
}

/** The end-to-end metrics, plus notes on the samples behind them. */
void
addEndToEnd(Report &rep, const Summary &s, const std::vector<double> &setup_s,
            const std::vector<Interval> &intervals)
{
    rep.throughput = s.throughput;
    rep.e2e = {
        {"throughput_per_s", s.throughput, "1/s"},
        {"latency_p50_us", s.p50_us, "us"},
        {"latency_p99_us", s.p99_us, "us"},
        {"setup_s", *std::min_element(setup_s.begin(), setup_s.end()), "s"},
        {"peak_rss_mb", peakRssMb(), "MB"},
        {"guest_minstr_per_s", s.minstr_per_s, "Minstr/s"},
    };
    rep.notes.push_back(strprintf(
        "latency samples: %zu over %u intervals (p99 per interval, %zu "
        "samples beyond it in total)",
        s.samples, kIntervals, s.beyond_p99));
    std::string setups = "setup samples (ms):";
    for (double v : setup_s)
        setups += strprintf(" %.1f", v * 1e3);
    rep.notes.push_back(setups);
    std::vector<double> all;
    std::string per = "per interval (ok/s, p50 us):";
    for (size_t k = 0; k < kIntervals; ++k) {
        const Interval &iv = intervals[k];
        all.insert(all.end(), iv.latency_us.begin(), iv.latency_us.end());
        per += strprintf(" %.0f/%.0f",
                         iv.wall > 0 ? static_cast<double>(iv.ok) / iv.wall : 0,
                         quantileSorted(iv.latency_us, 0.5));
    }
    rep.notes.push_back(per);
    std::sort(all.begin(), all.end());
    std::string shape = "latency shape (us):";
    for (double q : {0.1, 0.25, 0.5, 0.75, 0.9, 0.99, 0.999})
        shape += strprintf(" p%g=%.1f", q * 100, quantileSorted(all, q));
    rep.notes.push_back(shape);
}

/** 1 - traced / untraced throughput, with a note giving both. */
double
traceOverhead(Report &rep, const Summary &untraced, const Summary &traced)
{
    const double overhead =
        untraced.throughput > 0 ? 1.0 - traced.throughput / untraced.throughput
                                : 0.0;
    rep.notes.push_back(strprintf(
        "tracing overhead: throughput %.1f/s untraced vs %.1f/s traced "
        "(%.2f%%)",
        untraced.throughput, traced.throughput, overhead * 100));
    return overhead;
}

// ---------------------------------------------------------------------
// serve_saturate / serve_idle.

/** Offset of the id field in an encoded request frame. */
constexpr size_t kIdOffset = 4 + 8;
/**
 * How long a request is sent again after kRejectedBusy answers before
 * the refusal counts as a failure.  The client resends at once and
 * ignores the retry hint: no workload comes near the admission
 * watermark, so a refusal here is the engine's pending-count race (see
 * ROADMAP), which lasts as long as a submitting thread is preempted and
 * whose hint then reads up to 5 s.  The resends are reported as
 * service.rejected_busy.
 */
constexpr double kBusyRetryUs = 5e6;

Report
runServe(const Cli &cli, size_t window, SpanLog &spans)
{
    Report rep;
    mkdir(cli.out_dir.c_str(), 0755);
    auto sockPath = [&](unsigned rep_idx) {
        return strprintf("%s/perfbench-%d-%u.sock", cli.out_dir.c_str(),
                         static_cast<int>(getpid()), rep_idx);
    };

    std::vector<Request> pool = makeMix(cli.seed, kServePerClass);
    const Request &first = pool.front();

    // setup_s: Server construction + start() + the first verified result.
    // Half the set-ups run before the timed phase, whose server is the
    // last of them, and half after it.
    std::vector<double> setup_s;
    std::unique_ptr<Server> server;
    Client client;
    auto setUp = [&](unsigned i) {
        if (server) {
            client.close();
            server->drain();
            server.reset();
        }
        const auto t0 = Clock::now();
        Server::Options so;
        so.unix_path = sockPath(i);
        so.engine = engineOptions();
        so.quiet = true;
        server = std::make_unique<Server>(so);
        server->start();
        if (!client.connectUnix(so.unix_path)) {
            std::fprintf(stderr, "perfbench: connect %s: %s\n",
                         so.unix_path.c_str(), std::strerror(errno));
            std::exit(1);
        }
        RequestHeader h;
        h.cls = first.cls;
        h.id = 1;
        Response resp;
        const double sent_us = spans.nowUs();
        bool ok = client.call(h, first.body, &resp);
        while (ok && resp.header.status == Status::kRejectedBusy &&
               spans.nowUs() - sent_us < kBusyRetryUs) {
            ++rep.busy_retries;
            ok = client.call(h, first.body, &resp);
        }
        // A failed call counts as a protocol failure.
        rep.tally.recordResponse(
            ok ? resp.header.status : Status::kShuttingDown,
            ok && resp.body == first.expected);
        setup_s.push_back(secondsBetween(t0, Clock::now()));
    };
    for (unsigned i = 0; i < kSetupReps / 2; ++i)
        setUp(i);
    const EngineSet &served = server->engines();

    // Guest statistics identity and per-request guest work, off the clock.
    ProgramSet programs = buildPrograms(spans);
    ChainRun chains = chainOnMachines(served, programs, pool, rep.tally);
    {
        auto ecdh = makeEcdh(cli.seed, 2);
        chainOnMachines(served, programs, ecdh, rep.tally);
    }
    const ChainRun probe = probeChains(served, programs, rep.tally);
    const auto kernels = checkKernels(probe, rep.tally);

    // Pre-encoded frames; only the id is patched per send.
    std::vector<std::vector<uint8_t>> frames(pool.size());
    for (size_t i = 0; i < pool.size(); ++i) {
        RequestHeader h;
        h.cls = pool[i].cls;
        appendRequestFrame(frames[i], h, pool[i].body.data(),
                           pool[i].body.size());
    }

    // The closed loop.  Ids start above the set-up ones; id % pool size
    // picks the request.  A warm-up precedes the timed intervals; with
    // tracing on, the timed span is measured twice, untraced then traced.
    const double warmup_s = std::min(0.5, cli.seconds / 10);
    const double phase_s = cli.trace ? cli.seconds / 2 : cli.seconds;
    const double interval_s = phase_s / kIntervals;
    const double end_s = warmup_s + (cli.trace ? 2 : 1) * phase_s;
    const uint64_t span_stride = window > 1 ? 32 : 8;
    // Send times by id; at most `window` ids are in flight, so a small
    // ring keeps the process's memory independent of the request rate.
    std::vector<double> send_us(4096);
    uint64_t next_id = pool.size() * 4;
    const uint64_t first_id = next_id;
    std::vector<Interval> intervals(2 * kIntervals);
    for (Interval &iv : intervals)
        iv.wall = interval_s;
    const double submitted0 = jobsSubmitted(served);
    const auto steals0 = stealCounts(served);
    uint64_t loop_ok = 0;
    const auto batch_hist0 = server->metrics().histogram("submit_batch_jobs");

    const auto epoch = Clock::now();
    auto now_s = [&] { return secondsBetween(epoch, Clock::now()); };
    auto queueId = [&](uint64_t id) {
        auto &frame = frames[id % pool.size()];
        for (unsigned b = 0; b < 8; ++b)
            frame[kIdOffset + b] = static_cast<uint8_t>(id >> (8 * b));
        client.queueRaw(frame.data(), frame.size());
    };
    auto sendOne = [&] {
        const uint64_t id = next_id++;
        queueId(id);
        send_us[id % send_us.size()] = spans.nowUs();
    };
    Response resp;
    size_t outstanding = 0;
    for (size_t i = 0; i < window; ++i, ++outstanding)
        sendOne();
    client.flush();
    bool sending = true;
    while (outstanding > 0) {
        if (!client.recvResponse(&resp, 10'000)) {
            std::fprintf(stderr, "perfbench: receive failed\n");
            ++rep.tally.protocol;
            ++rep.tally.attempted;
            break;
        }
        size_t drained = 0;
        do {
            --outstanding;
            ++drained;
            const double done_us = spans.nowUs();
            const uint64_t id = resp.header.id;
            if (id < first_id || id >= next_id) {
                ++rep.tally.protocol;
                ++rep.tally.attempted;
                continue;
            }
            if (resp.header.status == Status::kRejectedBusy &&
                done_us - send_us[id % send_us.size()] < kBusyRetryUs) {
                // Sent again under the same id, so its latency runs
                // from the first send.
                ++rep.busy_retries;
                queueId(id);
                ++outstanding;
                --drained;
                continue;
            }
            const Request &req = pool[id % pool.size()];
            const bool match = resp.header.status == Status::kOk &&
                               resp.body == req.expected;
            rep.tally.recordResponse(resp.header.status, match);
            loop_ok += match ? 1 : 0;
            if (rep.tally.verify_mismatch == 1 && !match &&
                resp.header.status == Status::kOk)
                std::fprintf(stderr, "perfbench: %s response differs from "
                                     "its host reference\n",
                             requestClassName(req.cls));
            const double t = (done_us - spans.toUs(epoch)) / 1e6 - warmup_s;
            if (t < 0 || t >= 2 * phase_s || !match)
                continue;
            const size_t k = std::min<size_t>(
                static_cast<size_t>(t / interval_s), 2 * kIntervals - 1);
            const double sent_us = send_us[id % send_us.size()];
            const double lat = done_us - sent_us;
            intervals[k].latency_us.push_back(lat);
            ++intervals[k].ok;
            intervals[k].instrs += chains.instrs_per_request[id % pool.size()];
            if (cli.trace && k >= kIntervals && id % span_stride == 0)
                spans.add("client.request", sent_us, done_us,
                          0, id, 1);
        } while (client.recvResponse(&resp, 0));
        if (sending && now_s() >= end_s)
            sending = false;
        if (sending)
            for (size_t i = 0; i < drained; ++i, ++outstanding)
                sendOne();
        client.flush();
    }

    // Service-side counters over the loop.
    const Metrics &sm = server->metrics();
    const auto hist = sm.histogram("submit_batch_jobs");
    const double batches =
        static_cast<double>(hist.count - batch_hist0.count);
    const double batch_jobs_mean =
        batches > 0 ? (hist.sum - batch_hist0.sum) / batches : 0.0;
    const double submitted = jobsSubmitted(served) - submitted0;
    const auto steals1 = stealCounts(served);
    const double hops_per_request =
        loop_ok ? submitted / static_cast<double>(loop_ok) : 0.0;
    client.close();
    server->drain();
    if (!server->countersConsistent())
        rep.invariants_ok = false;
    server.reset();
    for (unsigned i = kSetupReps / 2; i < kSetupReps; ++i)
        setUp(i);
    client.close();
    server->drain();

    // The untraced phase is the first kIntervals intervals.
    const Summary untraced = summarize(intervals, 0);
    addEndToEnd(rep, untraced, setup_s, intervals);
    if (!cli.trace)
        return rep;

    // ---- traced run: per-layer figures ----
    const double overhead =
        traceOverhead(rep, untraced, summarize(intervals, kIntervals));

    // In-process replay of the same requests through advance() and
    // submitBatch/wait on a private EngineSet, same window.
    EngineSet direct(engineOptions());
    EngineStats es;
    std::vector<double> direct_latency_us;
    double advance_s = 0;
    uint64_t advance_calls = 0;
    const auto replay_start = Clock::now();
    const double replay_budget = std::min(2.0, cli.seconds / 4);
    size_t cursor = 0;
    // Replayed requests get ids above any the client sent; every 16th
    // wave is traced, with all the spans of its requests.
    const uint64_t replay_base = uint64_t{1} << 40;
    for (uint64_t wave_no = 0;
         secondsBetween(replay_start, Clock::now()) < replay_budget;
         ++wave_no) {
        const uint64_t wave_base = replay_base + cursor + 1;
        const bool traced_wave = wave_no % 16 == 0;
        std::vector<Request> wave;
        for (size_t i = 0; i < window; ++i)
            wave.push_back(pool[cursor++ % pool.size()]);
        std::vector<double> batch_end;
        std::vector<Hop> hops;
        const double w0 = spans.nowUs();
        auto steps = driveRequests(
            direct, wave,
            engineRunner(direct, spans, &es, &batch_end, traced_wave,
                         wave_base),
            &hops, &advance_s, &advance_calls);
        const double w1 = spans.nowUs();
        es.wall_seconds += (w1 - w0) / 1e6;
        std::vector<double> done(wave.size(), w0);
        for (size_t i = 0; i < hops.size(); ++i)
            done[hops[i].request] =
                std::max(done[hops[i].request], batch_end[i]);
        for (size_t r = 0; r < wave.size(); ++r) {
            rep.tally.recordResponse(steps[r].status,
                                     responseMatches(wave[r], steps[r]));
            direct_latency_us.push_back(done[r] - w0);
            if (traced_wave)
                spans.add("service.advance", w0, done[r], 0, wave_base + r,
                          2);
        }
    }
    const double handoff =
        probeHandoffUs(direct, firstJobOf(chains.hops, EngineId::kAesBlock),
                       spans);
    SimProbe sim = probeSim(probe, programs, spans, rep.tally);

    const double served_p50 = untraced.p50_us;
    const double direct_p50 = median(direct_latency_us);
    const double per_1k = submitted > 0 ? 1000.0 / submitted : 0.0;
    rep.layer = {
        {"service.overhead_us", served_p50 - direct_p50, "us"},
        {"service.batch_jobs_mean", batch_jobs_mean, "jobs"},
        {"service.rejected_busy", static_cast<double>(rep.busy_retries),
         "count"},
        {"service.hops_per_request", hops_per_request, "count"},
        {"service.advance_us",
         advance_calls ? advance_s * 1e6 / static_cast<double>(advance_calls)
                       : 0.0,
         "us"},
    };
    addEngineLayers(rep, es, handoff, (steals1.first - steals0.first) * per_1k,
                    (steals1.second - steals0.second) * per_1k);
    addSetupLayers(rep, programs, sim, kernels);
    rep.layer.push_back({"trace.overhead_share", overhead, "share"});

    std::array<double, kPrograms> hops_per_req{};
    for (const Hop &h : chains.hops)
        hops_per_req[static_cast<size_t>(h.engine)] +=
            1.0 / static_cast<double>(pool.size());
    // Means, so the row adds up: served = service + replayed; replayed
    // = engine + job host time.
    double served_sum = 0;
    size_t served_n = 0;
    for (size_t k = 0; k < kIntervals; ++k)
        for (double v : intervals[k].latency_us) {
            served_sum += v;
            ++served_n;
        }
    const double replayed = static_cast<double>(direct_latency_us.size());
    const double served_mean = served_n ? served_sum / served_n : 0.0;
    const double replay_mean =
        std::accumulate(direct_latency_us.begin(), direct_latency_us.end(),
                        0.0) /
        std::max(1.0, replayed);
    const double host_us = es.host_seconds * 1e6 / std::max(1.0, replayed);
    rep.notes.push_back(waterfall(cli.workload, served_mean - replay_mean,
                                  replay_mean - host_us, host_us,
                                  hops_per_req, sim));
    return rep;
}

// ---------------------------------------------------------------------
// batch_direct.

Report
runDirect(const Cli &cli, SpanLog &spans)
{
    Report rep;
    std::vector<Request> requests = makeMix(cli.seed, kDirectPerClass);
    const size_t mix_requests = requests.size();
    {
        auto ecdh = makeEcdh(cli.seed, kDirectEcdh);
        requests.insert(requests.end(), ecdh.begin(), ecdh.end());
    }

    // setup_s: EngineSet construction + the first verified result.  Half
    // the set-ups run before the timed phase, whose engines are the last
    // of them, and half after it.
    std::vector<double> setup_s;
    std::unique_ptr<EngineSet> engines;
    auto setUp = [&] {
        engines.reset();
        const auto t0 = Clock::now();
        engines = std::make_unique<EngineSet>(engineOptions());
        auto steps = driveRequests(
            *engines, {requests.front()},
            engineRunner(*engines, spans, nullptr, nullptr, false, 0),
            nullptr);
        rep.tally.recordResponse(steps[0].status,
                                 responseMatches(requests.front(), steps[0]));
        setup_s.push_back(secondsBetween(t0, Clock::now()));
    };
    for (unsigned i = 0; i < kSetupReps / 2; ++i)
        setUp();

    // The round: every hop of every request, one batch per program,
    // with the engine's own results as the per-job expectation once the
    // chains verified against the host references.
    ProgramSet programs = buildPrograms(spans);
    std::vector<Hop> hops;
    double advance_s = 0;
    uint64_t advance_calls = 0;
    {
        auto steps = driveRequests(
            *engines, requests,
            engineRunner(*engines, spans, nullptr, nullptr, false, 0),
            &hops, &advance_s, &advance_calls);
        for (size_t r = 0; r < requests.size(); ++r)
            rep.tally.recordResponse(steps[r].status,
                                     responseMatches(requests[r], steps[r]));
    }
    std::array<std::vector<Job>, kPrograms> round_jobs;
    std::array<std::vector<const JobResult *>, kPrograms> expected;
    std::array<std::vector<size_t>, kPrograms> owner;
    std::array<double, kPrograms> hops_per_req{};
    for (const Hop &h : hops) {
        const size_t p = static_cast<size_t>(h.engine);
        round_jobs[p].push_back(h.job);
        expected[p].push_back(&h.result);
        owner[p].push_back(h.request);
        if (h.request < mix_requests)
            hops_per_req[p] += 1.0 / static_cast<double>(mix_requests);
    }
    // Plain-dispatch identity on a sample of this seed's jobs.
    {
        auto sample = makeMix(cli.seed, 4);
        auto ecdh = makeEcdh(cli.seed, 2);
        sample.insert(sample.end(), ecdh.begin(), ecdh.end());
        chainOnMachines(*engines, programs, sample, rep.tally);
    }
    const ChainRun probe = probeChains(*engines, programs, rep.tally);
    const auto kernels = checkKernels(probe, rep.tally);

    const double warmup_s = std::min(0.5, cli.seconds / 10);
    const double phase_s = cli.trace ? cli.seconds / 2 : cli.seconds;
    const double interval_s = phase_s / kIntervals;
    std::vector<Interval> intervals(2 * kIntervals);
    // Engine-layer figures come from the traced half of a traced run; the
    // steal counts cover every round.
    EngineStats es;
    const auto steals0 = stealCounts(*engines);
    uint64_t rounds = 0;

    const auto epoch = Clock::now();
    for (;;) {
        const double t = secondsBetween(epoch, Clock::now()) - warmup_s;
        if (t >= (cli.trace ? 2 : 1) * phase_s)
            break;
        std::array<std::vector<Job>, kPrograms> jobs = round_jobs;
        std::array<BatchEngine::Ticket, kPrograms> tickets{};
        std::array<double, kPrograms> submit_us{};
        const auto r0 = Clock::now();
        for (size_t p = 0; p < kPrograms; ++p) {
            submit_us[p] = spans.nowUs();
            tickets[p] = engines->engine(static_cast<EngineId>(p))
                             .submitBatch(std::move(jobs[p]));
        }
        std::array<std::vector<JobResult>, kPrograms> results;
        for (size_t p = 0; p < kPrograms; ++p) {
            results[p] =
                engines->engine(static_cast<EngineId>(p)).wait(tickets[p]);
            if (spans.enabled() && t >= phase_s) {
                // Request ids: round number above the request index.
                const uint64_t b = spans.add("engine.batch", submit_us[p],
                                             spans.nowUs(), 0, 0, 3,
                                             programName(p));
                const size_t n = results[p].size();
                for (size_t i = 0; i < n; i += std::max<size_t>(1, n / 16))
                    addJobSpan(spans, submit_us[p], results[p][i], b,
                               (rounds << 20) + owner[p][i] + 1, p);
            }
        }
        const double wall = secondsBetween(r0, Clock::now());
        ++rounds;

        // Verify every job: outputs, words and guest statistics.
        Interval scratch;
        Interval &iv = t < 0 ? scratch
                             : intervals[std::min<size_t>(
                                   static_cast<size_t>(t / interval_s),
                                   2 * kIntervals - 1)];
        iv.wall += wall;
        for (size_t p = 0; p < kPrograms; ++p) {
            for (size_t i = 0; i < results[p].size(); ++i) {
                const JobResult &r = results[p][i];
                ++rep.tally.attempted;
                if (!r.ok()) {
                    ++rep.tally.trapped;
                    continue;
                }
                if (!sameResult(r, *expected[p][i])) {
                    ++rep.tally.verify_mismatch;
                    continue;
                }
                ++rep.tally.ok;
                ++iv.ok;
                iv.instrs += r.stats.instrs;
                // Every 16th job's latency: enough samples for p99 in
                // every interval at a bounded memory cost.
                if (i % 16 == 0)
                    iv.latency_us.push_back(
                        (r.start_seconds + r.host_seconds) * 1e6);
                if (cli.trace && t >= phase_s)
                    es.add(p, r);
            }
        }
        if (cli.trace && t >= phase_s)
            es.wall_seconds += wall;
    }
    const auto steals1 = stealCounts(*engines);
    for (unsigned i = kSetupReps / 2; i < kSetupReps; ++i)
        setUp();
    if (rep.tally.trapped || rep.tally.verify_mismatch)
        std::fprintf(stderr, "perfbench: %llu batch_direct jobs trapped or "
                             "differ from their verified expectation\n",
                     static_cast<unsigned long long>(
                         rep.tally.trapped + rep.tally.verify_mismatch));

    // Mix share of the round's host time, from the set-up run's results.
    double mix_host = 0, all_host = 0;
    for (const Hop &h : hops) {
        all_host += h.result.host_seconds;
        if (h.request < mix_requests)
            mix_host += h.result.host_seconds;
    }
    const double mix_share = all_host > 0 ? mix_host / all_host : 0.0;

    const Summary untraced = summarize(intervals, 0);
    addEndToEnd(rep, untraced, setup_s, intervals);
    // Mix requests per second: rounds per second times the round's mix
    // requests, over the mix's share of the round's host time.
    rep.mix_direct_rps =
        mix_share > 0 ? untraced.throughput / static_cast<double>(hops.size()) *
                            static_cast<double>(mix_requests) / mix_share
                      : 0.0;
    rep.notes.push_back(strprintf(
        "round: %zu jobs (%zu mix requests + %u ecdh), %llu rounds; "
        "mix share of host time %.3f; direct mix rate %.1f requests/s",
        hops.size(), mix_requests, kDirectEcdh,
        static_cast<unsigned long long>(rounds), mix_share,
        rep.mix_direct_rps));
    if (!cli.trace)
        return rep;

    const double overhead =
        traceOverhead(rep, untraced, summarize(intervals, kIntervals));
    const double handoff = probeHandoffUs(
        *engines, firstJobOf(hops, EngineId::kAesBlock), spans);
    SimProbe sim = probeSim(probe, programs, spans, rep.tally);
    const double per_1k =
        1000.0 / static_cast<double>(std::max<uint64_t>(1, rounds * hops.size()));
    rep.layer = {
        {"service.overhead_us", 0.0, "us"},
        {"service.batch_jobs_mean",
         static_cast<double>(hops.size()) / static_cast<double>(kPrograms),
         "jobs"},
        {"service.rejected_busy", 0.0, "count"},
        {"service.hops_per_request",
         static_cast<double>(hops.size()) /
             static_cast<double>(requests.size()),
         "count"},
        {"service.advance_us",
         advance_calls ? advance_s * 1e6 / static_cast<double>(advance_calls)
                       : 0.0,
         "us"},
    };
    addEngineLayers(rep, es, handoff, (steals1.first - steals0.first) * per_1k,
                    (steals1.second - steals0.second) * per_1k);
    addSetupLayers(rep, programs, sim, kernels);
    rep.layer.push_back({"trace.overhead_share", overhead, "share"});

    const double jobs_per_req =
        static_cast<double>(hops.size()) / static_cast<double>(requests.size());
    rep.notes.push_back(waterfall(
        cli.workload, 0.0, es.schedOverheadUs() * jobs_per_req,
        es.jobs ? es.host_seconds * 1e6 / static_cast<double>(es.jobs) *
                      jobs_per_req
                : 0.0,
        hops_per_req, sim));
    return rep;
}

// ---------------------------------------------------------------------

int
usage()
{
    std::fprintf(stderr,
                 "usage: gfp-perfbench --workload "
                 "serve_saturate|serve_idle|batch_direct|all\n"
                 "       [--seed N] [--seconds S] [--trace 0|1] "
                 "[--commit ID] [--out-dir DIR]\n");
    return 2;
}

Report
runWorkload(const Cli &cli, SpanLog &spans)
{
    if (cli.workload == "serve_saturate")
        return runServe(cli, kSaturateWindow, spans);
    if (cli.workload == "serve_idle")
        return runServe(cli, 1, spans);
    return runDirect(cli, spans);
}

void
printReport(const std::string &workload, const Report &rep, bool trace)
{
    for (const std::string &note : rep.notes)
        std::printf("%s: %s\n", workload.c_str(), note.c_str());
    std::printf("%s: attempted=%llu ok=%llu rejected_busy=%llu trapped=%llu "
                "deadline=%llu bad_request=%llu protocol=%llu "
                "verify_mismatch=%llu stat_mismatch=%llu\n",
                workload.c_str(),
                static_cast<unsigned long long>(rep.tally.attempted),
                static_cast<unsigned long long>(rep.tally.ok),
                static_cast<unsigned long long>(rep.tally.rejected_busy),
                static_cast<unsigned long long>(rep.tally.trapped),
                static_cast<unsigned long long>(rep.tally.deadline),
                static_cast<unsigned long long>(rep.tally.bad_request),
                static_cast<unsigned long long>(rep.tally.protocol),
                static_cast<unsigned long long>(rep.tally.verify_mismatch),
                static_cast<unsigned long long>(rep.tally.stat_mismatch));
    std::printf("%s: busy refusals sent again: %llu\n", workload.c_str(),
                static_cast<unsigned long long>(rep.busy_retries));
    std::printf("%s: metric error_rate = %.6g share\n", workload.c_str(),
                rep.tally.errorRate());
    // A traced run prints both sets (its end-to-end figures come from
    // its untraced half); the JSON result carries only one.
    for (const Metric &m : rep.e2e)
        std::printf("%s: metric %s = %.6g %s\n", workload.c_str(),
                    m.name.c_str(), m.value, m.unit.c_str());
    if (trace)
        for (const Metric &m : rep.layer)
            std::printf("%s: metric %s = %.6g %s\n", workload.c_str(),
                        m.name.c_str(), m.value, m.unit.c_str());
}

} // namespace

int
main(int argc, char **argv)
{
    Cli cli;
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        if (i + 1 >= argc)
            return usage();
        const char *val = argv[++i];
        if (arg == "--workload")
            cli.workload = val;
        else if (arg == "--seed")
            cli.seed = std::strtoull(val, nullptr, 10);
        else if (arg == "--seconds")
            cli.seconds = std::atof(val);
        else if (arg == "--trace")
            cli.trace = std::string(val) == "1";
        else if (arg == "--commit")
            cli.commit = val;
        else if (arg == "--out-dir")
            cli.out_dir = val;
        else
            return usage();
    }
    const std::vector<std::string> all = {"serve_saturate", "serve_idle",
                                          "batch_direct"};
    if (cli.seconds <= 0 ||
        (cli.workload != "all" &&
         std::find(all.begin(), all.end(), cli.workload) == all.end()))
        return usage();

    std::printf("host: %s\n", hostHeader(cli.commit).c_str());
    std::fflush(stdout);
    mkdir(cli.out_dir.c_str(), 0755);

    const std::vector<std::string> names =
        cli.workload == "all" ? all : std::vector<std::string>{cli.workload};
    std::vector<Metric> combined;
    Tally total;
    bool correct = true;
    std::map<std::string, Report> reports;
    for (const std::string &name : names) {
        if (name != names.front() && !resetPeakRss()) {
            std::fprintf(stderr, "perfbench: cannot reset the peak resident "
                                 "set; run the workloads one by one\n");
            return 2;
        }
        Cli one = cli;
        one.workload = name;
        SpanLog spans(cli.trace);
        Report rep = runWorkload(one, spans);
        printReport(name, rep, cli.trace);
        if (cli.trace) {
            const std::string path =
                strprintf("%s/trace_%s.json", cli.out_dir.c_str(),
                          name.c_str());
            if (!spans.writeChromeTrace(path)) {
                std::fprintf(stderr, "perfbench: cannot write %s\n",
                             path.c_str());
                correct = false;
            }
            else {
                std::printf("%s: trace %s (%zu spans)\n", name.c_str(),
                            path.c_str(), spans.size());
            }
        }
        correct = correct && !rep.tally.outputsWrong() && rep.invariants_ok;
        total += rep.tally;
        const auto &metrics = cli.trace ? rep.layer : rep.e2e;
        for (const Metric &m : metrics)
            combined.push_back(
                {names.size() > 1 ? name + "." + m.name : m.name, m.value,
                 m.unit});
        reports.emplace(name, std::move(rep));
    }
    if (names.size() > 1) {
        const Report &sat = reports.at("serve_saturate");
        const Report &dir = reports.at("batch_direct");
        const double ratio =
            dir.mix_direct_rps > 0 ? sat.throughput / dir.mix_direct_rps : 0;
        std::printf("served_over_direct = %.4f (serve_saturate %.1f "
                    "requests/s over batch_direct %.1f mix requests/s, "
                    "same run)\n",
                    ratio, sat.throughput, dir.mix_direct_rps);
        combined.push_back({"served_over_direct", ratio, "ratio"});
    }
    std::printf("%s\n", resultJson(correct, total, combined).c_str());
    return correct ? 0 : 1;
}
