#include "harness.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <iterator>
#include <thread>
#include <tuple>

#include "common/strutil.h"
#include "common/trace_event.h"
#include "gf/clmul.h"
#include "jit/translator.h"
#include "sim/machine.h"

namespace perfbench {

using gfp::service::Status;

double
quantileSorted(const std::vector<double> &sorted, double q)
{
    if (sorted.empty())
        return 0;
    // Nearest rank: the smallest sample with at least q of the mass at
    // or below it.
    size_t rank = static_cast<size_t>(
        std::ceil(q * static_cast<double>(sorted.size())));
    rank = std::clamp<size_t>(rank, 1, sorted.size());
    return sorted[rank - 1];
}

double
median(std::vector<double> v)
{
    std::sort(v.begin(), v.end());
    return quantileSorted(v, 0.5);
}

Percentile
tailPercentile(const std::vector<double> &sorted,
               const std::vector<double> &levels, size_t min_beyond)
{
    const size_t n = sorted.size();
    std::vector<double> desc = levels;
    std::sort(desc.rbegin(), desc.rend());
    for (double q : desc) {
        size_t rank =
            static_cast<size_t>(std::ceil(q * static_cast<double>(n)));
        rank = std::clamp<size_t>(rank, n ? 1 : 0, n);
        if (n - rank >= min_beyond)
            return {q, quantileSorted(sorted, q), n, n - rank};
    }
    const size_t rank = (n + 1) / 2;
    return {0.5, quantileSorted(sorted, 0.5), n, n - rank};
}

void
Tally::recordResponse(Status status, bool body_matches)
{
    ++attempted;
    switch (status) {
    case Status::kOk:
        if (body_matches)
            ++ok;
        else
            ++verify_mismatch;
        break;
    case Status::kRejectedBusy:
        ++rejected_busy;
        break;
    case Status::kTrapped:
        ++trapped;
        break;
    case Status::kDeadlineExpired:
        ++deadline;
        break;
    case Status::kBadRequest:
        ++bad_request;
        break;
    default: // shutting down, unknown class: never expected here
        ++protocol;
        break;
    }
}

uint64_t
Tally::failed() const
{
    return rejected_busy + trapped + deadline + bad_request + protocol +
           verify_mismatch + stat_mismatch;
}

double
Tally::errorRate() const
{
    return attempted ? static_cast<double>(failed()) /
                           static_cast<double>(attempted)
                     : 0.0;
}

Tally &
Tally::operator+=(const Tally &o)
{
    attempted += o.attempted;
    ok += o.ok;
    rejected_busy += o.rejected_busy;
    trapped += o.trapped;
    deadline += o.deadline;
    bad_request += o.bad_request;
    protocol += o.protocol;
    verify_mismatch += o.verify_mismatch;
    stat_mismatch += o.stat_mismatch;
    return *this;
}

bool
sameStats(const gfp::CycleStats &a, const gfp::CycleStats &b)
{
    auto fields = [](const gfp::CycleStats &s) {
        return std::tie(s.instrs, s.cycles, s.load_ops, s.load_cycles,
                        s.store_ops, s.store_cycles, s.alu_ops,
                        s.alu_cycles, s.branch_ops, s.branch_cycles,
                        s.ctrl_ops, s.ctrl_cycles, s.gf_simd_ops,
                        s.gf_simd_cycles, s.gf32_ops, s.gf32_cycles,
                        s.gfcfg_ops, s.gfcfg_cycles, s.faults_mem,
                        s.faults_reg, s.faults_cfg);
    };
    return fields(a) == fields(b);
}

bool
sameResult(const gfp::JobResult &a, const gfp::JobResult &b)
{
    return a.trap.kind == b.trap.kind && a.outputs == b.outputs &&
           a.words == b.words && sameStats(a.stats, b.stats);
}

std::string
hostHeader(const std::string &commit)
{
    return gfp::strprintf("nproc=%u jit=%s clmul=%s build=%s commit=%s",
                          std::max(1u, std::thread::hardware_concurrency()),
                          gfp::jit::nativeBackendName(),
                          gfp::clmulBackend().name, GFP_BENCH_BUILD_TYPE,
                          commit.c_str());
}

std::string
resultJson(bool correct, const Tally &tally,
           const std::vector<Metric> &metrics)
{
    std::string out = gfp::strprintf(
        "{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
        "\"metrics\": {",
        correct ? "true" : "false",
        static_cast<unsigned long long>(tally.attempted),
        static_cast<unsigned long long>(tally.failed()));
    for (size_t i = 0; i < metrics.size(); ++i) {
        const double v = std::isfinite(metrics[i].value) ? metrics[i].value
                                                         : 0.0;
        out += gfp::strprintf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                              i ? ", " : "", metrics[i].name.c_str(), v,
                              metrics[i].unit.c_str());
    }
    out += "}}";
    return out;
}

uint64_t
SpanLog::add(const std::string &name, double start_us, double end_us,
             uint64_t parent, uint64_t request, int track,
             const std::string &detail)
{
    if (!enabled_)
        return 0;
    const uint64_t id = spans_.size() + 1;
    spans_.push_back(
        {name, start_us, end_us, id, parent, request, track, detail});
    return id;
}

void
SpanLog::end(uint64_t id, double end_us)
{
    if (enabled_ && id > 0 && id <= spans_.size())
        spans_[id - 1].end_us = end_us;
}

bool
SpanLog::writeChromeTrace(const std::string &path) const
{
    gfp::TraceLog log;
    log.processName(1, "gfp perfbench");
    for (const Span &s : spans_) {
        const std::string layer = s.name.substr(0, s.name.find('.'));
        gfp::TraceLog::Args args = {{"id", std::to_string(s.id)},
                                    {"parent", std::to_string(s.parent)},
                                    {"request", std::to_string(s.request)}};
        if (!s.detail.empty())
            args.emplace_back("detail", s.detail);
        log.complete(s.name, layer, s.start_us, s.end_us - s.start_us, 1,
                     s.track, std::move(args));
    }
    if (!log.writeTo(path))
        return false;
    std::ifstream in(path);
    const std::string doc((std::istreambuf_iterator<char>(in)),
                          std::istreambuf_iterator<char>());
    std::string error;
    if (!gfp::validateTraceEventJson(doc, &error)) {
        std::fprintf(stderr, "perfbench: %s: %s\n", path.c_str(),
                     error.c_str());
        return false;
    }
    return true;
}

gfp::JobResult
runJobTimed(gfp::Machine &machine, const gfp::Job &job, PhaseTimes *phases)
{
    const auto t0 = Clock::now();
    machine.fullReset();
    const auto t1 = Clock::now();
    for (const auto &[label, bytes] : job.inputs)
        machine.writeBytes(label, bytes);
    for (const auto &[label, value] : job.word_inputs)
        machine.writeWord(label, value);
    for (size_t i = 0; i < job.args.size(); ++i)
        machine.core().setReg(static_cast<unsigned>(i), job.args[i]);
    const auto t2 = Clock::now();
    gfp::RunResult run = machine.runToHalt(job.max_instrs ? job.max_instrs
                                                          : 500'000'000);
    const auto t3 = Clock::now();
    gfp::JobResult res;
    res.trap = run.trap;
    res.stats = run.stats;
    if (run.ok()) {
        for (const auto &[label, len] : job.outputs)
            res.outputs.emplace(label, machine.readBytes(label, len));
        for (const auto &label : job.word_outputs)
            res.words.emplace(label, machine.readWord(label));
    }
    const auto t4 = Clock::now();
    if (phases) {
        phases->reset = secondsBetween(t0, t1);
        phases->input = secondsBetween(t1, t2);
        phases->run = secondsBetween(t2, t3);
        phases->extract = secondsBetween(t3, t4);
    }
    res.host_seconds = secondsBetween(t0, t4);
    return res;
}

} // namespace perfbench
