/**
 * @file
 * Measurement plumbing of the benchmark program: percentile selection,
 * failure accounting, metric output, the host header, in-memory spans
 * written once as a Chrome trace, and a timed single-job runner that
 * splits one guest job into the simulator's reset / input / run /
 * extract phases.  Everything here times calls into the public APIs
 * from outside; nothing reaches into the library's internals.
 */

#ifndef GFP_PERFBENCH_HARNESS_H
#define GFP_PERFBENCH_HARNESS_H

#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

#include "engine/batch_engine.h"
#include "service/wire.h"

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double
secondsBetween(Clock::time_point t0, Clock::time_point t1)
{
    return std::chrono::duration<double>(t1 - t0).count();
}

/** Nearest-rank quantile of an ascending-sorted sample (0 when empty). */
double quantileSorted(const std::vector<double> &sorted, double q);

/** Median of an unsorted sample (0 when empty). */
double median(std::vector<double> v);

/** One reported percentile: its level, value, and the sample counts
 *  that make it trustworthy. */
struct Percentile
{
    double q = 0;         ///< e.g. 0.99
    double value = 0;     ///< the sample at that rank
    size_t count = 0;     ///< samples in the distribution
    size_t beyond = 0;    ///< samples strictly above the rank
};

/**
 * The highest of @p levels (tried from the highest down) that has at
 * least @p min_beyond samples beyond it in @p sorted.  Falls back to the
 * median (count 0 when the sample is empty).
 */
Percentile tailPercentile(const std::vector<double> &sorted,
                          const std::vector<double> &levels = {0.999, 0.99,
                                                               0.9},
                          size_t min_beyond = 10);

/**
 * Failure accounting for one workload: every attempted operation is
 * counted exactly once, as ok or under one failure cause.
 */
struct Tally
{
    uint64_t attempted = 0;
    uint64_t ok = 0;
    uint64_t rejected_busy = 0;
    uint64_t trapped = 0;
    uint64_t deadline = 0;
    uint64_t bad_request = 0;
    uint64_t protocol = 0;        ///< malformed/unknown responses
    uint64_t verify_mismatch = 0; ///< OK status but wrong bytes
    /** Guest CycleStats differ from plain dispatch, or the modelled
     *  design's per-job figures differ from the committed ones. */
    uint64_t stat_mismatch = 0;

    /** Account one answered request: @p body_matches is whether an OK
     *  body equals its host reference (ignored for other statuses). */
    void recordResponse(gfp::service::Status status, bool body_matches);

    uint64_t failed() const;
    double errorRate() const;
    /**
     * Outputs were wrong, not merely refused: the run must fail.  Every
     * input is valid and carries no deadline, so anything but an OK
     * answer equal to its reference or a busy refusal is wrong.
     */
    bool outputsWrong() const { return failed() != rejected_busy; }
    Tally &operator+=(const Tally &o);
};

/** Guest statistics equality, field by field. */
bool sameStats(const gfp::CycleStats &a, const gfp::CycleStats &b);

/** Same outputs (byte blocks and words) and the same guest stats. */
bool sameResult(const gfp::JobResult &a, const gfp::JobResult &b);

/** Name, value, unit — one printed metric. */
struct Metric
{
    std::string name;
    double value = 0;
    std::string unit;
};

/** "nproc=... jit=... clmul=... build=... commit=..." */
std::string hostHeader(const std::string &commit);

/** The final result line: {"correct", "attempted", "failed", "metrics"}. */
std::string resultJson(bool correct, const Tally &tally,
                       const std::vector<Metric> &metrics);

/**
 * Spans kept in memory while tracing and written once at the end as a
 * Chrome trace through gfp::TraceLog.  Times are microseconds since the
 * recorder's epoch.  Disabled recorders ignore add() and return 0.
 */
class SpanLog
{
  public:
    explicit SpanLog(bool enabled) : enabled_(enabled) {}

    bool enabled() const { return enabled_; }

    double nowUs() const { return secondsBetween(epoch_, Clock::now()) * 1e6; }
    double toUs(Clock::time_point t) const
    {
        return secondsBetween(epoch_, t) * 1e6;
    }

    /** Record a finished span; returns its id (0 when disabled).
     *  @p request ties the spans of one request together; @p detail
     *  (e.g. the program a batch ran) is free text. */
    uint64_t add(const std::string &name, double start_us, double end_us,
                 uint64_t parent = 0, uint64_t request = 0, int track = 0,
                 const std::string &detail = {});

    /** Set the end of span @p id, for a parent recorded before its
     *  children finished. */
    void end(uint64_t id, double end_us);

    size_t size() const { return spans_.size(); }

    /** Write every span (args: id, parent, request, detail) to @p path
     *  and check that the written file parses as a Chrome trace. */
    bool writeChromeTrace(const std::string &path) const;

  private:
    struct Span
    {
        std::string name;
        double start_us;
        double end_us;
        uint64_t id;
        uint64_t parent;
        uint64_t request;
        int track;
        std::string detail;
    };

    bool enabled_;
    Clock::time_point epoch_ = Clock::now();
    std::vector<Span> spans_;
};

/** Host time of each simulator phase of one job, seconds. */
struct PhaseTimes
{
    double reset = 0, input = 0, run = 0, extract = 0;
};

/**
 * Run @p job on @p machine the way a batch-engine worker does
 * (fullReset, inputs, args, runToHalt, outputs), timing each phase.
 */
gfp::JobResult runJobTimed(gfp::Machine &machine, const gfp::Job &job,
                           PhaseTimes *phases);

} // namespace perfbench

#endif // GFP_PERFBENCH_HARNESS_H
