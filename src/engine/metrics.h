/**
 * @file
 * A small metrics registry for the batch engine: named counters,
 * gauges, and histograms, snapshotted to JSON.
 *
 * The registry is deliberately schema-free — callers create a metric
 * by touching its name — and thread-safe, so engine workers can record
 * into it concurrently.  Conventions used by BatchEngine (documented
 * in docs/PROFILING.md):
 *
 *   counters    jobs_total, jobs_failed_total, trap_<kind>_total
 *               (run()-scoped; recorded when a run's telemetry lands);
 *               jobs_submitted_total, jobs_completed_total,
 *               jobs_trapped_total (recorded live at submission and
 *               batch completion, and per job by runOn(), so they
 *               accumulate across submitBatch()/wait() cycles — the
 *               scheduler invariant is submitted == completed +
 *               trapped once drained)
 *   gauges      workers, jobs_per_sec, queue_depth_peak,
 *               worker<i>_utilization (busy time / wall time)
 *   histograms  job_host_us (per-job host wall-clock, microseconds),
 *               job_guest_cycles
 *
 * Histograms keep count/sum/min/max plus power-of-two buckets
 * (le 1, 2, 4, ... 2^30), enough for latency shape without a
 * quantile sketch.
 */

#ifndef GFP_ENGINE_METRICS_H
#define GFP_ENGINE_METRICS_H

#include <array>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>

namespace gfp {

class Metrics
{
  public:
    static constexpr unsigned kHistBuckets = 31; ///< le 2^0 .. 2^29, +inf

    struct Histogram
    {
        uint64_t count = 0;
        double sum = 0;
        double min = 0;
        double max = 0;
        /** bucket[i] counts observations <= 2^i; the last is +inf. */
        std::array<uint64_t, kHistBuckets> buckets{};
    };

    /** Add @p delta (default 1) to a monotonic counter. */
    void add(const std::string &name, double delta = 1.0);

    /** Set a gauge to its current value. */
    void set(const std::string &name, double value);

    /** Record one observation into a histogram. */
    void observe(const std::string &name, double value);

    double counter(const std::string &name) const;
    double gauge(const std::string &name) const;
    Histogram histogram(const std::string &name) const;

    /**
     * Estimate the @p q quantile (0 < q < 1, e.g. 0.5 / 0.99) of a
     * histogram from its power-of-two buckets by log-linear
     * interpolation inside the containing bucket, clamped to the
     * observed [min, max].  Exact when all mass is in one bucket;
     * otherwise within a factor of 2 by construction — enough for the
     * p50/p99 latency reporting the serving layer does.  Returns 0 for
     * an empty histogram.
     */
    static double quantile(const Histogram &h, double q);

    void clear();

    /** {"counters": {...}, "gauges": {...}, "histograms": {...}} */
    std::string toJson() const;

    /** Write toJson() to @p path; false on I/O failure. */
    bool writeTo(const std::string &path) const;

  private:
    mutable std::mutex mu_;
    std::map<std::string, double> counters_;
    std::map<std::string, double> gauges_;
    std::map<std::string, Histogram> histograms_;
};

} // namespace gfp

#endif // GFP_ENGINE_METRICS_H
