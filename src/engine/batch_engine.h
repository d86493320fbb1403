/**
 * @file
 * Multi-threaded batch execution engine: one FIFO of batches per
 * engine, a claim cursor per batch and one result slot per job.
 *
 * A single Machine interprets one guest program at a time on one
 * thread.  A BatchEngine runs many *independent* jobs — RS/BCH
 * codeword decodes, AES blocks, ECDH exchanges — over a persistent pool
 * of worker threads.  Each worker owns one reusable Machine built from
 * the shared Program and recycles it with Machine::fullReset() between
 * jobs (reset-and-rerun; the program is assembled exactly once per
 * engine, predecoded once per worker).
 *
 * Scheduling:
 *
 *  - submitBatch() appends the batch to the engine's FIFO of batches
 *    with unclaimed jobs, under the one engine mutex;
 *  - an idle worker claims the front batch's next job by advancing the
 *    batch's *claim cursor*, pops the batch once its last job is
 *    claimed, and runs the job outside the lock;
 *  - every batch owns a pre-sized result vector; slot i is written only
 *    by the worker that claimed job i, so each job runs exactly once
 *    and results come back in job order by construction, with no merge;
 *  - completion is an async signal (atomic countdown + condition
 *    variable), not a join: producers on any thread submitBatch() and
 *    wait() on their own tickets concurrently.
 *
 * Isolation guarantees:
 *  - jobs are data-driven (label-addressed input/output byte blocks),
 *    so nothing host-side is shared between workers during a run;
 *  - a faulting job (trap, watchdog, injected SEU) yields a JobResult
 *    carrying the Trap and no outputs — it never aborts the host, and
 *    fullReset() guarantees the *next* job on that worker starts from a
 *    pristine machine, so one bad job cannot poison the batch;
 *  - results are bit-for-bit identical to serial execution, whichever
 *    worker ran each job.
 *
 * Typical synchronous use:
 *
 *     BatchEngine eng(syndromeBatchProgram(field, n, 2 * t));
 *     std::vector<Job> jobs;
 *     for (const auto &rx : received_words)
 *         jobs.push_back(syndromeJob(rx, 2 * t));
 *     for (const JobResult &r : eng.run(jobs))
 *         if (r.ok()) use(r.bytes("synd"));
 *
 * Pipelined use (submission decoupled from completion):
 *
 *     auto t1 = eng.submitBatch(makeJobs(block1));
 *     auto t2 = eng.submitBatch(makeJobs(block2));  // any thread
 *     auto r1 = eng.wait(t1);                       // job-ordered
 *     auto r2 = eng.wait(t2);
 *
 * A caller with threads of its own (gfp-serve's request workers) skips
 * the pool: runOn() runs one job on the calling thread, over a Machine
 * that thread keeps.
 */

#ifndef GFP_ENGINE_BATCH_ENGINE_H
#define GFP_ENGINE_BATCH_ENGINE_H

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "common/trace_event.h"

#include "engine/metrics.h"
#include "isa/program.h"
#include "sim/cpu.h"
#include "sim/fault_injector.h"
#include "sim/machine.h"

namespace gfp {

namespace jit {
class CompiledProgram;
}

/**
 * One independent guest job: inputs to write before the run, outputs to
 * read back after a clean halt.  All labels resolve through the shared
 * program's symbol table; an unknown label is host misuse and fatal.
 */
struct Job
{
    /** r0..r3 call arguments (at most 4). */
    std::vector<uint32_t> args;

    /** Byte blocks written to labeled buffers before the run. */
    std::vector<std::pair<std::string, std::vector<uint8_t>>> inputs;

    /** Single words written to labeled buffers before the run. */
    std::vector<std::pair<std::string, uint32_t>> word_inputs;

    /** Labeled byte blocks to read back: (label, length). */
    std::vector<std::pair<std::string, size_t>> outputs;

    /** Labeled single words to read back. */
    std::vector<std::string> word_outputs;

    /** Optional SEU schedule delivered during this job only (see
     *  sim/fault_injector.h); the injected flips are confined to this
     *  job's machine state and wiped by the inter-job fullReset(). */
    std::vector<FaultEvent> faults;

    /** Per-job watchdog override; 0 uses the engine default. */
    uint64_t max_instrs = 0;
};

/** Outcome of one job.  Trap-isolating: a faulted job reports its Trap
 *  and carries no outputs, and neighboring jobs are unaffected. */
struct JobResult
{
    Trap trap;           ///< kind == kNone when the job halted cleanly
    CycleStats stats;    ///< guest cycle statistics of this job's run
    unsigned worker = 0; ///< index of the worker that ran the job

    /** Host wall-clock telemetry, relative to the submission instant of
     *  the batch that carried this job: when this job began on its
     *  worker and how long it held the worker.  Feeds the engine's
     *  Metrics histograms and trace export. */
    double start_seconds = 0;
    double host_seconds = 0;

    /** Outputs read back after a clean halt (empty if trapped). */
    std::map<std::string, std::vector<uint8_t>> outputs;
    std::map<std::string, uint32_t> words;

    bool ok() const { return !trap; }

    /** Convenience accessors; fatal if the label was not requested. */
    const std::vector<uint8_t> &bytes(const std::string &label) const;
    uint32_t word(const std::string &label) const;
};

/** A program plus the core variant it targets — what an engine runs. */
struct BatchProgram
{
    Program program;
    CoreKind kind = CoreKind::kGfProcessor;
};

class BatchEngine
{
  public:
    /** Trace pid for engine worker tracks (the guest tracer uses 1). */
    static constexpr int kEnginePid = 2;

    /** Handle for an in-flight batch; redeem with wait(). */
    using Ticket = uint64_t;

    struct Options
    {
        /** Worker threads; 0 picks std::thread::hardware_concurrency().
         */
        unsigned threads = 0;

        /** Default per-job instruction watchdog. */
        uint64_t max_instrs = 500'000'000;

        /** Memory size of each worker's machine. */
        size_t mem_bytes = 256 * 1024;

        /**
         * Dispatch mode for each worker's core (both modes are
         * bit-exact with single stepping; kPlain is the reference for
         * differential testing and debugging).  kTranslated compiles
         * the program once with the template JIT (src/jit) and shares
         * the translation across workers.
         */
        DispatchMode dispatch = DispatchMode::kTranslated;
    };

    BatchEngine(BatchProgram bp, Options opts);
    BatchEngine(const std::string &asm_source, CoreKind kind,
                Options opts);
    // Defaulted-Options overload (a `= {}` default argument for a
    // nested aggregate with member initializers trips GCC here).
    explicit BatchEngine(BatchProgram bp);

    /** Drains queued work, then stops and joins the worker pool.
     *  Results of tickets never redeemed with wait() are discarded. */
    ~BatchEngine();

    BatchEngine(const BatchEngine &) = delete;
    BatchEngine &operator=(const BatchEngine &) = delete;

    /** Worker threads the pool uses. */
    unsigned threads() const { return threads_; }

    const Program &program() const { return program_; }
    CoreKind kind() const { return kind_; }

    /**
     * Run all jobs across the worker pool.  Results are indexed like
     * @p jobs.  Never throws on guest faults; a trapped job is reported
     * in its JobResult.  Equivalent to submitBatch() + wait(), plus the
     * legacy per-run telemetry contract: the Metrics registry is
     * cleared first and describes only this run.
     */
    std::vector<JobResult> run(const std::vector<Job> &jobs);

    /**
     * Run the same jobs in order on a single reusable machine — the
     * differential reference for the parallel path (tests assert
     * bit-for-bit parity between run() and runSerial()).
     */
    std::vector<JobResult> runSerial(const std::vector<Job> &jobs);

    /**
     * Asynchronously submit a batch: it joins the engine's FIFO in one
     * lock acquisition and the pool starts on it immediately.
     * Thread-safe — any number of producer threads may submit
     * concurrently; each batch is tracked by its own ticket and
     * executes each job exactly once.  Unlike run(), the Metrics
     * registry is NOT cleared, so counters accumulate across batches
     * (that is what sustained-service callers want to watch).
     */
    Ticket submitBatch(std::vector<Job> jobs);

    /**
     * Block until every job of @p ticket has executed, then return its
     * results in job order.  Each ticket can be redeemed once; an
     * unknown or already-redeemed ticket is host misuse and fatal.
     */
    std::vector<JobResult> wait(Ticket ticket);

    /**
     * Run one job on the calling thread, over @p machine: a Machine the
     * caller keeps for this engine and uses from one thread at a time.
     * An empty @p machine is built on first use from program(), with
     * the engine's dispatch mode and shared translation.  The job counts
     * in jobs_submitted_total and in jobs_completed_total or
     * jobs_trapped_total, as a one-job batch would.  Thread-safe across
     * distinct machines.
     */
    JobResult runOn(std::unique_ptr<Machine> &machine, const Job &job);

    /**
     * Telemetry registry.  run()/runSerial() clear it first, so after a
     * synchronous run it describes exactly that run; across
     * submitBatch()/wait() it accumulates.  Naming conventions are
     * documented in engine/metrics.h (job/trap counters, jobs/s,
     * utilization gauges, latency histograms).
     */
    const Metrics &metrics() const { return metrics_; }

    /**
     * Attach a trace log (common/trace_event.h); every subsequent run
     * appends one "X" span per job on its worker's track (pid 2, one
     * tid per worker; args carry queue wait and trap kind) plus a
     * queue-depth counter series.  nullptr detaches.  The caller owns
     * the log and must keep it alive while attached.
     */
    void setTraceLog(TraceLog *log) { trace_log_ = log; }

  private:
    struct Batch;

    void workerLoop(unsigned w);
    void finishBatch(Batch &batch);

    /** Recycle @p machine and run one job on it; start/host seconds
     *  are measured against @p epoch. */
    JobResult runOne(Machine &machine, const Job &job,
                     std::chrono::steady_clock::time_point epoch) const;

    /** Apply opts_.dispatch to a worker machine: set the mode and, for
     *  kTranslated, install the shared translation. */
    void configureDispatch(Machine &machine) const;

    /** Fill metrics_ and the attached trace log from a finished run. */
    void recordRunTelemetry(const std::vector<JobResult> &results,
                            double elapsed_seconds, unsigned n_workers);

    Program program_;
    CoreKind kind_;
    Options opts_;
    unsigned threads_;

    /** Shared immutable translation (kTranslated only; may hold zero
     *  blocks when nothing in the program is translatable). */
    std::shared_ptr<const jit::CompiledProgram> translation_;

    // ---- pool state, guarded by mu_.  A raw Batch pointer in queue_
    // stays valid: a batch leaves the queue when its last job is
    // claimed, and wait() releases it only after every job finished ----
    std::mutex mu_;
    std::condition_variable cv_;  ///< workers wait for work or stop_
    std::deque<Batch *> queue_;   ///< batches with unclaimed jobs
    std::map<Ticket, std::shared_ptr<Batch>> batches_;
    Ticket next_ticket_ = 1;
    bool stop_ = false;

    Metrics metrics_;
    TraceLog *trace_log_ = nullptr;

    /** Workers, started by the first non-empty submitBatch() (under
     *  mu_); declared last, after everything they use. */
    std::vector<std::thread> pool_;
};

} // namespace gfp

#endif // GFP_ENGINE_BATCH_ENGINE_H
