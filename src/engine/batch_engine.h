/**
 * @file
 * Multi-threaded batch execution engine with sharded work stealing.
 *
 * The ROADMAP's production target is serving decode/crypto traffic at
 * scale, but a single Machine interprets one guest program at a time on
 * one thread.  A BatchEngine runs many *independent* jobs — RS/BCH
 * codeword decodes, AES blocks, ECDH exchanges — over a persistent pool
 * of worker threads.  Each worker owns one reusable Machine built from
 * the shared Program and recycles it with Machine::fullReset() between
 * jobs (reset-and-rerun; the program is assembled exactly once per
 * engine, predecoded once per worker).
 *
 * Scheduling topology (this replaced a single contended work queue and
 * a shared results vector):
 *
 *  - every worker owns a *shard*: a deque of pending jobs behind its
 *    own lock, so submission and claiming never cross one global lock;
 *  - submitBatch() slices a batch into per-shard runs — N jobs pushed
 *    per lock acquisition — instead of queueing jobs one at a time;
 *  - a worker drains its own shard oldest-first; when empty it *steals*
 *    the newer half of a victim's shard (Chase–Lev-style ends: owner at
 *    the front, thieves at the back; per-shard locks stand in for the
 *    lock-free protocol because batches are pushed by external
 *    producers, which breaks the single-owner-push invariant the
 *    original algorithm needs);
 *  - each worker appends finished JobResults to a per-worker *result
 *    arena* of the owning batch; arenas are drained into the job-ordered
 *    result vector only when the batch completes, so workers never
 *    contend on a shared results structure;
 *  - completion is an async signal (atomic countdown + condition
 *    variable), not a join: producers on any thread submitBatch() and
 *    wait() on their own tickets concurrently.
 *
 * Isolation guarantees (unchanged from the single-queue engine):
 *  - jobs are data-driven (label-addressed input/output byte blocks),
 *    so nothing host-side is shared between workers during a run;
 *  - a faulting job (trap, watchdog, injected SEU) yields a JobResult
 *    carrying the Trap and no outputs — it never aborts the host, and
 *    fullReset() guarantees the *next* job on that worker starts from a
 *    pristine machine, so one bad job cannot poison the batch, even
 *    when the bad job reached its worker over the steal path;
 *  - results are returned in job order regardless of which worker ran
 *    a job, and are bit-for-bit identical to serial execution.
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
    BatchEngine(Program program, CoreKind kind, Options opts);
    BatchEngine(const std::string &asm_source, CoreKind kind,
                Options opts);
    // Defaulted-Options overloads (a `= {}` default argument for a
    // nested aggregate with member initializers trips GCC here).
    explicit BatchEngine(BatchProgram bp);
    BatchEngine(Program program, CoreKind kind);
    BatchEngine(const std::string &asm_source, CoreKind kind);

    /** Drains queued work, then stops and joins the worker pool.
     *  Results of tickets never redeemed with wait() are discarded. */
    ~BatchEngine();

    BatchEngine(const BatchEngine &) = delete;
    BatchEngine &operator=(const BatchEngine &) = delete;

    /** Worker threads (and shards) the pool uses. */
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
     * Asynchronously submit a batch: jobs are sliced into per-shard
     * runs (one shard lock acquisition per run) and the pool starts on
     * them immediately.  Thread-safe — any number of producer threads
     * may submit concurrently; each batch is tracked by its own ticket
     * and executes each job exactly once.  Unlike run(), the Metrics
     * registry is NOT cleared, so counters accumulate across batches
     * (that is what sustained-service callers want to watch).
     */
    Ticket submitBatch(std::vector<Job> jobs);

    /**
     * Block until every job of @p ticket has executed, then return its
     * results in job order (per-worker arenas are drained and merged
     * here, on the waiting thread).  Each ticket can be redeemed once;
     * an unknown or already-redeemed ticket is host misuse and fatal.
     */
    std::vector<JobResult> wait(Ticket ticket);

    /**
     * Jobs submitted but not yet claimed by a worker — the queue-depth
     * signal admission-control layers watch (src/service uses it to
     * reject with retry-after once a watermark is crossed).  Lock-free,
     * and never more than the jobs submitted but not yet claimed: a
     * worker may claim a job before submitBatch() publishes its count,
     * so the counter can dip below zero for that instant, and reads
     * clamp it at zero.
     */
    size_t pendingJobs() const
    {
        const int64_t v = pending_.load(std::memory_order_acquire);
        return v > 0 ? static_cast<size_t>(v) : 0;
    }

    /**
     * Ask every worker to tear down and rebuild its Machine before its
     * next job (lazy, per worker).  The per-job fullReset() already
     * guarantees a pristine machine; this additionally discards the
     * host-side allocations (memory arrays, predecode cache) — the
     * engine-level analogue of fullReset() for long-running services.
     */
    void refreshWorkers();

    /** Per-worker aggregated guest cycle statistics of the last run()
     *  (or last wait(); runSerial() fills a single slot). */
    const std::vector<CycleStats> &workerStats() const
    {
        return worker_stats_;
    }

    /**
     * Telemetry registry.  run()/runSerial() clear it first, so after a
     * synchronous run it describes exactly that run; across
     * submitBatch()/wait() it accumulates.  Naming conventions are
     * documented in engine/metrics.h (job/trap counters, jobs/s,
     * utilization and shard-depth gauges, steal counters, latency and
     * submission-batch histograms).
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

    /** One pending job reference in a shard.  The raw Batch pointer is
     *  safe: a batch is only released after all of its tasks executed
     *  (remaining == 0) *and* the owner redeemed the ticket. */
    struct Task
    {
        Batch *batch;
        uint32_t index;
    };

    /** A worker's job shard: its own lock, deque, and a mirrored depth
     *  for lock-free gauge reads.  Cache-line-aligned so neighboring
     *  shards never false-share. */
    struct alignas(64) Shard
    {
        std::mutex mu;
        std::deque<Task> q;
        std::atomic<size_t> depth{0};
    };

    void startPool();
    void workerLoop(unsigned w);
    bool popLocal(unsigned w, Task &out);
    bool stealInto(unsigned w, Task &out);
    void execute(unsigned w, const Task &task);
    void finishBatch(Batch &batch);
    void publishPoolGauges();

    /** Recycle @p machine and run one job on it; start/host seconds
     *  are measured against @p epoch. */
    JobResult runOne(Machine &machine, const Job &job,
                     std::chrono::steady_clock::time_point epoch) const;

    /** Apply opts_.dispatch to a (re)built worker machine: set the
     *  mode and, for kTranslated, install the shared translation. */
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

    // ---- pool state ----
    std::vector<std::unique_ptr<Shard>> shards_;
    std::vector<std::thread> pool_;
    std::mutex pool_mu_;   ///< guards pool start and batch registry
    bool pool_started_ = false;
    std::map<Ticket, std::shared_ptr<Batch>> batches_;
    Ticket next_ticket_ = 1;
    std::atomic<unsigned> next_shard_{0}; ///< rotates batch placement
    std::atomic<uint64_t> machine_epoch_{0}; ///< refreshWorkers() ticks

    // ---- idle/wakeup protocol: pending_ counts queued-but-unclaimed
    // jobs; workers sleep on idle_cv_ only when it reads zero or less.
    // Signed because submitBatch() publishes the count after pushing
    // the tasks, so a claim can be subtracted first ----
    std::mutex idle_mu_;
    std::condition_variable idle_cv_;
    std::atomic<int64_t> pending_{0};
    bool stop_ = false;

    // ---- steal telemetry (engine-lifetime; published as gauges) ----
    std::vector<std::unique_ptr<std::atomic<uint64_t>>> worker_steals_;
    std::atomic<uint64_t> steals_{0};
    std::atomic<uint64_t> jobs_stolen_{0};
    std::atomic<uint64_t> steal_failures_{0};

    std::mutex stats_mu_; ///< guards worker_stats_ writes from wait()
    std::vector<CycleStats> worker_stats_;
    Metrics metrics_;
    TraceLog *trace_log_ = nullptr;
};

} // namespace gfp

#endif // GFP_ENGINE_BATCH_ENGINE_H
