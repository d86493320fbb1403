#include "engine/batch_engine.h"

#include <algorithm>

#include "common/logging.h"
#include "common/strutil.h"
#include "isa/assembler.h"
#include "jit/core_translation.h"
#include "jit/translator.h"

namespace gfp {

const std::vector<uint8_t> &
JobResult::bytes(const std::string &label) const
{
    auto it = outputs.find(label);
    if (it == outputs.end())
        GFP_FATAL("job result has no byte output '%s'", label.c_str());
    return it->second;
}

uint32_t
JobResult::word(const std::string &label) const
{
    auto it = words.find(label);
    if (it == words.end())
        GFP_FATAL("job result has no word output '%s'", label.c_str());
    return it->second;
}

namespace {

unsigned
resolveThreads(unsigned requested)
{
    if (requested)
        return requested;
    unsigned hw = std::thread::hardware_concurrency();
    return hw ? hw : 1;
}

} // anonymous namespace

/** One finished job in a worker's arena, tagged with its batch index. */
struct IndexedResult
{
    uint32_t index;
    JobResult result;
};

/**
 * One in-flight batch.  Worker w appends only to arenas[w], so arena
 * writes are unsynchronized; readers (the worker that completes the
 * batch, and the waiter) only look after the acq_rel countdown on
 * `remaining` reached zero, which orders every arena write before them.
 */
struct BatchEngine::Batch
{
    std::vector<Job> jobs;
    std::chrono::steady_clock::time_point epoch;
    std::atomic<size_t> remaining{0};
    std::vector<std::vector<IndexedResult>> arenas;
    std::mutex mu;
    std::condition_variable cv;
    bool done = false;
};

BatchEngine::BatchEngine(BatchProgram bp, Options opts)
    : program_(std::move(bp.program)), kind_(bp.kind), opts_(opts),
      threads_(resolveThreads(opts.threads))
{
    if (opts_.dispatch == DispatchMode::kTranslated) {
        // Compile once, share everywhere: the translation is immutable
        // host code plus lookup tables; all mutable run state lives in
        // each worker's CoreTranslation.
        translation_ = jit::translate(program_, kind_);
    }
}

BatchEngine::BatchEngine(Program program, CoreKind kind, Options opts)
    : BatchEngine(BatchProgram{std::move(program), kind}, opts)
{
}

BatchEngine::BatchEngine(const std::string &asm_source, CoreKind kind,
                         Options opts)
    : BatchEngine(BatchProgram{Assembler::assemble(asm_source), kind}, opts)
{
}

BatchEngine::BatchEngine(BatchProgram bp)
    : BatchEngine(std::move(bp), Options())
{
}

BatchEngine::BatchEngine(Program program, CoreKind kind)
    : BatchEngine(BatchProgram{std::move(program), kind}, Options())
{
}

BatchEngine::BatchEngine(const std::string &asm_source, CoreKind kind)
    : BatchEngine(BatchProgram{Assembler::assemble(asm_source), kind},
                  Options())
{
}

BatchEngine::~BatchEngine()
{
    {
        std::lock_guard<std::mutex> lk(pool_mu_);
        if (!pool_started_)
            return;
    }
    {
        std::lock_guard<std::mutex> lk(idle_mu_);
        stop_ = true;
    }
    idle_cv_.notify_all();
    for (auto &t : pool_)
        t.join();
}

void
BatchEngine::startPool()
{
    std::lock_guard<std::mutex> lk(pool_mu_);
    if (pool_started_)
        return;
    shards_.reserve(threads_);
    worker_steals_.reserve(threads_);
    for (unsigned w = 0; w < threads_; ++w) {
        shards_.push_back(std::make_unique<Shard>());
        worker_steals_.push_back(
            std::make_unique<std::atomic<uint64_t>>(0));
    }
    pool_.reserve(threads_);
    for (unsigned w = 0; w < threads_; ++w)
        pool_.emplace_back([this, w] { workerLoop(w); });
    pool_started_ = true;
}

bool
BatchEngine::popLocal(unsigned w, Task &out)
{
    Shard &sh = *shards_[w];
    std::lock_guard<std::mutex> lk(sh.mu);
    if (sh.q.empty())
        return false;
    out = sh.q.front();
    sh.q.pop_front();
    sh.depth.fetch_sub(1, std::memory_order_relaxed);
    pending_.fetch_sub(1, std::memory_order_acq_rel);
    return true;
}

bool
BatchEngine::stealInto(unsigned w, Task &out)
{
    for (unsigned off = 1; off < threads_; ++off) {
        const unsigned v = (w + off) % threads_;
        Shard &victim = *shards_[v];
        std::vector<Task> loot;
        {
            std::lock_guard<std::mutex> lk(victim.mu);
            const size_t depth = victim.q.size();
            if (depth == 0)
                continue;
            // Chase–Lev ends: the owner drains the front, so take the
            // newer half from the back (order preserved).
            const size_t k = (depth + 1) / 2;
            loot.assign(victim.q.end() - static_cast<ptrdiff_t>(k),
                        victim.q.end());
            victim.q.erase(victim.q.end() - static_cast<ptrdiff_t>(k),
                           victim.q.end());
            victim.depth.fetch_sub(k, std::memory_order_relaxed);
        }
        out = loot.front();
        pending_.fetch_sub(1, std::memory_order_acq_rel);
        if (loot.size() > 1) {
            Shard &own = *shards_[w];
            std::lock_guard<std::mutex> lk(own.mu);
            own.q.insert(own.q.end(), loot.begin() + 1, loot.end());
            own.depth.fetch_add(loot.size() - 1,
                                std::memory_order_relaxed);
        }
        steals_.fetch_add(1, std::memory_order_relaxed);
        worker_steals_[w]->fetch_add(1, std::memory_order_relaxed);
        jobs_stolen_.fetch_add(loot.size(), std::memory_order_relaxed);
        return true;
    }
    steal_failures_.fetch_add(1, std::memory_order_relaxed);
    return false;
}

void
BatchEngine::configureDispatch(Machine &machine) const
{
    machine.core().setDispatchMode(opts_.dispatch);
    if (translation_)
        machine.core().setTranslation(
            jit::makeCoreTranslation(translation_));
}

void
BatchEngine::workerLoop(unsigned w)
{
    uint64_t epoch = machine_epoch_.load(std::memory_order_acquire);
    auto machine =
        std::make_unique<Machine>(program_, kind_, opts_.mem_bytes);
    configureDispatch(*machine);
    for (;;) {
        const uint64_t e = machine_epoch_.load(std::memory_order_acquire);
        if (e != epoch) {
            // refreshWorkers(): rebuild the Machine from scratch — the
            // engine-level fullReset analogue for long-running pools.
            epoch = e;
            machine =
                std::make_unique<Machine>(program_, kind_, opts_.mem_bytes);
            configureDispatch(*machine);
        }
        Task task;
        if (popLocal(w, task) || stealInto(w, task)) {
            Batch &batch = *task.batch;
            IndexedResult entry;
            entry.index = task.index;
            entry.result =
                runOne(*machine, batch.jobs[task.index], batch.epoch);
            entry.result.worker = w;
            batch.arenas[w].push_back(std::move(entry));
            if (batch.remaining.fetch_sub(
                    1, std::memory_order_acq_rel) == 1)
                finishBatch(batch);
            continue;
        }
        std::unique_lock<std::mutex> lk(idle_mu_);
        if (stop_ && pending_.load(std::memory_order_acquire) <= 0)
            break;
        idle_cv_.wait(lk, [this] {
            return stop_ ||
                   pending_.load(std::memory_order_acquire) > 0;
        });
        if (stop_ && pending_.load(std::memory_order_acquire) <= 0)
            break;
    }
}

void
BatchEngine::finishBatch(Batch &batch)
{
    // The acq_rel countdown that brought us here ordered every other
    // worker's arena writes before this scan.
    size_t clean = 0, trapped = 0;
    for (const auto &arena : batch.arenas)
        for (const auto &entry : arena)
            (entry.result.ok() ? clean : trapped) += 1;
    metrics_.add("jobs_completed_total", static_cast<double>(clean));
    metrics_.add("jobs_trapped_total", static_cast<double>(trapped));
    publishPoolGauges();
    {
        // Notify under the lock: the waiter may destroy the batch the
        // moment it observes done, so nothing may touch it after the
        // lock is released.
        std::lock_guard<std::mutex> lk(batch.mu);
        batch.done = true;
        batch.cv.notify_all();
    }
}

void
BatchEngine::publishPoolGauges()
{
    for (unsigned w = 0; w < threads_; ++w) {
        metrics_.set(strprintf("shard%u_queue_depth", w),
                     static_cast<double>(
                         shards_[w]->depth.load(std::memory_order_relaxed)));
        metrics_.set(strprintf("worker%u_steals", w),
                     static_cast<double>(worker_steals_[w]->load(
                         std::memory_order_relaxed)));
    }
    metrics_.set("steals", static_cast<double>(
                               steals_.load(std::memory_order_relaxed)));
    metrics_.set("jobs_stolen",
                 static_cast<double>(
                     jobs_stolen_.load(std::memory_order_relaxed)));
    metrics_.set("steal_failures",
                 static_cast<double>(
                     steal_failures_.load(std::memory_order_relaxed)));
}

BatchEngine::Ticket
BatchEngine::submitBatch(std::vector<Job> jobs)
{
    startPool();
    auto batch = std::make_shared<Batch>();
    batch->jobs = std::move(jobs);
    batch->epoch = std::chrono::steady_clock::now();
    const size_t n = batch->jobs.size();
    batch->remaining.store(n, std::memory_order_relaxed);
    batch->arenas.resize(threads_);

    Ticket ticket;
    {
        std::lock_guard<std::mutex> lk(pool_mu_);
        ticket = next_ticket_++;
        batches_.emplace(ticket, batch);
    }
    if (n == 0) {
        std::lock_guard<std::mutex> lk(batch->mu);
        batch->done = true;
        return ticket;
    }
    metrics_.add("jobs_submitted_total", static_cast<double>(n));

    // Slice the batch into at most one contiguous run per shard — N
    // jobs enter a shard per lock acquisition, instead of one.  The
    // starting shard rotates per batch so small batches spread out.
    const size_t slices = std::min<size_t>(threads_, n);
    const unsigned start =
        next_shard_.fetch_add(1, std::memory_order_relaxed) % threads_;
    size_t base = 0;
    for (size_t s = 0; s < slices; ++s) {
        const size_t count = n / slices + (s < n % slices ? 1 : 0);
        const unsigned idx = (start + static_cast<unsigned>(s)) % threads_;
        Shard &sh = *shards_[idx];
        {
            std::lock_guard<std::mutex> lk(sh.mu);
            for (size_t i = base; i < base + count; ++i)
                sh.q.push_back(
                    Task{batch.get(), static_cast<uint32_t>(i)});
            sh.depth.fetch_add(count, std::memory_order_relaxed);
        }
        metrics_.observe("submit_batch_jobs", static_cast<double>(count));
        metrics_.set(strprintf("shard%u_queue_depth", idx),
                     static_cast<double>(
                         sh.depth.load(std::memory_order_relaxed)));
        base += count;
    }
    // Published after the pushes: a worker already awake may claim a
    // task first and drive the count below zero for an instant, which
    // pendingJobs() clamps.  Publishing first would instead let workers
    // that see a positive count spin on shard locks still empty.
    pending_.fetch_add(static_cast<int64_t>(n), std::memory_order_acq_rel);
    {
        // Taking the idle lock (even empty) orders the pending_ bump
        // against any worker mid-way into its sleep decision.
        std::lock_guard<std::mutex> lk(idle_mu_);
    }
    idle_cv_.notify_all();
    return ticket;
}

std::vector<JobResult>
BatchEngine::wait(Ticket ticket)
{
    std::shared_ptr<Batch> batch;
    {
        std::lock_guard<std::mutex> lk(pool_mu_);
        auto it = batches_.find(ticket);
        GFP_ASSERT(it != batches_.end(),
                   "unknown or already-redeemed batch ticket %llu",
                   static_cast<unsigned long long>(ticket));
        batch = it->second;
        batches_.erase(it);
    }
    {
        std::unique_lock<std::mutex> lk(batch->mu);
        batch->cv.wait(lk, [&] { return batch->done; });
    }

    // Drain the per-worker arenas into the job-ordered result vector.
    // The exactly-once contract is asserted structurally: every index
    // appears exactly once across all arenas.
    std::vector<JobResult> results(batch->jobs.size());
    std::vector<CycleStats> stats(threads_, CycleStats());
    std::vector<uint8_t> seen(batch->jobs.size(), 0);
    size_t merged = 0;
    for (auto &arena : batch->arenas) {
        for (auto &entry : arena) {
            GFP_ASSERT(entry.index < results.size() && !seen[entry.index],
                       "job %u executed more than once", entry.index);
            seen[entry.index] = 1;
            stats[entry.result.worker] += entry.result.stats;
            results[entry.index] = std::move(entry.result);
            ++merged;
        }
    }
    GFP_ASSERT(merged == results.size(),
               "batch executed %zu of %zu jobs", merged, results.size());
    {
        std::lock_guard<std::mutex> lk(stats_mu_);
        worker_stats_ = std::move(stats);
    }
    return results;
}

void
BatchEngine::refreshWorkers()
{
    machine_epoch_.fetch_add(1, std::memory_order_acq_rel);
}

JobResult
BatchEngine::runOne(Machine &machine, const Job &job,
                    std::chrono::steady_clock::time_point epoch) const
{
    const auto t0 = std::chrono::steady_clock::now();
    machine.fullReset();
    for (const auto &[label, bytes] : job.inputs)
        machine.writeBytes(label, bytes);
    for (const auto &[label, value] : job.word_inputs)
        machine.writeWord(label, value);
    GFP_ASSERT(job.args.size() <= 4, "at most 4 register arguments");
    for (size_t i = 0; i < job.args.size(); ++i)
        machine.core().setReg(static_cast<unsigned>(i), job.args[i]);

    FaultInjector injector;
    if (!job.faults.empty()) {
        injector.setSchedule(job.faults);
        injector.attach(machine.core());
    }
    RunResult run = machine.runToHalt(job.max_instrs ? job.max_instrs
                                                     : opts_.max_instrs);
    if (!job.faults.empty())
        machine.core().setFaultHook(nullptr); // injector dies with scope

    JobResult res;
    res.trap = run.trap;
    res.stats = run.stats;
    if (run.ok()) {
        for (const auto &[label, len] : job.outputs)
            res.outputs.emplace(label, machine.readBytes(label, len));
        for (const auto &label : job.word_outputs)
            res.words.emplace(label, machine.readWord(label));
    }
    const auto t1 = std::chrono::steady_clock::now();
    res.start_seconds = std::chrono::duration<double>(t0 - epoch).count();
    res.host_seconds = std::chrono::duration<double>(t1 - t0).count();
    return res;
}

std::vector<JobResult>
BatchEngine::run(const std::vector<Job> &jobs)
{
    metrics_.clear();
    if (jobs.empty()) {
        std::lock_guard<std::mutex> lk(stats_mu_);
        worker_stats_.assign(1, CycleStats());
        return {};
    }
    // Snapshot the steal counters so the gauges published after this
    // run are run-scoped (the raw atomics are engine-lifetime).
    startPool();
    const uint64_t steals0 = steals_.load(std::memory_order_relaxed);
    const uint64_t stolen0 = jobs_stolen_.load(std::memory_order_relaxed);
    const uint64_t fails0 =
        steal_failures_.load(std::memory_order_relaxed);
    std::vector<uint64_t> worker0(threads_);
    for (unsigned w = 0; w < threads_; ++w)
        worker0[w] = worker_steals_[w]->load(std::memory_order_relaxed);

    const auto epoch = std::chrono::steady_clock::now();
    Ticket ticket = submitBatch(jobs);
    auto results = wait(ticket);
    const double elapsed =
        std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                      epoch)
            .count();
    recordRunTelemetry(results, elapsed, threads_);
    for (unsigned w = 0; w < threads_; ++w)
        metrics_.set(
            strprintf("worker%u_steals", w),
            static_cast<double>(
                worker_steals_[w]->load(std::memory_order_relaxed) -
                worker0[w]));
    metrics_.set("steals",
                 static_cast<double>(
                     steals_.load(std::memory_order_relaxed) - steals0));
    metrics_.set(
        "jobs_stolen",
        static_cast<double>(
            jobs_stolen_.load(std::memory_order_relaxed) - stolen0));
    metrics_.set(
        "steal_failures",
        static_cast<double>(
            steal_failures_.load(std::memory_order_relaxed) - fails0));
    return results;
}

std::vector<JobResult>
BatchEngine::runSerial(const std::vector<Job> &jobs)
{
    std::vector<JobResult> results;
    results.reserve(jobs.size());
    metrics_.clear();
    const auto epoch = std::chrono::steady_clock::now();
    Machine machine(program_, kind_, opts_.mem_bytes);
    configureDispatch(machine);
    CycleStats aggregate;
    for (const Job &job : jobs) {
        results.push_back(runOne(machine, job, epoch));
        aggregate += results.back().stats;
    }
    {
        std::lock_guard<std::mutex> lk(stats_mu_);
        worker_stats_.assign(1, aggregate);
    }
    const double elapsed =
        std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                      epoch)
            .count();
    if (!jobs.empty())
        recordRunTelemetry(results, elapsed, 1);
    return results;
}

void
BatchEngine::recordRunTelemetry(const std::vector<JobResult> &results,
                                double elapsed_seconds, unsigned n_workers)
{
    metrics_.set("workers", n_workers);
    metrics_.add("jobs_total", static_cast<double>(results.size()));
    if (elapsed_seconds > 0)
        metrics_.set("jobs_per_sec",
                     static_cast<double>(results.size()) / elapsed_seconds);

    std::vector<double> busy(n_workers, 0.0);
    for (const JobResult &r : results) {
        metrics_.observe("job_host_us", r.host_seconds * 1e6);
        metrics_.observe("job_guest_cycles",
                         static_cast<double>(r.stats.cycles));
        if (r.worker < n_workers)
            busy[r.worker] += r.host_seconds;
        if (!r.ok()) {
            metrics_.add("jobs_failed_total");
            metrics_.add(strprintf("trap_%s_total",
                                   trapKindName(r.trap.kind)));
        }
    }
    for (unsigned w = 0; w < n_workers; ++w)
        metrics_.set(strprintf("worker%u_utilization", w),
                     elapsed_seconds > 0 ? busy[w] / elapsed_seconds : 0.0);

    // Queue depth over time: jobs not yet started, sampled at each
    // job-start instant.  Jobs were claimed in start order, so sorting
    // the start times reconstructs the queue drain exactly.
    std::vector<double> starts;
    starts.reserve(results.size());
    for (const JobResult &r : results)
        starts.push_back(r.start_seconds);
    std::sort(starts.begin(), starts.end());
    metrics_.set("queue_depth_peak", static_cast<double>(results.size()));

    if (!trace_log_) {
        return;
    }
    trace_log_->processName(kEnginePid, "gfp batch engine");
    for (unsigned w = 0; w < n_workers; ++w)
        trace_log_->threadName(kEnginePid, static_cast<int>(w) + 1,
                               strprintf("worker %u", w));
    for (size_t i = 0; i < results.size(); ++i) {
        const JobResult &r = results[i];
        TraceLog::Args args = {
            {"queue_wait_us", strprintf("%.1f", r.start_seconds * 1e6)}};
        if (!r.ok())
            args.emplace_back("trap", trapKindName(r.trap.kind));
        trace_log_->complete(strprintf("job %zu", i),
                             r.ok() ? "job" : "job-trapped",
                             r.start_seconds * 1e6, r.host_seconds * 1e6,
                             kEnginePid, static_cast<int>(r.worker) + 1,
                             std::move(args));
    }
    for (size_t i = 0; i < starts.size(); ++i) {
        trace_log_->counter(
            "queue_depth", starts[i] * 1e6, kEnginePid,
            {{"jobs", static_cast<double>(starts.size() - i - 1)}});
    }
}

} // namespace gfp
