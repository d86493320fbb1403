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

/**
 * One in-flight batch.  `next` (the claim cursor) is guarded by the
 * engine mutex; results[i] is written only by the worker that claimed
 * job i.  The worker whose countdown on `remaining` reaches zero reads
 * every slot — the atomic countdown orders all slot writes before it —
 * and the waiter reads them after observing `done` under `mu`.
 */
struct BatchEngine::Batch
{
    std::vector<Job> jobs;
    std::vector<JobResult> results;
    std::chrono::steady_clock::time_point epoch;
    size_t next = 0;
    std::atomic<size_t> remaining{0};
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

BatchEngine::BatchEngine(const std::string &asm_source, CoreKind kind,
                         Options opts)
    : BatchEngine(BatchProgram{Assembler::assemble(asm_source), kind}, opts)
{
}

BatchEngine::BatchEngine(BatchProgram bp)
    : BatchEngine(std::move(bp), Options())
{
}

BatchEngine::~BatchEngine()
{
    {
        std::lock_guard<std::mutex> lk(mu_);
        stop_ = true;
    }
    cv_.notify_all();
    for (auto &t : pool_)
        t.join();
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
    Machine machine(program_, kind_, opts_.mem_bytes);
    configureDispatch(machine);
    for (;;) {
        Batch *batch;
        size_t index;
        {
            std::unique_lock<std::mutex> lk(mu_);
            cv_.wait(lk, [this] { return stop_ || !queue_.empty(); });
            if (queue_.empty())
                return; // stopping, and every queued job is claimed
            batch = queue_.front();
            index = batch->next++;
            if (batch->next == batch->jobs.size())
                queue_.pop_front();
        }
        JobResult &slot = batch->results[index];
        slot = runOne(machine, batch->jobs[index], batch->epoch);
        slot.worker = w;
        if (--batch->remaining == 0)
            finishBatch(*batch);
    }
}

void
BatchEngine::finishBatch(Batch &batch)
{
    size_t trapped = 0;
    for (const JobResult &r : batch.results)
        trapped += r.ok() ? 0 : 1;
    metrics_.add("jobs_completed_total",
                 static_cast<double>(batch.results.size() - trapped));
    metrics_.add("jobs_trapped_total", static_cast<double>(trapped));
    // Notify under the lock: the waiter may destroy the batch the
    // moment it observes done, so nothing may touch it after the lock
    // is released.
    std::lock_guard<std::mutex> lk(batch.mu);
    batch.done = true;
    batch.cv.notify_all();
}

BatchEngine::Ticket
BatchEngine::submitBatch(std::vector<Job> jobs)
{
    auto batch = std::make_shared<Batch>();
    batch->jobs = std::move(jobs);
    const size_t n = batch->jobs.size();
    batch->results.resize(n);
    batch->remaining = n;
    batch->done = n == 0;
    batch->epoch = std::chrono::steady_clock::now();
    if (n > 0)
        metrics_.add("jobs_submitted_total", static_cast<double>(n));

    Ticket ticket;
    {
        std::lock_guard<std::mutex> lk(mu_);
        ticket = next_ticket_++;
        batches_.emplace(ticket, batch);
        if (n > 0) {
            if (pool_.empty())
                for (unsigned w = 0; w < threads_; ++w)
                    pool_.emplace_back([this, w] { workerLoop(w); });
            queue_.push_back(batch.get());
        }
    }
    if (n == 1)
        cv_.notify_one();
    else if (n > 1)
        cv_.notify_all();
    return ticket;
}

std::vector<JobResult>
BatchEngine::wait(Ticket ticket)
{
    std::shared_ptr<Batch> batch;
    {
        std::lock_guard<std::mutex> lk(mu_);
        auto it = batches_.find(ticket);
        GFP_ASSERT(it != batches_.end(),
                   "unknown or already-redeemed batch ticket %llu",
                   static_cast<unsigned long long>(ticket));
        batch = std::move(it->second);
        batches_.erase(it);
    }
    std::unique_lock<std::mutex> lk(batch->mu);
    batch->cv.wait(lk, [&] { return batch->done; });
    return std::move(batch->results);
}

JobResult
BatchEngine::runOn(std::unique_ptr<Machine> &machine, const Job &job)
{
    if (!machine) {
        machine = std::make_unique<Machine>(program_, kind_, opts_.mem_bytes);
        configureDispatch(*machine);
    }
    metrics_.add("jobs_submitted_total");
    JobResult res = runOne(*machine, job, std::chrono::steady_clock::now());
    metrics_.add(res.ok() ? "jobs_completed_total" : "jobs_trapped_total");
    return res;
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
    if (jobs.empty())
        return {};
    const auto epoch = std::chrono::steady_clock::now();
    auto results = wait(submitBatch(jobs));
    const double elapsed =
        std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                      epoch)
            .count();
    recordRunTelemetry(results, elapsed, threads_);
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
    for (const Job &job : jobs)
        results.push_back(runOne(machine, job, epoch));
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
