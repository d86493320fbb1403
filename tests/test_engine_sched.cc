/**
 * @file
 * Scheduler stress tests for the BatchEngine's batch FIFO:
 *
 *  - a skewed job-cost distribution (one ~250x-cost job among cheap
 *    ones, some of them trapping) must not stall the heavy job's
 *    siblings: the other workers claim them while it runs;
 *  - seeded deterministic batches assert result-set bit-parity against
 *    serial execution under 2/4/8 workers with poisoned (SEU-injected)
 *    jobs mixed in;
 *  - a multi-producer property test: random interleavings of
 *    submitBatch() from several threads preserve exactly-once
 *    execution — no lost and no duplicated JobResult — which the TSan
 *    CI job runs under ThreadSanitizer.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <thread>

#include "coding/channel.h"
#include "coding/rs.h"
#include "common/random.h"
#include "engine/batch_engine.h"
#include "kernels/batch_kernels.h"

namespace gfp {
namespace {

/**
 * A kernel whose cost is data-driven: spins 'reps' times over an ALU
 * mixing loop, leaving a reps/seed-dependent word in 'acc'.  This is
 * what lets one job be made 100x more expensive than its neighbors —
 * the decoder kernels all cost the same per job.
 */
const char *kSpinKernel = R"(
; data-dependent-cost spin kernel: acc = mix(seedv, reps..1)
    la   r1, reps
    ldr  r2, [r1, #0]
    la   r1, seedv
    ldr  r4, [r1, #0]
loop:
    eor  r4, r4, r2
    lsri r5, r4, #7
    eor  r4, r4, r5
    addi r4, r4, #0x9e
    subi r2, r2, #1
    cmpi r2, #0
    bne  loop
    la   r1, acc
    str  r4, [r1, #0]
    halt
.data
.align 8
reps:
    .space 4
seedv:
    .space 4
acc:
    .space 4
)";

/** Host model of kSpinKernel (32-bit wrap-around arithmetic). */
uint32_t
spinReference(uint32_t reps, uint32_t seed)
{
    uint32_t acc = seed;
    for (uint32_t r = reps; r != 0; --r) {
        acc ^= r;
        acc ^= acc >> 7;
        acc += 0x9e;
    }
    return acc;
}

Job
spinJob(uint32_t reps, uint32_t seed)
{
    Job job;
    job.word_inputs = {{"reps", reps}, {"seedv", seed}};
    job.word_outputs = {"acc"};
    return job;
}

/** A deterministic batch of noisy RS(255,239) syndrome jobs. */
std::vector<Job>
makeSyndromeJobs(unsigned count, uint64_t seed)
{
    RSCode code(8, 8);
    Rng rng(seed);
    std::vector<Job> jobs;
    for (unsigned j = 0; j < count; ++j) {
        std::vector<GFElem> info(code.k());
        for (auto &s : info)
            s = rng.nextByte();
        ExactErrorInjector inj(seed + j);
        auto rx = inj.corruptSymbols(code.encode(info),
                                     j % (code.t() + 1), 8);
        jobs.push_back(syndromeJob(rx, 2 * code.t()));
    }
    return jobs;
}

BatchProgram
syndromeProgram()
{
    GFField f(8);
    return syndromeBatchProgram(f, 255, 16);
}

/** Config-register SEU that forces a GfConfigCorrupt trap (m=8 ->
 *  flipping bit 57 yields m=10, invalid). */
FaultEvent
configKillEvent()
{
    return FaultEvent{/*cycle=*/40, FaultTarget::kConfigReg,
                      /*index=*/0, /*bit=*/57};
}

TEST(EngineSched, SkewedCostsDoNotStallSiblings)
{
    // 64 jobs at 4 workers.  Job 0 costs ~250x its neighbors (about
    // 100 ms translated — many OS timeslices even on a loaded
    // single-CPU host, so the peer workers are guaranteed to run while
    // it executes), which pins its worker down while the other workers
    // claim the rest of the batch.  Three of the heavy job's near
    // siblings are poisoned with a tiny watchdog, so trapping jobs run
    // beside it too.
    constexpr uint32_t kCheapReps = 64000;
    constexpr uint32_t kHeavyReps = 250 * kCheapReps;
    std::vector<Job> jobs;
    jobs.push_back(spinJob(kHeavyReps, 0xdead0001));
    for (unsigned j = 1; j < 64; ++j)
        jobs.push_back(spinJob(kCheapReps + j, 0xbeef0000 + j));
    for (unsigned j : {9u, 12u, 15u})
        jobs[j].max_instrs = 10; // watchdog-poisoned

    BatchEngine eng(kSpinKernel, CoreKind::kGfProcessor,
                    BatchEngine::Options{.threads = 4});
    auto serial = eng.runSerial(jobs);
    auto parallel = eng.run(jobs);

    ASSERT_EQ(parallel.size(), serial.size());
    for (size_t i = 0; i < jobs.size(); ++i) {
        EXPECT_EQ(parallel[i].trap.kind, serial[i].trap.kind) << i;
        EXPECT_EQ(parallel[i].words, serial[i].words) << i;
        EXPECT_EQ(parallel[i].stats.cycles, serial[i].stats.cycles) << i;
    }
    for (unsigned j : {9u, 12u, 15u}) {
        EXPECT_EQ(parallel[j].trap.kind, TrapKind::kWatchdog) << j;
        EXPECT_TRUE(parallel[j].words.empty()) << j;
    }
    for (size_t i = 1; i < jobs.size(); ++i) {
        if (parallel[i].ok()) {
            EXPECT_EQ(parallel[i].word("acc"),
                      spinReference(kCheapReps + static_cast<uint32_t>(i),
                                    0xbeef0000 +
                                        static_cast<uint32_t>(i)))
                << i;
        }
    }

    // No stall: the heavy job's worker is busy for ~250 job-lengths,
    // so some of its near siblings ran on another worker meanwhile.
    const unsigned heavy_worker = parallel[0].worker;
    bool sibling_migrated = false;
    for (size_t i = 1; i <= 15; ++i)
        sibling_migrated |= parallel[i].worker != heavy_worker;
    EXPECT_TRUE(sibling_migrated)
        << "every near sibling waited for the heavy job's worker";
}

TEST(EngineSched, BitParityAgainstSerialUnder248Workers)
{
    // Seeded deterministic batch with poisoned jobs sprinkled in; the
    // result set must be bit-for-bit the serial one at every pool
    // width (different widths exercise different claim interleavings).
    auto jobs = makeSyndromeJobs(72, 2026);
    for (size_t i = 3; i < jobs.size(); i += 11)
        jobs[i].faults.push_back(configKillEvent());
    for (size_t i = 7; i < jobs.size(); i += 17)
        jobs[i].max_instrs = 10;

    BatchEngine ref(syndromeProgram(), BatchEngine::Options{.threads = 1});
    auto serial = ref.runSerial(jobs);
    for (unsigned workers : {2u, 4u, 8u}) {
        BatchEngine eng(syndromeProgram(),
                        BatchEngine::Options{.threads = workers});
        auto parallel = eng.run(jobs);
        ASSERT_EQ(parallel.size(), serial.size()) << workers;
        for (size_t i = 0; i < jobs.size(); ++i) {
            EXPECT_EQ(parallel[i].trap.kind, serial[i].trap.kind)
                << workers << "w job " << i;
            EXPECT_EQ(parallel[i].outputs, serial[i].outputs)
                << workers << "w job " << i;
            EXPECT_EQ(parallel[i].words, serial[i].words)
                << workers << "w job " << i;
            EXPECT_EQ(parallel[i].stats.cycles, serial[i].stats.cycles)
                << workers << "w job " << i;
        }
    }
}

TEST(EngineSched, SubmitBatchTicketsDrainOutOfOrder)
{
    // Async pipelining from one thread: submit three batches, redeem
    // the tickets newest-first; each batch's results stay job-ordered
    // and correct.
    BatchEngine eng(kSpinKernel, CoreKind::kGfProcessor,
                    BatchEngine::Options{.threads = 4});
    std::vector<BatchEngine::Ticket> tickets;
    for (uint32_t b = 0; b < 3; ++b) {
        std::vector<Job> jobs;
        for (uint32_t j = 0; j < 17 + b; ++j)
            jobs.push_back(spinJob(300 + j, b * 1000 + j));
        tickets.push_back(eng.submitBatch(std::move(jobs)));
    }
    for (uint32_t b = 3; b-- > 0;) {
        auto results = eng.wait(tickets[b]);
        ASSERT_EQ(results.size(), 17 + b);
        for (uint32_t j = 0; j < results.size(); ++j) {
            ASSERT_TRUE(results[j].ok()) << b << ":" << j;
            EXPECT_EQ(results[j].word("acc"),
                      spinReference(300 + j, b * 1000 + j))
                << b << ":" << j;
        }
    }
    // Everything drained: the live counters balance.
    const Metrics &m = eng.metrics();
    EXPECT_EQ(m.counter("jobs_submitted_total"), 17.0 + 18 + 19);
    EXPECT_EQ(m.counter("jobs_completed_total") +
                  m.counter("jobs_trapped_total"),
              m.counter("jobs_submitted_total"));
}

TEST(EngineSched, EmptyBatchTicketIsRedeemable)
{
    BatchEngine eng(kSpinKernel, CoreKind::kGfProcessor,
                    BatchEngine::Options{.threads = 2});
    auto ticket = eng.submitBatch({});
    EXPECT_TRUE(eng.wait(ticket).empty());
}

/**
 * Property: random interleavings of submitBatch() from multiple
 * producer threads execute every job exactly once.  Losses surface as
 * default-constructed results (empty word set), duplicates as a
 * counter imbalance; both are also cross-checked against the per-job
 * expected accumulator value.  The TSan CI job runs this suite under
 * ThreadSanitizer, where any unsynchronized queue, cursor or result
 * slot access in the interleavings becomes a hard failure.
 */
TEST(EngineSchedProperty, ConcurrentProducersExecuteExactlyOnce)
{
    struct Variant
    {
        uint32_t reps, seed, expected;
        bool poisoned;
    };
    Rng rng(424242);
    std::vector<Variant> variants;
    for (unsigned v = 0; v < 96; ++v) {
        Variant var;
        var.reps = 150 + static_cast<uint32_t>(rng.below(650));
        var.seed = static_cast<uint32_t>(rng.next64());
        var.poisoned = v % 13 == 0;
        var.expected = spinReference(var.reps, var.seed);
        variants.push_back(var);
    }

    BatchEngine eng(kSpinKernel, CoreKind::kGfProcessor,
                    BatchEngine::Options{.threads = 4});
    constexpr unsigned kProducers = 4;
    constexpr unsigned kBatchesPerProducer = 12;
    std::atomic<uint64_t> jobs_submitted{0};
    std::atomic<uint64_t> traps_expected{0};
    std::atomic<unsigned> failures{0};

    auto producer = [&](unsigned p) {
        Rng prng(1000 + p);
        std::vector<BatchEngine::Ticket> outstanding;
        std::vector<std::vector<const Variant *>> shapes;
        auto redeem = [&]() {
            auto ticket = outstanding.front();
            auto shape = shapes.front();
            outstanding.erase(outstanding.begin());
            shapes.erase(shapes.begin());
            auto results = eng.wait(ticket);
            if (results.size() != shape.size()) {
                ++failures;
                return;
            }
            for (size_t j = 0; j < results.size(); ++j) {
                const Variant &v = *shape[j];
                const bool ok_shape =
                    v.poisoned
                        ? results[j].trap.kind == TrapKind::kWatchdog &&
                              results[j].words.empty()
                        : results[j].ok() &&
                              results[j].word("acc") == v.expected;
                if (!ok_shape)
                    ++failures;
            }
        };
        for (unsigned b = 0; b < kBatchesPerProducer; ++b) {
            const size_t count = 1 + prng.below(40);
            std::vector<Job> jobs;
            std::vector<const Variant *> shape;
            for (size_t j = 0; j < count; ++j) {
                const Variant &v = variants[prng.below(variants.size())];
                Job job = spinJob(v.reps, v.seed);
                if (v.poisoned) {
                    job.max_instrs = 5;
                    ++traps_expected;
                }
                jobs.push_back(std::move(job));
                shape.push_back(&v);
            }
            jobs_submitted += count;
            outstanding.push_back(eng.submitBatch(std::move(jobs)));
            shapes.push_back(std::move(shape));
            // Keep up to two tickets in flight so submissions from all
            // producers interleave while earlier batches still run.
            if (outstanding.size() > 2)
                redeem();
        }
        while (!outstanding.empty())
            redeem();
    };

    std::vector<std::thread> producers;
    for (unsigned p = 0; p < kProducers; ++p)
        producers.emplace_back(producer, p);
    for (auto &t : producers)
        t.join();

    EXPECT_EQ(failures.load(), 0u);
    const Metrics &m = eng.metrics();
    EXPECT_EQ(m.counter("jobs_submitted_total"),
              static_cast<double>(jobs_submitted.load()));
    EXPECT_EQ(m.counter("jobs_completed_total") +
                  m.counter("jobs_trapped_total"),
              static_cast<double>(jobs_submitted.load()));
    EXPECT_EQ(m.counter("jobs_trapped_total"),
              static_cast<double>(traps_expected.load()));
}

} // namespace
} // namespace gfp
