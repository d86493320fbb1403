/**
 * @file
 * Bounded soak test for the BatchEngine (ctest label `soak`): sustained
 * submit/drain cycles with pipelined tickets and trapping jobs in every
 * cycle.  At the end the scheduler's invariants must hold exactly:
 *
 *   jobs_submitted_total == jobs_completed_total + jobs_trapped_total
 *
 * and every sampled batch must stay bit-identical to the serial
 * reference across the whole run.
 */

#include <gtest/gtest.h>

#include <chrono>

#include "coding/channel.h"
#include "coding/rs.h"
#include "common/random.h"
#include "engine/batch_engine.h"
#include "kernels/batch_kernels.h"

namespace gfp {
namespace {

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

TEST(EngineSoak, SustainedSubmitDrainCyclesKeepInvariants)
{
    using Clock = std::chrono::steady_clock;
    constexpr auto kBudget = std::chrono::seconds(6);
    constexpr unsigned kJobsPerBatch = 64;
    constexpr unsigned kMaxInFlight = 3;

    GFField f(8);
    BatchEngine eng(syndromeBatchProgram(f, 255, 16),
                    BatchEngine::Options{.threads = 4});

    // Fixed job pool, reference computed once: every 9th job is
    // watchdog-poisoned so traps flow through every cycle.
    auto jobs = makeSyndromeJobs(kJobsPerBatch, 20260808);
    for (size_t i = 0; i < jobs.size(); i += 9)
        jobs[i].max_instrs = 10;
    auto reference = eng.runSerial(jobs);
    size_t traps_per_batch = 0;
    for (const auto &r : reference)
        traps_per_batch += r.ok() ? 0 : 1;
    ASSERT_GT(traps_per_batch, 0u);

    std::vector<BatchEngine::Ticket> in_flight;
    uint64_t batches = 0, drained = 0;
    auto verify = [&](const std::vector<JobResult> &results) {
        ASSERT_EQ(results.size(), reference.size());
        for (size_t i = 0; i < results.size(); ++i) {
            ASSERT_EQ(results[i].trap.kind, reference[i].trap.kind) << i;
            ASSERT_EQ(results[i].outputs, reference[i].outputs) << i;
            ASSERT_EQ(results[i].stats.cycles, reference[i].stats.cycles)
                << i;
        }
    };

    const auto deadline = Clock::now() + kBudget;
    while (Clock::now() < deadline) {
        in_flight.push_back(eng.submitBatch(jobs));
        ++batches;
        if (in_flight.size() >= kMaxInFlight) {
            auto results = eng.wait(in_flight.front());
            in_flight.erase(in_flight.begin());
            ++drained;
            // Spot-check one in four drained batches bit-for-bit.
            if (drained % 4 == 0)
                verify(results);
        }
    }
    while (!in_flight.empty()) {
        verify(eng.wait(in_flight.front()));
        in_flight.erase(in_flight.begin());
    }

    const Metrics &m = eng.metrics();
    const double submitted = m.counter("jobs_submitted_total");
    EXPECT_EQ(submitted, static_cast<double>(batches * kJobsPerBatch));
    EXPECT_EQ(m.counter("jobs_completed_total") +
                  m.counter("jobs_trapped_total"),
              submitted);
    EXPECT_EQ(m.counter("jobs_trapped_total"),
              static_cast<double>(batches * traps_per_batch));
}

} // namespace
} // namespace gfp
