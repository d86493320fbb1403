/**
 * @file
 * Batch execution engine tests: parallel/serial bit-for-bit parity,
 * trap isolation across recycled machines, injected-SEU jobs inside a
 * concurrent batch, result ordering, worker statistics, and the
 * Machine::fullReset() rerun contract the engine is built on.
 */

#include <gtest/gtest.h>

#include <numeric>

#include "coding/channel.h"
#include "coding/rs.h"
#include "common/random.h"
#include "engine/batch_engine.h"
#include "kernels/batch_kernels.h"
#include "kernels/coding_kernels.h"
#include "sim/machine.h"

namespace gfp {
namespace {

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

/** A config-register upset early in the run: the m field of the live
 *  GFAU register picks up a bit and the next GF instruction must trap
 *  GfConfigCorrupt (m=8 -> flipping bit 57 yields m=10, invalid). */
FaultEvent
configKillEvent()
{
    return FaultEvent{/*cycle=*/40, FaultTarget::kConfigReg,
                      /*index=*/0, /*bit=*/57};
}

TEST(BatchEngine, ParallelMatchesSerialBitForBit)
{
    auto jobs = makeSyndromeJobs(64, 42);
    BatchEngine eng(syndromeProgram(), BatchEngine::Options{.threads = 4});
    auto serial = eng.runSerial(jobs);
    auto parallel = eng.run(jobs);
    ASSERT_EQ(parallel.size(), serial.size());
    for (size_t i = 0; i < jobs.size(); ++i) {
        EXPECT_EQ(parallel[i].trap.kind, serial[i].trap.kind) << i;
        EXPECT_EQ(parallel[i].outputs, serial[i].outputs) << i;
        EXPECT_EQ(parallel[i].words, serial[i].words) << i;
        EXPECT_EQ(parallel[i].stats.cycles, serial[i].stats.cycles) << i;
    }
}

TEST(BatchEngine, FaultingJobsAreIsolatedInConcurrentBatch)
{
    // Every 5th job takes a scheduled SEU in the GFAU configuration
    // register and must trap; its neighbors — possibly on the same
    // recycled machine — must be bit-for-bit what a serial run (and a
    // fault-free run) produces.
    auto jobs = makeSyndromeJobs(50, 7);
    auto clean = jobs;
    for (size_t i = 0; i < jobs.size(); i += 5)
        jobs[i].faults.push_back(configKillEvent());

    BatchEngine eng(syndromeProgram(), BatchEngine::Options{.threads = 4});
    auto parallel = eng.run(jobs);
    auto serial = eng.runSerial(jobs);
    auto pristine = eng.runSerial(clean);

    for (size_t i = 0; i < jobs.size(); ++i) {
        if (i % 5 == 0) {
            EXPECT_EQ(parallel[i].trap.kind, TrapKind::kGfConfigCorrupt)
                << i;
            EXPECT_TRUE(parallel[i].outputs.empty()) << i;
        } else {
            ASSERT_TRUE(parallel[i].ok()) << i;
            EXPECT_EQ(parallel[i].outputs, pristine[i].outputs) << i;
        }
        EXPECT_EQ(parallel[i].trap.kind, serial[i].trap.kind) << i;
        EXPECT_EQ(parallel[i].outputs, serial[i].outputs) << i;
    }
}

TEST(BatchEngine, TrapDoesNotPoisonNextJobOnSameMachine)
{
    // Force a single worker so the faulted job and its successor are
    // guaranteed to share one recycled Machine.
    auto jobs = makeSyndromeJobs(3, 99);
    jobs[1].faults.push_back(configKillEvent());

    BatchEngine eng(syndromeProgram(), BatchEngine::Options{.threads = 1});
    auto res = eng.run(jobs);
    auto pristine = eng.runSerial(makeSyndromeJobs(3, 99));
    EXPECT_TRUE(res[0].ok());
    EXPECT_EQ(res[1].trap.kind, TrapKind::kGfConfigCorrupt);
    EXPECT_TRUE(res[2].ok());
    EXPECT_EQ(res[0].outputs, pristine[0].outputs);
    EXPECT_EQ(res[2].outputs, pristine[2].outputs);
}

TEST(BatchEngine, WatchdogTrapIsPerJob)
{
    auto jobs = makeSyndromeJobs(4, 5);
    jobs[2].max_instrs = 10; // far too few to finish a syndrome pass
    BatchEngine eng(syndromeProgram(), BatchEngine::Options{.threads = 2});
    auto res = eng.run(jobs);
    EXPECT_EQ(res[2].trap.kind, TrapKind::kWatchdog);
    for (size_t i : {0u, 1u, 3u})
        EXPECT_TRUE(res[i].ok()) << i;
}

TEST(BatchEngine, ResultsKeepJobOrderAndRecordWorkers)
{
    auto jobs = makeSyndromeJobs(40, 11);
    BatchEngine eng(syndromeProgram(), BatchEngine::Options{.threads = 4});
    auto parallel = eng.run(jobs);
    auto serial = eng.runSerial(jobs);
    unsigned max_worker = 0;
    for (size_t i = 0; i < jobs.size(); ++i) {
        // Order is proven by content: job i's syndromes are unique to
        // its received word, so index-by-index equality with the serial
        // run pins the ordering.
        EXPECT_EQ(parallel[i].outputs, serial[i].outputs) << i;
        EXPECT_LT(parallel[i].worker, eng.threads());
        max_worker = std::max(max_worker, parallel[i].worker);
    }
    EXPECT_LT(max_worker, 4u);
}

TEST(BatchEngine, RunOnCallerMachineMatchesSerialAndCounts)
{
    // One caller-owned machine, built by the first runOn(), carries a
    // watchdog-trapped job and its neighbours exactly as the serial
    // reference does, and every job lands in the live counters.
    auto jobs = makeSyndromeJobs(5, 23);
    jobs[2].max_instrs = 10;
    BatchEngine eng(syndromeProgram(), BatchEngine::Options{.threads = 2});
    auto serial = eng.runSerial(jobs);
    std::unique_ptr<Machine> machine;
    for (size_t i = 0; i < jobs.size(); ++i) {
        const JobResult res = eng.runOn(machine, jobs[i]);
        ASSERT_TRUE(machine);
        EXPECT_EQ(res.trap.kind, serial[i].trap.kind) << i;
        EXPECT_EQ(res.outputs, serial[i].outputs) << i;
        EXPECT_EQ(res.stats.cycles, serial[i].stats.cycles) << i;
    }
    EXPECT_EQ(serial[2].trap.kind, TrapKind::kWatchdog);
    const Metrics &m = eng.metrics();
    EXPECT_EQ(m.counter("jobs_submitted_total"), 5.0);
    EXPECT_EQ(m.counter("jobs_completed_total"), 4.0);
    EXPECT_EQ(m.counter("jobs_trapped_total"), 1.0);
}

TEST(BatchEngine, EmptyBatchAndMoreWorkersThanJobs)
{
    BatchEngine eng(syndromeProgram(), BatchEngine::Options{.threads = 8});
    EXPECT_TRUE(eng.run({}).empty());
    auto res = eng.run(makeSyndromeJobs(2, 1));
    ASSERT_EQ(res.size(), 2u);
    EXPECT_TRUE(res[0].ok());
    EXPECT_TRUE(res[1].ok());
}

TEST(Machine, FullResetRestoresPristineState)
{
    // The engine's rerun contract: memory, registers, GFAU config and
    // stats all return to the just-constructed state, even after a
    // fault-corrupted run.
    GFField f(8);
    Machine m(syndromeAsmGfcore(f, 255, 16), CoreKind::kGfProcessor);

    auto jobs = makeSyndromeJobs(1, 77);
    const auto &rx = jobs[0].inputs[0].second;
    m.writeBytes("rxdata", rx);
    m.runOk();
    auto first = m.readBytes("synd", 16);
    auto first_cycles = m.core().stats().cycles;

    // Corrupt everything a job could corrupt: data memory and the live
    // configuration register.
    FaultInjector inj;
    inj.setSchedule({configKillEvent(),
                     FaultEvent{40, FaultTarget::kDataMemory, 0x2000, 3}});
    inj.attach(m.core());
    m.reset();
    m.writeBytes("rxdata", rx);
    (void)m.runToHalt();
    m.core().setFaultHook(nullptr);

    m.fullReset();
    EXPECT_EQ(m.core().stats().cycles, 0u);
    EXPECT_TRUE(m.core().gfau().configValid());
    m.writeBytes("rxdata", rx);
    m.runOk();
    EXPECT_EQ(m.readBytes("synd", 16), first);
    EXPECT_EQ(m.core().stats().cycles, first_cycles);
}

TEST(BatchEngine, FullResetRestoresFreshlyConstructedState)
{
    // After fullReset() the whole machine — every memory byte, the
    // registers, the flags — must equal a freshly constructed twin.
    GFField f(8);
    std::string src = syndromeAsmGfcore(f, 255, 16);
    Machine fresh(src, CoreKind::kGfProcessor);
    Machine used(src, CoreKind::kGfProcessor);

    auto jobs = makeSyndromeJobs(1, 31);
    used.writeBytes("rxdata", jobs[0].inputs[0].second);
    used.runOk();
    // Scribble over the program text too (self-modifying footprint),
    // and above the footprint, where the restore image ends and
    // fullReset() must zero-fill.
    used.memory().write32(0, 0xdeadbeef);
    const uint32_t above =
        static_cast<uint32_t>(used.program().footprint() + 64) & ~3u;
    used.memory().write32(above, 0xfeedface);
    used.memory().write32(
        static_cast<uint32_t>(used.memory().size()) - 4, 0x0badf00d);
    used.fullReset();

    EXPECT_EQ(used.memory().snapshot(), fresh.memory().snapshot());
    for (unsigned r = 0; r < 16; ++r)
        EXPECT_EQ(used.core().reg(r), fresh.core().reg(r)) << "r" << r;
    EXPECT_EQ(used.core().pc(), fresh.core().pc());
    EXPECT_EQ(used.core().stats().cycles, 0u);
    EXPECT_EQ(used.core().stats().instrs, 0u);

    // And the restored machine reruns identically to the twin.
    used.writeBytes("rxdata", jobs[0].inputs[0].second);
    fresh.writeBytes("rxdata", jobs[0].inputs[0].second);
    used.runOk();
    fresh.runOk();
    EXPECT_EQ(used.readBytes("synd", 16), fresh.readBytes("synd", 16));
}

TEST(BatchEngine, FullResetKeepsCodeEpochWhenTextUntouched)
{
    // A job that never writes its own text must not invalidate the
    // predecoded instruction stream on reset — that reuse is what makes
    // per-job fullReset() cheap for the batch engine.
    GFField f(8);
    Machine m(syndromeAsmGfcore(f, 255, 16), CoreKind::kGfProcessor);
    auto jobs = makeSyndromeJobs(1, 32);
    m.writeBytes("rxdata", jobs[0].inputs[0].second);
    m.runOk();

    uint64_t epoch = m.memory().codeEpoch();
    m.fullReset();
    EXPECT_EQ(m.memory().codeEpoch(), epoch);

    // But clobbered text must bump the epoch on restore.
    m.memory().write32(4, 0x12345678);
    uint64_t dirty = m.memory().codeEpoch();
    EXPECT_GT(dirty, epoch);
    m.fullReset();
    EXPECT_GT(m.memory().codeEpoch(), dirty);
}

TEST(BatchEngine, AesCtrBatchMatchesReference)
{
    // CTR keystream via the engine vs. Aes::applyCtr on the host.
    std::vector<uint8_t> key(16);
    std::iota(key.begin(), key.end(), uint8_t{1});
    Aes aes(key);
    AesBlock iv{};
    iv[15] = 0xfe; // crosses a byte boundary while incrementing

    Rng rng(88);
    std::vector<uint8_t> data(5 * 16 + 7); // deliberately ragged tail
    for (auto &b : data)
        b = rng.nextByte();

    BatchEngine eng(aesBlockBatchProgram(),
                    BatchEngine::Options{.threads = 2});
    auto results = eng.run(aesCtrJobs(aes, iv, data.size()));
    EXPECT_EQ(aesCtrApply(results, data), aes.applyCtr(data, iv));
}

} // namespace
} // namespace gfp
