/**
 * @file
 * Tests of the benchmark's own logic: percentile selection, failure
 * accounting and seed handling.
 */

#include <gtest/gtest.h>

#include <unistd.h>

#include <numeric>

#include "harness.h"
#include "service/client.h"
#include "service/server.h"
#include "workload.h"

using namespace perfbench;
using gfp::service::Status;

namespace {

std::vector<double>
oneTo(size_t n)
{
    std::vector<double> v(n);
    std::iota(v.begin(), v.end(), 1.0);
    return v;
}

} // namespace

TEST(Percentile, NearestRank)
{
    const auto v = oneTo(100);
    EXPECT_EQ(quantileSorted(v, 0.5), 50);
    EXPECT_EQ(quantileSorted(v, 0.99), 99);
    EXPECT_EQ(quantileSorted(v, 1.0), 100);
    EXPECT_EQ(quantileSorted({}, 0.5), 0);
    EXPECT_EQ(median({3, 1, 2}), 2);
}

TEST(Percentile, HighestLevelWithTenSamplesBeyond)
{
    // 1000 samples: p99.9 has 1 beyond, p99 exactly 10.
    Percentile p = tailPercentile(oneTo(1000));
    EXPECT_EQ(p.q, 0.99);
    EXPECT_EQ(p.value, 990);
    EXPECT_EQ(p.count, 1000u);
    EXPECT_EQ(p.beyond, 10u);

    // 10000 samples reach p99.9.
    p = tailPercentile(oneTo(10000));
    EXPECT_EQ(p.q, 0.999);
    EXPECT_EQ(p.beyond, 10u);

    // 999 samples leave only 9 beyond p99: fall back to p90.
    p = tailPercentile(oneTo(999));
    EXPECT_EQ(p.q, 0.9);
    EXPECT_EQ(p.beyond, 99u);

    // Too few for any tail: the median, with its count.
    p = tailPercentile(oneTo(5));
    EXPECT_EQ(p.q, 0.5);
    EXPECT_EQ(p.value, 3);
    EXPECT_EQ(p.count, 5u);

    p = tailPercentile({});
    EXPECT_EQ(p.count, 0u);
}

TEST(Failures, CorruptedExpectationCountsOnce)
{
    auto requests = makeMix(7, 1);
    Request &req = requests.front();
    gfp::service::StepResult step;
    step.done = true;
    step.status = Status::kOk;
    step.response = req.expected;
    ASSERT_TRUE(responseMatches(req, step));

    req.expected[0] ^= 0x01;
    Tally t;
    t.recordResponse(step.status, responseMatches(req, step));
    EXPECT_EQ(t.attempted, 1u);
    EXPECT_EQ(t.verify_mismatch, 1u);
    EXPECT_EQ(t.failed(), 1u);
    EXPECT_TRUE(t.outputsWrong());
    EXPECT_DOUBLE_EQ(t.errorRate(), 1.0);
}

TEST(Failures, TrapOrBadRequestCountsOnceAndIsWrongOutput)
{
    // Every generated input is valid, so a trap or a bad-request answer
    // means the program under test went wrong.
    for (Status status : {Status::kTrapped, Status::kBadRequest,
                          Status::kDeadlineExpired}) {
        Tally t;
        t.recordResponse(status, false);
        EXPECT_EQ(t.attempted, 1u);
        EXPECT_EQ(t.failed(), 1u);
        EXPECT_TRUE(t.outputsWrong());
    }
}

TEST(Failures, RejectedRequestCountsOnceAndIsNotWrongOutput)
{
    // A server whose admission watermark is zero refuses every compute
    // request with kRejectedBusy.
    gfp::service::Server::Options so;
    so.unix_path = "perfbench-test-" + std::to_string(getpid()) + ".sock";
    so.engine.threads = 1;
    so.admission_watermark = 0;
    so.quiet = true;
    gfp::service::Server server(so);
    server.start();
    gfp::service::Client client;
    ASSERT_TRUE(client.connectUnix(so.unix_path));

    const Request req = makeMix(3, 1).front();
    gfp::service::RequestHeader h;
    h.cls = req.cls;
    h.id = 42;
    gfp::service::Response resp;
    ASSERT_TRUE(client.call(h, req.body, &resp));
    ASSERT_EQ(resp.header.status, Status::kRejectedBusy);

    Tally t;
    t.recordResponse(resp.header.status, resp.body == req.expected);
    EXPECT_EQ(t.attempted, 1u);
    EXPECT_EQ(t.rejected_busy, 1u);
    EXPECT_EQ(t.failed(), 1u);
    EXPECT_FALSE(t.outputsWrong());

    // One OK response on top: two attempted, still one failed.
    t.recordResponse(Status::kOk, true);
    EXPECT_EQ(t.attempted, 2u);
    EXPECT_EQ(t.failed(), 1u);
    EXPECT_DOUBLE_EQ(t.errorRate(), 0.5);
    client.close();
    server.drain();
}

TEST(Seeds, SameSeedSameInputsOtherSeedOtherInputs)
{
    EXPECT_EQ(digest(makeMix(1, 8)), digest(makeMix(1, 8)));
    EXPECT_NE(digest(makeMix(1, 8)), digest(makeMix(2, 8)));
    EXPECT_EQ(digest(makeEcdh(5, 2)), digest(makeEcdh(5, 2)));
    EXPECT_NE(digest(makeEcdh(5, 2)), digest(makeEcdh(6, 2)));
}

TEST(Seeds, SeedChangesDataNotStructure)
{
    const auto a = makeMix(1, 10);
    const auto b = makeMix(2, 10);
    ASSERT_EQ(a.size(), 50u);
    ASSERT_EQ(a.size(), b.size());
    for (size_t i = 0; i < a.size(); ++i) {
        EXPECT_EQ(a[i].cls, b[i].cls);
        EXPECT_EQ(a[i].body.size(), b[i].body.size());
        EXPECT_EQ(a[i].cls, mixClasses()[i % mixClasses().size()]);
    }
}

TEST(Output, ResultLineHasTheContractKeys)
{
    Tally t;
    t.recordResponse(Status::kOk, true);
    t.recordResponse(Status::kTrapped, false);
    const std::string line =
        resultJson(true, t, {{"latency_ms", 1.25, "ms"}});
    EXPECT_EQ(line, "{\"correct\": true, \"attempted\": 2, \"failed\": 1, "
                    "\"metrics\": {\"latency_ms\": {\"value\": 1.25, "
                    "\"unit\": \"ms\"}}}");
}
