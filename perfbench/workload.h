/**
 * @file
 * Seeded inputs with host references, and the request-chain runner.
 *
 * Every input the benchmark sends is generated here from the workload
 * seed, together with the response a correct server must return,
 * computed by the host reference codecs (coding/, crypto/), never by
 * the simulator.  Error, erasure and scalar-length patterns depend only
 * on a request's index, so every seed gives the same hop structure and
 * the same round composition; the seed only changes the data.
 */

#ifndef GFP_PERFBENCH_WORKLOAD_H
#define GFP_PERFBENCH_WORKLOAD_H

#include <cstdint>
#include <functional>
#include <vector>

#include "service/request_classes.h"

namespace perfbench {

using gfp::service::EngineId;
using gfp::service::RequestClass;

/** One request body and the OK body its host reference predicts. */
struct Request
{
    RequestClass cls = RequestClass::kPing;
    std::vector<uint8_t> body;
    std::vector<uint8_t> expected;
};

/** The served mix, in round-robin order. */
const std::vector<RequestClass> &mixClasses();

/** @p per_class requests of every mix class, interleaved round-robin. */
std::vector<Request> makeMix(uint64_t seed, unsigned per_class);

/** @p count K-233 shared-secret requests with 32-bit scalars. */
std::vector<Request> makeEcdh(uint64_t seed, unsigned count);

/** FNV-1a over every body and expected body, in order. */
uint64_t digest(const std::vector<Request> &requests);

/** One engine job emitted by a request's chain, with its result. */
struct Hop
{
    size_t request = 0; ///< index into the driven request list
    EngineId engine = EngineId::kRsSynd;
    gfp::Job job;
    gfp::JobResult result;
};

/** Runs one wave's jobs on one engine and returns job-ordered results;
 *  the third argument names the request index of each job. */
using HopRunner = std::function<std::vector<gfp::JobResult>(
    EngineId, std::vector<gfp::Job>, const std::vector<size_t> &)>;

/**
 * Drive @p requests through service::advance() in waves: every wave
 * runs, per engine, the jobs the requests emitted, then advances each
 * request with its result.  Returns the terminal step of each request;
 * appends every hop to @p hops when non-null.  @p advance_seconds, when
 * non-null, accumulates host time spent inside advance().
 */
std::vector<gfp::service::StepResult>
driveRequests(const gfp::service::EngineSet &engines,
              const std::vector<Request> &requests, const HopRunner &run,
              std::vector<Hop> *hops, double *advance_seconds = nullptr,
              uint64_t *advance_calls = nullptr);

/** True when @p step is an OK response equal to @p req's reference. */
bool responseMatches(const Request &req,
                     const gfp::service::StepResult &step);

} // namespace perfbench

#endif // GFP_PERFBENCH_WORKLOAD_H
