/**
 * @file
 * Request-class semantics: the mapping from wire-protocol classes
 * (service/wire.h) onto the kernel catalog, expressed as a resumable
 * state machine the server drives one hop at a time.
 *
 * An EngineSet owns one BatchEngine per distinct kernel program —
 * engines are per-program because a BatchEngine assembles exactly one
 * Program and shares its translation with every Machine built for it.
 * A request is a RequestExec; advance() either emits the next
 * (engine, Job) pair to run or finishes with a status + response body,
 * and runHop() runs that job on the calling thread's machines.
 * Single-kernel classes finish after one step; the composite decode
 * classes (kRsDecode, kBchDecode, kRsErasure) walk the paper's
 * syndrome -> BMA -> Chien -> Forney chain with the standard verdict
 * logic, re-verifying the corrected word against host reference
 * syndromes before claiming success.
 *
 * Body layouts are documented (normatively) in docs/SERVICE.md and
 * enforced here by validate().
 */

#ifndef GFP_SERVICE_REQUEST_CLASSES_H
#define GFP_SERVICE_REQUEST_CLASSES_H

#include <array>
#include <chrono>
#include <memory>
#include <vector>

#include "engine/batch_engine.h"
#include "gf/field.h"
#include "service/wire.h"

namespace gfp::service {

/** RS(255,239,8) over GF(2^8)/0x11d — the paper's RS reference code. */
constexpr unsigned kRsN = 255;
constexpr unsigned kRsT = 8;
/** BCH(31,11,5) over GF(2^5) — the paper's BCH reference code. */
constexpr unsigned kBchN = 31;
constexpr unsigned kBchT = 5;
/** Erasure repair runs the Forney kernel on the host-computed erasure
 *  locator; the kernel's internal loops cap the locator degree at t, so
 *  at most t = 8 erasures are repairable per word (measured: e = 9
 *  fails, e <= 8 is bit-exact). */
constexpr unsigned kMaxErasures = kRsT;
/** ECDH scalars are at most 233 bits on K-233; the cap leaves headroom
 *  for stress scalars while bounding worst-case service time. */
constexpr uint32_t kMaxScalarBits = 1024;

/** One BatchEngine per kernel program the service dispatches to. */
enum class EngineId : uint8_t {
    kRsSynd = 0,
    kRsBma,
    kRsChien,
    kRsForney,
    kBchSynd,
    kBchBma,
    kBchChien,
    kAesBlock,
    kEcdh,
    kCount,
};

const char *engineName(EngineId id);

/**
 * The nine engines behind the service, built eagerly so the first
 * request of any class pays no assembly/JIT latency.  Options are
 * shared: every engine gets the same thread count and dispatch mode.
 */
class EngineSet
{
  public:
    explicit EngineSet(const BatchEngine::Options &opts);

    BatchEngine &engine(EngineId id);
    const BatchEngine &engine(EngineId id) const;

    const GFField &rsField() const { return f8_; }
    const GFField &bchField() const { return f5_; }

    static constexpr unsigned count()
    {
        return static_cast<unsigned>(EngineId::kCount);
    }

  private:
    GFField f8_;
    GFField f5_;
    std::vector<std::unique_ptr<BatchEngine>> engines_;
};

/**
 * Validate a request body for its class.  Returns true when the body
 * is well-formed (lengths, ranges, distinctness); malformed bodies are
 * answered kBadRequest without touching an engine.
 */
bool validateBody(RequestClass cls, const uint8_t *body, size_t len);

/** True for classes advance() handles (kStats/kPing are control-plane
 *  and answered by the server directly). */
bool isComputeClass(RequestClass cls);

/** One in-flight compute request and its inter-stage scratch state. */
struct RequestExec
{
    uint64_t id = 0;
    RequestClass cls = RequestClass::kPing;
    uint32_t deadline_us = 0;
    std::chrono::steady_clock::time_point arrival;

    unsigned stage = 0;
    std::vector<uint8_t> body; ///< validated request body, owned

    // Composite-decode scratch carried between stages.
    std::vector<uint8_t> work;   ///< received word being corrected
    std::vector<uint8_t> synd;   ///< syndromes from stage 0
    std::vector<uint8_t> lambda; ///< locator from BMA (or host Gamma)
    std::vector<uint8_t> locs;   ///< locations from Chien (or declared)
    uint32_t llen = 0;
    uint32_t nloc = 0;
};

/** What advance() decided: either submit `job` to `engine`, or the
 *  request is finished with `status` (+ trap_kind/body for the
 *  response). */
struct StepResult
{
    bool done = false;

    // !done: the next batch-engine hop.
    EngineId engine = EngineId::kRsSynd;
    Job job;

    // done: terminal outcome.
    Status status = Status::kOk;
    uint8_t trap_kind = 0;
    std::vector<uint8_t> response;
};

/**
 * Drive @p ex one hop.  @p prev is the JobResult of the previously
 * emitted job (nullptr on the first call).  The caller owns scheduling:
 * it runs each emitted job (runHop(), or an engine batch) and calls
 * advance() again with its result.  A trapped JobResult terminates the
 * request with kTrapped; advance() never consults wall clocks
 * (deadline enforcement is the server's).
 */
StepResult advance(const EngineSet &engines, RequestExec &ex,
                   const JobResult *prev);

/** One thread's machines, one per engine, each built on first use. */
using EngineMachines =
    std::array<std::unique_ptr<Machine>, EngineSet::count()>;

/** Run the job of @p step (a hop, !step.done) on the calling thread's
 *  machine for its engine (BatchEngine::runOn). */
JobResult runHop(EngineSet &engines, EngineMachines &machines,
                 const StepResult &step);

// ---- body builders (shared by client tools and tests) ----
std::vector<uint8_t> rsSyndromeBody(const std::vector<uint8_t> &rx);
std::vector<uint8_t> rsBmaBody(const std::vector<uint8_t> &synd);
std::vector<uint8_t> rsChienBody(const std::vector<uint8_t> &lambda);
std::vector<uint8_t> rsForneyBody(const std::vector<uint8_t> &synd,
                                  const std::vector<uint8_t> &lambda,
                                  const std::vector<uint8_t> &locs,
                                  uint32_t nloc);
std::vector<uint8_t> rsDecodeBody(const std::vector<uint8_t> &rx);
std::vector<uint8_t> bchDecodeBody(const std::vector<uint8_t> &rx_bits);
std::vector<uint8_t> aesCtrBlockBody(const std::vector<uint8_t> &rkeys,
                                     const std::vector<uint8_t> &counter);
std::vector<uint8_t> ecdhSharedBody(const std::vector<uint8_t> &qx,
                                    const std::vector<uint8_t> &qy,
                                    const std::vector<uint8_t> &kwords,
                                    uint32_t kbits);
std::vector<uint8_t> rsErasureBody(const std::vector<uint8_t> &rx,
                                   const std::vector<uint8_t> &positions);

} // namespace gfp::service

#endif // GFP_SERVICE_REQUEST_CLASSES_H
