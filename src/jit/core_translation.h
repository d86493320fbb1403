/**
 * @file
 * The per-core driver that plugs a CompiledProgram into Core::run().
 *
 * The CompiledProgram is immutable and shared across every core that
 * runs the program (the batch engine compiles once and installs one
 * CoreTranslation per worker core), and so are the GF helper tables
 * (one set per field config, jit/gf_tables.h); all mutable run state —
 * the JitContext, the per-block execution/taken counters, the
 * code-epoch validation cache — lives here, one instance per core, so
 * translated dispatch needs no locks.
 *
 * Responsibilities, in entry order:
 *   1. gate the entry: pc must head a translated block (none does on
 *      a host without templates), the code epoch must (re)validate
 *      against the compiled words, the GFAU config must be valid when
 *      the program uses GF ops, and there must be watchdog budget
 *      left;
 *   2. fill the JitContext and run the generated x86-64 code;
 *   3. reconstruct architectural statistics: CycleStats via the linear
 *      addScaled identity over the block counters, the per-PC profile
 *      via bulk per-instruction replay, the deopted prefix per
 *      instruction — bit-identical to single stepping;
 *   4. publish pc/flags/halted and report the store span to the memory
 *      so the dirty window (batch-job recycling) stays truthful.
 */

#ifndef GFP_JIT_CORE_TRANSLATION_H
#define GFP_JIT_CORE_TRANSLATION_H

#include <memory>
#include <vector>

#include "jit/gf_tables.h"
#include "jit/translator.h"
#include "sim/translation.h"

namespace gfp {
class Machine;
}

namespace gfp::jit {

class CoreTranslation final : public Translation
{
  public:
    explicit CoreTranslation(std::shared_ptr<const CompiledProgram> cp);

    bool run(Core &core, RunResult &res, uint64_t max_instrs) override;
    std::string describe() const override;

    const CompiledProgram &compiled() const { return *cp_; }

    /** Times translated code was entered / times a guard deopted. */
    uint64_t entries() const { return entries_; }
    uint64_t deopts() const { return deopts_; }

  private:
    std::shared_ptr<const CompiledProgram> cp_;
    JitContext ctx_;
    /** The shared table sets this core has run under: kernels that
     *  reconfigure the GFAU mid-run (AES alternates field and ring
     *  configs at 13 gfcfg sites) find theirs here on every translated
     *  entry without taking the registry's lock; lookup by key is a
     *  linear scan over the handful a real kernel uses. */
    std::vector<std::shared_ptr<const JitGfTables>> tables_;
    const JitGfTables &tablesFor(const GFConfig &cfg);
    std::vector<uint64_t> exec_;
    std::vector<uint64_t> taken_;

    // Code-epoch validation cache: entry revalidates (by memcmp against
    // the compiled words) only when the epoch moved, and remembers a
    // failed epoch so a divergent program isn't re-compared every
    // iteration of the run loop.
    uint64_t valid_epoch_ = UINT64_MAX;
    uint64_t failed_epoch_ = UINT64_MAX;

    uint64_t entries_ = 0;
    uint64_t deopts_ = 0;
};

/** Convenience: wrap @p cp for installation via Core::setTranslation
 *  (null in, null out — callers forward translate() results). */
std::unique_ptr<Translation>
makeCoreTranslation(std::shared_ptr<const CompiledProgram> cp);

/** Translate @p machine's program for its core and switch the core to
 *  kTranslated dispatch over the result. */
void installTranslation(Machine &machine);

} // namespace gfp::jit

#endif // GFP_JIT_CORE_TRANSLATION_H
