/**
 * @file
 * The template-JIT translator: guest program -> CompiledProgram.
 *
 * Translation is a straight-line affair, deliberately: the JIT's edge
 * over single stepping is removing decode and dispatch *entirely*
 * inside basic blocks and across direct branches.  The translator
 * slices the code into blocks at liberal leader points (every label,
 * every branch/call target, every word after a control transfer or
 * gfcfg), computes each block's static retire costs, and hands the
 * block IR (jit/ir.h) to the x86-64 templates (jit/backend_x64.cc).
 * On a host without them, translate() returns a translation with no
 * blocks, so Core::run steps every instruction: bit-exact, only
 * slower.
 *
 * Every structurally translatable block of every program is compiled;
 * no certificate is consulted.  The generated code carries every
 * dynamic guard the interpreter enforces — bounds checks on all memory
 * traffic, store-to-code (SMC) checks against the watch limit, budget
 * checks against the watchdog, and code-epoch revalidation at entry —
 * and deopts to Core::step() at anything it cannot commit, so hostile
 * programs run exactly as safely as trusted ones.  Trust in the
 * translation comes from the dispatch differential suite, which checks
 * it against plain stepping.
 */

#ifndef GFP_JIT_TRANSLATOR_H
#define GFP_JIT_TRANSLATOR_H

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "isa/program.h"
#include "jit/context.h"
#include "jit/ir.h"
#include "sim/cpu.h"

namespace gfp::jit {

class CodeCache;

struct TranslateOptions
{
    /** Unused by translate(): no certificate is checked, and memory
     *  bounds are guarded at run time.  Kept because perfbench sets
     *  it. */
    size_t mem_bytes = 256 * 1024;

    /** Unused by translate(): the watchdog budget is enforced at run
     *  time against Core::run's cap.  Kept because perfbench sets it. */
    uint64_t watchdog_max_instrs = 500'000'000;
};

/** The native backend on this host: "x86-64", or "none" where there
 *  are no templates and translate() compiles nothing. */
const char *nativeBackendName();

/** Finalized native code: the W^X buffer plus its entry points. */
struct NativeCode
{
    std::shared_ptr<CodeCache> cache;

    /** Absolute host entry address per code word (0 = not a block
     *  head); indirect jumps resolve through this from generated
     *  code, the driver through entry(). */
    std::vector<uint64_t> entries;

    /** `void enter(JitContext *, const void *block_entry)` — saves
     *  host registers, loads the context, and jumps to the block. */
    const void *enter = nullptr;
};

/**
 * An immutable compiled guest program, shared (const) across every
 * core/worker that runs it; all mutable run state lives in the
 * per-core jit::CoreTranslation.
 */
class CompiledProgram
{
  public:
    const std::vector<Block> &blocks() const { return blocks_; }

    /** The exact code words that were compiled — entry revalidation
     *  memcmps guest memory against this after an epoch bump. */
    const std::vector<uint32_t> &words() const { return words_; }

    /** Block index whose head is @p word, or -1. */
    int32_t
    blockAt(uint32_t word) const
    {
        return word < block_at_.size() ? block_at_[word] : -1;
    }

    CoreKind kind() const { return kind_; }
    bool usesGf() const { return uses_gf_; }

    /** Instructions covered by translated blocks. */
    uint32_t translatedWords() const { return translated_words_; }

    /** True when blocks() were emitted as host code — always, unless
     *  there are no blocks. */
    bool native() const { return native_.enter != nullptr; }
    const NativeCode &nativeCode() const { return native_; }
    const char *backendName() const
    {
        return native() ? nativeBackendName() : "none";
    }

    /** Why nothing was translated (empty when something was). */
    const std::string &policyNote() const { return policy_note_; }

    /** One line for tools/tests: backend, block and word counts. */
    std::string summary() const;

    /**
     * Execute the host code from block head @p entry_word until it
     * exits (ctx.exit_reason says why).  Needs native(); the caller
     * (CoreTranslation) owns validation, context setup, and the
     * stats/profile reconstruction that follows.
     */
    void run(JitContext &ctx, uint32_t entry_word) const;

  private:
    friend std::shared_ptr<const CompiledProgram>
    translate(const Program &, CoreKind, const TranslateOptions &);

    std::vector<uint32_t> words_;
    std::vector<Block> blocks_;
    std::vector<int32_t> block_at_;
    CoreKind kind_ = CoreKind::kGfProcessor;
    bool uses_gf_ = false;
    uint32_t translated_words_ = 0;
    std::string policy_note_;
    NativeCode native_;
};

/** Translate @p prog for a @p kind core (@p opts is ignored). */
std::shared_ptr<const CompiledProgram>
translate(const Program &prog, CoreKind kind,
          const TranslateOptions &opts = {});

/** The native backend (jit/backend_x64.cc): emit code for every block
 *  of @p cp into @p out.  x86-64 hosts only. */
void emitX64(const CompiledProgram &cp, NativeCode &out);

} // namespace gfp::jit

#endif // GFP_JIT_TRANSLATOR_H
