#include "jit/core_translation.h"

#include <cinttypes>
#include <cstring>

#include "common/strutil.h"
#include "sim/cost_model.h"
#include "sim/machine.h"
#include "sim/profiler.h"

namespace gfp::jit {

CoreTranslation::CoreTranslation(std::shared_ptr<const CompiledProgram> cp)
    : cp_(std::move(cp)),
      exec_(cp_->blocks().size(), 0),
      taken_(cp_->blocks().size(), 0)
{
}

JitGfTables &
CoreTranslation::tablesFor(const GFConfig &cfg)
{
    const uint64_t key = cfg.pack();
    for (auto &t : tables_)
        if (t->valid && t->key == key)
            return *t;
    tables_.push_back(std::make_unique<JitGfTables>());
    tables_.back()->ensure(cfg);
    return *tables_.back();
}

bool
CoreTranslation::run(Core &core, RunResult &res, uint64_t max_instrs)
{
    const std::vector<Block> &blocks = cp_->blocks();
    if (blocks.empty())
        return false;

    const uint32_t entry_pc = pc(core);
    if ((entry_pc & 3u) != 0 || cp_->blockAt(entry_pc / 4) < 0)
        return false;

    Memory &mem = memory(core);

    // Revalidate after any code-epoch movement: stores below the watch
    // limit and SEU flips both bump the epoch whether or not they
    // changed the program text, so compare the text itself and keep the
    // verdict until the epoch moves again.  (The memcmp against the
    // word array assumes a little-endian host, like the predecoder's
    // fast loads; on anything else it just never matches — pessimistic,
    // never wrong.)
    const uint64_t epoch = mem.codeEpoch();
    if (epoch != valid_epoch_) {
        if (epoch == failed_epoch_)
            return false;
        const size_t code_bytes = cp_->words().size() * 4;
        if (mem.size() < code_bytes ||
            std::memcmp(mem.data(), cp_->words().data(), code_bytes) != 0) {
            failed_epoch_ = epoch;
            return false;
        }
        valid_epoch_ = epoch;
    }

    // GF helper tables must mirror the live configuration register.  An
    // invalid config means every GF op traps — the interpreter's
    // business, not ours.
    JitGfTables *tables = nullptr;
    if (cp_->usesGf()) {
        if (!core.gfau().configValid())
            return false;
        tables = &tablesFor(core.gfau().config());
    }

    if (res.instrs >= max_instrs)
        return false;

    std::fill(exec_.begin(), exec_.end(), 0);
    std::fill(taken_.begin(), taken_.end(), 0);

    Core::Flags &fl = flags(core);
    ctx_.regs = regs(core).data();
    ctx_.mem = mem.data();
    ctx_.mem_size = mem.size();
    ctx_.watch_limit = mem.watchLimit();
    ctx_.budget = max_instrs - res.instrs;
    ctx_.exec_counts = exec_.data();
    ctx_.taken_counts = taken_.data();
    ctx_.entries = cp_->nativeCode().entries.data();
    ctx_.gf = tables;
    ctx_.flags[0] = fl.n;
    ctx_.flags[1] = fl.z;
    ctx_.flags[2] = fl.c;
    ctx_.flags[3] = fl.v;
    ctx_.exit_pc = entry_pc;
    ctx_.exit_reason = kExitExternal;
    ctx_.deopt_block = 0;
    ctx_.deopt_k = 0;
    ctx_.dirty_lo = UINT64_MAX;
    ctx_.dirty_hi = 0;

    ++entries_;
    cp_->run(ctx_, entry_pc / 4);

    fl.n = ctx_.flags[0] != 0;
    fl.z = ctx_.flags[1] != 0;
    fl.c = ctx_.flags[2] != 0;
    fl.v = ctx_.flags[3] != 0;

    // A deopted block bumped its counter on entry but committed
    // nothing past deopt_k instructions; count the prefix explicitly.
    if (ctx_.exit_reason == kExitDeopt) {
        ++deopts_;
        exec_[ctx_.deopt_block] -= 1;
    }

    // Reconstruct the exact per-instruction bookkeeping from the block
    // counters.  record() is linear, so base*exec + taken_extra*taken
    // is bit-identical to stepping's per-retire records.
    CycleStats &st = stats(core);
    PcProfile *prof = profile(core);
    uint64_t retired = 0;
    for (size_t b = 0; b < blocks.size(); ++b) {
        const uint64_t n = exec_[b];
        const uint64_t t = taken_[b];
        if (n == 0 && t == 0)
            continue;
        const Block &blk = blocks[b];
        retired += n * blk.len;
        st.addScaled(blk.base, n);
        st.addScaled(blk.taken_extra, t);
        if (prof == nullptr)
            continue;
        for (uint32_t k = 0; k < blk.len; ++k) {
            if (blk.term == TermKind::kCondBranch && k == blk.len - 1) {
                // The static cost is the not-taken cycle; taken
                // executions retire the refill cost instead.
                prof->record(blk.pcOf(k), blk.cls[k], blk.cycles[k],
                             n - t);
                prof->record(blk.pcOf(k), blk.cls[k],
                             kTakenBranchCycles, t);
            } else {
                prof->record(blk.pcOf(k), blk.cls[k], blk.cycles[k], n);
            }
        }
    }
    if (ctx_.exit_reason == kExitDeopt) {
        const Block &blk = blocks[ctx_.deopt_block];
        retired += ctx_.deopt_k;
        for (uint32_t k = 0; k < ctx_.deopt_k; ++k) {
            st.record(blk.cls[k], blk.cycles[k]);
            if (prof != nullptr)
                prof->record(blk.pcOf(k), blk.cls[k], blk.cycles[k]);
        }
    }

    mem.touchRange(ctx_.dirty_lo, ctx_.dirty_hi);
    pc(core) = ctx_.exit_pc;
    if (ctx_.exit_reason == kExitHalt)
        halted(core) = true;

    res.instrs += retired;
    return retired > 0;
}

std::string
CoreTranslation::describe() const
{
    return strprintf("%s (%" PRIu64 " entries, %" PRIu64 " deopts)",
                  cp_->summary().c_str(), entries_, deopts_);
}

std::unique_ptr<Translation>
makeCoreTranslation(std::shared_ptr<const CompiledProgram> cp)
{
    if (cp == nullptr)
        return nullptr;
    return std::make_unique<CoreTranslation>(std::move(cp));
}

void
installTranslation(Machine &machine)
{
    Core &core = machine.core();
    core.setTranslation(
        makeCoreTranslation(translate(machine.program(), core.kind())));
    core.setDispatchMode(DispatchMode::kTranslated);
}

} // namespace gfp::jit
