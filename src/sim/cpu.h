/**
 * @file
 * The two-stage in-order GFP core.
 *
 * Two variants share this model, exactly mirroring the paper's
 * methodology (Sec. 3.3.1):
 *  - the *baseline* core (CoreKind::kBaseline) models the Cortex M0+
 *    class machine the paper compares against: same registers, same ALU
 *    and memory instructions, no GF arithmetic unit (GF opcodes trap);
 *  - the *GF processor* (CoreKind::kGfProcessor) adds the GF arithmetic
 *    unit and the Table 1 instructions.
 *
 * Cycle model (both cores, matching the paper's accounting):
 *   loads/stores           2 cycles
 *   taken branches + calls 2 cycles (two-stage pipeline refill)
 *   gfConfig               2 cycles (reads its 64-bit blob from memory)
 *   everything else        1 cycle (including all SIMD GF instructions
 *                          and the 32-bit partial product)
 *
 * Guest errors never abort the host: out-of-range accesses, illegal
 * instruction words, GF opcodes on the baseline, and corrupted gfConfig
 * blobs stop the core with a structured Trap (sim/trap.h).  A trapped
 * core reports the faulting pc/address/cycle and can be reset() and
 * rerun.  Fault-injection campaigns hook in per retired instruction via
 * setFaultHook and deliver SEUs through injectFault.
 */

#ifndef GFP_SIM_CPU_H
#define GFP_SIM_CPU_H

#include <array>
#include <functional>
#include <memory>
#include <string_view>
#include <vector>

#include "gfau/gf_unit.h"
#include "isa/isa.h"
#include "sim/memory.h"
#include "sim/stats.h"
#include "sim/trap.h"

namespace gfp {

class PcProfile;
class Translation;

enum class CoreKind { kBaseline, kGfProcessor };

/**
 * How Core::run() executes the guest program.  Both modes retire the
 * same architectural state, cycle accounting and traps — the dispatch
 * differential suite holds them bit-identical; they differ only in
 * host speed.
 */
enum class DispatchMode : uint8_t {
    kPlain,      ///< single-step interpreter only (the reference; default)
    kTranslated, ///< JIT-translated host code, step() for everything else
};

/** "plain" / "translated". */
const char *dispatchModeName(DispatchMode mode);

/** Parse a --dispatch= value; false (out untouched) when unknown. */
bool parseDispatchMode(std::string_view name, DispatchMode &out);

/** Architectural state an SEU can strike (sim/fault_injector.h). */
enum class FaultTarget { kDataMemory, kRegisterFile, kConfigReg };

class Core
{
  public:
    Core(Memory &mem, CoreKind kind);
    ~Core();

    CoreKind kind() const { return kind_; }

    /** NZCV condition flags (public so translations can sync them). */
    struct Flags
    {
        bool n = false, z = false, c = false, v = false;
    };

    /** Reset architectural state; sp defaults to the top of memory.
     *  Clears halted and trapped state (stats are kept). */
    void reset(uint32_t pc = 0);

    bool halted() const { return halted_; }

    /** The core took a trap; see trap() for details. */
    bool trapped() const { return trap_.kind != TrapKind::kNone; }

    /** The last trap taken (kind == kNone if none since reset). */
    const Trap &trap() const { return trap_; }

    /** Halted or trapped — no further step() is legal until reset(). */
    bool stopped() const { return halted_ || trapped(); }

    uint32_t pc() const { return pc_; }

    uint32_t reg(unsigned idx) const;
    void setReg(unsigned idx, uint32_t value);

    /** Outcome of one step: the cycles it took, or the trap it hit. */
    struct StepResult
    {
        unsigned cycles = 0;
        Trap trap;
        bool ok() const { return !trap; }
    };

    /** Execute one instruction; never aborts on guest errors. */
    StepResult step();

    /**
     * Predecode the code region [0, code_bytes): each instruction word
     * is decoded once into a dense cache instead of being re-decoded on
     * every fetch.  Purely a host-side interpreter optimization — the
     * architectural behavior is unchanged: stores or SEU bit flips into
     * the code region invalidate the cache (via the memory's code-watch
     * epoch), undecodable words and fetches outside the region fall
     * back to the fetch-from-memory path and trap exactly as before.
     */
    void enablePredecode(uint32_t code_bytes);
    void disablePredecode();
    bool predecodeEnabled() const { return predecode_enabled_; }

    /**
     * Select the execution path run() uses.
     *
     * kPlain (the default) single-steps every instruction.  kTranslated
     * additionally runs host code installed with setTranslation()
     * (src/jit) for the blocks it covers; everything else — gfcfg
     * barriers, deopts, code invalidated by self-modifying stores, pcs
     * that head no translated block — goes through step().
     *
     * Translation is purely a host-side optimization: cycle accounting,
     * statistics, trap behavior and code-watch-epoch invalidation are
     * identical to single stepping (tests/test_dispatch_differential.cc
     * proves it).  run() only enters translated code when predecode is
     * enabled and no trace or fault hook is attached; any potentially
     * trapping situation deopts, commits nothing, and re-executes
     * through step() so the architectural trap is raised exactly.
     */
    void setDispatchMode(DispatchMode mode) { dispatch_mode_ = mode; }
    DispatchMode dispatchMode() const { return dispatch_mode_; }

    /**
     * Install the host-code translation kTranslated dispatch runs
     * (nullptr uninstalls).  The translation is consulted only when
     * the dispatch mode is kTranslated and predecode is on with no
     * trace/fault hook attached; it must uphold the bail-before-commit
     * contract (see sim/translation.h).
     */
    void setTranslation(std::unique_ptr<Translation> translation);
    Translation *translation() const { return translation_.get(); }

    /**
     * Run until HALT, a trap, or until @p max_instrs instructions
     * retire (which yields a Watchdog trap in the result — the core
     * itself stays runnable, the guard is host policy).  The result
     * carries the stats delta of this run.
     */
    RunResult run(uint64_t max_instrs = 500'000'000);

    const CycleStats &stats() const { return stats_; }
    void resetStats() { stats_ = CycleStats(); }

    Memory &memory() { return mem_; }
    GFArithmeticUnit &gfau();
    const GFArithmeticUnit &gfau() const;

    /**
     * Attach a per-PC profiler (sim/profiler.h); nullptr detaches.  The
     * profile receives one record per retired instruction with the same
     * class/cycle pair CycleStats sees, on *both* execution paths —
     * unlike a trace hook, attaching a profile does not force the
     * stepping path, and translated blocks are de-aggregated to their
     * constituent PCs so plain and translated profiles match exactly.  The
     * caller owns the profile and must keep it alive while attached.
     * Detached cost is one null check per retire.
     */
    void setProfile(PcProfile *profile) { profile_ = profile; }
    PcProfile *profile() const { return profile_; }

    /** Optional per-retire hook: (pc, instruction) before side effects. */
    using TraceHook = std::function<void(uint32_t, const Instr &)>;
    void setTraceHook(TraceHook hook) { trace_ = std::move(hook); }

    /**
     * Optional per-cycle fault hook, called after every retired
     * instruction with the core and its cumulative cycle count — the
     * attachment point for FaultInjector.  The hook may mutate state
     * via injectFault and may requestTrap.
     */
    using FaultHook = std::function<void(Core &, uint64_t)>;
    void setFaultHook(FaultHook hook) { fault_hook_ = std::move(hook); }

    /**
     * Deliver one SEU: flip bit @p bit of the chosen target.
     *  kDataMemory   index = byte address (mod memory size), bit mod 8
     *  kRegisterFile index = register (mod 16), bit mod 32
     *  kConfigReg    bit mod 60 (GF core only; see GFArithmeticUnit)
     * Updates the per-target injection counters in CycleStats.
     */
    void injectFault(FaultTarget target, uint32_t index, unsigned bit);

    /** Ask the core to take @p kind before the next instruction —
     *  used by fault hooks modeling parity/EDAC-signaled upsets. */
    void requestTrap(TrapKind kind) { requested_trap_ = kind; }

  private:
    friend class Translation; // architectural-state access for the JIT

    void setFlagsSub(uint32_t a, uint32_t b);
    bool condition(Op op) const;
    unsigned execute(const Instr &in);
    StepResult takeTrap(TrapKind kind, uint32_t addr);
    void rebuildPredecode();

    /** One predecoded code word; undecodable words stay invalid and
     *  divert to the slow fetch path for the architectural trap.  The
     *  statistics class rides along so the retire path skips a second
     *  opcode switch. */
    struct PredecodedWord
    {
        Instr in;
        InstrClass cls = InstrClass::kAlu;
        bool valid = false;
    };

    Memory &mem_;
    CoreKind kind_;
    GFArithmeticUnit gfau_;
    std::array<uint32_t, kNumRegs> regs_{};
    uint32_t pc_ = 0;
    Flags flags_;
    bool halted_ = false;
    Trap trap_;
    TrapKind pending_trap_ = TrapKind::kNone;   // raised inside execute()
    uint32_t pending_addr_ = 0;
    TrapKind requested_trap_ = TrapKind::kNone; // raised via requestTrap()
    CycleStats stats_;
    PcProfile *profile_ = nullptr;
    TraceHook trace_;
    FaultHook fault_hook_;

    bool predecode_enabled_ = false;
    DispatchMode dispatch_mode_ = DispatchMode::kPlain;
    std::unique_ptr<Translation> translation_;
    uint32_t predecode_limit_ = 0;        // byte limit of the code region
    uint64_t predecode_epoch_ = 0;        // memory code epoch at build
    std::vector<PredecodedWord> icache_;  // one entry per code word
};

} // namespace gfp

#endif // GFP_SIM_CPU_H
