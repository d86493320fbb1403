/**
 * @file
 * Guest-execution phase tracing: turns a simulated run into Chrome
 * trace_event spans and markers (common/trace_event.h).
 *
 * A GuestTracer attaches to a Core through its per-retire trace hook
 * and emits:
 *
 *   - one "X" span per *kernel region* — the contiguous stretch of
 *     retired instructions whose pc falls between two code symbols of
 *     the program, named after the symbol that opens it (so `bl
 *     gf_dot` shows up as a `gf_dot` span nested in wall time);
 *   - one "i" instant per gfConfig load (field reconfiguration points
 *     are exactly where the paper's Table 4 kernels switch fields);
 *   - one "i" instant for the final trap, if the run trapped
 *     (reported through finish(), since the hook never sees traps).
 *
 * Guest time is converted to trace microseconds at the paper's 100 MHz
 * clock: 1 cycle = 0.01 us, so span durations read directly as guest
 * time at the published operating point.
 *
 * Attaching a trace hook forces the core onto the stepping path (translated
 * code has no per-retire hooks), so tracing costs
 * throughput — it is a debugging/visualization mode, not a profiling
 * mode; use PcProfile for overhead-sensitive attribution.
 */

#ifndef GFP_SIM_TRACER_H
#define GFP_SIM_TRACER_H

#include <cstdint>
#include <string>
#include <vector>

#include "common/trace_event.h"
#include "isa/program.h"
#include "sim/cpu.h"

namespace gfp {

class GuestTracer
{
  public:
    /** Track ids used in the emitted trace ("guest" process). */
    static constexpr int kGuestPid = 1;
    static constexpr int kPhaseTid = 1;  ///< kernel-region spans
    static constexpr int kMarkerTid = 2; ///< gfcfg / trap instants

    /**
     * @p clock_mhz converts guest cycles to trace microseconds; the
     * default is the paper's 100 MHz operating point.  The tracer
     * holds references to all three arguments — keep them alive while
     * attached.
     */
    GuestTracer(TraceLog &log, Core &core, const Program &program,
                double clock_mhz = 100.0);

    /** Install the per-retire hook (replaces any existing trace hook). */
    void attach();

    /**
     * Close the open region span, emit the trap marker if @p trap is a
     * real trap, and remove the hook.  Call once after the run.
     */
    void finish(const Trap *trap = nullptr);

  private:
    void onRetire(uint32_t pc, const Instr &in);
    /** Index into regions_ of the region containing @p pc (or -1). */
    int regionOf(uint32_t pc) const;
    double toUs(uint64_t cycles) const
    {
        return static_cast<double>(cycles) / clock_mhz_;
    }

    TraceLog &log_;
    Core &core_;
    const Program &program_;
    double clock_mhz_;

    /** Code symbols sorted by address; region i spans
     *  [regions_[i].addr, regions_[i+1].addr). */
    struct Region
    {
        uint32_t addr = 0;
        std::string name;
    };
    std::vector<Region> regions_;

    int cur_region_ = -1;
    uint64_t region_start_cycle_ = 0;
    uint64_t last_cycle_ = 0;
    bool attached_ = false;
};

} // namespace gfp

#endif // GFP_SIM_TRACER_H
