/**
 * @file
 * Convenience harness bundling an assembled program, memory, and a core.
 *
 * Typical use by kernels, tests, and benchmarks (trusted programs,
 * where a trap means the host generated bad code — runOk() escalates
 * it to a fatal):
 *
 *     Machine mach(asm_source, CoreKind::kGfProcessor);
 *     mach.writeBytes("input", codeword);
 *     mach.setArgs({n_symbols});
 *     CycleStats s = mach.runOk();
 *     auto synd = mach.readBytes("syndromes", 2 * t);
 *
 * Untrusted or fault-injected guests use runToHalt(), which returns a
 * RunResult whose Trap must be checked — no guest behavior (nor any
 * injected SEU) can abort the host through this path:
 *
 *     RunResult r = mach.runToHalt();
 *     if (!r.ok()) { ... r.trap.describe() ... }
 */

#ifndef GFP_SIM_MACHINE_H
#define GFP_SIM_MACHINE_H

#include <initializer_list>
#include <memory>
#include <string>

#include "isa/program.h"
#include "sim/cpu.h"
#include "sim/memory.h"

namespace gfp {

class Machine
{
  public:
    Machine(const std::string &asm_source, CoreKind kind,
            size_t mem_bytes = 256 * 1024);
    Machine(Program program, CoreKind kind, size_t mem_bytes = 256 * 1024);

    Core &core() { return *core_; }
    Memory &memory() { return mem_; }
    const Program &program() const { return program_; }

    /** Byte address of a label; fatal if undefined. */
    uint32_t addr(const std::string &label) const
    {
        return program_.symbol(label);
    }

    /** Set r0..r3 call arguments. */
    void setArgs(std::initializer_list<uint32_t> args);

    /** Reset core state (pc=0, fresh stats) without reloading memory. */
    void reset();

    /**
     * Restore the machine to its just-constructed state: memory zeroed
     * and the program image reloaded, core and GFAU back at power-on,
     * statistics cleared.  This is the rerun contract the batch engine
     * relies on — after fullReset() no trace of the previous job
     * remains, whether it halted cleanly, trapped, scribbled over its
     * own code, or took SEUs in the GFAU configuration register.
     */
    void fullReset();

    /**
     * Run to HALT, a trap, or the @p max_instrs watchdog.  Returns a
     * RunResult carrying the stop reason and the cycle statistics of
     * this run; never aborts the host on a guest fault.
     */
    RunResult runToHalt(uint64_t max_instrs = 500'000'000);

    /**
     * Run a *trusted* program to HALT and return the cycle statistics.
     * Any trap is escalated to GFP_FATAL: the host generated the
     * program, so a trap here is host misuse, not guest input.
     */
    CycleStats runOk(uint64_t max_instrs = 500'000'000);

    // -- memory helpers (labels resolve through the symbol table) --
    uint32_t readWord(const std::string &label, unsigned index = 0) const;
    void writeWord(const std::string &label, uint32_t value,
                   unsigned index = 0);
    std::vector<uint8_t> readBytes(const std::string &label,
                                   size_t len) const;
    void writeBytes(const std::string &label,
                    const std::vector<uint8_t> &bytes);

  private:
    void loadProgram();

    Program program_;
    Memory mem_;
    /** Memory image after construction, up to the program footprint
     *  (every byte above it is zero). */
    std::vector<uint8_t> pristine_;
    std::unique_ptr<Core> core_;
};

} // namespace gfp

#endif // GFP_SIM_MACHINE_H
