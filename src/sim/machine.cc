#include "sim/machine.h"

#include "common/logging.h"
#include "isa/assembler.h"

namespace gfp {

Machine::Machine(const std::string &asm_source, CoreKind kind,
                 size_t mem_bytes)
    : Machine(Assembler::assemble(asm_source), kind, mem_bytes)
{
}

Machine::Machine(Program program, CoreKind kind, size_t mem_bytes)
    : program_(std::move(program)), mem_(mem_bytes)
{
    if (program_.footprint() + 64 > mem_bytes) {
        GFP_FATAL("program footprint %zu bytes exceeds memory %zu",
                  program_.footprint(), mem_bytes);
    }
    loadProgram();
    // Everything above the footprint is still zero, so the restore
    // image need not hold it.
    pristine_.assign(mem_.data(), mem_.data() + program_.footprint());
    core_ = std::make_unique<Core>(mem_, kind);
    core_->enablePredecode(static_cast<uint32_t>(4 * program_.code.size()));
}

void
Machine::loadProgram()
{
    for (size_t i = 0; i < program_.code.size(); ++i)
        mem_.write32(static_cast<uint32_t>(4 * i), program_.code[i]);
    mem_.writeBlock(program_.data_base, program_.data);
}

void
Machine::setArgs(std::initializer_list<uint32_t> args)
{
    GFP_ASSERT(args.size() <= 4, "at most 4 register arguments");
    unsigned i = 0;
    for (uint32_t a : args)
        core_->setReg(i++, a);
}

void
Machine::reset()
{
    core_->reset();
    core_->resetStats();
}

void
Machine::fullReset()
{
    // Restore the post-construction image in one memcpy rather than
    // zero-fill + per-word program reload.  When the previous job left
    // the program text untouched, the code epoch is preserved and the
    // core's predecoded instructions and JIT translation stay valid —
    // the batch engine's per-job reset no longer rebuilds it.
    mem_.restore(pristine_);
    if (core_->kind() == CoreKind::kGfProcessor)
        core_->gfau().powerOnReset();
    core_->reset();
    core_->resetStats();
}

RunResult
Machine::runToHalt(uint64_t max_instrs)
{
    return core_->run(max_instrs);
}

CycleStats
Machine::runOk(uint64_t max_instrs)
{
    RunResult r = core_->run(max_instrs);
    if (!r.ok())
        GFP_FATAL("trusted guest program stopped abnormally: %s",
                  r.trap.describe().c_str());
    return r.stats;
}

// The label helpers run on behalf of the *host* (loading inputs,
// reading results), so an out-of-range access here is host misuse and
// escalates to fatal rather than becoming a trap.

uint32_t
Machine::readWord(const std::string &label, unsigned index) const
{
    try {
        return mem_.read32(program_.symbol(label) + 4 * index);
    } catch (const MemoryFault &f) {
        GFP_FATAL("readWord('%s', %u): %s", label.c_str(), index, f.what());
    }
}

void
Machine::writeWord(const std::string &label, uint32_t value, unsigned index)
{
    try {
        mem_.write32(program_.symbol(label) + 4 * index, value);
    } catch (const MemoryFault &f) {
        GFP_FATAL("writeWord('%s', %u): %s", label.c_str(), index, f.what());
    }
}

std::vector<uint8_t>
Machine::readBytes(const std::string &label, size_t len) const
{
    try {
        return mem_.readBlock(program_.symbol(label), len);
    } catch (const MemoryFault &f) {
        GFP_FATAL("readBytes('%s', %zu): %s", label.c_str(), len, f.what());
    }
}

void
Machine::writeBytes(const std::string &label,
                    const std::vector<uint8_t> &bytes)
{
    try {
        mem_.writeBlock(program_.symbol(label), bytes);
    } catch (const MemoryFault &f) {
        GFP_FATAL("writeBytes('%s'): %s", label.c_str(), f.what());
    }
}

} // namespace gfp
