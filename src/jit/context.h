/**
 * @file
 * The mutable run state generated code works against.
 *
 * The x86-64 templates address these fields by fixed byte offsets (a
 * pointer to the context rides in a reserved host register), so the
 * layout is pinned with static_asserts.  One context per core,
 * refilled by the driver before every entry — the compiled code itself
 * is immutable and shared across cores/threads.
 */

#ifndef GFP_JIT_CONTEXT_H
#define GFP_JIT_CONTEXT_H

#include <cstddef>
#include <cstdint>

namespace gfp::jit {

struct JitContext
{
    uint32_t *regs = nullptr;          ///< guest register file (16)
    uint8_t *mem = nullptr;            ///< guest memory base
    uint64_t mem_size = 0;             ///< guest memory size in bytes
    uint64_t watch_limit = 0;          ///< stores below this deopt (SMC)
    uint64_t budget = 0;               ///< instructions left to retire
    uint64_t *exec_counts = nullptr;   ///< per-block execution counters
    uint64_t *taken_counts = nullptr;  ///< per-block cond-taken counters
    const uint64_t *entries = nullptr; ///< per-word entry (0 = none)
    const void *gf = nullptr;          ///< GF helper tables (JitGfTables)
    uint8_t flags[4] = {};             ///< NZCV as bytes (n,z,c,v)
    uint32_t exit_pc = 0;              ///< guest pc at exit
    uint32_t exit_reason = 0;          ///< ExitReason
    uint32_t deopt_block = 0;          ///< block that deopted
    uint32_t deopt_k = 0;              ///< instrs retired in it before
    uint32_t pad_ = 0;
    uint64_t dirty_lo = 0;             ///< store-span low watermark
    uint64_t dirty_hi = 0;             ///< store-span high watermark
};

// Offsets the emitters bake into host instructions.
static_assert(offsetof(JitContext, regs) == 0);
static_assert(offsetof(JitContext, mem) == 8);
static_assert(offsetof(JitContext, mem_size) == 16);
static_assert(offsetof(JitContext, watch_limit) == 24);
static_assert(offsetof(JitContext, budget) == 32);
static_assert(offsetof(JitContext, exec_counts) == 40);
static_assert(offsetof(JitContext, taken_counts) == 48);
static_assert(offsetof(JitContext, entries) == 56);
static_assert(offsetof(JitContext, gf) == 64);
static_assert(offsetof(JitContext, flags) == 72);
static_assert(offsetof(JitContext, exit_pc) == 76);
static_assert(offsetof(JitContext, exit_reason) == 80);
static_assert(offsetof(JitContext, deopt_block) == 84);
static_assert(offsetof(JitContext, deopt_k) == 88);
static_assert(offsetof(JitContext, dirty_lo) == 96);
static_assert(offsetof(JitContext, dirty_hi) == 104);

} // namespace gfp::jit

#endif // GFP_JIT_CONTEXT_H
