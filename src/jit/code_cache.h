/**
 * @file
 * W^X executable-memory arena for the native JIT backend.
 *
 * Strict write-xor-execute lifecycle: the buffer is mmap'd
 * PROT_READ|PROT_WRITE, the emitter fills it, finalize() flips it to
 * PROT_READ|PROT_EXEC (never writable+executable at the same time) and
 * flushes the instruction cache on hosts that need it.  This is
 * both the hardening posture CI's sanitizer jobs expect and what keeps
 * the JIT suites clean under ASan — the pages come from mmap, not the
 * C++ heap, so the poisoned-redzone machinery never sees them.
 */

#ifndef GFP_JIT_CODE_CACHE_H
#define GFP_JIT_CODE_CACHE_H

#include <cstddef>
#include <cstdint>

namespace gfp::jit {

class CodeCache
{
  public:
    /** Reserve @p capacity bytes of RW memory; fatal on mmap failure. */
    explicit CodeCache(size_t capacity);
    ~CodeCache();

    CodeCache(const CodeCache &) = delete;
    CodeCache &operator=(const CodeCache &) = delete;

    uint8_t *base() { return base_; }
    const uint8_t *base() const { return base_; }
    size_t capacity() const { return capacity_; }

    /** Seal [base, base+used) as read+execute and flush the icache.
     *  No further writes are legal. */
    void finalize(size_t used);

    bool executable() const { return executable_; }
    size_t used() const { return used_; }

  private:
    uint8_t *base_ = nullptr;
    size_t capacity_ = 0;
    size_t used_ = 0;
    bool executable_ = false;
};

} // namespace gfp::jit

#endif // GFP_JIT_CODE_CACHE_H
