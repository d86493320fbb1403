/**
 * @file
 * Flat little-endian byte-addressable memory for the GFP simulator.
 *
 * Out-of-range accesses throw MemoryFault.  The Core catches it and
 * converts it into a structured Trap (guest error, host survives);
 * host-facing helpers (Machine::readWord etc.) catch it and escalate to
 * GFP_FATAL, because an out-of-range *host* access is host misuse.
 */

#ifndef GFP_SIM_MEMORY_H
#define GFP_SIM_MEMORY_H

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <cstdlib>
#include <memory>
#include <stdexcept>
#include <vector>

namespace gfp {

/** Thrown on an out-of-range access; carries the faulting address. */
class MemoryFault : public std::runtime_error
{
  public:
    MemoryFault(uint32_t addr, unsigned bytes, size_t mem_size);

    uint32_t addr() const { return addr_; }
    unsigned bytes() const { return bytes_; }

  private:
    uint32_t addr_;
    unsigned bytes_;
};

class Memory
{
  public:
    /** Zeroed memory of @p size_bytes.  The array comes from calloc, so
     *  the OS maps its pages on first touch: a machine pays resident
     *  memory only for the pages its jobs use. */
    explicit Memory(size_t size_bytes = 256 * 1024);

    size_t size() const { return size_; }

    /**
     * Watch [0, limit) for modification — the code region, so the
     * core's predecoded-instruction cache can be invalidated on
     * self-modifying stores or SEU bit flips without re-checking
     * instruction memory every fetch.  Any write or flipBit below
     * @p limit bumps codeEpoch().
     */
    void watchCode(uint32_t limit) { watch_limit_ = limit; }
    uint32_t watchLimit() const { return watch_limit_; }
    uint64_t codeEpoch() const { return code_epoch_; }

    /**
     * Raw backing store, for host code (the JIT) that performs its own
     * bounds and code-watch checks before every access.  Writers must
     * report what they modified through touchRange() so the dirty
     * window and the code epoch stay truthful.
     */
    uint8_t *data() { return bytes_.get(); }
    const uint8_t *data() const { return bytes_.get(); }

    /**
     * Record an externally performed modification of [lo, hi) — the
     * bulk form of what the checked accessors do per write.  Bumps the
     * code epoch if the range reaches below the watched code limit
     * (the JIT deopts rather than write there, so in practice it never
     * does) and widens the dirty window restore() compares.
     */
    void
    touchRange(uint64_t lo, uint64_t hi)
    {
        if (lo >= hi)
            return;
        if (lo < watch_limit_)
            ++code_epoch_;
        if (lo < dirty_lo_)
            dirty_lo_ = lo;
        if (hi > dirty_hi_)
            dirty_hi_ = hi;
    }

    uint8_t read8(uint32_t addr) const;
    uint16_t read16(uint32_t addr) const;
    uint32_t read32(uint32_t addr) const;
    uint64_t read64(uint32_t addr) const;

    void write8(uint32_t addr, uint8_t value);
    void write16(uint32_t addr, uint16_t value);
    void write32(uint32_t addr, uint32_t value);
    void write64(uint32_t addr, uint64_t value);

    /** Flip one bit (SEU model); @p bit is taken modulo 8. */
    void flipBit(uint32_t addr, unsigned bit);

    /** Bulk copy into memory (program loading, input buffers). */
    void writeBlock(uint32_t addr, const std::vector<uint8_t> &data);

    /** Bulk copy out of memory (result buffers). */
    std::vector<uint8_t> readBlock(uint32_t addr, size_t len) const;

    void
    fill(uint8_t value)
    {
        std::fill(data(), data() + size_, value);
        touch(0, static_cast<unsigned>(size_));
    }

    /** A copy of the full contents, for later restore(). */
    std::vector<uint8_t>
    snapshot() const
    {
        return std::vector<uint8_t>(data(), data() + size_);
    }

    /**
     * Restore the contents to @p image followed by zeros.  @p image is
     * a prefix of an earlier state of *this* memory whose bytes beyond
     * the prefix were all zero (Machine keeps only the program
     * footprint).  Every modification since that state is tracked in
     * a dirty window, so only the window is compared and copied or
     * zero-filled instead of the whole array; that is what makes the
     * batch engine's per-job recycling cheap.  The code epoch is bumped
     * only when the watched code region actually differs, so restoring
     * an image whose program text is unchanged keeps predecoded
     * instructions and JIT translations valid.
     */
    void restore(const std::vector<uint8_t> &image);

  private:
    void check(uint32_t addr, unsigned bytes) const;

    /** Record a modification of [addr, addr+bytes) for code watching
     *  and for the dirty window restore() uses. */
    void
    touch(uint32_t addr, unsigned bytes)
    {
        if (addr < watch_limit_)
            ++code_epoch_;
        if (addr < dirty_lo_)
            dirty_lo_ = addr;
        const uint64_t end = static_cast<uint64_t>(addr) + bytes;
        if (end > dirty_hi_)
            dirty_hi_ = end;
    }

    struct FreeBytes
    {
        void operator()(uint8_t *p) const { std::free(p); }
    };
    std::unique_ptr<uint8_t[], FreeBytes> bytes_;
    size_t size_;
    uint32_t watch_limit_ = 0;
    uint64_t code_epoch_ = 0;
    // Dirty window: bytes modified since construction or the last
    // restore().  Empty when dirty_lo_ >= dirty_hi_.
    uint64_t dirty_lo_ = UINT64_MAX;
    uint64_t dirty_hi_ = 0;
};

} // namespace gfp

#endif // GFP_SIM_MEMORY_H
