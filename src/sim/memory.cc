#include "sim/memory.h"

#include <algorithm>
#include <cstring>
#include <new>

#include "common/strutil.h"

namespace gfp {

MemoryFault::MemoryFault(uint32_t addr, unsigned bytes, size_t mem_size)
    : std::runtime_error(strprintf("memory access of %u bytes at 0x%x "
                                   "out of range (size 0x%zx)",
                                   bytes, addr, mem_size)),
      addr_(addr), bytes_(bytes)
{
}

Memory::Memory(size_t size_bytes)
    : bytes_(static_cast<uint8_t *>(std::calloc(size_bytes, 1))),
      size_(size_bytes)
{
    if (!bytes_ && size_bytes)
        throw std::bad_alloc();
}

void
Memory::check(uint32_t addr, unsigned bytes) const
{
    if (static_cast<uint64_t>(addr) + bytes > size_)
        throw MemoryFault(addr, bytes, size_);
}

uint8_t
Memory::read8(uint32_t addr) const
{
    check(addr, 1);
    return bytes_[addr];
}

uint16_t
Memory::read16(uint32_t addr) const
{
    check(addr, 2);
    return static_cast<uint16_t>(bytes_[addr] | (bytes_[addr + 1] << 8));
}

uint32_t
Memory::read32(uint32_t addr) const
{
    check(addr, 4);
    return static_cast<uint32_t>(bytes_[addr]) |
           (static_cast<uint32_t>(bytes_[addr + 1]) << 8) |
           (static_cast<uint32_t>(bytes_[addr + 2]) << 16) |
           (static_cast<uint32_t>(bytes_[addr + 3]) << 24);
}

uint64_t
Memory::read64(uint32_t addr) const
{
    return static_cast<uint64_t>(read32(addr)) |
           (static_cast<uint64_t>(read32(addr + 4)) << 32);
}

void
Memory::write8(uint32_t addr, uint8_t value)
{
    check(addr, 1);
    bytes_[addr] = value;
    touch(addr, 1);
}

void
Memory::write16(uint32_t addr, uint16_t value)
{
    check(addr, 2);
    bytes_[addr] = static_cast<uint8_t>(value);
    bytes_[addr + 1] = static_cast<uint8_t>(value >> 8);
    touch(addr, 2);
}

void
Memory::write32(uint32_t addr, uint32_t value)
{
    check(addr, 4);
    for (unsigned i = 0; i < 4; ++i)
        bytes_[addr + i] = static_cast<uint8_t>(value >> (8 * i));
    touch(addr, 4);
}

void
Memory::write64(uint32_t addr, uint64_t value)
{
    write32(addr, static_cast<uint32_t>(value));
    write32(addr + 4, static_cast<uint32_t>(value >> 32));
}

void
Memory::flipBit(uint32_t addr, unsigned bit)
{
    check(addr, 1);
    bytes_[addr] ^= static_cast<uint8_t>(1u << (bit % 8));
    touch(addr, 1);
}

void
Memory::writeBlock(uint32_t addr, const std::vector<uint8_t> &data)
{
    check(addr, static_cast<unsigned>(data.size()));
    std::copy(data.begin(), data.end(), bytes_.get() + addr);
    touch(addr, static_cast<unsigned>(data.size()));
}

void
Memory::restore(const std::vector<uint8_t> &image)
{
    if (image.size() > size_)
        throw MemoryFault(0, static_cast<unsigned>(image.size()), size_);
    // Only the dirty window can differ from the snapshot: bytes outside
    // it were not modified since construction / the previous restore(),
    // so they already hold their restored value.
    const size_t lo =
        static_cast<size_t>(std::min<uint64_t>(dirty_lo_, size_));
    const size_t hi =
        static_cast<size_t>(std::min<uint64_t>(dirty_hi_, size_));
    if (lo < hi) {
        const size_t covered = std::min(hi, image.size());
        const size_t watched = std::min<size_t>(watch_limit_, hi);
        // Watched bytes the image does not cover count as changed.
        if (lo < watched &&
            (watched > image.size() ||
             std::memcmp(data() + lo, image.data() + lo,
                         watched - lo) != 0))
            ++code_epoch_;
        if (lo < covered)
            std::memcpy(data() + lo, image.data() + lo,
                        covered - lo);
        const size_t zero_from = std::max(lo, covered);
        if (zero_from < hi)
            std::memset(data() + zero_from, 0, hi - zero_from);
    }
    dirty_lo_ = UINT64_MAX;
    dirty_hi_ = 0;
}

std::vector<uint8_t>
Memory::readBlock(uint32_t addr, size_t len) const
{
    check(addr, static_cast<unsigned>(len));
    return std::vector<uint8_t>(data() + addr, data() + addr + len);
}

} // namespace gfp
