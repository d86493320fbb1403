#include "jit/code_cache.h"

#include <sys/mman.h>
#include <unistd.h>

#include "common/logging.h"

namespace gfp::jit {

CodeCache::CodeCache(size_t capacity)
{
    // Round up to whole pages so finalize() can mprotect exactly what
    // was mapped.
    const size_t page = static_cast<size_t>(sysconf(_SC_PAGESIZE));
    capacity_ = (capacity + page - 1) / page * page;
    void *p = mmap(nullptr, capacity_, PROT_READ | PROT_WRITE,
                   MAP_PRIVATE | MAP_ANONYMOUS, -1, 0);
    GFP_ASSERT(p != MAP_FAILED, "JIT code cache mmap(%zu) failed",
               capacity_);
    base_ = static_cast<uint8_t *>(p);
}

CodeCache::~CodeCache()
{
    if (base_ != nullptr)
        munmap(base_, capacity_);
}

void
CodeCache::finalize(size_t used)
{
    GFP_ASSERT(!executable_, "code cache finalized twice");
    GFP_ASSERT(used <= capacity_, "emitted %zu bytes into a %zu cache",
               used, capacity_);
    used_ = used;
    const int rc = mprotect(base_, capacity_, PROT_READ | PROT_EXEC);
    GFP_ASSERT(rc == 0, "mprotect(RX) failed on the JIT code cache");
    __builtin___clear_cache(reinterpret_cast<char *>(base_),
                            reinterpret_cast<char *>(base_ + used_));
    executable_ = true;
}

} // namespace gfp::jit
