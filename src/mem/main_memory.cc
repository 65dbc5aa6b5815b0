/**
 * @file
 * Main memory implementation.
 */

#include "src/mem/main_memory.hh"

#include <sys/mman.h>
#include <unistd.h>

#include <algorithm>
#include <bit>
#include <cstring>
#include <mutex>
#include <new>

#include "src/support/status.hh"

namespace pe::mem
{

namespace
{

constexpr uint64_t kFnvOffset = 0xcbf29ce484222325ull;
constexpr uint64_t kFnvPrime = 0x100000001b3ull;

/** kFnvPrime^e mod 2^64: what e all-zero chunks do to a lane. */
constexpr uint64_t
primePow(uint64_t e)
{
    uint64_t r = 1;
    for (uint64_t b = kFnvPrime; e; e >>= 1, b *= b) {
        if (e & 1)
            r *= b;
    }
    return r;
}

static_assert(MainMemory::pageWords % 8 == 0,
              "a page must hold whole digest chunks");
constexpr uint64_t kCleanPage = primePow(MainMemory::pageWords / 8);

/** The process-wide free list behind MemoryLease. */
struct FreeList
{
    std::mutex mtx;
    std::vector<std::unique_ptr<MainMemory>> images;
};

FreeList &
freeList()
{
    static FreeList list;
    return list;
}

} // namespace

MainMemory::MainMemory(uint32_t words)
    : numWords(words),
      dirty((uint64_t{words} + pageWords * 64 - 1) / (pageWords * 64), 0)
{
    pe_assert(words > 0, "zero-sized memory");
    const size_t hostPage = static_cast<size_t>(sysconf(_SC_PAGESIZE));
    const size_t bytes = size_t{words} * sizeof(int32_t);
    mappedBytes = (bytes + hostPage - 1) / hostPage * hostPage;
    // Anonymous pages read as zero and become resident only when
    // first written, so the untouched bulk of the image costs nothing.
    void *p = mmap(nullptr, mappedBytes, PROT_READ | PROT_WRITE,
                   MAP_PRIVATE | MAP_ANONYMOUS, -1, 0);
    if (p == MAP_FAILED)
        throw std::bad_alloc();
    image = static_cast<int32_t *>(p);
}

MainMemory::~MainMemory()
{
    munmap(image, mappedBytes);
}

int32_t
MainMemory::read(uint32_t addr) const
{
    pe_assert(valid(addr), "main memory read out of range: ", addr);
    return image[addr];
}

void
MainMemory::write(uint32_t addr, int32_t value)
{
    pe_assert(valid(addr), "main memory write out of range: ", addr);
    store(addr, value);
}

void
MainMemory::storeRange(uint32_t base, std::span<const int32_t> words)
{
    pe_assert(uint64_t{base} + words.size() <= numWords,
              "bulk store out of range: ", base, "+", words.size());
    if (words.empty())
        return;
    const uint32_t last = base + static_cast<uint32_t>(words.size()) - 1;
    for (uint32_t page = base / pageWords; page <= last / pageWords; ++page)
        markPage(page);
    std::copy(words.begin(), words.end(), image + base);
}

uint64_t
MainMemory::digest() const
{
    uint64_t lane[4] = {kFnvOffset, kFnvOffset ^ 1, kFnvOffset ^ 2,
                        kFnvOffset ^ 3};
    // Words covered by whole 8-word chunks; the rest is the tail.
    const uint64_t chunked = numWords & ~uint32_t{7};
    for (uint64_t begin = 0; begin < chunked; begin += pageWords) {
        const uint64_t end = std::min<uint64_t>(begin + pageWords, chunked);
        if (!pageDirty(static_cast<uint32_t>(begin / pageWords))) {
            const uint64_t step = end - begin == pageWords
                                      ? kCleanPage
                                      : primePow((end - begin) / 8);
            for (uint64_t &l : lane)
                l *= step;
            continue;
        }
        for (uint64_t i = begin; i < end; i += 8) {
            for (int l = 0; l < 4; ++l) {
                uint64_t chunk =
                    static_cast<uint32_t>(image[i + 2 * l]) |
                    (static_cast<uint64_t>(
                         static_cast<uint32_t>(image[i + 2 * l + 1]))
                     << 32);
                lane[l] = (lane[l] ^ chunk) * kFnvPrime;
            }
        }
    }
    uint64_t digest = kFnvOffset;
    for (uint64_t l : lane)
        digest = (digest ^ l) * kFnvPrime;
    for (uint64_t i = chunked; i < numWords; ++i)
        digest = (digest ^ static_cast<uint32_t>(image[i])) * kFnvPrime;
    return digest;
}

void
MainMemory::reset()
{
    for (size_t w = 0; w < dirty.size(); ++w) {
        for (uint64_t bits = dirty[w]; bits; bits &= bits - 1) {
            const uint64_t begin =
                (w * 64 + std::countr_zero(bits)) * uint64_t{pageWords};
            const uint64_t len =
                std::min<uint64_t>(pageWords, numWords - begin);
            std::memset(image + begin, 0, len * sizeof(int32_t));
        }
        dirty[w] = 0;
    }
}

MemoryLease::MemoryLease(uint32_t words)
{
    FreeList &list = freeList();
    {
        std::lock_guard<std::mutex> lock(list.mtx);
        // Newest first: its pages are the likeliest to still be warm.
        for (size_t i = list.images.size(); i-- > 0;) {
            if (list.images[i]->size() == words) {
                image = std::move(list.images[i]);
                list.images[i] = std::move(list.images.back());
                list.images.pop_back();
                break;
            }
        }
    }
    if (!image)
        image = std::make_unique<MainMemory>(words);
}

MemoryLease::~MemoryLease()
{
    image->reset();
    FreeList &list = freeList();
    std::lock_guard<std::mutex> lock(list.mtx);
    try {
        list.images.push_back(std::move(image));
    } catch (const std::bad_alloc &) {
        // push_back left the image with us; it is freed instead.
    }
}

} // namespace pe::mem
