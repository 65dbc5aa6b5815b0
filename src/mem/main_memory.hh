/**
 * @file
 * Flat word-addressed main memory, dirty-page tracked and recycled
 * across runs.
 */

#ifndef PE_MEM_MAIN_MEMORY_HH
#define PE_MEM_MAIN_MEMORY_HH

#include <cstdint>
#include <memory>
#include <span>
#include <vector>

namespace pe::mem
{

/**
 * The architected memory image: committed state only.  Uncommitted
 * path state (NT-Paths and, in CMP mode, taken-path segments) lives in
 * VersionedBuffer overlays on top of this.
 *
 * **Dirty map.**  The image keeps one bit per page of pageWords
 * words, under a single invariant: *a clear bit means the page is all
 * zero*.  A set bit promises nothing (a page stays dirty after a
 * store of 0).  Every path that can make a word non-zero sets its
 * page's bit first:
 *
 *  - write(): the bounds-checked store;
 *  - store(): the unchecked store of MemCtx::writeResolved (the
 *    interpreter's committed-path stores) and of
 *    VersionedBuffer::commitTo (line commits);
 *  - storeRange(): the bulk copy of sim::loadProgram.
 *
 * There is no mutable view of the words, so no caller can write
 * around the map.  Storage is a private anonymous mapping, so pages
 * a run never touches are never made resident, and reset() zeroes
 * only the dirty pages.  Together these let digest() and reset() cost
 * time in proportion to what the run touched rather than to the
 * 4 MB image.
 */
class MainMemory
{
  public:
    /** Words per dirty-map page: 4 KB, the host page size. */
    static constexpr uint32_t pageWords = 1024;

    explicit MainMemory(uint32_t words);
    ~MainMemory();

    MainMemory(const MainMemory &) = delete;
    MainMemory &operator=(const MainMemory &) = delete;

    bool valid(uint32_t addr) const { return addr < numWords; }
    uint32_t size() const { return numWords; }

    int32_t read(uint32_t addr) const;
    void write(uint32_t addr, int32_t value);

    /** Store to @p addr, which the caller has already bounds-checked. */
    void store(uint32_t addr, int32_t value)
    {
        markPage(addr / pageWords);
        image[addr] = value;
    }

    /** Copy @p words to [base, base + size); must fit in memory. */
    void storeRange(uint32_t base, std::span<const int32_t> words);

    /**
     * The whole image, read-only, for callers that have already
     * established bounds and must not pay a per-word validity check.
     */
    std::span<const int32_t> words() const { return {image, numWords}; }

    /**
     * Digest of the whole image, for the sandboxing invariant
     * (PathExpander must not perturb the architected memory).
     *
     * FNV-1a over 64-bit chunks in four independent lanes: chunk k
     * (words 8k..8k+7) feeds lane l with words 8k+2l and 8k+2l+1, the
     * lanes fold into one FNV-1a value, and the words past the last
     * whole chunk are folded one by one.  A single per-word FNV chain
     * is one serial multiply per word, several milliseconds over a
     * 4 MB image; the lanes run at load bandwidth instead.
     *
     * Only dirty pages are read.  For an all-zero chunk a lane step
     * is (lane ^ 0) * prime = lane * prime, so a clean page of
     * pageWords words (a multiple of 8, hence whole chunks) advances
     * every lane by exactly prime^(pageWords / 8).  Multiplying by
     * that precomputed power is the same arithmetic mod 2^64 as
     * scanning the zeros, so the value is bit-identical to a full
     * scan; a clean part-page before the tail folds the same way
     * with its own power.
     *
     * The value is pinned: recorded campaign digests fold it in, so
     * the construction must not change.
     */
    uint64_t digest() const;

    /** Zero every dirty page and clear the map: a fresh image again. */
    void reset();

  private:
    void markPage(uint32_t page)
    {
        dirty[page / 64] |= uint64_t{1} << (page % 64);
    }

    bool pageDirty(uint32_t page) const
    {
        return (dirty[page / 64] >> (page % 64)) & 1;
    }

    uint32_t numWords;
    size_t mappedBytes;
    int32_t *image;
    std::vector<uint64_t> dirty;    //!< one bit per page
};

/**
 * A main-memory image on loan from the process-wide free list.
 *
 * Construction takes a zeroed image of the requested size off the
 * list (allocating only when the list holds none), and destruction
 * resets it and puts it back — also when the run that held it threw.
 * The list therefore grows only to the peak number of images in use
 * at once, and every holder sees exactly what a freshly allocated
 * image would show.  The list is guarded by one mutex, taken once per
 * acquire and once per release; the image itself is never shared.
 */
class MemoryLease
{
  public:
    explicit MemoryLease(uint32_t words);
    ~MemoryLease();

    MemoryLease(const MemoryLease &) = delete;
    MemoryLease &operator=(const MemoryLease &) = delete;

    MainMemory &operator*() { return *image; }

  private:
    std::unique_ptr<MainMemory> image;
};

} // namespace pe::mem

#endif // PE_MEM_MAIN_MEMORY_HH
