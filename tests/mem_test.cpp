/**
 * @file
 * Memory-system tests: main memory (dirty-page digest and reset, the
 * recycling lease), versioned buffers (the Vtag model), tree-ordered
 * read resolution, cache hit/miss/LRU behaviour and shared-port
 * contention.
 */

#include <gtest/gtest.h>

#include <span>
#include <vector>

#include "src/mem/cache.hh"
#include "src/mem/hierarchy.hh"
#include "src/mem/main_memory.hh"
#include "src/mem/versioned_buffer.hh"
#include "src/support/rng.hh"

namespace
{

using namespace pe::mem;

TEST(MainMemory, ReadWriteAndBounds)
{
    MainMemory m(128);
    EXPECT_TRUE(m.valid(0));
    EXPECT_TRUE(m.valid(127));
    EXPECT_FALSE(m.valid(128));
    m.write(5, -9);
    EXPECT_EQ(m.read(5), -9);
    EXPECT_EQ(m.read(6), 0);
}

/**
 * The digest as a plain scan of every word: the four-lane FNV loop
 * MainMemory::digest() must reproduce bit for bit, kept here verbatim
 * from before the dirty-page version.
 */
uint64_t
fullScanDigest(std::span<const int32_t> words)
{
    constexpr uint64_t kFnvOffset = 0xcbf29ce484222325ull;
    constexpr uint64_t kFnvPrime = 0x100000001b3ull;
    uint64_t lane[4] = {kFnvOffset, kFnvOffset ^ 1, kFnvOffset ^ 2,
                        kFnvOffset ^ 3};
    size_t n = words.size();
    size_t i = 0;
    for (; i + 8 <= n; i += 8) {
        for (int l = 0; l < 4; ++l) {
            uint64_t chunk =
                static_cast<uint32_t>(words[i + 2 * l]) |
                (static_cast<uint64_t>(
                     static_cast<uint32_t>(words[i + 2 * l + 1]))
                 << 32);
            lane[l] = (lane[l] ^ chunk) * kFnvPrime;
        }
    }
    uint64_t digest = kFnvOffset;
    for (int l = 0; l < 4; ++l)
        digest = (digest ^ lane[l]) * kFnvPrime;
    for (; i < n; ++i)
        digest = (digest ^ static_cast<uint32_t>(words[i])) * kFnvPrime;
    return digest;
}

/** Sizes around every boundary digest() folds at. */
const std::vector<uint32_t> kImageSizes = {
    1, 7, 8, 9, 1000, MainMemory::pageWords, MainMemory::pageWords + 3,
    MainMemory::pageWords * 3 + 517, MainMemory::pageWords * 5 + 8,
    MainMemory::pageWords * 8};

/**
 * One random mutation through a write path: a checked write, a write
 * of 0 (often into an already dirty page), a store to the last word,
 * a bulk range store, or a versioned-buffer commit.
 */
void
mutate(MainMemory &m, pe::Rng &rng)
{
    const uint32_t n = m.size();
    auto value = [&] {
        return rng.nextBool(0.3)
                   ? 0
                   : static_cast<int32_t>(rng.next64());
    };
    switch (rng.nextBelow(5)) {
      case 0:
        m.write(static_cast<uint32_t>(rng.nextBelow(n)), value());
        break;
      case 1:
        m.write(static_cast<uint32_t>(rng.nextBelow(n)), 0);
        break;
      case 2:
        m.write(n - 1, value());
        break;
      case 3: {
        const uint32_t base = static_cast<uint32_t>(rng.nextBelow(n));
        std::vector<int32_t> words(
            rng.nextBelow(std::min<uint64_t>(n - base, 3000) + 1));
        for (int32_t &w : words)
            w = value();
        m.storeRange(base, words);
        break;
      }
      default: {
        VersionedBuffer buf(1);
        for (int k = 0; k < 20; ++k)
            buf.write(static_cast<uint32_t>(rng.nextBelow(n)), value());
        buf.commitTo(m);
        break;
      }
    }
}

TEST(MainMemory, DigestMatchesFullScan)
{
    for (uint32_t size : kImageSizes) {
        SCOPED_TRACE("memWords " + std::to_string(size));
        MainMemory m(size);
        EXPECT_EQ(m.digest(), fullScanDigest(m.words()));
        pe::Rng rng(size * 7919ull + 1);
        for (int op = 0; op < 200; ++op) {
            mutate(m, rng);
            ASSERT_EQ(m.digest(), fullScanDigest(m.words()))
                << "after op " << op;
        }
    }
}

TEST(MainMemory, DigestSeesUnchangedStoresInDirtyPages)
{
    // A page re-zeroed by stores stays dirty; the digest must still
    // equal that of an image that was never written.
    MainMemory m(MainMemory::pageWords * 4);
    const uint64_t fresh = m.digest();
    m.write(MainMemory::pageWords + 5, 42);
    EXPECT_NE(m.digest(), fresh);
    m.write(MainMemory::pageWords + 5, 0);
    EXPECT_EQ(m.digest(), fresh);
    EXPECT_EQ(m.digest(), fullScanDigest(m.words()));
}

TEST(MainMemory, ResetRestoresFreshImage)
{
    for (uint32_t size : kImageSizes) {
        SCOPED_TRACE("memWords " + std::to_string(size));
        MainMemory m(size);
        pe::Rng rng(size + 17);
        for (int op = 0; op < 100; ++op)
            mutate(m, rng);
        m.reset();
        for (int32_t w : m.words())
            ASSERT_EQ(w, 0);
        EXPECT_EQ(m.digest(), MainMemory(size).digest());
        // The map was cleared with the pages: later writes are still
        // tracked.
        for (int op = 0; op < 50; ++op)
            mutate(m, rng);
        EXPECT_EQ(m.digest(), fullScanDigest(m.words()));
    }
}

TEST(MemoryLease, HandsBackAZeroedRecycledImage)
{
    const uint32_t size = MainMemory::pageWords * 3 + 517;
    const MainMemory *first;
    {
        MemoryLease lease(size);
        MainMemory &m = *lease;
        first = &m;
        m.write(size - 1, 9);
        m.storeRange(100, std::vector<int32_t>(2000, -1));
    }
    MemoryLease again(size);
    MainMemory &m = *again;
    EXPECT_EQ(&m, first);       // recycled, not reallocated
    for (int32_t w : m.words())
        ASSERT_EQ(w, 0);
    EXPECT_EQ(m.digest(), MainMemory(size).digest());

    // A second concurrent holder gets its own image.
    MemoryLease other(size);
    EXPECT_NE(&*other, &m);
    MemoryLease smaller(size - 1);
    EXPECT_EQ((*smaller).size(), size - 1);
}

TEST(VersionedBuffer, BuffersWrites)
{
    VersionedBuffer b(1);
    EXPECT_FALSE(b.lookup(10).has_value());
    b.write(10, 42);
    b.write(10, 43);
    EXPECT_EQ(b.lookup(10).value(), 43);
    EXPECT_EQ(b.numWords(), 1u);
}

TEST(VersionedBuffer, LineAccounting)
{
    VersionedBuffer b(1);
    // Words 0..7 share one 8-word line; 8 starts the next.
    b.write(0, 1);
    b.write(7, 1);
    EXPECT_EQ(b.numLines(), 1u);
    b.write(8, 1);
    EXPECT_EQ(b.numLines(), 2u);
}

TEST(VersionedBuffer, CommitAndClear)
{
    MainMemory m(64);
    VersionedBuffer b(1);
    b.write(3, 30);
    b.write(9, 90);
    b.commitTo(m);
    EXPECT_EQ(m.read(3), 30);
    EXPECT_EQ(m.read(9), 90);
    b.clear();
    EXPECT_EQ(b.numWords(), 0u);
    EXPECT_EQ(b.numLines(), 0u);
}

TEST(MemCtx, ReadsThroughParentChain)
{
    MainMemory m(64);
    m.write(1, 100);
    m.write(2, 200);
    m.write(3, 300);

    VersionedBuffer parent(1);
    parent.write(2, 222);
    VersionedBuffer child(2);
    child.setParent(&parent);
    child.write(3, 333);

    MemCtx ctx(m, &child);
    EXPECT_EQ(ctx.read(1), 100);    // from main
    EXPECT_EQ(ctx.read(2), 222);    // from parent
    EXPECT_EQ(ctx.read(3), 333);    // own write wins

    // Child writes are invisible to a parent-level view: the
    // Figure-6(c) tree order.
    MemCtx parentCtx(m, &parent);
    EXPECT_EQ(parentCtx.read(3), 300);
}

TEST(MemCtx, SiblingIsolation)
{
    MainMemory m(64);
    VersionedBuffer parent(1);
    parent.write(5, 50);
    VersionedBuffer left(2);
    left.setParent(&parent);
    VersionedBuffer right(3);
    right.setParent(&parent);

    MemCtx lctx(m, &left);
    MemCtx rctx(m, &right);
    lctx.write(5, 55);
    EXPECT_EQ(rctx.read(5), 50);    // sibling write invisible
    EXPECT_EQ(lctx.read(5), 55);
}

TEST(MemCtx, WritesDirectWhenNoBuffer)
{
    MainMemory m(64);
    MemCtx ctx(m, nullptr);
    ctx.write(7, 77);
    EXPECT_EQ(m.read(7), 77);
    EXPECT_EQ(ctx.read(7), 77);
}

TEST(Cache, GeometryDerivation)
{
    CacheGeometry g{16 * 1024, 4, 32};
    EXPECT_EQ(g.numLines(), 512u);
    EXPECT_EQ(g.numSets(), 128u);
}

TEST(Cache, HitAfterMiss)
{
    Cache c(CacheGeometry{256, 2, 32});     // 8 lines, 4 sets
    EXPECT_FALSE(c.access(0));
    EXPECT_TRUE(c.access(0));
    EXPECT_TRUE(c.access(7));               // same 8-word line
    EXPECT_FALSE(c.access(8));              // next line
    EXPECT_EQ(c.hits(), 2u);
    EXPECT_EQ(c.misses(), 2u);
}

TEST(Cache, LruEviction)
{
    // 2-way, 4 sets: lines mapping to set 0 are line numbers 0,4,8...
    Cache c(CacheGeometry{256, 2, 32});
    uint32_t wordsPerLine = 8;
    auto line = [&](uint32_t n) { return n * 4 * wordsPerLine; };
    EXPECT_FALSE(c.access(line(0)));
    EXPECT_FALSE(c.access(line(1)));
    EXPECT_TRUE(c.access(line(0)));         // 0 now MRU
    EXPECT_FALSE(c.access(line(2)));        // evicts 1 (LRU)
    EXPECT_TRUE(c.access(line(0)));
    EXPECT_FALSE(c.access(line(1)));        // 1 was evicted
}

TEST(Cache, InvalidateAll)
{
    Cache c(CacheGeometry{256, 2, 32});
    c.access(0);
    EXPECT_TRUE(c.contains(0));
    c.invalidateAll();
    EXPECT_FALSE(c.contains(0));
}

TEST(SharedPort, SerializesAccesses)
{
    SharedPort port;
    EXPECT_EQ(port.acquire(100, 10), 100u);
    // Second access at t=105 must wait until 110.
    EXPECT_EQ(port.acquire(105, 10), 110u);
    EXPECT_EQ(port.contentionCycles(), 5u);
    // A late access after the port is free starts immediately.
    EXPECT_EQ(port.acquire(200, 10), 200u);
}

TEST(Hierarchy, LatencyLevels)
{
    MemTimingParams p;
    p.l1HitLatency = 2;
    p.l2HitLatency = 10;
    p.memLatency = 200;
    MemHierarchy h(2, p);

    // Cold access: all the way to memory.
    uint64_t first = h.accessLatency(0, 0, 0);
    EXPECT_GE(first, p.memLatency);
    // Now L1-resident.
    EXPECT_EQ(h.accessLatency(0, 0, 1000), p.l1HitLatency);
    // Other core: misses its L1, hits shared L2.
    uint64_t other = h.accessLatency(1, 0, 2000);
    EXPECT_GE(other, p.l2HitLatency);
    EXPECT_LT(other, p.memLatency);
}

TEST(Hierarchy, L1InvalidationForcesL2Hit)
{
    MemTimingParams p;
    MemHierarchy h(1, p);
    h.accessLatency(0, 0, 0);
    EXPECT_EQ(h.accessLatency(0, 0, 500), p.l1HitLatency);
    h.invalidateL1(0);
    uint64_t after = h.accessLatency(0, 0, 1000);
    EXPECT_GE(after, p.l2HitLatency);
    EXPECT_LT(after, p.memLatency);
}

TEST(Hierarchy, L1LineCapacityMatchesGeometry)
{
    MemTimingParams p;
    MemHierarchy h(1, p);
    EXPECT_EQ(h.l1LineCapacity(), defaultL1Geometry().numLines());
}

} // namespace
