/**
 * @file
 * Branch target buffer extended with PathExpander's per-edge exercise
 * counters.
 *
 * The paper (Section 4.1/4.2) extends each BTB entry with two 4-bit
 * exercise counters, one per branch edge, recording how often that
 * edge has executed.  PathExpander spawns an NT-Path on a non-taken
 * edge whose counter is below NTPathCounterThreshold.  Counters are
 * periodically reset (every CounterResetInterval instructions) so that
 * long-running programs keep exploring, and a BTB miss is treated as
 * an exercise count of zero.
 */

#ifndef PE_BRANCH_BTB_HH
#define PE_BRANCH_BTB_HH

#include <cstdint>
#include <vector>

namespace pe::branch
{

/** BTB geometry and counter parameters. */
struct BtbParams
{
    uint32_t entries = 2048;    //!< Table 2: 2K entries
    uint32_t ways = 2;          //!< Table 2: 2-way
    uint8_t counterBits = 4;    //!< saturating exercise counters
};

/** 2-way BTB whose entries carry two saturating exercise counters. */
class Btb
{
  public:
    explicit Btb(const BtbParams &params = BtbParams{});

    /**
     * Exercise count of edge (@p pc, @p edgeTaken).
     * A miss reads as zero, as the paper specifies.
     */
    uint8_t count(uint32_t pc, bool edgeTaken) const;

    /**
     * Record one execution (or NT-Path entry) of the edge; allocates
     * the entry on a miss, evicting LRU.
     */
    void increment(uint32_t pc, bool edgeTaken);

    /** Periodic counter reset (CounterResetInterval). */
    void resetCounters();

    uint8_t maxCount() const { return saturation; }
    uint64_t lookups() const { return lookupCount; }
    uint64_t missesOnLookup() const { return lookupMisses; }
    uint64_t evictions() const { return evictionCount; }

  private:
    struct Entry
    {
        bool valid = false;
        uint32_t pc = 0;
        uint8_t cnt[2] = {0, 0};    //!< [0]=not-taken edge, [1]=taken
        uint64_t lastUse = 0;
    };

    Entry *find(uint32_t pc);
    const Entry *find(uint32_t pc) const;
    Entry *allocate(uint32_t pc);
    uint32_t setOf(uint32_t pc) const { return pc % numSets; }

    BtbParams params;
    uint32_t numSets;
    uint8_t saturation;
    std::vector<Entry> entries;
    uint64_t useClock = 0;
    mutable uint64_t lookupCount = 0;
    mutable uint64_t lookupMisses = 0;
    uint64_t evictionCount = 0;
};

} // namespace pe::branch

#endif // PE_BRANCH_BTB_HH
