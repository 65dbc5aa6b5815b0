/**
 * @file
 * Explorer-state serialization: the shared vocabulary between the
 * on-disk checkpoint (PR 4) and the fleet's IPC frames.
 *
 * A checkpoint and a corpus-exchange frame carry the same nouns —
 * corpus entries with their coverage bitmaps, frontier words, batch
 * stats, the program fingerprint and the scheduling-policy word — so
 * this module owns their binary layout once, built on wire::Encoder /
 * wire::Decoder.  checkpoint.cc composes these into the versioned
 * disk file; src/fleet composes them into RoundStart / RoundDelta
 * payloads.  Either consumer changing a field changes both formats,
 * which is exactly the property that keeps a worker's view of an
 * entry bit-identical to what a checkpoint of that worker would hold.
 */

#ifndef PE_EXPLORE_SERIALIZE_HH
#define PE_EXPLORE_SERIALIZE_HH

#include <cstdint>

#include "src/explore/corpus.hh"
#include "src/fleet/wire.hh"
#include "src/isa/program.hh"

namespace pe::explore
{

struct ExploreBatchStats;
struct ExploreOptions;

/**
 * The checkpoint's "policy" word is really the full scheduling
 * contract: the SchedulePolicy enum in the low byte plus bit 9 (0x200)
 * for pathObjective.  The objective changes every energy after
 * resume, so a path-objective checkpoint must not silently continue
 * an edge-objective session (or vice versa) any more than a policy
 * swap may.  Bit 8 (0x100) is retired — it flagged the removed
 * static-prior seeding — and must not be reused: checkpoints and
 * fleet session words that carry it are refused, not reinterpreted.
 */
uint32_t policyWord(const ExploreOptions &opts);

/**
 * Order-sensitive FNV-1a digest over a coverage tracker's taken + NT
 * words — the fleet's bit-reproducibility witness.  Two runs with the
 * same shard plan must produce the same digest; CI gates on it.
 */
uint64_t coverageDigest(const coverage::BranchCoverage &cov);

/** Everything a CorpusEntry carries, input and signals included. */
void encodeEntry(wire::Encoder &enc, const CorpusEntry &entry);

/**
 * Decode one entry against @p program's edge universe.  pathEnergy
 * is *not* on the wire: it is a pure function of (program, tracker
 * bits, coverage) and is recomputed by whoever admits the entry.
 */
CorpusEntry decodeEntry(wire::Decoder &dec,
                        const isa::Program &program);

void encodeBatchStats(wire::Encoder &enc,
                      const ExploreBatchStats &stats);
ExploreBatchStats decodeBatchStats(wire::Decoder &dec);

} // namespace pe::explore

#endif // PE_EXPLORE_SERIALIZE_HH
