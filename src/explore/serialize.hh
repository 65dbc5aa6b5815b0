/**
 * @file
 * Explorer-state serialization: the shared vocabulary between the
 * on-disk checkpoints and the fleet's IPC frames.
 *
 * A checkpoint and a corpus-exchange frame carry the same nouns —
 * corpus entries with their coverage bitmaps, frontier words, batch
 * stats and the session identity — so this module owns their binary
 * layout once, built on wire::Encoder / wire::Decoder.
 * checkpoint.cc composes these into the explorer's disk file;
 * src/fleet composes them into Hello / Join / RoundStart / RoundDelta
 * payloads and the coordinator's checkpoint.  Either consumer
 * changing a field changes both formats, which is exactly the
 * property that keeps a worker's view of an entry bit-identical to
 * what a checkpoint of that worker would hold.
 */

#ifndef PE_EXPLORE_SERIALIZE_HH
#define PE_EXPLORE_SERIALIZE_HH

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "src/explore/corpus.hh"
#include "src/fleet/wire.hh"
#include "src/isa/program.hh"

namespace pe::explore
{

struct ExploreBatchStats;
struct ExploreOptions;

/**
 * Everything about the exploration contract that configHash does
 * *not* cover but that changes what a session does: the schedule
 * policy and pathObjective, the batch size, the rarity percentile's
 * bit pattern and the mutator's length and stack caps.  threads is
 * left out: campaign results do not depend on the worker count.
 */
uint64_t sessionWord(const ExploreOptions &opts);

/**
 * FNV-1a over a session's seed inputs (count, lengths, values).  The
 * shard plan deals seed *indices*, and the mutator alphabet is built
 * from the seed values; this digest is what guarantees another
 * process (or a resumed one) holds the same bytes.
 */
uint64_t seedsDigest(const std::vector<std::vector<int32_t>> &seeds);

/**
 * The identity of one exploration session: every input that, if it
 * differed, would make a resumed or sharded session merge into other
 * digests than an uninterrupted one.  Both checkpoints, the fleet
 * Hello and the TCP Join carry it; validate() is the one place it is
 * judged.  A single-process session has no fleet and writes 0 for
 * shards and planDigest.
 */
struct SessionIdentity
{
    uint64_t configHash = 0;    //!< core::configHash of every run
    uint64_t masterSeed = 0;    //!< session (fleet) seed
    uint64_t programFp = 0;     //!< analysis::programFingerprint
    uint64_t sessionWord = 0;   //!< sessionWord() of the options
    uint64_t seedsDigest = 0;   //!< seedsDigest() of the seed inputs
    uint32_t shards = 0;        //!< fleet width; 0 = single process
    uint64_t planDigest = 0;    //!< fleet ShardPlan digest
};

/**
 * The identity of a session over @p program and @p seeds under
 * @p opts; a fleet passes its plan's width and digest.
 */
SessionIdentity identityOf(const ExploreOptions &opts,
                           const isa::Program &program,
                           const std::vector<std::vector<int32_t>> &seeds,
                           uint32_t shards = 0, uint64_t planDigest = 0);

void encodeIdentity(wire::Encoder &enc, const SessionIdentity &id);
SessionIdentity decodeIdentity(wire::Decoder &dec);

/**
 * Refuse @p found unless it equals @p expected.  Throws
 * WireError{Mismatch} for the first field that differs, with both
 * values attached and in the message, prefixed by @p context.
 */
void validate(const SessionIdentity &expected,
              const SessionIdentity &found, const std::string &context);

/**
 * Refuse a decoded vector whose length the program fixes (bitmap
 * words, exercise counts, path words) unless it has @p expected
 * elements: WireError{Mismatch} naming @p what.  Restoring it would
 * otherwise hit an assertion meant for caller bugs, not for bytes
 * from a file or a peer.
 */
void requireLength(const char *what, size_t expected, size_t found);

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

/**
 * The corpus half of both checkpoints: frontier taken/NT words, the
 * exercise counts and their run count, then every entry.
 */
void encodeCorpus(wire::Encoder &enc, const Corpus &corpus);

/**
 * Decode what encodeCorpus wrote and restore it into @p corpus.
 * Every vector is checked against @p program's edge universe first.
 */
void decodeCorpus(wire::Decoder &dec, Corpus &corpus,
                  const isa::Program &program);

/** One checkpoint file format: an 8-byte magic and a version. */
struct CheckpointFormat
{
    const char *name;       //!< "explorer checkpoint", in every error
    char magic[8];
    uint32_t version;
};

/**
 * Write magic, version and what @p encodeBody appends to @p path,
 * temp-then-atomic-rename: a kill -9 at any moment leaves either the
 * previous file or the new one, never a torn file.  Throws
 * FatalError on any I/O failure.
 */
void writeCheckpointFile(
    const std::string &path, const CheckpointFormat &format,
    const std::function<void(wire::Encoder &)> &encodeBody);

/**
 * Read @p path, check its magic and version, and hand the rest to
 * @p decodeBody, which must consume all of it.  Any WireError along
 * the way (an older version, truncation, an implausible count, a
 * field that disagrees with this session) becomes a FatalError
 * through refuseCheckpoint().
 */
void readCheckpointFile(
    const std::string &path, const CheckpointFormat &format,
    const std::function<void(wire::Decoder &)> &decodeBody);

/** Throw FatalError: the @p name file @p path was refused for @p err. */
[[noreturn]] void refuseCheckpoint(const char *name,
                                   const std::string &path,
                                   const wire::WireError &err);

} // namespace pe::explore

#endif // PE_EXPLORE_SERIALIZE_HH
