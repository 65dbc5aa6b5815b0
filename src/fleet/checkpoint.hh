/**
 * @file
 * Durable fleet sessions: the coordinator's checkpoint format.
 *
 * The fleet's bit-reproducibility contract says the merged frontier
 * and corpus after round R are pure functions of the shard plan and
 * the round count.  That makes the coordinator checkpointable with
 * the same guarantee PR 4 gave the single-process explorer: persist
 * everything round R's future depends on — the merged corpus +
 * frontier + exercise counts, the aggregate counters, and each
 * shard's broadcast bookkeeping — and a restarted coordinator
 * continues byte-identically while the TCP workers redial through
 * the ordinary reconnect path.
 *
 * Two shard-side fields deserve their exact-bytes treatment:
 *
 *  - `sentTaken`/`sentNt`/`entryMark` are the per-shard broadcast
 *    cursors.  sendRoundStart *consumes* them (diffFrontier advances
 *    the snapshot, entryMark moves past the entries shipped), so the
 *    next round's RoundStart payload is a function of these cursors
 *    plus the merged state.  Restoring them post-merge of round R
 *    makes the resumed coordinator's round-R+1 payload byte-equal to
 *    what the dead coordinator would have sent — which is what lets
 *    a worker that already executed R+1 answer from its stored delta
 *    instead of re-executing (re-running would draw the round's RNG
 *    twice and fork the universe).
 *
 *  - `replayPayload` is round R's RoundStart, exact encoded bytes.
 *    It cannot be re-encoded on resume: payload generation advances
 *    the cursors above, so a second encoding would diff against the
 *    *post*-R snapshot and produce different (wrong) bytes.  The
 *    checkpoint therefore stores the encoded string verbatim, same
 *    as the in-memory replay buffer it restores.
 *
 * Layout: the shared checkpoint file frame (magic + version, temp +
 * atomic-rename, so a crash mid-write leaves the previous checkpoint
 * intact), then the SessionIdentity the resuming coordinator
 * validates, then the body in serialize.hh vocabulary.  The
 * `fleet.checkpoint_write` fault site lets chaos tests pin the
 * atomic-write invariant.
 */

#ifndef PE_FLEET_CHECKPOINT_HH
#define PE_FLEET_CHECKPOINT_HH

#include <cstdint>
#include <string>
#include <vector>

#include "src/explore/corpus.hh"
#include "src/fleet/coordinator.hh"
#include "src/isa/program.hh"

namespace pe::fleet
{

/** One shard's persisted coordinator-side state. */
struct ShardCheckpoint
{
    ShardSummary summary;
    /** Broadcast cursors (see file comment). */
    std::vector<uint64_t> sentTaken;
    std::vector<uint64_t> sentNt;
    uint64_t entryMark = 0;
    bool gotForeign = false;
    /** Last RoundStart sent, exact encoded bytes. */
    uint64_t replayRound = 0;
    std::string replayPayload;
};

/** Everything a restarted coordinator needs to continue a session. */
struct FleetCheckpoint
{
    explicit FleetCheckpoint(const isa::Program &program)
        : corpus(program)
    {}

    /** A resume refuses a checkpoint from another session. */
    explore::SessionIdentity identity;

    /** Aggregate counters (FleetResult so far). */
    uint64_t rounds = 0;
    uint64_t runs = 0;
    uint64_t instructions = 0;
    uint64_t ntSpawned = 0;
    uint64_t failedJobs = 0;
    uint64_t stolenRuns = 0;
    uint32_t lostWorkers = 0;
    uint32_t reconnects = 0;
    uint32_t globalDryRounds = 0;

    /** Merged global state (frontier, exercise counts, entries). */
    explore::Corpus corpus;
    /** Origin shard per entry (echo-free rebroadcast needs it). */
    std::vector<uint32_t> origins;

    /**
     * Merged prime-path completion words; empty when the session ran
     * without the tracker (config.recordEdgeTrace off).
     */
    std::vector<uint64_t> pathWords;

    std::vector<ShardCheckpoint> shardStates;
};

/**
 * Atomically persist @p ckpt to @p path (temp + rename).  Hits the
 * `fleet.checkpoint_write` fault site first and throws FatalError on
 * any write failure — the coordinator downgrades that to a warning,
 * because a failed checkpoint must cost durability, never the
 * session.
 */
void saveFleetCheckpoint(const std::string &path,
                         const FleetCheckpoint &ckpt);

/**
 * Load a checkpoint written by saveFleetCheckpoint.  Validates the
 * magic and version, decodes against @p program's edge universe and
 * checks that every shard state and bitmap has the size the identity
 * and the program fix; throws FatalError naming what is wrong.  The
 * identity is returned, not judged — the resuming coordinator
 * validates it against its own session.
 */
FleetCheckpoint loadFleetCheckpoint(const std::string &path,
                                    const isa::Program &program);

} // namespace pe::fleet

#endif // PE_FLEET_CHECKPOINT_HH
