/**
 * @file
 * Fleet checkpoint serialization (see checkpoint.hh for the why).
 */

#include "src/fleet/checkpoint.hh"

#include "src/explore/serialize.hh"
#include "src/fleet/wire.hh"
#include "src/support/faultinject.hh"
#include "src/support/status.hh"

namespace pe::fleet
{

namespace
{

/**
 * Version 2: the merged prime-path completion words follow the entry
 * origins (empty vector when the tracker is off).  Version 3: the
 * header is the full SessionIdentity.  Older files are refused with
 * both numbers reported.
 */
constexpr explore::CheckpointFormat kFormat = {
    "fleet checkpoint", {'P', 'E', 'F', 'C', 'K', 'P', '1', '\0'}, 3};

void
encodeShard(wire::Encoder &enc, const ShardCheckpoint &s)
{
    enc.u32(s.summary.shard);
    enc.u64(s.summary.runs);
    enc.u64(s.summary.assigned);
    enc.u64(s.summary.admittedGlobal);
    enc.u64(s.summary.newEdges);
    enc.u32(s.summary.dryRounds);
    enc.u8(s.summary.alive ? 1 : 0);
    enc.u8(s.summary.exhausted ? 1 : 0);
    enc.u64vec(s.sentTaken);
    enc.u64vec(s.sentNt);
    enc.u64(s.entryMark);
    enc.u8(s.gotForeign ? 1 : 0);
    enc.u64(s.replayRound);
    enc.str(s.replayPayload);
}

ShardCheckpoint
decodeShard(wire::Decoder &dec, size_t words)
{
    ShardCheckpoint s;
    s.summary.shard = dec.u32("shard id");
    s.summary.runs = dec.u64("shard runs");
    s.summary.assigned = dec.u64("shard assigned");
    s.summary.admittedGlobal = dec.u64("shard admitted");
    s.summary.newEdges = dec.u64("shard new edges");
    s.summary.dryRounds = dec.u32("shard dry rounds");
    s.summary.alive = dec.u8("shard alive") != 0;
    s.summary.exhausted = dec.u8("shard exhausted") != 0;
    s.sentTaken = dec.u64vec("shard sent taken words");
    explore::requireLength("shard sent taken words", words,
                           s.sentTaken.size());
    s.sentNt = dec.u64vec("shard sent nt words");
    explore::requireLength("shard sent nt words", words,
                           s.sentNt.size());
    s.entryMark = dec.u64("shard entry mark");
    s.gotForeign = dec.u8("shard got foreign") != 0;
    s.replayRound = dec.u64("shard replay round");
    s.replayPayload = dec.str("shard replay payload");
    return s;
}

} // namespace

void
saveFleetCheckpoint(const std::string &path,
                    const FleetCheckpoint &ckpt)
{
    fault::site("fleet.checkpoint_write");

    pe_assert(ckpt.origins.size() == ckpt.corpus.size(),
              "fleet checkpoint: origins out of step with entries");
    explore::writeCheckpointFile(path, kFormat, [&](wire::Encoder &enc) {
        explore::encodeIdentity(enc, ckpt.identity);

        enc.u64(ckpt.rounds);
        enc.u64(ckpt.runs);
        enc.u64(ckpt.instructions);
        enc.u64(ckpt.ntSpawned);
        enc.u64(ckpt.failedJobs);
        enc.u64(ckpt.stolenRuns);
        enc.u32(ckpt.lostWorkers);
        enc.u32(ckpt.reconnects);
        enc.u32(ckpt.globalDryRounds);

        explore::encodeCorpus(enc, ckpt.corpus);
        enc.u32vec(ckpt.origins);
        enc.u64vec(ckpt.pathWords);

        enc.u32(static_cast<uint32_t>(ckpt.shardStates.size()));
        for (const ShardCheckpoint &s : ckpt.shardStates)
            encodeShard(enc, s);
    });
}

FleetCheckpoint
loadFleetCheckpoint(const std::string &path,
                    const isa::Program &program)
{
    FleetCheckpoint ckpt(program);
    explore::readCheckpointFile(path, kFormat, [&](wire::Decoder &dec) {
        ckpt.identity = explore::decodeIdentity(dec);

        ckpt.rounds = dec.u64("rounds");
        ckpt.runs = dec.u64("runs");
        ckpt.instructions = dec.u64("instructions");
        ckpt.ntSpawned = dec.u64("nt spawned");
        ckpt.failedJobs = dec.u64("failed jobs");
        ckpt.stolenRuns = dec.u64("stolen runs");
        ckpt.lostWorkers = dec.u32("lost workers");
        ckpt.reconnects = dec.u32("reconnects");
        ckpt.globalDryRounds = dec.u32("global dry rounds");

        explore::decodeCorpus(dec, ckpt.corpus, program);
        ckpt.origins = dec.u32vec("entry origins");
        explore::requireLength("entry origins", ckpt.corpus.size(),
                               ckpt.origins.size());
        ckpt.pathWords = dec.u64vec("path completion words");

        uint32_t nShards = dec.count("shard states");
        explore::requireLength("shard states", ckpt.identity.shards,
                               nShards);
        const size_t words = ckpt.corpus.frontier().takenWords().size();
        ckpt.shardStates.reserve(nShards);
        for (uint32_t i = 0; i < nShards; ++i)
            ckpt.shardStates.push_back(decodeShard(dec, words));
    });
    return ckpt;
}

} // namespace pe::fleet
