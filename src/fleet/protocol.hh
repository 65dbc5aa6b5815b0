/**
 * @file
 * Fleet IPC payloads: what actually crosses a coordinator–worker
 * pipe, and in which direction.
 *
 * The protocol is round-based and delta-sized.  After a Hello /
 * HelloReply negotiation (wire version, shard assignment and the
 * explore::SessionIdentity — every field that would make two
 * processes silently explore different universes), each round is one
 * RoundStart (budget + merged-frontier delta + newly admitted foreign
 * corpus entries) answered by one RoundDelta (runs executed + local
 * frontier delta + locally admitted entries).  Frontier deltas are
 * sparse (wordIndex, takenWord, ntWord) triples over the dense
 * coverage bitmaps: `BranchCoverage::mergeFrom` is a word-wise OR, so
 * shipping only the words that changed since the last exchange is
 * lossless and keeps steady-state frames tiny.
 */

#ifndef PE_FLEET_PROTOCOL_HH
#define PE_FLEET_PROTOCOL_HH

#include <cstdint>
#include <vector>

#include "src/explore/corpus.hh"
#include "src/explore/serialize.hh"
#include "src/fleet/wire.hh"
#include "src/isa/program.hh"

namespace pe::fleet
{

/** Coordinator -> worker, once, before any round. */
struct Hello
{
    uint32_t wireVersion = wire::kWireVersion;
    uint32_t shard = 0;         //!< receiver's shard id
    uint64_t shardSeed = 0;     //!< this shard's derived seed

    /**
     * Heartbeat interval the coordinator runs its liveness machine
     * at; 0 = heartbeats off.  Negotiation, not identity: the worker
     * adopts whatever the coordinator asks for (validateHello never
     * compares it), so a resumed coordinator may re-tune liveness
     * without perturbing the session's digests.
     */
    uint32_t heartbeatMs = 0;

    explore::SessionIdentity identity;
};

/** Worker -> coordinator: negotiation accepted. */
struct HelloReply
{
    uint32_t wireVersion = wire::kWireVersion;
    uint32_t shard = 0;
    uint64_t totalEdges = 0;    //!< worker's view of the universe
    uint64_t seedCount = 0;
};

/** Join::desiredShard wildcard: "assign me any free shard". */
constexpr uint32_t kAnyShard = 0xffffffffu;

/**
 * Dialing worker -> coordinator, before anything else (TCP transport
 * only; a forked worker's first frame is the Hello it receives).
 * Carries the session identity the remote process derived on its
 * own, so the coordinator can refuse a peer exploring a different
 * universe before assigning it a shard.  On reconnect, desiredShard
 * pins the old slot and lastAckedRound names the last round this
 * worker sent a delta for; the coordinator replays the RoundStart
 * the worker missed.
 */
struct Join
{
    uint32_t wireVersion = wire::kWireVersion;
    uint32_t desiredShard = kAnyShard;
    uint64_t lastAckedRound = 0;
    explore::SessionIdentity identity;
};

/**
 * Sparse frontier delta: for each listed word index, the sender's
 * full taken/NT bitmap words.  The receiver ORs them in; resending a
 * word is harmless, omitting an unchanged word is free.
 */
struct SparseWords
{
    std::vector<uint32_t> index;
    std::vector<uint64_t> taken;
    std::vector<uint64_t> nt;

    bool empty() const { return index.empty(); }
    size_t size() const { return index.size(); }
};

/** Coordinator -> worker, one per round. */
struct RoundStart
{
    uint64_t round = 0;
    uint64_t budgetRuns = 0;    //!< runs this shard may execute now
    SparseWords frontier;       //!< global frontier growth

    /**
     * Merged prime-path completion words (wire v4); empty when the
     * tracker is off.  Shipped dense — the capped path-id space is at
     * most 64 words — so no per-word diffing is needed.
     */
    std::vector<uint64_t> pathWords;

    std::vector<explore::CorpusEntry> entries;  //!< foreign admits
};

/** Worker -> coordinator, answering one RoundStart. */
struct RoundDelta
{
    uint64_t round = 0;
    uint64_t runs = 0;          //!< executed this round
    uint64_t failedJobs = 0;
    uint64_t instructions = 0;
    uint64_t ntSpawned = 0;
    uint64_t admittedLocal = 0;
    bool exhausted = false;     //!< cannot make further progress
    SparseWords frontier;       //!< local frontier growth

    /** Local prime-path completion words (wire v4; empty when off). */
    std::vector<uint64_t> pathWords;

    std::vector<explore::CorpusEntry> entries;  //!< local admits
};

/** Worker -> coordinator on Stop: final summary for the logs. */
struct Goodbye
{
    uint64_t runs = 0;
    uint64_t batches = 0;
    uint64_t corpusSize = 0;
    uint64_t edgesCombined = 0;
};

void encodeHello(wire::Encoder &enc, const Hello &h);
Hello decodeHello(wire::Decoder &dec);

void encodeHelloReply(wire::Encoder &enc, const HelloReply &r);
HelloReply decodeHelloReply(wire::Decoder &dec);

void encodeRoundStart(wire::Encoder &enc, const RoundStart &r);
RoundStart decodeRoundStart(wire::Decoder &dec,
                            const isa::Program &program);

void encodeRoundDelta(wire::Encoder &enc, const RoundDelta &r);
RoundDelta decodeRoundDelta(wire::Decoder &dec,
                            const isa::Program &program);

void encodeGoodbye(wire::Encoder &enc, const Goodbye &g);
Goodbye decodeGoodbye(wire::Decoder &dec);

void encodeJoin(wire::Encoder &enc, const Join &j);
Join decodeJoin(wire::Decoder &dec);

/**
 * Compare a dialing peer's Join against this fleet's identity
 * (desiredShard and lastAckedRound are negotiation, not identity,
 * and are checked by the coordinator instead).  Throws
 * wire::WireError — BadVersion / Mismatch — naming the disagreeing
 * field with expected and found values.
 */
void validateJoin(const Join &got, const explore::SessionIdentity &want);

/**
 * Compare a received Hello against what this worker expects: the
 * wire version, its shard assignment and the session identity.
 * Throws wire::WireError — BadVersion for a protocol revision we do
 * not speak, Mismatch otherwise — with the expected and found values
 * and the shard id in the message, so a misassembled fleet names the
 * exact disagreeing knob.
 */
void validateHello(const Hello &got, const Hello &want);

/**
 * Words of @p cov (taken or NT) that differ from the @p prevTaken /
 * @p prevNt snapshot.  The snapshot vectors are updated to match
 * @p cov so the next diff starts from here.
 */
SparseWords diffFrontier(const coverage::BranchCoverage &cov,
                         std::vector<uint64_t> &prevTaken,
                         std::vector<uint64_t> &prevNt);

/**
 * OR a sparse delta into full-size word vectors (the receiving
 * side's staging buffers for Corpus::mergeFrontierWords).  Indices
 * beyond the vectors are a protocol violation (WireError{Mismatch}).
 */
void applyFrontier(const SparseWords &delta,
                   std::vector<uint64_t> &taken,
                   std::vector<uint64_t> &nt);

} // namespace pe::fleet

#endif // PE_FLEET_PROTOCOL_HH
