/**
 * @file
 * Fleet payload codec implementation.
 */

#include "src/fleet/protocol.hh"

#include "src/support/status.hh"
#include "src/support/strutil.hh"

namespace pe::fleet
{

namespace
{

/** BadVersion unless @p found is the wire version we speak. */
void
checkWireVersion(uint32_t found, const std::string &context)
{
    if (found == wire::kWireVersion)
        return;
    throw wire::WireError(
        wire::WireErrorKind::BadVersion,
        detail::concat(context, ": wire version mismatch: expected ",
                       wire::kWireVersion, ", found ", found),
        wire::kWireVersion, found);
}

void
encodeSparse(wire::Encoder &enc, const SparseWords &w)
{
    pe_assert(w.index.size() == w.taken.size() &&
                  w.index.size() == w.nt.size(),
              "ragged sparse frontier");
    enc.u32vec(w.index);
    for (size_t i = 0; i < w.index.size(); ++i) {
        enc.u64(w.taken[i]);
        enc.u64(w.nt[i]);
    }
}

SparseWords
decodeSparse(wire::Decoder &dec)
{
    SparseWords w;
    w.index = dec.u32vec("sparse frontier indices");
    w.taken.reserve(w.index.size());
    w.nt.reserve(w.index.size());
    for (size_t i = 0; i < w.index.size(); ++i) {
        w.taken.push_back(dec.u64("sparse taken word"));
        w.nt.push_back(dec.u64("sparse nt word"));
    }
    return w;
}

void
encodeEntries(wire::Encoder &enc,
              const std::vector<explore::CorpusEntry> &entries)
{
    enc.u32(static_cast<uint32_t>(entries.size()));
    for (const auto &e : entries)
        explore::encodeEntry(enc, e);
}

std::vector<explore::CorpusEntry>
decodeEntries(wire::Decoder &dec, const isa::Program &program)
{
    uint32_t n = dec.count("frame entries");
    std::vector<explore::CorpusEntry> entries;
    entries.reserve(n);
    for (uint32_t i = 0; i < n; ++i)
        entries.push_back(explore::decodeEntry(dec, program));
    return entries;
}

} // namespace

void
encodeHello(wire::Encoder &enc, const Hello &h)
{
    enc.u32(h.wireVersion);
    enc.u32(h.shard);
    enc.u64(h.shardSeed);
    enc.u32(h.heartbeatMs);
    explore::encodeIdentity(enc, h.identity);
}

Hello
decodeHello(wire::Decoder &dec)
{
    Hello h;
    h.wireVersion = dec.u32("hello wire version");
    h.shard = dec.u32("hello shard");
    h.shardSeed = dec.u64("hello shard seed");
    h.heartbeatMs = dec.u32("hello heartbeat interval");
    h.identity = explore::decodeIdentity(dec);
    return h;
}

void
encodeHelloReply(wire::Encoder &enc, const HelloReply &r)
{
    enc.u32(r.wireVersion);
    enc.u32(r.shard);
    enc.u64(r.totalEdges);
    enc.u64(r.seedCount);
}

HelloReply
decodeHelloReply(wire::Decoder &dec)
{
    HelloReply r;
    r.wireVersion = dec.u32("hello-reply wire version");
    r.shard = dec.u32("hello-reply shard");
    r.totalEdges = dec.u64("hello-reply total edges");
    r.seedCount = dec.u64("hello-reply seed count");
    return r;
}

void
encodeRoundStart(wire::Encoder &enc, const RoundStart &r)
{
    enc.u64(r.round);
    enc.u64(r.budgetRuns);
    encodeSparse(enc, r.frontier);
    enc.u64vec(r.pathWords);
    encodeEntries(enc, r.entries);
}

RoundStart
decodeRoundStart(wire::Decoder &dec, const isa::Program &program)
{
    RoundStart r;
    r.round = dec.u64("round-start round");
    r.budgetRuns = dec.u64("round-start budget");
    r.frontier = decodeSparse(dec);
    r.pathWords = dec.u64vec("round-start path words");
    r.entries = decodeEntries(dec, program);
    return r;
}

void
encodeRoundDelta(wire::Encoder &enc, const RoundDelta &r)
{
    enc.u64(r.round);
    enc.u64(r.runs);
    enc.u64(r.failedJobs);
    enc.u64(r.instructions);
    enc.u64(r.ntSpawned);
    enc.u64(r.admittedLocal);
    enc.u8(r.exhausted ? 1 : 0);
    encodeSparse(enc, r.frontier);
    enc.u64vec(r.pathWords);
    encodeEntries(enc, r.entries);
}

RoundDelta
decodeRoundDelta(wire::Decoder &dec, const isa::Program &program)
{
    RoundDelta r;
    r.round = dec.u64("round-delta round");
    r.runs = dec.u64("round-delta runs");
    r.failedJobs = dec.u64("round-delta failed jobs");
    r.instructions = dec.u64("round-delta instructions");
    r.ntSpawned = dec.u64("round-delta nt spawned");
    r.admittedLocal = dec.u64("round-delta admitted");
    r.exhausted = dec.u8("round-delta exhausted") != 0;
    r.frontier = decodeSparse(dec);
    r.pathWords = dec.u64vec("round-delta path words");
    r.entries = decodeEntries(dec, program);
    return r;
}

void
encodeGoodbye(wire::Encoder &enc, const Goodbye &g)
{
    enc.u64(g.runs);
    enc.u64(g.batches);
    enc.u64(g.corpusSize);
    enc.u64(g.edgesCombined);
}

Goodbye
decodeGoodbye(wire::Decoder &dec)
{
    Goodbye g;
    g.runs = dec.u64("goodbye runs");
    g.batches = dec.u64("goodbye batches");
    g.corpusSize = dec.u64("goodbye corpus");
    g.edgesCombined = dec.u64("goodbye edges");
    return g;
}

void
encodeJoin(wire::Encoder &enc, const Join &j)
{
    enc.u32(j.wireVersion);
    enc.u32(j.desiredShard);
    enc.u64(j.lastAckedRound);
    explore::encodeIdentity(enc, j.identity);
}

Join
decodeJoin(wire::Decoder &dec)
{
    Join j;
    j.wireVersion = dec.u32("join wire version");
    j.desiredShard = dec.u32("join desired shard");
    j.lastAckedRound = dec.u64("join last acked round");
    j.identity = explore::decodeIdentity(dec);
    return j;
}

void
validateJoin(const Join &got, const explore::SessionIdentity &want)
{
    checkWireVersion(got.wireVersion, "fleet join");
    explore::validate(want, got.identity, "fleet join");
}

void
validateHello(const Hello &got, const Hello &want)
{
    const std::string context =
        detail::concat("fleet hello for shard ", want.shard);
    checkWireVersion(got.wireVersion, context);
    if (got.shard != want.shard || got.shardSeed != want.shardSeed) {
        throw wire::WireError(
            wire::WireErrorKind::Mismatch,
            detail::concat(context, ": shard assignment mismatch: "
                           "expected shard ", want.shard, " seed ",
                           fmtHex(want.shardSeed), ", found shard ",
                           got.shard, " seed ", fmtHex(got.shardSeed)),
            want.shardSeed, got.shardSeed);
    }
    explore::validate(want.identity, got.identity, context);
}

SparseWords
diffFrontier(const coverage::BranchCoverage &cov,
             std::vector<uint64_t> &prevTaken,
             std::vector<uint64_t> &prevNt)
{
    const auto &taken = cov.takenWords();
    const auto &nt = cov.ntWords();
    pe_assert(prevTaken.size() == taken.size() &&
                  prevNt.size() == nt.size(),
              "frontier snapshot sized for a different program");
    SparseWords delta;
    for (size_t i = 0; i < taken.size(); ++i) {
        if (taken[i] != prevTaken[i] || nt[i] != prevNt[i]) {
            delta.index.push_back(static_cast<uint32_t>(i));
            delta.taken.push_back(taken[i]);
            delta.nt.push_back(nt[i]);
            prevTaken[i] = taken[i];
            prevNt[i] = nt[i];
        }
    }
    return delta;
}

void
applyFrontier(const SparseWords &delta, std::vector<uint64_t> &taken,
              std::vector<uint64_t> &nt)
{
    for (size_t i = 0; i < delta.index.size(); ++i) {
        size_t w = delta.index[i];
        if (w >= taken.size() || w >= nt.size()) {
            throw wire::WireError(
                wire::WireErrorKind::Mismatch,
                detail::concat("sparse frontier word index ", w,
                               " beyond this program's ",
                               taken.size(), "-word bitmap"),
                taken.size(), w);
        }
        taken[w] |= delta.taken[i];
        nt[w] |= delta.nt[i];
    }
}

} // namespace pe::fleet
