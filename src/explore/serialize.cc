/**
 * @file
 * Explorer-state serialization implementation.
 */

#include "src/explore/serialize.hh"

#include "src/explore/explorer.hh"
#include "src/support/status.hh"

namespace pe::explore
{

namespace
{

constexpr uint64_t kFnvOffset = 0xcbf29ce484222325ull;
constexpr uint64_t kFnvPrime = 0x100000001b3ull;

void
fnvMix(uint64_t &h, uint64_t v)
{
    for (int i = 0; i < 8; ++i)
        h = (h ^ ((v >> (8 * i)) & 0xff)) * kFnvPrime;
}

} // namespace

uint32_t
policyWord(const ExploreOptions &opts)
{
    // 0x100 is the retired static-prior bit: never set, never reused.
    return static_cast<uint32_t>(opts.policy) |
           (opts.pathObjective ? 0x200u : 0u);
}

uint64_t
coverageDigest(const coverage::BranchCoverage &cov)
{
    uint64_t h = kFnvOffset;
    fnvMix(h, cov.takenWords().size());
    for (uint64_t w : cov.takenWords())
        fnvMix(h, w);
    fnvMix(h, cov.ntWords().size());
    for (uint64_t w : cov.ntWords())
        fnvMix(h, w);
    return h;
}

void
encodeEntry(wire::Encoder &enc, const CorpusEntry &entry)
{
    enc.i32vec(entry.input);
    enc.u64vec(entry.coverage.takenWords());
    enc.u64vec(entry.coverage.ntWords());
    enc.u64(entry.newEdges);
    enc.u64(entry.rareEdges);
    enc.u64(entry.ntEarlyStops);
    enc.u64(entry.ntSpawned);
    enc.u64(entry.batchAdmitted);
    enc.u64(entry.timesScheduled);
    enc.u8(entry.foreign ? 1 : 0);
}

CorpusEntry
decodeEntry(wire::Decoder &dec, const isa::Program &program)
{
    std::vector<int32_t> input = dec.i32vec("entry input");
    auto taken = dec.u64vec("entry taken words");
    auto nt = dec.u64vec("entry nt words");
    coverage::BranchCoverage cov(program);
    // restoreWords() treats a size mismatch as a caller bug (abort);
    // wire data is unvalidated, so refuse it as a structured error
    // instead — the bitmaps were sized for a different program.
    if (taken.size() != cov.takenWords().size() ||
        nt.size() != cov.ntWords().size()) {
        throw wire::WireError(
            wire::WireErrorKind::Mismatch,
            detail::concat("entry coverage sized for a different "
                           "program: expected ",
                           cov.takenWords().size(), " words, found ",
                           taken.size()),
            cov.takenWords().size(), taken.size());
    }
    cov.restoreWords(taken, nt);
    CorpusEntry entry(std::move(input), std::move(cov));
    entry.newEdges = dec.u64("entry newEdges");
    entry.rareEdges = dec.u64("entry rareEdges");
    entry.ntEarlyStops = dec.u64("entry ntEarlyStops");
    entry.ntSpawned = dec.u64("entry ntSpawned");
    entry.batchAdmitted = dec.u64("entry batchAdmitted");
    entry.timesScheduled = dec.u64("entry timesScheduled");
    entry.foreign = dec.u8("entry foreign") != 0;
    return entry;
}

void
encodeBatchStats(wire::Encoder &enc, const ExploreBatchStats &stats)
{
    enc.u64(stats.batch);
    enc.u64(stats.batchRuns);
    enc.u64(stats.totalRuns);
    enc.u64(stats.admitted);
    enc.u64(stats.corpusSize);
    enc.u64(stats.takenEdges);
    enc.u64(stats.combinedEdges);
    enc.u64(stats.newEdges);
    enc.u64(stats.ntSpawned);
    enc.u64(stats.ntEarlyStops);
    enc.u64(stats.failedJobs);
    enc.u64(stats.pathsCompleted);
    enc.u64(stats.coverCompleted);
}

ExploreBatchStats
decodeBatchStats(wire::Decoder &dec)
{
    ExploreBatchStats s;
    s.batch = dec.u64("stats batch");
    s.batchRuns = dec.u64("stats batchRuns");
    s.totalRuns = dec.u64("stats totalRuns");
    s.admitted = dec.u64("stats admitted");
    s.corpusSize = dec.u64("stats corpusSize");
    s.takenEdges = dec.u64("stats takenEdges");
    s.combinedEdges = dec.u64("stats combinedEdges");
    s.newEdges = dec.u64("stats newEdges");
    s.ntSpawned = dec.u64("stats ntSpawned");
    s.ntEarlyStops = dec.u64("stats ntEarlyStops");
    s.failedJobs = dec.u64("stats failedJobs");
    s.pathsCompleted = dec.u64("stats pathsCompleted");
    s.coverCompleted = dec.u64("stats coverCompleted");
    return s;
}

} // namespace pe::explore
