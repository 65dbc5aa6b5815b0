/**
 * @file
 * Explorer-state serialization implementation.
 */

#include "src/explore/serialize.hh"

#include <cstdio>
#include <cstring>
#include <fstream>
#include <sstream>

#include "src/analysis/verify.hh"
#include "src/explore/explorer.hh"
#include "src/support/fnv.hh"
#include "src/support/status.hh"
#include "src/support/strutil.hh"

namespace pe::explore
{

namespace
{

/**
 * The full scheduling contract: the SchedulePolicy enum in the low
 * byte plus bit 9 (0x200) for pathObjective.  The objective changes
 * every energy after resume, so a path-objective checkpoint must not
 * silently continue an edge-objective session (or vice versa) any
 * more than a policy swap may.  Bit 8 (0x100) is retired — it flagged
 * the removed static-prior seeding — and must not be reused: a
 * session word folded from it is refused, not reinterpreted.
 */
uint32_t
policyWord(const ExploreOptions &opts)
{
    return static_cast<uint32_t>(opts.policy) |
           (opts.pathObjective ? 0x200u : 0u);
}

} // namespace

uint64_t
sessionWord(const ExploreOptions &opts)
{
    uint64_t h = fnvMix(kFnvFleetOffset, policyWord(opts));
    h = fnvMix(h, opts.batchSize);
    // The percentile is a double; its bit pattern is what two
    // processes must agree on, not some rounded rendering.
    uint64_t pct;
    static_assert(sizeof(pct) == sizeof(opts.rarePercentile));
    std::memcpy(&pct, &opts.rarePercentile, sizeof(pct));
    h = fnvMix(h, pct);
    h = fnvMix(h, opts.mutator.maxLength);
    return fnvMix(h, opts.mutator.maxStack);
}

uint64_t
seedsDigest(const std::vector<std::vector<int32_t>> &seeds)
{
    uint64_t h = fnvMix(kFnvFleetOffset, seeds.size());
    for (const auto &seed : seeds) {
        h = fnvMix(h, seed.size());
        for (int32_t v : seed)
            h = fnvMix(h, static_cast<uint32_t>(v));
    }
    return h;
}

SessionIdentity
identityOf(const ExploreOptions &opts, const isa::Program &program,
           const std::vector<std::vector<int32_t>> &seeds,
           uint32_t shards, uint64_t planDigest)
{
    SessionIdentity id;
    id.configHash = core::configHash(opts.config);
    id.masterSeed = opts.seed;
    id.programFp = analysis::programFingerprint(program);
    id.sessionWord = sessionWord(opts);
    id.seedsDigest = seedsDigest(seeds);
    id.shards = shards;
    id.planDigest = planDigest;
    return id;
}

void
encodeIdentity(wire::Encoder &enc, const SessionIdentity &id)
{
    enc.u64(id.configHash);
    enc.u64(id.masterSeed);
    enc.u64(id.programFp);
    enc.u64(id.sessionWord);
    enc.u64(id.seedsDigest);
    enc.u32(id.shards);
    enc.u64(id.planDigest);
}

SessionIdentity
decodeIdentity(wire::Decoder &dec)
{
    SessionIdentity id;
    id.configHash = dec.u64("config hash");
    id.masterSeed = dec.u64("master seed");
    id.programFp = dec.u64("program fingerprint");
    id.sessionWord = dec.u64("session word");
    id.seedsDigest = dec.u64("seeds digest");
    id.shards = dec.u32("fleet width");
    id.planDigest = dec.u64("plan digest");
    return id;
}

void
validate(const SessionIdentity &expected, const SessionIdentity &found,
         const std::string &context)
{
    // The fleet width comes before the plan digest, which folds it:
    // a width mismatch is reported as what it is.
    const struct
    {
        const char *name;
        uint64_t expected, found;
    } fields[] = {
        {"config hash", expected.configHash, found.configHash},
        {"master seed", expected.masterSeed, found.masterSeed},
        {"program fingerprint", expected.programFp, found.programFp},
        {"session word", expected.sessionWord, found.sessionWord},
        {"seeds digest", expected.seedsDigest, found.seedsDigest},
        {"fleet width", expected.shards, found.shards},
        {"plan digest", expected.planDigest, found.planDigest},
    };
    for (const auto &f : fields) {
        if (f.expected == f.found)
            continue;
        throw wire::WireError(
            wire::WireErrorKind::Mismatch,
            detail::concat(context, ": ", f.name,
                           " mismatch: expected ", fmtHex(f.expected),
                           ", found ", fmtHex(f.found)),
            f.expected, f.found);
    }
}

void
requireLength(const char *what, size_t expected, size_t found)
{
    if (expected == found)
        return;
    throw wire::WireError(
        wire::WireErrorKind::Mismatch,
        detail::concat(what, " sized for a different program: expected ",
                       expected, " elements, found ", found),
        expected, found);
}

uint64_t
coverageDigest(const coverage::BranchCoverage &cov)
{
    uint64_t h = fnvMix(kFnvOffset, cov.takenWords().size());
    for (uint64_t w : cov.takenWords())
        h = fnvMix(h, w);
    h = fnvMix(h, cov.ntWords().size());
    for (uint64_t w : cov.ntWords())
        h = fnvMix(h, w);
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
    requireLength("entry taken words", cov.takenWords().size(),
                  taken.size());
    requireLength("entry nt words", cov.ntWords().size(), nt.size());
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

void
encodeCorpus(wire::Encoder &enc, const Corpus &corpus)
{
    enc.u64vec(corpus.frontier().takenWords());
    enc.u64vec(corpus.frontier().ntWords());
    enc.u32vec(corpus.exercise().rawCounts());
    enc.u64(corpus.exercise().runsAccumulated());
    enc.u32(static_cast<uint32_t>(corpus.size()));
    for (const CorpusEntry &e : corpus.entries())
        encodeEntry(enc, e);
}

void
decodeCorpus(wire::Decoder &dec, Corpus &corpus,
             const isa::Program &program)
{
    auto taken = dec.u64vec("frontier taken words");
    requireLength("frontier taken words",
                  corpus.frontier().takenWords().size(), taken.size());
    auto nt = dec.u64vec("frontier nt words");
    requireLength("frontier nt words",
                  corpus.frontier().ntWords().size(), nt.size());
    auto counts = dec.u32vec("exercise counts");
    requireLength("exercise counts",
                  corpus.exercise().rawCounts().size(), counts.size());
    uint64_t runs = dec.u64("exercise runs");

    uint32_t n = dec.count("corpus entries");
    std::vector<CorpusEntry> entries;
    entries.reserve(n);
    for (uint32_t i = 0; i < n; ++i)
        entries.push_back(decodeEntry(dec, program));
    corpus.restore(std::move(entries), taken, nt, counts, runs);
}

void
writeCheckpointFile(const std::string &path,
                    const CheckpointFormat &format,
                    const std::function<void(wire::Encoder &)> &encodeBody)
{
    wire::Encoder enc;
    enc.bytes(format.magic, sizeof(format.magic));
    enc.u32(format.version);
    encodeBody(enc);

    const std::string tmp = path + ".tmp";
    {
        std::ofstream os(tmp, std::ios::binary | std::ios::trunc);
        if (!os)
            pe_fatal("cannot write ", format.name, " '", tmp, "'");
        os.write(enc.buffer().data(),
                 static_cast<std::streamsize>(enc.size()));
        os.flush();
        if (!os)
            pe_fatal("write to ", format.name, " '", tmp, "' failed");
    }
    if (std::rename(tmp.c_str(), path.c_str()) != 0) {
        pe_fatal("cannot rename ", format.name, " '", tmp, "' to '",
                 path, "'");
    }
}

void
readCheckpointFile(const std::string &path,
                   const CheckpointFormat &format,
                   const std::function<void(wire::Decoder &)> &decodeBody)
{
    std::ifstream is(path, std::ios::binary);
    if (!is)
        pe_fatal("cannot open ", format.name, " '", path, "'");
    std::ostringstream raw;
    raw << is.rdbuf();
    const std::string bytes = raw.str();

    try {
        wire::Decoder dec(bytes);
        char m[sizeof(format.magic)];
        for (char &c : m)
            c = static_cast<char>(dec.u8("checkpoint magic"));
        if (std::memcmp(m, format.magic, sizeof(m)) != 0) {
            throw wire::WireError(
                wire::WireErrorKind::BadMagic,
                detail::concat("magic bytes are not those of the ",
                               format.name, " format"));
        }
        uint32_t version = dec.u32("checkpoint version");
        if (version != format.version) {
            throw wire::WireError(
                wire::WireErrorKind::BadVersion,
                detail::concat("version mismatch: expected ",
                               format.version, ", found ", version),
                format.version, version);
        }
        decodeBody(dec);
        dec.expectEnd(format.name);
    } catch (const wire::WireError &err) {
        refuseCheckpoint(format.name, path, err);
    }
}

void
refuseCheckpoint(const char *name, const std::string &path,
                 const wire::WireError &err)
{
    pe_fatal(name, " '", path, "' refused (",
             wire::wireErrorKindName(err.kind()), "): ", err.what());
}

} // namespace pe::explore
