/**
 * @file
 * Explorer checkpoint/resume.
 *
 * A checkpoint is everything the exploration loop's future depends
 * on, snapshotted at a batch boundary: the progress counters, the
 * three forked RNG stream positions, the frontier bitmaps, the
 * cross-run exercise counts, the full corpus and the per-batch
 * history.  Restoring it and continuing is bit-identical to never
 * having stopped, because the loop's only other inputs (program,
 * config, seeds) are validated to match.
 *
 * The byte layout is the shared explorer-state codec
 * (src/explore/serialize.hh over wire::Encoder/Decoder) — the same
 * encoding the fleet ships over its IPC frames — wrapped in a magic +
 * version + identity header and written temp-then-atomic-rename: a
 * kill -9 at any moment leaves either the previous checkpoint or the
 * new one, never a torn file.  Header fields (config hash, master
 * seed, schedule policy, a program fingerprint) are checked on resume
 * and mismatches are fatal with the expected and found values spelled
 * out — a checkpoint silently applied to the wrong session would
 * "resume" into nonsense, and a bare "mismatch" would leave the
 * operator of a many-session fleet guessing which knob diverged.
 */

#include <cstdint>
#include <cstdio>
#include <fstream>
#include <sstream>

#include "src/analysis/verify.hh"
#include "src/explore/explorer.hh"
#include "src/explore/serialize.hh"
#include "src/fleet/wire.hh"
#include "src/support/faultinject.hh"
#include "src/support/status.hh"
#include "src/support/strutil.hh"

namespace pe::explore
{

namespace
{

constexpr char magic[8] = {'P', 'E', 'X', 'C', 'K', 'P', '2', '\0'};

/**
 * Version 2: the shared serialize.hh codec (entries gained the
 * `foreign` flag the fleet's corpus-exchange needs).  Version 3:
 * batch stats carry pathsCompleted/coverCompleted and a prime-path
 * tracker section follows the history (present flag + PathCoverage
 * state).  Older files are refused with both numbers reported.
 */
constexpr uint32_t checkpointVersion = 3;

} // namespace

void
Explorer::writeCheckpoint(const ExploreResult &res) const
{
    fault::site("explore.checkpoint_write");

    wire::Encoder enc;
    enc.bytes(magic, sizeof(magic));
    enc.u32(checkpointVersion);
    enc.u64(core::configHash(opts.config));
    enc.u64(opts.seed);
    enc.u64(analysis::programFingerprint(program));
    enc.u32(policyWord(opts));

    enc.u64(res.batches);
    enc.u64(res.runs);
    enc.u64(res.instructions);
    enc.u64(res.ntSpawned);
    enc.u64(res.failedJobs);
    enc.u32(dryBatches);

    enc.u64(mut.rngState());
    enc.u64(sched.rngState());
    enc.u64(donorRng.rawState());

    enc.u64vec(corp.frontier().takenWords());
    enc.u64vec(corp.frontier().ntWords());

    enc.u32vec(corp.exercise().rawCounts());
    enc.u64(corp.exercise().runsAccumulated());

    enc.u32(static_cast<uint32_t>(corp.size()));
    for (const CorpusEntry &e : corp.entries())
        encodeEntry(enc, e);

    enc.u32(static_cast<uint32_t>(res.history.size()));
    for (const ExploreBatchStats &s : res.history)
        encodeBatchStats(enc, s);

    // Prime-path tracker: presence is implied by the config (the
    // recordEdgeTrace flag is inside configHash, validated above),
    // but an explicit flag keeps the layout self-describing.
    enc.u8(paths ? 1 : 0);
    if (paths)
        paths->encodeState(enc);

    const std::string tmp = opts.checkpointPath + ".tmp";
    {
        std::ofstream os(tmp, std::ios::binary | std::ios::trunc);
        if (!os)
            pe_fatal("cannot write checkpoint '", tmp, "'");
        os.write(enc.buffer().data(),
                 static_cast<std::streamsize>(enc.size()));
        os.flush();
        if (!os)
            pe_fatal("write to checkpoint '", tmp, "' failed");
    }

    if (std::rename(tmp.c_str(), opts.checkpointPath.c_str()) != 0) {
        pe_fatal("cannot rename checkpoint '", tmp, "' to '",
                 opts.checkpointPath, "'");
    }
}

void
Explorer::resume(ExploreResult &res)
{
    std::ifstream is(opts.resumeFrom, std::ios::binary);
    if (!is)
        pe_fatal("cannot open checkpoint '", opts.resumeFrom, "'");
    std::ostringstream raw;
    raw << is.rdbuf();
    const std::string bytes = raw.str();

    try {
        wire::Decoder dec(bytes);

        char m[8];
        for (size_t i = 0; i < sizeof(m); ++i)
            m[i] = static_cast<char>(dec.u8("checkpoint magic"));
        if (std::string(m, sizeof(m)) !=
            std::string(magic, sizeof(magic))) {
            pe_fatal("'", opts.resumeFrom,
                     "' is not an explorer checkpoint");
        }
        uint32_t version = dec.u32("checkpoint version");
        if (version != checkpointVersion) {
            pe_fatal("checkpoint '", opts.resumeFrom,
                     "' version mismatch: expected ",
                     checkpointVersion, ", found ", version);
        }
        uint64_t cfgHash = dec.u64("config hash");
        if (cfgHash != core::configHash(opts.config)) {
            pe_fatal("checkpoint '", opts.resumeFrom,
                     "' engine-config mismatch: this session's "
                     "config hash is 0x",
                     fmtHex(core::configHash(opts.config)),
                     ", checkpoint was taken under 0x",
                     fmtHex(cfgHash));
        }
        uint64_t seed = dec.u64("master seed");
        if (seed != opts.seed) {
            pe_fatal("checkpoint '", opts.resumeFrom,
                     "' master-seed mismatch: expected ", opts.seed,
                     ", found ", seed);
        }
        uint64_t fp = dec.u64("program fingerprint");
        if (fp != analysis::programFingerprint(program)) {
            pe_fatal("checkpoint '", opts.resumeFrom,
                     "' program mismatch: this session explores "
                     "image 0x",
                     fmtHex(analysis::programFingerprint(program)),
                     ", checkpoint was taken against 0x", fmtHex(fp));
        }
        uint32_t policy = dec.u32("policy word");
        if (policy != policyWord(opts)) {
            pe_fatal("checkpoint '", opts.resumeFrom,
                     "' schedule-policy mismatch: expected "
                     "policy word 0x",
                     fmtHex(policyWord(opts)), ", found 0x",
                     fmtHex(policy));
        }

        res.batches = dec.u64("batches");
        res.runs = dec.u64("runs");
        res.instructions = dec.u64("instructions");
        res.ntSpawned = dec.u64("ntSpawned");
        res.failedJobs = dec.u64("failedJobs");
        dryBatches = dec.u32("dryBatches");

        mut.setRngState(dec.u64("mutator rng"));
        sched.setRngState(dec.u64("scheduler rng"));
        donorRng.setRawState(dec.u64("donor rng"));

        auto frontierTaken = dec.u64vec("frontier taken words");
        auto frontierNt = dec.u64vec("frontier nt words");

        auto counts = dec.u32vec("exercise counts");
        uint64_t exerciseRuns = dec.u64("exercise runs");

        uint32_t nEntries = dec.count("corpus entries");
        std::vector<CorpusEntry> entries;
        entries.reserve(nEntries);
        for (uint32_t i = 0; i < nEntries; ++i)
            entries.push_back(decodeEntry(dec, program));
        corp.restore(std::move(entries), frontierTaken, frontierNt,
                     counts, exerciseRuns);

        uint32_t nStats = dec.count("history");
        res.history.clear();
        res.history.reserve(nStats);
        for (uint32_t i = 0; i < nStats; ++i)
            res.history.push_back(decodeBatchStats(dec));

        const bool hasTracker = dec.u8("path tracker flag") != 0;
        if (hasTracker != (paths != nullptr)) {
            // Unreachable through the public API — recordEdgeTrace is
            // part of the config hash checked above — but the layout
            // check costs nothing.
            throw wire::WireError(wire::WireErrorKind::Mismatch,
                                  "path tracker presence mismatch",
                                  paths != nullptr ? 1 : 0,
                                  hasTracker ? 1 : 0);
        }
        if (paths)
            paths->decodeState(dec);
        if (opts.pathObjective)
            refreshPathEnergies();

        dec.expectEnd("checkpoint");
    } catch (const wire::WireError &err) {
        pe_fatal("checkpoint '", opts.resumeFrom, "' unreadable (",
                 wireErrorKindName(err.kind()), "): ", err.what());
    }

    inform("resumed from '", opts.resumeFrom, "': ", res.batches,
           " batches, ", res.runs, " runs, ",
           corp.frontier().combinedCovered(), " edges, corpus ",
           corp.size());
}

} // namespace pe::explore
