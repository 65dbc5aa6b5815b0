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
 * encoding the fleet ships over its IPC frames — in the shared
 * checkpoint file frame (magic + version, temp-then-atomic-rename: a
 * kill -9 at any moment leaves either the previous checkpoint or the
 * new one, never a torn file).  The body opens with the
 * SessionIdentity; resume refuses any field that differs, naming it
 * with the expected and found values — a checkpoint silently applied
 * to the wrong session would "resume" into nonsense, and a bare
 * "mismatch" would leave the operator guessing which knob diverged.
 */

#include <cstdint>

#include "src/explore/explorer.hh"
#include "src/explore/serialize.hh"
#include "src/fleet/wire.hh"
#include "src/support/faultinject.hh"
#include "src/support/status.hh"

namespace pe::explore
{

namespace
{

/**
 * Version 2: the shared serialize.hh codec (entries gained the
 * `foreign` flag the fleet's corpus-exchange needs).  Version 3:
 * batch stats carry pathsCompleted/coverCompleted and a prime-path
 * tracker section follows the history.  Version 4: the header is the
 * full SessionIdentity, and the tracker section lost its retired
 * match-overflow counter.  Older files are refused with both numbers
 * reported.
 */
constexpr CheckpointFormat kFormat = {
    "explorer checkpoint", {'P', 'E', 'X', 'C', 'K', 'P', '2', '\0'}, 4};

} // namespace

void
Explorer::writeCheckpoint(const ExploreResult &res) const
{
    fault::site("explore.checkpoint_write");

    writeCheckpointFile(opts.checkpointPath, kFormat, [&](wire::Encoder &enc) {
        encodeIdentity(enc, identityOf(opts, program, seeds));

        enc.u64(res.batches);
        enc.u64(res.runs);
        enc.u64(res.instructions);
        enc.u64(res.ntSpawned);
        enc.u64(res.failedJobs);
        enc.u32(dryBatches);

        enc.u64(mut.rngState());
        enc.u64(sched.rngState());
        enc.u64(donorRng.rawState());

        encodeCorpus(enc, corp);

        enc.u32(static_cast<uint32_t>(res.history.size()));
        for (const ExploreBatchStats &s : res.history)
            encodeBatchStats(enc, s);

        // Prime-path tracker: presence is implied by the config (the
        // recordEdgeTrace flag is inside configHash), but an explicit
        // flag keeps the layout self-describing.
        enc.u8(paths ? 1 : 0);
        if (paths)
            paths->encodeState(enc);
    });
}

void
Explorer::resume(ExploreResult &res)
{
    readCheckpointFile(opts.resumeFrom, kFormat, [&](wire::Decoder &dec) {
        validate(identityOf(opts, program, seeds), decodeIdentity(dec),
                 "taken in another session");

        res.batches = dec.u64("batches");
        res.runs = dec.u64("runs");
        res.instructions = dec.u64("instructions");
        res.ntSpawned = dec.u64("ntSpawned");
        res.failedJobs = dec.u64("failedJobs");
        dryBatches = dec.u32("dryBatches");

        mut.setRngState(dec.u64("mutator rng"));
        sched.setRngState(dec.u64("scheduler rng"));
        donorRng.setRawState(dec.u64("donor rng"));

        decodeCorpus(dec, corp, program);

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
    });
    if (opts.pathObjective)
        refreshPathEnergies();

    inform("resumed from '", opts.resumeFrom, "': ", res.batches,
           " batches, ", res.runs, " runs, ",
           corp.frontier().combinedCovered(), " edges, corpus ",
           corp.size());
}

} // namespace pe::explore
