/**
 * @file
 * Exploration loop implementation.
 */

#include "src/explore/explorer.hh"

#include <algorithm>
#include <atomic>
#include <ostream>

#include "src/explore/serialize.hh"
#include "src/support/faultinject.hh"
#include "src/support/status.hh"
#include "src/support/strutil.hh"

namespace pe::explore
{

const char *
exploreStopName(ExploreStop stop)
{
    switch (stop) {
      case ExploreStop::RunBudget: return "run-budget";
      case ExploreStop::InstructionBudget: return "instruction-budget";
      case ExploreStop::Plateau: return "plateau";
      case ExploreStop::NoSeeds: return "no-seeds";
      case ExploreStop::Interrupted: return "interrupted";
    }
    return "?";
}

Explorer::Explorer(const isa::Program &program,
                   std::vector<std::vector<int32_t>> seeds,
                   ExploreOptions opts)
    : program(program), seeds(std::move(seeds)),
      opts(std::move(opts)), corp(program),
      mut(Rng(this->opts.seed).fork(1), this->opts.mutator),
      sched(this->opts.policy, Rng(this->opts.seed).fork(2)),
      donorRng(Rng(this->opts.seed).fork(3))
{
    pe_assert(!this->opts.pathObjective ||
                  this->opts.config.recordEdgeTrace,
              "pathObjective requires config.recordEdgeTrace");
    if (this->opts.config.recordEdgeTrace) {
        paths = std::make_unique<coverage::PathCoverage>(program);
    }
    for (const auto &seed : this->seeds)
        mut.observe(seed);
}

double
Explorer::entryPathEnergy(const CorpusEntry &entry) const
{
    if (!opts.pathObjective || !paths)
        return 0.0;
    return paths->coverAdjacency(entry.coverage.takenWords(),
                                 entry.coverage.ntWords());
}

void
Explorer::refreshPathEnergies()
{
    for (CorpusEntry &entry : corp.entries())
        entry.pathEnergy = entryPathEnergy(entry);
}

void
Explorer::runBatch(const std::vector<std::vector<int32_t>> &inputs,
                   ExploreResult &res)
{
    std::vector<core::CampaignJob> jobs;
    jobs.reserve(inputs.size());
    for (const auto &input : inputs) {
        core::CampaignJob job;
        job.program = &program;
        job.input = input;
        job.config = opts.config;
        job.detectorFactory = opts.detectorFactory;
        jobs.push_back(std::move(job));
    }

    size_t before = corp.frontier().combinedCovered();
    core::CampaignOptions copts;
    copts.threads = opts.threads;
    copts.failPolicy = opts.failPolicy;
    copts.jobDeadline = opts.jobDeadline;
    if (opts.onRun) {
        copts.onResult = [this](size_t, const core::RunResult &r) {
            opts.onRun(r);
        };
    }
    auto outcome = core::runCampaign(jobs, copts);

    fault::site("explore.batch_merge");

    ExploreBatchStats stats;
    stats.batch = res.batches;
    stats.batchRuns = outcome.results.size();
    stats.failedJobs = outcome.failures.size();
    const uint64_t pathsBefore = paths ? paths->completedCount() : 0;
    for (size_t k = 0; k < outcome.results.size(); ++k) {
        const core::RunResult &result = outcome.results[k];
        if (paths) {
            // Job order — commutative OR, but keep the fold order
            // deterministic anyway so the counters match too.
            paths->fold(result.branchTrace,
                        result.branchTraceTruncated,
                        result.stopCause ==
                            core::RunStopCause::Completed);
        }
        // Under Continue/Retry the surviving results are a job-order
        // subsequence; resultJobIndex maps each back to its input.
        const auto &input = inputs[outcome.resultJobIndex[k]];
        if (corp.consider(input, result, res.batches) > 0)
            ++stats.admitted;
        res.instructions +=
            result.takenInstructions + result.ntInstructions;
        res.ntSpawned += result.ntPathsSpawned;
        stats.ntSpawned += result.ntPathsSpawned;
        for (const auto &rec : result.ntRecords) {
            if (rec.cause == core::NtStopCause::CapacityOverflow ||
                rec.cause == core::NtStopCause::MaxLength) {
                ++stats.ntEarlyStops;
            }
        }
    }
    // Failed jobs consumed their budget slot even without a result;
    // counting them keeps a persistently-failing job from extending
    // the exploration forever.
    res.runs += outcome.results.size() + outcome.failures.size();
    res.failedJobs += outcome.failures.size();
    res.batches += 1;

    stats.totalRuns = res.runs;
    stats.corpusSize = corp.size();
    stats.takenEdges = corp.frontier().takenCovered();
    stats.combinedEdges = corp.frontier().combinedCovered();
    stats.newEdges = stats.combinedEdges - before;
    dryBatches = stats.newEdges == 0 ? dryBatches + 1 : 0;

    // Percentile-rarity rescore is O(corpus * edges) — by far the
    // most expensive part of a dry batch.  Admission requires
    // newEdgesOver(frontier) > 0, so a dry batch adds no entries and
    // every existing entry keeps the ranking the last rescore gave
    // it; only the exercise-count histogram drifts (rejected runs
    // still accumulate), and that drift is folded in wholesale at the
    // next admitting batch.  Checkpoint resume is unaffected: the
    // gate is stateless per batch and serialized entries carry their
    // rareEdges.
    if (stats.newEdges > 0)
        corp.rescore(opts.rarePercentile);

    if (paths) {
        stats.pathsCompleted = paths->completedCount();
        stats.coverCompleted = paths->coverCompleted();
        // Adjacency energies go stale two ways: a completed cover
        // path stops contributing to *every* entry, and a new entry
        // starts from 0.  Both triggers are deterministic, so resumed
        // and uninterrupted sessions refresh at the same batches.
        if (opts.pathObjective &&
            (stats.pathsCompleted != pathsBefore ||
             stats.admitted > 0)) {
            refreshPathEnergies();
        }
    }

    emitBatch(stats);
    res.history.push_back(stats);
}

void
Explorer::maybeCheckpoint(const ExploreResult &res, bool force)
{
    if (opts.checkpointPath.empty())
        return;
    uint64_t every = std::max<uint64_t>(opts.checkpointEvery, 1);
    if (!force && res.batches - lastCheckpointBatch < every)
        return;
    if (res.batches == lastCheckpointBatch && lastCheckpointBatch > 0)
        return;     // nothing ran since the last snapshot
    writeCheckpoint(res);
    lastCheckpointBatch = res.batches;
}

void
Explorer::runSeedBatch()
{
    seeded = true;
    // Batch 0: the seeds themselves, trimmed to the run budget.
    std::vector<std::vector<int32_t>> inputs = seeds;
    if (inputs.size() > opts.budget.maxRuns)
        inputs.resize(opts.budget.maxRuns);
    runBatch(inputs, acc);
}

void
Explorer::runMutationBatch(size_t maxBatch)
{
    size_t batch = std::min<uint64_t>(
        maxBatch, opts.budget.maxRuns - acc.runs);
    auto parents = sched.pick(corp, batch);
    std::vector<std::vector<int32_t>> inputs;
    inputs.reserve(parents.size());
    for (size_t idx : parents) {
        const auto &donor =
            corp.entries()[donorRng.nextBelow(corp.size())].input;
        inputs.push_back(mut.mutate(corp.entries()[idx].input, donor));
    }
    runBatch(inputs, acc);
}

bool
Explorer::stopCheck(ExploreResult &res)
{
    if (opts.stopFlag &&
        opts.stopFlag->load(std::memory_order_relaxed)) {
        res.stop = ExploreStop::Interrupted;
        return true;
    }
    if (res.runs >= opts.budget.maxRuns) {
        res.stop = ExploreStop::RunBudget;
        return true;
    }
    if (opts.budget.maxInstructions &&
        res.instructions >= opts.budget.maxInstructions) {
        res.stop = ExploreStop::InstructionBudget;
        return true;
    }
    if (opts.budget.plateauBatches &&
        dryBatches >= opts.budget.plateauBatches) {
        res.stop = ExploreStop::Plateau;
        return true;
    }
    if (corp.size() == 0) {
        // Only possible for branch-free programs: nothing can
        // ever be admitted, so mutation has nothing to work on.
        res.stop = ExploreStop::Plateau;
        return true;
    }
    return false;
}

ExploreResult
Explorer::run()
{
    emitHeaderOnce();

    if (seeds.empty() || opts.budget.maxRuns == 0) {
        acc.stop = ExploreStop::NoSeeds;
        emitDone(acc);
        return acc;
    }

    if (!opts.resumeFrom.empty()) {
        // Restored state is exactly the uninterrupted run's state at
        // a batch boundary; the loop below enters at the budget
        // checks, skipping the seed batch.
        resume(acc);
        lastCheckpointBatch = acc.batches;
        seeded = true;
        exportMark = corp.size();
    } else {
        runSeedBatch();
        // Checkpoints land exactly at batch boundaries, before the
        // budget checks: a kill here resumes into the same checks the
        // uninterrupted run would perform next.
        maybeCheckpoint(acc, /*force=*/false);
    }

    while (!stopCheck(acc)) {
        runMutationBatch(opts.batchSize);
        maybeCheckpoint(acc, /*force=*/false);
    }

    // Final snapshot so a clean shutdown (Interrupted included) can
    // be resumed too.
    maybeCheckpoint(acc, /*force=*/true);
    emitDone(acc);
    return acc;
}

uint64_t
Explorer::step(uint64_t maxNewRuns)
{
    emitHeaderOnce();
    uint64_t start = acc.runs;

    if (!seeded) {
        if (seeds.empty() || opts.budget.maxRuns == 0) {
            acc.stop = ExploreStop::NoSeeds;
            return 0;
        }
        runSeedBatch();
    }

    while (acc.runs - start < maxNewRuns && !stopCheck(acc)) {
        runMutationBatch(std::min<uint64_t>(
            opts.batchSize, maxNewRuns - (acc.runs - start)));
        maybeCheckpoint(acc, /*force=*/false);
    }
    return acc.runs - start;
}

void
Explorer::importFrontierWords(const std::vector<uint64_t> &taken,
                              const std::vector<uint64_t> &nt)
{
    corp.mergeFrontierWords(taken, nt);
}

void
Explorer::importPathWords(const std::vector<uint64_t> &words)
{
    if (!paths || words.empty())
        return;
    const uint64_t before = paths->completedCount();
    paths->mergeWords(words);
    if (opts.pathObjective && paths->completedCount() != before)
        refreshPathEnergies();
}

size_t
Explorer::importForeignEntries(std::vector<CorpusEntry> entries)
{
    size_t admitted = 0;
    for (CorpusEntry &entry : entries) {
        if (corp.considerForeign(std::move(entry), acc.batches) > 0) {
            ++admitted;
            CorpusEntry &in = corp.entries().back();
            in.pathEnergy = entryPathEnergy(in);
        }
    }
    // Imports are admissions like any other: fold the accumulated
    // exercise drift into the rarity ranking at the same trigger a
    // local admitting batch would.
    if (admitted > 0)
        corp.rescore(opts.rarePercentile);
    return admitted;
}

std::vector<const CorpusEntry *>
Explorer::drainNewLocalEntries()
{
    std::vector<const CorpusEntry *> fresh;
    for (; exportMark < corp.size(); ++exportMark) {
        const CorpusEntry &entry = corp.entries()[exportMark];
        if (!entry.foreign)
            fresh.push_back(&entry);
    }
    return fresh;
}

void
Explorer::finish()
{
    maybeCheckpoint(acc, /*force=*/true);
    emitDone(acc);
}

void
Explorer::emitHeaderOnce()
{
    if (headerEmitted)
        return;
    headerEmitted = true;
    emitHeader();
}

void
Explorer::emitHeader() const
{
    if (!opts.jsonl)
        return;
    *opts.jsonl << "{\"event\":\"start\",\"workload\":\""
                << opts.label << "\",\"policy\":\""
                << schedulePolicyName(opts.policy) << "\",\"mode\":\""
                << core::peModeName(opts.config.mode)
                << "\",\"seed\":" << opts.seed
                << ",\"batch_size\":" << opts.batchSize
                << ",\"max_runs\":" << opts.budget.maxRuns
                << ",\"max_instructions\":"
                << opts.budget.maxInstructions
                << ",\"plateau_batches\":"
                << opts.budget.plateauBatches
                << ",\"total_edges\":"
                << corp.frontier().totalEdges();
    if (paths) {
        *opts.jsonl << ",\"path_objective\":"
                    << (opts.pathObjective ? "true" : "false")
                    << ",\"prime_paths\":" << paths->numPaths()
                    << ",\"path_cover\":" << paths->coverSize()
                    << ",\"paths_truncated\":"
                    << (paths->truncated() ? "true" : "false");
    }
    *opts.jsonl << ",\"config_hash\":\""
                << fmtHex(core::configHash(opts.config)) << "\"}\n";
}

void
Explorer::emitBatch(const ExploreBatchStats &stats) const
{
    if (!opts.jsonl)
        return;
    *opts.jsonl << "{\"event\":\"batch\",\"batch\":" << stats.batch
                << ",\"runs\":" << stats.batchRuns
                << ",\"total_runs\":" << stats.totalRuns
                << ",\"admitted\":" << stats.admitted
                << ",\"corpus\":" << stats.corpusSize
                << ",\"edges_taken\":" << stats.takenEdges
                << ",\"edges_combined\":" << stats.combinedEdges
                << ",\"new_edges\":" << stats.newEdges
                << ",\"nt_spawned\":" << stats.ntSpawned
                << ",\"nt_early_stops\":" << stats.ntEarlyStops
                << ",\"failed\":" << stats.failedJobs;
    if (paths) {
        *opts.jsonl << ",\"paths_completed\":" << stats.pathsCompleted
                    << ",\"cover_completed\":" << stats.coverCompleted;
    }
    *opts.jsonl << "}\n";
    // Crash safety: a consumer tailing the stream (or reading it
    // after a kill) always sees whole lines up to the last finished
    // batch.
    opts.jsonl->flush();
}

void
Explorer::emitDone(const ExploreResult &res) const
{
    if (!opts.jsonl)
        return;
    *opts.jsonl << "{\"event\":\"done\",\"stop\":\""
                << exploreStopName(res.stop)
                << "\",\"batches\":" << res.batches
                << ",\"runs\":" << res.runs
                << ",\"failed\":" << res.failedJobs
                << ",\"instructions\":" << res.instructions
                << ",\"nt_spawned\":" << res.ntSpawned
                << ",\"corpus\":" << corp.size()
                << ",\"edges_taken\":"
                << corp.frontier().takenCovered()
                << ",\"edges_combined\":"
                << corp.frontier().combinedCovered()
                << ",\"frontier_digest\":\""
                << fmtHex(coverageDigest(corp.frontier())) << "\"";
    if (paths) {
        *opts.jsonl << ",\"paths_completed\":"
                    << paths->completedCount()
                    << ",\"cover_size\":" << paths->coverSize()
                    << ",\"path_cover_completed\":"
                    << paths->coverCompleted()
                    << ",\"path_digest\":\""
                    << fmtHex(paths->digest()) << "\"";
    }
    *opts.jsonl << "}\n";
    // Terminal record: every clean shutdown (checkpoint-triggered
    // included) ends the stream the same way, so "no stopped line"
    // reliably means the session died hard.
    *opts.jsonl << "{\"event\":\"stopped\",\"cause\":\""
                << exploreStopName(res.stop) << "\"}\n";
    opts.jsonl->flush();
}

} // namespace pe::explore
