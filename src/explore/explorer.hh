/**
 * @file
 * The coverage-guided exploration engine.
 *
 * Closes the loop the paper leaves open: Section 7.4 replays a fixed
 * test suite and reports the cumulative coverage PathExpander adds;
 * the Explorer instead *chooses* the next inputs.  Each iteration
 * schedules a batch of corpus parents (rare-edge-weighted energy),
 * mutates each into a fresh input, runs the batch through the
 * parallel campaign runner, merges every run's BranchCoverage into
 * the global frontier, and admits the inputs that covered new edges.
 * A budget (runs / instructions / coverage plateau) bounds the loop.
 *
 * Everything is deterministic for a fixed seed: mutation and
 * scheduling draw from forked pe::Rng streams, campaign results are
 * job-ordered, and coverage merges are order-independent ORs — two
 * runs with the same options produce bit-identical corpora, so
 * coverage-vs-budget curves are comparable across machines.
 *
 * Progress streams as JSONL (one object per batch) for benches and
 * CI to plot.
 */

#ifndef PE_EXPLORE_EXPLORER_HH
#define PE_EXPLORE_EXPLORER_HH

#include <cstdint>
#include <iosfwd>
#include <memory>
#include <string>
#include <vector>

#include "src/core/campaign.hh"
#include "src/coverage/pathcov.hh"
#include "src/explore/corpus.hh"
#include "src/explore/mutator.hh"
#include "src/explore/scheduler.hh"

namespace pe::explore
{

/** When to stop exploring; the first bound hit wins. */
struct ExploreBudget
{
    /** Total monitored runs, seed batch included. */
    uint64_t maxRuns = 200;

    /** Total simulated instructions (taken + NT); 0 = unlimited. */
    uint64_t maxInstructions = 0;

    /**
     * Stop after this many consecutive batches that grew the
     * frontier by zero edges ("K dry batches"); 0 disables.
     */
    uint32_t plateauBatches = 0;
};

/** Why an exploration ended. */
enum class ExploreStop : uint8_t
{
    RunBudget,          //!< maxRuns exhausted
    InstructionBudget,  //!< maxInstructions exhausted
    Plateau,            //!< plateauBatches dry batches in a row
    NoSeeds,            //!< nothing to schedule (empty seed set)
    Interrupted,        //!< options().stopFlag was raised
};

const char *exploreStopName(ExploreStop stop);

struct ExploreOptions
{
    /** Engine configuration for every run (PE on/off, mode, ...). */
    core::PeConfig config =
        core::PeConfig::forMode(core::PeMode::Standard);

    SchedulePolicy policy = SchedulePolicy::RareEdgeWeighted;
    ExploreBudget budget;

    /** Mutants per batch after the seed batch. */
    size_t batchSize = 8;

    /** Master seed; forked into mutation/scheduling streams. */
    uint64_t seed = 0x5eedbea7;

    /** Rarity percentile for the energy function (nearest-rank). */
    double rarePercentile = 0.3;

    /** Campaign workers; 0 = defaultWorkerCount() (PE_JOBS). */
    unsigned threads = 0;

    /**
     * Failure policy forwarded to every batch campaign.  Under
     * Continue/Retry a failed job costs its run-budget slot but the
     * exploration keeps going; stats count it in failedJobs.
     */
    core::FailPolicy failPolicy;

    /** Per-run wall-clock deadline (see CampaignOptions); 0 = off. */
    std::chrono::milliseconds jobDeadline{0};

    /** Optional detector attached to every run. */
    core::DetectorFactory detectorFactory;

    MutatorOptions mutator;

    /** JSONL progress stream (one object per line); may be null. */
    std::ostream *jsonl = nullptr;

    /**
     * Called once per finished run (campaign completion order, see
     * CampaignOptions::onResult) — live progress for interactive
     * front-ends.  Exploration decisions never depend on it.
     */
    std::function<void(const core::RunResult &result)> onRun;

    /** Workload name stamped into the JSONL header. */
    std::string label;

    /**
     * Checkpoint file; empty disables checkpointing.  Written at
     * batch boundaries (every checkpointEvery batches, and once more
     * at shutdown) via write-temp-then-atomic-rename, so a kill -9
     * at any moment leaves either the previous or the new checkpoint
     * intact, never a torn file.
     */
    std::string checkpointPath;

    /** Batches between checkpoints (>= 1). */
    uint64_t checkpointEvery = 1;

    /**
     * Resume from this checkpoint file instead of running the seed
     * batch.  The checkpoint must match this session's identity
     * (explore::SessionIdentity: config, seed, the options in the
     * session word, program and seeds); the continuation is then
     * bit-identical to the uninterrupted run.  The *same seeds* must
     * be passed again (the mutator alphabet is rebuilt from them).
     */
    std::string resumeFrom;

    /**
     * Cooperative stop: checked at every batch boundary; when it
     * reads true the loop stops with ExploreStop::Interrupted after
     * writing a final checkpoint (if checkpointPath is set).  Wire a
     * signal handler's flag here for clean Ctrl-C shutdown.
     */
    const std::atomic<bool> *stopFlag = nullptr;

    /**
     * Path-cover-guided scheduling.  Requires config.recordEdgeTrace
     * (asserted at construction): the explorer builds the program's
     * prime-path set and minimum path cover (analysis/primepaths.hh),
     * folds every run's branch trace into a coverage::PathCoverage
     * tracker, and multiplies each entry's scheduling energy by
     * (1 + cover adjacency), leaning batches toward parents whose
     * runs already walk long prefixes of incomplete cover paths.
     * The tracker itself exists whenever recordEdgeTrace is on (that
     * flag is part of configHash); this option only adds the energy
     * shaping, and is folded into the session word (policy bit
     * 0x200) so a path-objective checkpoint cannot silently resume
     * an edge-objective session or vice versa.
     */
    bool pathObjective = false;
};

/** Per-batch progress snapshot (one JSONL line each). */
struct ExploreBatchStats
{
    uint64_t batch = 0;
    uint64_t batchRuns = 0;         //!< runs in this batch
    uint64_t totalRuns = 0;         //!< cumulative runs
    uint64_t admitted = 0;          //!< inputs that joined the corpus
    uint64_t corpusSize = 0;
    uint64_t takenEdges = 0;        //!< frontier, taken-path only
    uint64_t combinedEdges = 0;     //!< frontier with NT edges
    uint64_t newEdges = 0;          //!< frontier growth this batch
    uint64_t ntSpawned = 0;         //!< NT-Paths spawned this batch
    uint64_t ntEarlyStops = 0;      //!< capacity/max-length stops
    uint64_t failedJobs = 0;        //!< jobs with no result this batch
    uint64_t pathsCompleted = 0;    //!< cumulative prime paths done
    uint64_t coverCompleted = 0;    //!< cumulative cover paths done
};

struct ExploreResult
{
    ExploreStop stop = ExploreStop::RunBudget;
    uint64_t batches = 0;
    uint64_t runs = 0;              //!< results and failures both count
    uint64_t instructions = 0;      //!< taken + NT, all runs
    uint64_t ntSpawned = 0;
    uint64_t failedJobs = 0;        //!< jobs that produced no result
    std::vector<ExploreBatchStats> history;
};

/** The corpus → schedule → campaign → merge → mutate loop. */
class Explorer
{
  public:
    /**
     * @param seeds initial inputs (e.g. a workload's benignInputs);
     *        run as batch 0, before any mutation.
     */
    Explorer(const isa::Program &program,
             std::vector<std::vector<int32_t>> seeds,
             ExploreOptions opts);

    /** Run the loop to a budget bound; reentrant-safe to call once. */
    ExploreResult run();

    /**
     * Fleet hook: advance the loop by up to @p maxNewRuns monitored
     * runs and return control (a coordinator round).  The first call
     * runs the seed batch (which may overshoot small budgets by the
     * seed count — the caller accounts the *returned* run count).
     * Returns the runs actually executed; 0 with a nonzero budget
     * means the explorer is exhausted (empty corpus, local budget or
     * stop flag) and further calls are useless.
     *
     * run() and step() drive the same batch loop; a session uses one
     * or the other, not both.
     */
    uint64_t step(uint64_t maxNewRuns);

    /**
     * Fleet hook: OR a peer frontier into the local one.  Edges the
     * fleet already covered elsewhere stop being "new" here, so local
     * admission stays globally meaningful.
     */
    void importFrontierWords(const std::vector<uint64_t> &taken,
                             const std::vector<uint64_t> &nt);

    /**
     * Fleet hook: offer peer-admitted corpus entries to the local
     * corpus (Corpus::considerForeign semantics).  Returns how many
     * were admitted; admitted entries are rescored and path-scored
     * exactly like local admissions.
     */
    size_t importForeignEntries(std::vector<CorpusEntry> entries);

    /**
     * Fleet hook: entries admitted from *local* runs since the last
     * drain, in admission order (foreign imports are skipped — an
     * entry crosses the wire at most once per direction).  The
     * pointers are invalidated by the next batch; encode immediately.
     */
    std::vector<const CorpusEntry *> drainNewLocalEntries();

    /**
     * The prime-path completion tracker, or null when
     * config.recordEdgeTrace is off.  Fleet workers serialize its
     * words into RoundDelta; benches read its counters.
     */
    const coverage::PathCoverage *pathTracker() const
    {
        return paths.get();
    }

    /**
     * Fleet hook: OR the coordinator's merged completion words into
     * the local tracker (no-op when the tracker is off and the vector
     * is empty).  Refreshes entry path energies when the bits changed
     * and pathObjective is on — a path completed elsewhere stops
     * attracting local energy.
     */
    void importPathWords(const std::vector<uint64_t> &words);

    /** Progress so far (step() sessions; run() returns the same). */
    const ExploreResult &progress() const { return acc; }

    /**
     * End a step() session: final checkpoint (if configured) plus the
     * terminal JSONL records run() would have written.
     */
    void finish();

    const Corpus &corpus() const { return corp; }
    const ExploreOptions &options() const { return opts; }

  private:
    void runBatch(const std::vector<std::vector<int32_t>> &inputs,
                  ExploreResult &res);

    /** Run the seed inputs as batch 0, trimmed to the run budget. */
    void runSeedBatch();

    /**
     * Mutation-schedule the next batch (capped by @p maxBatch and the
     * remaining run budget) and run it.
     */
    void runMutationBatch(size_t maxBatch);

    /**
     * Evaluate the stop conditions in their documented priority
     * order; sets res.stop and returns true when the loop must end.
     */
    bool stopCheck(ExploreResult &res);

    void emitHeaderOnce();
    void emitHeader() const;
    void emitBatch(const ExploreBatchStats &stats) const;
    void emitDone(const ExploreResult &res) const;

    // Checkpoint/resume (checkpoint.cc).
    void writeCheckpoint(const ExploreResult &res) const;
    void resume(ExploreResult &res);
    void maybeCheckpoint(const ExploreResult &res, bool force);

    /**
     * Cover-adjacency energy for @p entry (0 when pathObjective is
     * off).  Deterministic in (program, tracker bits, entry
     * coverage), so resume recomputes it instead of the checkpoint
     * storing it.
     */
    double entryPathEnergy(const CorpusEntry &entry) const;

    /** Recompute pathEnergy for every corpus entry. */
    void refreshPathEnergies();

    const isa::Program &program;
    std::vector<std::vector<int32_t>> seeds;
    ExploreOptions opts;

    /** Prime-path tracker; null unless config.recordEdgeTrace. */
    std::unique_ptr<coverage::PathCoverage> paths;

    Corpus corp;
    Mutator mut;
    Scheduler sched;
    Rng donorRng;
    uint32_t dryBatches = 0;
    uint64_t lastCheckpointBatch = 0;

    /** Accumulated progress shared by run() and step() sessions. */
    ExploreResult acc;
    bool seeded = false;            //!< seed batch (or resume) done
    bool headerEmitted = false;
    size_t exportMark = 0;          //!< first undrained corpus index
};

} // namespace pe::explore

#endif // PE_EXPLORE_EXPLORER_HH
