/**
 * @file
 * The exploration corpus: the set of inputs worth mutating.
 *
 * The paper evaluates PathExpander against a fixed test suite
 * (Section 7.4); the exploration engine instead *grows* its suite.
 * The corpus is the classic coverage-guided feedback structure: an
 * input is admitted only if its run covered at least one branch edge
 * the global frontier had not seen (coverage-delta dedup), so the
 * corpus stays small — one representative per region of behavior —
 * while the frontier (the union of every run's coverage, NT-Path
 * edges included) only grows.
 *
 * Alongside the frontier the corpus keeps cross-run edge exercise
 * counts (coverage::EdgeExerciseCounts) over *every* run, admitted or
 * not; rescore() turns those into a per-entry rare-edge score that
 * the scheduler's energy function consumes.
 */

#ifndef PE_EXPLORE_CORPUS_HH
#define PE_EXPLORE_CORPUS_HH

#include <cstdint>
#include <vector>

#include "src/core/result.hh"
#include "src/coverage/coverage.hh"
#include "src/isa/program.hh"

namespace pe::explore
{

/** One admitted input and its scheduling signals. */
struct CorpusEntry
{
    CorpusEntry(std::vector<int32_t> in,
                coverage::BranchCoverage cov)
        : input(std::move(in)), coverage(std::move(cov))
    {}

    std::vector<int32_t> input;

    /** Combined coverage of the run that admitted this input. */
    coverage::BranchCoverage coverage;

    /** Edges this input added to the frontier when admitted. */
    size_t newEdges = 0;

    /** Rare edges this input reaches (refreshed by rescore()). */
    size_t rareEdges = 0;

    /**
     * NT-Paths of the admitting run that stopped at a resource bound
     * (CapacityOverflow / MaxLength): unexplored depth beyond the
     * sandbox's reach, i.e. deeper behavior a mutated input might
     * walk into on the taken path.
     */
    uint64_t ntEarlyStops = 0;

    uint64_t ntSpawned = 0;

    /** Batch index at which the entry joined (0 = seed batch). */
    uint64_t batchAdmitted = 0;

    /** How often the scheduler has picked this entry as a parent. */
    uint64_t timesScheduled = 0;

    /**
     * Path-cover adjacency weight (PathCoverage::coverAdjacency over
     * this entry's coverage), maintained by the explorer when
     * ExploreOptions::pathObjective is on: recomputed at admission and
     * refreshed whenever the global completion bits change, since a
     * newly completed cover path stops contributing to every entry.
     * 0 by default, so the path-free energies stay bit-identical;
     * recomputed after a checkpoint restore rather than serialized.
     */
    double pathEnergy = 0.0;

    /**
     * True when the entry arrived from another shard over the fleet's
     * corpus-exchange rather than from a local run.  Foreign entries
     * schedule and mutate like any other, but a worker never exports
     * them back — that keeps the exchange echo-free (an entry crosses
     * each pipe at most once per direction).
     */
    bool foreign = false;
};

/** Corpus plus global frontier and cross-run edge exercise counts. */
class Corpus
{
  public:
    explicit Corpus(const isa::Program &program);

    /**
     * Account one finished run and admit @p input if its coverage
     * added a new edge to the frontier.  Returns the number of new
     * edges (0 means rejected).  Exercise counts accumulate either
     * way.
     */
    size_t consider(const std::vector<int32_t> &input,
                    const core::RunResult &result, uint64_t batch);

    /**
     * Admit an entry that another shard already vetted (fleet
     * corpus-exchange).  Same admission rule as consider() — at least
     * one edge new over the local frontier, exercise counts
     * accumulate either way — but the entry's run stats travel with
     * it instead of coming from a local RunResult, and the admitted
     * copy is flagged foreign so it is never exported back.  Returns
     * the number of locally-new edges (0 = rejected).
     */
    size_t considerForeign(CorpusEntry entry, uint64_t batch);

    /**
     * OR a serialized frontier (taken + NT words from a peer shard)
     * into the local frontier.  Word counts must match this program's
     * edge universe — the fleet validates the program fingerprint
     * before any frontier words cross the wire.
     */
    void mergeFrontierWords(const std::vector<uint64_t> &taken,
                            const std::vector<uint64_t> &nt);

    /**
     * Refresh every entry's rareEdges against the current exercise
     * counts: an edge is rare if its cross-run count is at or below
     * the @p percentile nearest-rank threshold.
     */
    void rescore(double percentile);

    const std::vector<CorpusEntry> &entries() const { return pool; }
    std::vector<CorpusEntry> &entries() { return pool; }
    size_t size() const { return pool.size(); }

    /** Union of every run's coverage (admitted or not). */
    const coverage::BranchCoverage &frontier() const { return front; }

    const coverage::EdgeExerciseCounts &exercise() const
    {
        return hits;
    }

    /**
     * Replace the whole corpus state from a checkpoint (explorer
     * resume): the entry pool, the frontier bitmaps and the exercise
     * counts, all of which the checkpoint stored together so they
     * stay mutually consistent.
     */
    void restore(std::vector<CorpusEntry> entries,
                 const std::vector<uint64_t> &frontierTaken,
                 const std::vector<uint64_t> &frontierNt,
                 const std::vector<uint32_t> &exerciseCounts,
                 uint64_t exerciseRuns);

  private:
    std::vector<CorpusEntry> pool;
    coverage::BranchCoverage front;
    coverage::EdgeExerciseCounts hits;
};

} // namespace pe::explore

#endif // PE_EXPLORE_CORPUS_HH
