/**
 * @file
 * Runtime prime-path completion tracking.
 *
 * PathCoverage folds the per-run branch-decision stream
 * (RunResult::branchTrace, recorded under PeConfig::recordEdgeTrace)
 * into completion bits over the program's prime-path set.  The fold
 * replays the taken path symbolically: starting from the entry block
 * it walks the CFG, consuming one (pc << 1) | taken event per
 * conditional branch to pick the BranchTaken/BranchNotTaken edge, and
 * following fall-through/jump edges without consuming anything.
 * Calls use the MiniC convention the CFG already encodes: a Jal
 * pushes a frame and descends into the callee; the matching Jr pops
 * it and lands on the CallReturn edge's target.  Prime paths are
 * intraprocedural, so each frame carries its own matching state — a
 * caller's partial matches are suspended across the call and resume,
 * advanced by the CallReturn edge, when the callee returns.
 *
 * Matching is an Aho–Corasick automaton over the paths' edge
 * sequences, built once with the tracker, so the fold does O(1) work
 * per walked edge however many paths there are.  A state is the
 * longest suffix of the frame's edge history that is a prefix of
 * some path.  Every non-root state ends on a known edge, hence at a
 * known block, and paths leave that block along at most two edges:
 * taken/not-taken for a conditional branch, otherwise the single
 * fall-through, jump or CallReturn edge (paths are intraprocedural,
 * so they never take a Call edge).  The walker already knows which,
 * so a state is just two next-slots (taken or the only edge = 0,
 * not-taken = 1), completed by the build so no fail-chain walk
 * happens at fold time; only the root indexes its transitions by
 * edge id.  Each state also records the path ending there (if any)
 * and a dictionary link to the next path-ending state on its fail
 * chain: 16 bytes per state.  One-block paths are a per-block
 * id that completes on entry.  A call frame saves one state word:
 * a call restarts the callee at the root, a return restores the
 * caller's state before its CallReturn edge.
 *
 * The automaton needs no match-set cap.  A frame's state stands for
 * every path in flight there at once, and no path can be in flight
 * twice in one frame (that would repeat a block of a simple path),
 * so the old per-frame cap of 4096 (path, pos) matches was never
 * reachable under the enumeration's default 4096-path cap.  Memory
 * is still bounded everywhere: one bit per path of completion state,
 * a fixed-size automaton, and a capped call stack.
 *
 * Desync policy: traces come from real executions, so the walk should
 * never disagree with the CFG — but crashed runs stop mid-path,
 * invalid jumps stop decoding, and the trace itself may be truncated
 * by the recording cap.  Any disagreement (unexpected branch pc,
 * missing static successor, stack underflow) stops the fold for that
 * run and bumps a counter; completion bits only ever under-approximate.
 * For runs that did not exit cleanly the fold also refuses to walk
 * the straight-line tail past the final recorded branch, so a crash
 * cannot "complete" blocks it never reached.
 *
 * Merging is word-wise OR plus counter addition — commutative and
 * associative, so campaign accumulation, fleet shard-ordered merges,
 * and checkpoint restore all agree bit-for-bit.  Serialization goes
 * through pe_wire (encodeState/decodeState) so explorer checkpoints
 * and fleet frames carry the tracker verbatim.
 */

#ifndef PE_COVERAGE_PATHCOV_HH
#define PE_COVERAGE_PATHCOV_HH

#include <cstdint>
#include <vector>

#include "src/analysis/primepaths.hh"
#include "src/fleet/wire.hh"
#include "src/isa/program.hh"

namespace pe::coverage
{

class PathCoverage
{
  public:
    /** Call-stack depth cap for the fold walker. */
    static constexpr uint32_t kMaxFoldDepth = 1024;

    /**
     * Build Cfg, enumerate prime paths (default caps) and compute the
     * cover for @p program in one shot.  The explorer, the fleet
     * coordinator and the workers all build the tracker this way, so
     * every party derives the identical path-id space from the
     * program alone.
     */
    explicit PathCoverage(const isa::Program &program);

    /**
     * Fold one run's branch-decision stream.  @p traceTruncated is
     * RunResult::branchTraceTruncated; @p cleanExit gates walking the
     * straight-line tail after the last recorded branch (see file
     * comment).
     */
    void fold(const std::vector<uint32_t> &trace, bool traceTruncated,
              bool cleanExit);

    /** Merge another tracker (same program): OR bits, add counters. */
    void merge(const PathCoverage &other);

    /** OR a raw completion-word vector in (fleet frames). */
    void mergeWords(const std::vector<uint64_t> &incoming);

    /** Replace the completion words (checkpoint restore). */
    void restoreWords(const std::vector<uint64_t> &saved);

    const std::vector<uint64_t> &words() const { return bits; }

    uint32_t numPaths() const { return pathCount; }
    bool truncated() const { return setTruncated; }
    bool completed(uint32_t pathId) const
    {
        return (bits[pathId >> 6] >> (pathId & 63)) & 1;
    }

    /** Prime paths completed at least once. */
    uint64_t completedCount() const;

    /** Cover paths (the scheduler's target set) completed. */
    uint64_t coverCompleted() const;

    uint32_t coverSize() const
    {
        return static_cast<uint32_t>(coverIds.size());
    }
    const std::vector<uint32_t> &cover() const { return coverIds; }

    /**
     * Cover-adjacency energy for a corpus entry: over the *incomplete*
     * cover paths, the sum of the fraction of each path's decision
     * edges already present in the entry's taken/not-taken bitmaps
     * (BranchCoverage word layout, key = (pc << 1) | taken).  An entry
     * that has walked most of an unfinished cover path scores high —
     * mutating it is the cheapest route to completing the path.
     */
    double coverAdjacency(const std::vector<uint64_t> &takenWords,
                          const std::vector<uint64_t> &ntWords) const;

    /** FNV-1a over the completion words + path count (digests). */
    uint64_t digest() const;

    uint64_t foldedRuns() const { return statFolded; }
    uint64_t truncatedRuns() const { return statTruncated; }
    uint64_t desyncRuns() const { return statDesync; }

    /** Serialize counters + completion words via pe_wire. */
    void encodeState(wire::Encoder &enc) const;

    /**
     * Restore counters + words; throws WireError{Mismatch} when the
     * word count disagrees with this program's path count.
     */
    void decodeState(wire::Decoder &dec);

  private:
    /** No path / no edge marker in the automaton tables. */
    static constexpr uint32_t kNone = ~0u;

    /** One automaton state; state 0 is the root (see file comment). */
    struct State
    {
        uint32_t next[2];   //!< successor state per out-edge slot
        uint32_t path;      //!< path id ending here, or kNone
        uint32_t dict;      //!< next path-ending fail state, or 0
    };

    void build(const analysis::Cfg &cfg,
               const analysis::PrimePathSet &set,
               const std::vector<uint32_t> &cover);
    void buildAutomaton(const analysis::Cfg &cfg,
                        const analysis::PrimePathSet &set);

    /** The edge leaving @p block through @p slot, or kNone. */
    uint32_t slotEdge(uint32_t block, uint32_t slot) const;

    /**
     * Walk @p edgeId (leaving through @p slot) from @p state: return
     * the next state and complete every path ending there.
     */
    uint32_t step(uint32_t state, uint32_t edgeId, uint32_t slot)
    {
        const uint32_t n =
            state == 0 ? rootNext[edgeId] : states[state].next[slot];
        const State &st = states[n];
        if (st.path != kNone)
            completePath(st.path);
        for (uint32_t d = st.dict; d != 0; d = states[d].dict)
            completePath(states[d].path);
        return n;
    }

    void completePath(uint32_t pathId)
    {
        bits[pathId >> 6] |= 1ull << (pathId & 63);
    }

    /** How a block's terminator moves control (fold walker tables). */
    enum class BlockKind : uint8_t
    {
        Exit,       //!< Sys exit or no successor: the walk ends
        Cond,       //!< conditional branch: consume one trace event
        Jump,       //!< unconditional Jmp
        Call,       //!< Jal: push frame, descend
        Ret,        //!< Jr: pop frame, take the CallReturn edge
        Fall,       //!< straight-line fall-through
    };

    uint32_t pathCount = 0;
    bool setTruncated = false;
    uint32_t entryBlock = analysis::noBlock;

    /** Automaton: root transitions by edge id, then every state. */
    std::vector<uint32_t> rootNext;
    std::vector<State> states;

    /** One-block path id per block, or kNone. */
    std::vector<uint32_t> blockPath;

    /** Per-block walker tables (indexed by block id). */
    std::vector<BlockKind> blockKind;
    std::vector<uint32_t> branchPc;     //!< Cond: terminator pc
    std::vector<uint32_t> succBlock;    //!< primary successor block
    std::vector<uint32_t> succEdge;     //!< primary successor edge id
    std::vector<uint32_t> altBlock;     //!< Cond: not-taken block
    std::vector<uint32_t> altEdge;      //!< Cond: not-taken edge id
    std::vector<uint32_t> retBlock;     //!< Call: return-landing block
    std::vector<uint32_t> retEdge;      //!< Call: CallReturn edge id

    /**
     * Cover paths' decision keys ((pc << 1) | taken), flattened in
     * cover order: [decisionOffsets[c], decisionOffsets[c + 1]).
     */
    std::vector<uint32_t> pathDecisions;
    std::vector<uint32_t> decisionOffsets;

    std::vector<uint32_t> coverIds;
    std::vector<uint64_t> bits;

    uint64_t statFolded = 0;
    uint64_t statTruncated = 0;
    uint64_t statDesync = 0;
};

} // namespace pe::coverage

#endif // PE_COVERAGE_PATHCOV_HH
