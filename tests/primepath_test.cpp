/**
 * @file
 * Prime-path enumeration, minimum path cover and runtime completion
 * tracking: the Cfg successor-order pin the whole path-id space rests
 * on, enumeration oracles on hand-built CFGs, structural properties
 * (simplicity, maximality, determinism, edge coverage) on compiled
 * workloads, pinned counts for two workloads, truncation behavior,
 * the branch-trace fold checked against the match-list reference it
 * replaced, merge semantics (campaign accumulation == sharded merge,
 * bit-identical), wire round-trips, and the explorer's path-objective
 * checkpoint/resume identity and pinned tracker digest.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <set>
#include <string>
#include <vector>

#include "src/analysis/cfg.hh"
#include "src/analysis/primepaths.hh"
#include "src/core/engine.hh"
#include "src/coverage/pathcov.hh"
#include "src/explore/explorer.hh"
#include "src/fleet/wire.hh"
#include "src/isa/assembler.hh"
#include "src/minic/compiler.hh"
#include "src/support/status.hh"
#include "src/workloads/workload.hh"

namespace
{

using namespace pe;

// A diamond: read -> branch -> (then | else) -> join -> exit.
const char *diamondSrc = R"(
    sys read_int r8
    beq r8, r0, else_
    li r9, 1
    jmp join
else_:
    li r9, 2
join:
    sys print_int r9
    sys exit
)";

// A self-loop: read -> spin while nonzero -> exit.
const char *loopSrc = R"(
loop:
    sys read_int r8
    bne r8, r0, loop
    sys exit
)";

std::vector<uint32_t>
blockSeq(const analysis::Cfg &cfg, const analysis::PrimePath &path)
{
    return analysis::primePathBlocks(cfg, path);
}

// ---------------------------------------------------------------------
// The successor-order pin.  Prime-path ids are only stable across
// processes because every Cfg lists a block's successors in the same
// order: ascending target firstPc, edge id breaking ties (parallel
// branch edges to one target).  Everything downstream — canonical
// path order, cover selection, completion-word layout, fleet digests
// — inherits determinism from this.

TEST(PrimePaths, CfgSuccessorsAreSortedByTargetPc)
{
    for (const auto &name : workloads::workloadNames()) {
        const auto &w = workloads::getWorkload(name);
        auto program = minic::compile(w.source, name);
        analysis::Cfg cfg(program);
        for (uint32_t b = 0; b < cfg.numBlocks(); ++b) {
            const auto &succs = cfg.block(b).succs;
            for (size_t i = 1; i < succs.size(); ++i) {
                const uint32_t pa =
                    cfg.block(cfg.edges()[succs[i - 1]].to).firstPc;
                const uint32_t pb =
                    cfg.block(cfg.edges()[succs[i]].to).firstPc;
                EXPECT_TRUE(pa < pb ||
                            (pa == pb && succs[i - 1] < succs[i]))
                    << name << " block " << b << " succ " << i;
            }
        }
    }
}

// ---------------------------------------------------------------------
// Enumeration oracles on hand-built CFGs.

TEST(PrimePaths, DiamondHasExactlyTwoPaths)
{
    auto program = isa::assemble(diamondSrc, "diamond");
    analysis::Cfg cfg(program);
    auto set = analysis::enumeratePrimePaths(cfg);

    ASSERT_EQ(set.paths.size(), 2u);
    EXPECT_FALSE(set.truncated);
    const uint32_t b0 = cfg.blockOf(0);
    const uint32_t bThen = cfg.blockOf(2);
    const uint32_t bElse = cfg.blockOf(4);
    const uint32_t bJoin = cfg.blockOf(5);
    // Canonical order is (start block, edge-id sequence); the beq's
    // BranchTaken edge (to else_) was materialized first, so the
    // else-arm carries the lower edge id and sorts first.
    EXPECT_EQ(blockSeq(cfg, set.paths[0]),
              (std::vector<uint32_t>{b0, bElse, bJoin}));
    EXPECT_EQ(blockSeq(cfg, set.paths[1]),
              (std::vector<uint32_t>{b0, bThen, bJoin}));

    // Both arms are needed to cover both branch directions.
    auto cover = analysis::computePathCover(cfg, set);
    EXPECT_EQ(cover.size(), 2u);
}

TEST(PrimePaths, SelfLoopProducesACyclePath)
{
    auto program = isa::assemble(loopSrc, "selfloop");
    analysis::Cfg cfg(program);
    auto set = analysis::enumeratePrimePaths(cfg);

    EXPECT_FALSE(set.truncated);
    bool sawCycle = false;
    for (const auto &p : set.paths) {
        auto blocks = blockSeq(cfg, p);
        if (blocks.size() > 1 && blocks.front() == blocks.back())
            sawCycle = true;
    }
    EXPECT_TRUE(sawCycle) << "the back edge must close a cycle path";
}

// ---------------------------------------------------------------------
// Structural properties on compiled workloads.

TEST(PrimePaths, PathsAreSimpleAndDeterministic)
{
    for (const char *name : {"schedule", "print_tokens"}) {
        const auto &w = workloads::getWorkload(name);
        auto program = minic::compile(w.source, name);
        analysis::Cfg cfg(program);
        auto set = analysis::enumeratePrimePaths(cfg);

        for (const auto &p : set.paths) {
            auto blocks = blockSeq(cfg, p);
            // Simple: no block repeats, except last == first (cycle).
            std::set<uint32_t> seen;
            for (size_t i = 0; i + 1 < blocks.size(); ++i)
                EXPECT_TRUE(seen.insert(blocks[i]).second) << name;
            if (blocks.back() != blocks.front()) {
                EXPECT_TRUE(seen.insert(blocks.back()).second) << name;
            }
        }

        // Two enumerations of the same program are identical.
        auto again = analysis::enumeratePrimePaths(cfg);
        ASSERT_EQ(again.paths.size(), set.paths.size()) << name;
        for (size_t i = 0; i < set.paths.size(); ++i) {
            EXPECT_EQ(again.paths[i].startBlock,
                      set.paths[i].startBlock);
            EXPECT_EQ(again.paths[i].edges, set.paths[i].edges);
        }
    }
}

TEST(PrimePaths, PathsAreMaximal)
{
    // Pairwise containment is quadratic; print_tokens is the smallest
    // untruncated workload (634 paths), small enough to check fully.
    const auto &w = workloads::getWorkload("print_tokens");
    auto program = minic::compile(w.source, "print_tokens");
    analysis::Cfg cfg(program);
    auto set = analysis::enumeratePrimePaths(cfg);
    ASSERT_FALSE(set.truncated);

    // Containment compares block sequences: a proper contiguous
    // sub-sequence of another path's blocks means non-maximal.
    std::vector<std::vector<uint32_t>> seqs;
    seqs.reserve(set.paths.size());
    for (const auto &p : set.paths)
        seqs.push_back(blockSeq(cfg, p));
    for (size_t i = 0; i < seqs.size(); ++i) {
        for (size_t j = 0; j < seqs.size(); ++j) {
            if (i == j || seqs[i].size() >= seqs[j].size())
                continue;
            auto it = std::search(seqs[j].begin(), seqs[j].end(),
                                  seqs[i].begin(), seqs[i].end());
            EXPECT_EQ(it, seqs[j].end())
                << "path " << i << " is a subpath of " << j;
        }
    }
}

TEST(PrimePaths, EveryReachableDecisionEdgeIsOnSomePath)
{
    // Untruncated enumeration: every intraprocedural edge reachable
    // from some function root lies on at least one prime path, and
    // the greedy cover touches exactly the union the full set does.
    const auto &w = workloads::getWorkload("schedule");
    auto program = minic::compile(w.source, "schedule");
    analysis::Cfg cfg(program);
    auto set = analysis::enumeratePrimePaths(cfg);
    ASSERT_FALSE(set.truncated);

    std::set<uint32_t> onPaths;
    for (const auto &p : set.paths)
        onPaths.insert(p.edges.begin(), p.edges.end());

    for (uint32_t e = 0; e < cfg.edges().size(); ++e) {
        const auto &edge = cfg.edges()[e];
        if (edge.kind == analysis::EdgeKind::Call)
            continue;       // enumeration is intraprocedural
        if (!cfg.reachable()[edge.from])
            continue;
        EXPECT_TRUE(onPaths.count(e))
            << "edge " << e << " ("
            << analysis::edgeKindName(edge.kind)
            << ") missing from every prime path";
    }

    auto cover = analysis::computePathCover(cfg, set);
    ASSERT_FALSE(cover.empty());
    std::set<uint32_t> covered;
    for (uint32_t id : cover) {
        ASSERT_LT(id, set.paths.size());
        covered.insert(set.paths[id].edges.begin(),
                       set.paths[id].edges.end());
    }
    EXPECT_EQ(covered, onPaths)
        << "the cover must touch every edge any prime path touches";
}

TEST(PrimePaths, WorkloadCountsArePinned)
{
    // Regression pins: these move only when the enumeration, the
    // canonical order, the greedy cover or the compiler changes — all
    // of which invalidate persisted path-id spaces and must be loud.
    struct Pin
    {
        const char *name;
        size_t paths;
        size_t cover;
    };
    const Pin pins[] = {
        {"schedule", 3392, 52},
        {"schedule2", 3994, 58},
    };
    for (const auto &pin : pins) {
        const auto &w = workloads::getWorkload(pin.name);
        auto program = minic::compile(w.source, pin.name);
        analysis::Cfg cfg(program);
        auto set = analysis::enumeratePrimePaths(cfg);
        EXPECT_EQ(set.paths.size(), pin.paths) << pin.name;
        EXPECT_FALSE(set.truncated) << pin.name;
        EXPECT_EQ(analysis::computePathCover(cfg, set).size(),
                  pin.cover)
            << pin.name;
    }
}

TEST(PrimePaths, CapTruncatesLoudlyAndKeepsAPrefix)
{
    const auto &w = workloads::getWorkload("schedule");
    auto program = minic::compile(w.source, "schedule");
    analysis::Cfg cfg(program);

    analysis::PrimePathOptions opts;
    opts.maxPaths = 1;
    auto capped = analysis::enumeratePrimePaths(cfg, opts);
    EXPECT_TRUE(capped.truncated);
    EXPECT_LE(capped.paths.size(), 1u);

    // The cover of a truncated set still only picks kept ids.
    auto cover = analysis::computePathCover(cfg, capped);
    for (uint32_t id : cover)
        EXPECT_LT(id, capped.paths.size());
}

// ---------------------------------------------------------------------
// Runtime fold: branch-decision streams into completion bits.

core::RunResult
runTraced(const isa::Program &program, std::vector<int32_t> input,
          uint32_t traceCap = 1u << 18)
{
    auto cfg = core::PeConfig::forMode(core::PeMode::Off);
    cfg.recordEdgeTrace = true;
    cfg.edgeTraceCap = traceCap;
    core::PathExpanderEngine engine(program, cfg, nullptr);
    return engine.run(input);
}

void
foldRun(coverage::PathCoverage &tracker, const core::RunResult &res)
{
    tracker.fold(res.branchTrace, res.branchTraceTruncated,
                 res.stopCause == core::RunStopCause::Completed);
}

TEST(PathCoverage, FoldCompletesExactlyTheWalkedPaths)
{
    auto program = isa::assemble(diamondSrc, "diamond");
    analysis::Cfg cfg(program);
    auto set = analysis::enumeratePrimePaths(cfg);
    ASSERT_EQ(set.paths.size(), 2u);

    // Map ids to arms rather than hardcoding the canonical order.
    const uint32_t bThen = cfg.blockOf(2);
    uint32_t thenId = analysis::noBlock, elseId = analysis::noBlock;
    for (uint32_t i = 0; i < set.paths.size(); ++i) {
        if (blockSeq(cfg, set.paths[i])[1] == bThen)
            thenId = i;
        else
            elseId = i;
    }
    ASSERT_NE(thenId, analysis::noBlock);
    ASSERT_NE(elseId, analysis::noBlock);

    coverage::PathCoverage tracker(program);
    ASSERT_EQ(tracker.numPaths(), 2u);
    EXPECT_EQ(tracker.completedCount(), 0u);

    // Input 1: beq r8, r0 not taken, the then-arm runs.
    foldRun(tracker, runTraced(program, {1}));
    EXPECT_EQ(tracker.foldedRuns(), 1u);
    EXPECT_TRUE(tracker.completed(thenId));
    EXPECT_FALSE(tracker.completed(elseId));
    EXPECT_EQ(tracker.completedCount(), 1u);

    // Input 0: the else-arm; now everything is complete.
    foldRun(tracker, runTraced(program, {0}));
    EXPECT_TRUE(tracker.completed(elseId));
    EXPECT_EQ(tracker.completedCount(), 2u);
    EXPECT_EQ(tracker.coverCompleted(), tracker.coverSize());
    EXPECT_EQ(tracker.desyncRuns(), 0u);
    EXPECT_EQ(tracker.truncatedRuns(), 0u);
}

TEST(PathCoverage, TruncatedTracesAreCountedNotTrusted)
{
    auto program = isa::assemble(loopSrc, "selfloop");
    coverage::PathCoverage tracker(program);

    // Three loop iterations under a 2-event trace cap: the recording
    // stops mid-run, the fold absorbs the prefix and counts the
    // truncation instead of desyncing or inventing completions.
    foldRun(tracker, runTraced(program, {1, 1, 0}, /*traceCap=*/2));
    EXPECT_EQ(tracker.foldedRuns(), 1u);
    EXPECT_EQ(tracker.truncatedRuns(), 1u);
    EXPECT_EQ(tracker.desyncRuns(), 0u);
}

TEST(PathCoverage, ShardedMergeEqualsSerialAccumulation)
{
    const auto &w = workloads::getWorkload("schedule");
    auto program = minic::compile(w.source, "schedule");

    std::vector<core::RunResult> runs;
    for (const auto &input : w.benignInputs)
        runs.push_back(runTraced(program, input));

    // Serial: one tracker folds every run in order.
    coverage::PathCoverage serial(program);
    for (const auto &r : runs)
        foldRun(serial, r);
    EXPECT_GT(serial.completedCount(), 0u);

    // Sharded: round-robin the same runs over three trackers, then
    // merge in shard order — the fleet coordinator's exact shape.
    coverage::PathCoverage shards[] = {
        coverage::PathCoverage(program),
        coverage::PathCoverage(program),
        coverage::PathCoverage(program),
    };
    for (size_t i = 0; i < runs.size(); ++i)
        foldRun(shards[i % 3], runs[i]);

    coverage::PathCoverage merged(program);
    for (const auto &shard : shards)
        merged.merge(shard);
    EXPECT_EQ(merged.words(), serial.words());
    EXPECT_EQ(merged.digest(), serial.digest());
    EXPECT_EQ(merged.completedCount(), serial.completedCount());
    EXPECT_EQ(merged.coverCompleted(), serial.coverCompleted());
    EXPECT_EQ(merged.foldedRuns(), serial.foldedRuns());

    // The raw-word variant (fleet frames) lands on the same bits.
    coverage::PathCoverage viaWords(program);
    for (const auto &shard : shards)
        viaWords.mergeWords(shard.words());
    EXPECT_EQ(viaWords.words(), serial.words());
    EXPECT_EQ(viaWords.digest(), serial.digest());
}

TEST(PathCoverage, WireStateRoundTripsAndRefusesForeignPrograms)
{
    auto program = isa::assemble(diamondSrc, "diamond");
    coverage::PathCoverage tracker(program);
    foldRun(tracker, runTraced(program, {1}));

    wire::Encoder enc;
    tracker.encodeState(enc);
    const std::string bytes(enc.buffer().data(), enc.size());

    coverage::PathCoverage restored(program);
    wire::Decoder dec(bytes);
    restored.decodeState(dec);
    EXPECT_EQ(restored.words(), tracker.words());
    EXPECT_EQ(restored.digest(), tracker.digest());
    EXPECT_EQ(restored.foldedRuns(), tracker.foldedRuns());

    // A tracker over a different program refuses the state at word
    // granularity (a finer mismatch is caught upstream: explorer and
    // fleet checkpoints validate the program fingerprint and config
    // hash before any tracker state is ever decoded).
    const auto &w = workloads::getWorkload("schedule");
    auto other = minic::compile(w.source, "schedule");
    coverage::PathCoverage foreign(other);
    ASSERT_NE((foreign.numPaths() + 63) / 64,
              (tracker.numPaths() + 63) / 64);
    wire::Decoder dec2(bytes);
    EXPECT_THROW(foreign.decodeState(dec2), wire::WireError);
}

// ---------------------------------------------------------------------
// Reference oracle: the per-frame (path, pos) match-list fold the
// Aho–Corasick automaton replaced, kept here verbatim (tables, walker,
// desync and clean-exit rules, match-set cap) so the automaton can be
// checked against it bit-for-bit.  It builds the same path-id space
// as PathCoverage(program): default enumeration caps.

class ReferenceFold
{
  public:
    static constexpr uint32_t kMaxActiveMatches = 4096;
    static constexpr uint32_t kMaxFoldDepth = 1024;
    static constexpr uint64_t kMaxFoldSteps = 1ull << 22;

    explicit ReferenceFold(const isa::Program &program)
    {
        const analysis::Cfg cfg(program);
        const analysis::PrimePathSet set =
            analysis::enumeratePrimePaths(cfg);
        const auto &blocks = cfg.blocks();
        const auto &edges = cfg.edges();

        pathCount = static_cast<uint32_t>(set.paths.size());
        if (program.entry < program.code.size())
            entryBlock = cfg.blockOf(program.entry);
        bits.assign((pathCount + 63) / 64, 0);

        pathOffsets.assign(1, 0);
        startsAt.assign(blocks.size(), {});
        for (uint32_t id = 0; id < pathCount; ++id) {
            const analysis::PrimePath &p = set.paths[id];
            startsAt[p.startBlock].push_back(id);
            for (uint32_t e : p.edges)
                pathEdges.push_back(e);
            pathOffsets.push_back(
                static_cast<uint32_t>(pathEdges.size()));
        }

        const uint32_t nb = static_cast<uint32_t>(blocks.size());
        blockKind.assign(nb, Kind::Exit);
        branchPc.assign(nb, 0);
        succBlock.assign(nb, analysis::noBlock);
        succEdge.assign(nb, 0);
        altBlock.assign(nb, analysis::noBlock);
        altEdge.assign(nb, 0);
        retBlock.assign(nb, analysis::noBlock);
        retEdge.assign(nb, 0);
        for (uint32_t id = 0; id < nb; ++id) {
            Kind kind = Kind::Exit;
            for (uint32_t e : blocks[id].succs) {
                const analysis::CfgEdge &edge = edges[e];
                switch (edge.kind) {
                  case analysis::EdgeKind::BranchTaken:
                    kind = Kind::Cond;
                    branchPc[id] = blocks[id].lastPc;
                    succBlock[id] = edge.to;
                    succEdge[id] = e;
                    break;
                  case analysis::EdgeKind::BranchNotTaken:
                    kind = Kind::Cond;
                    branchPc[id] = blocks[id].lastPc;
                    altBlock[id] = edge.to;
                    altEdge[id] = e;
                    break;
                  case analysis::EdgeKind::Jump:
                    kind = Kind::Jump;
                    succBlock[id] = edge.to;
                    succEdge[id] = e;
                    break;
                  case analysis::EdgeKind::Call:
                    kind = Kind::Call;
                    succBlock[id] = edge.to;
                    succEdge[id] = e;
                    break;
                  case analysis::EdgeKind::CallReturn:
                    kind = Kind::Call;
                    retBlock[id] = edge.to;
                    retEdge[id] = e;
                    break;
                  case analysis::EdgeKind::FallThrough:
                    kind = Kind::Fall;
                    succBlock[id] = edge.to;
                    succEdge[id] = e;
                    break;
                }
            }
            if (blocks[id].succs.empty() &&
                program.code[blocks[id].lastPc].op == isa::Opcode::Jr)
                kind = Kind::Ret;
            blockKind[id] = kind;
        }
    }

    void fold(const std::vector<uint32_t> &trace, bool traceTruncated,
              bool cleanExit)
    {
        folded++;
        if (traceTruncated)
            truncated++;
        if (entryBlock == analysis::noBlock)
            return;

        struct Frame
        {
            uint32_t retB;
            uint32_t retE;
            std::vector<Match> saved;
        };
        std::vector<Frame> frames;
        std::vector<Match> active;
        uint32_t cur = entryBlock;
        size_t ti = 0;
        bool desynced = false;
        uint64_t steps = 0;

        for (;;) {
            if (++steps > kMaxFoldSteps) {
                desynced = true;
                break;
            }
            visitBlock(cur, active);

            const Kind kind = blockKind[cur];
            if (kind == Kind::Exit)
                break;
            if (kind == Kind::Cond) {
                if (ti >= trace.size())
                    break;
                const uint32_t ev = trace[ti++];
                if ((ev >> 1) != branchPc[cur]) {
                    desynced = true;
                    break;
                }
                const bool taken = (ev & 1) != 0;
                const uint32_t nb = taken ? succBlock[cur] : altBlock[cur];
                if (nb == analysis::noBlock)
                    break;
                advance(active, taken ? succEdge[cur] : altEdge[cur]);
                cur = nb;
                continue;
            }
            if (!cleanExit && ti == trace.size())
                break;
            if (kind == Kind::Jump || kind == Kind::Fall) {
                if (succBlock[cur] == analysis::noBlock)
                    break;
                advance(active, succEdge[cur]);
                cur = succBlock[cur];
                continue;
            }
            if (kind == Kind::Call) {
                if (succBlock[cur] == analysis::noBlock)
                    break;
                if (frames.size() >= kMaxFoldDepth) {
                    desynced = true;
                    break;
                }
                frames.push_back(Frame{retBlock[cur], retEdge[cur],
                                       std::move(active)});
                active.clear();
                cur = succBlock[cur];
                continue;
            }
            if (frames.empty()) {
                desynced = true;
                break;
            }
            Frame f = std::move(frames.back());
            frames.pop_back();
            active = std::move(f.saved);
            if (f.retB == analysis::noBlock)
                break;
            advance(active, f.retE);
            cur = f.retB;
        }
        if (desynced)
            desync++;
    }

    std::vector<uint64_t> bits;
    uint64_t folded = 0;
    uint64_t truncated = 0;
    uint64_t desync = 0;
    uint64_t overflow = 0;

  private:
    struct Match
    {
        uint32_t path;
        uint32_t pos;
    };
    enum class Kind : uint8_t { Exit, Cond, Jump, Call, Ret, Fall };

    void complete(uint32_t id) { bits[id >> 6] |= 1ull << (id & 63); }

    void visitBlock(uint32_t block, std::vector<Match> &active)
    {
        for (uint32_t id : startsAt[block]) {
            if (pathOffsets[id + 1] == pathOffsets[id]) {
                complete(id);
                continue;
            }
            if (active.size() >= kMaxActiveMatches) {
                overflow++;
                continue;
            }
            active.push_back(Match{id, 0});
        }
    }

    void advance(std::vector<Match> &active, uint32_t edgeId)
    {
        size_t out = 0;
        for (const Match &m : active) {
            const uint32_t off = pathOffsets[m.path];
            if (pathEdges[off + m.pos] != edgeId)
                continue;
            if (off + m.pos + 1 == pathOffsets[m.path + 1]) {
                complete(m.path);
                continue;
            }
            active[out++] = Match{m.path, m.pos + 1};
        }
        active.resize(out);
    }

    uint32_t pathCount = 0;
    uint32_t entryBlock = analysis::noBlock;
    std::vector<uint32_t> pathEdges;
    std::vector<uint32_t> pathOffsets;
    std::vector<std::vector<uint32_t>> startsAt;
    std::vector<Kind> blockKind;
    std::vector<uint32_t> branchPc;
    std::vector<uint32_t> succBlock;
    std::vector<uint32_t> succEdge;
    std::vector<uint32_t> altBlock;
    std::vector<uint32_t> altEdge;
    std::vector<uint32_t> retBlock;
    std::vector<uint32_t> retEdge;
};

/**
 * Fold @p trace through both matchers from empty completion words
 * (so one run's bits cannot mask another's) and require identical
 * words and counters.
 */
void
expectFoldsAgree(coverage::PathCoverage &tracker, ReferenceFold &ref,
                 const std::vector<uint32_t> &trace, bool traceTruncated,
                 bool cleanExit, const std::string &what)
{
    tracker.restoreWords(std::vector<uint64_t>(tracker.words().size()));
    ref.bits.assign(ref.bits.size(), 0);
    tracker.fold(trace, traceTruncated, cleanExit);
    ref.fold(trace, traceTruncated, cleanExit);
    ASSERT_EQ(tracker.words(), ref.bits) << what;
    ASSERT_EQ(tracker.foldedRuns(), ref.folded) << what;
    ASSERT_EQ(tracker.truncatedRuns(), ref.truncated) << what;
    ASSERT_EQ(tracker.desyncRuns(), ref.desync) << what;
    // The old match-set cap is unreachable (see pathcov.hh).
    ASSERT_EQ(ref.overflow, 0u) << what;
}

TEST(PathCoverageOracle, AutomatonMatchesMatchListOnEveryWorkload)
{
    for (const auto &name : workloads::workloadNames()) {
        const auto &w = workloads::getWorkload(name);
        auto program = minic::compile(w.source, name);
        coverage::PathCoverage tracker(program);
        ReferenceFold ref(program);
        uint64_t completedBits = 0;
        for (size_t i = 0; i < w.benignInputs.size(); ++i) {
            const std::string what =
                name + " input " + std::to_string(i);
            const core::RunResult res =
                runTraced(program, w.benignInputs[i]);
            expectFoldsAgree(tracker, ref, res.branchTrace,
                             res.branchTraceTruncated,
                             res.stopCause == core::RunStopCause::Completed,
                             what);
            completedBits += tracker.completedCount();
            // The same trace as if the run had crashed after its
            // last branch: no straight-line tail credit.
            expectFoldsAgree(tracker, ref, res.branchTrace,
                             res.branchTraceTruncated,
                             /*cleanExit=*/false, what + " unclean");
            if (i >= 4)
                continue;
            // A tiny recording cap cuts the trace mid-run.
            const core::RunResult capped =
                runTraced(program, w.benignInputs[i], /*traceCap=*/7);
            ASSERT_TRUE(capped.branchTraceTruncated) << what;
            expectFoldsAgree(tracker, ref, capped.branchTrace, true,
                             /*cleanExit=*/true, what + " capped");
            expectFoldsAgree(tracker, ref, capped.branchTrace, true,
                             /*cleanExit=*/false,
                             what + " capped unclean");
        }
        EXPECT_GT(completedBits, 0u) << name;
        EXPECT_GT(tracker.truncatedRuns(), 0u) << name;
    }
}

TEST(PathCoverageOracle, RecursiveCallFramesAgree)
{
    // Recursion inside a loop inside a conditional: every fold pushes
    // and pops frames through the same function many levels deep, and
    // the caller's in-flight paths must resume across each return.
    auto program = minic::compile(R"MC(
int fib(int n) {
    if (n < 2) { return n; }
    int a = fib(n - 1);
    if (a > 3) { a = a - 1; } else { a = a + 1; }
    return a + fib(n - 2);
}

int main() {
    int n = read_int();
    int i = 0;
    int acc = 0;
    while (i < n) {
        if (i % 2 == 0) { acc = acc + fib(i); } else { acc = acc - 1; }
        i = i + 1;
    }
    print_int(acc);
    return 0;
}
)MC",
                                  "recursive");
    coverage::PathCoverage tracker(program);
    ReferenceFold ref(program);
    for (int32_t n : {0, 1, 2, 5, 9, 12}) {
        const core::RunResult res = runTraced(program, {n});
        ASSERT_EQ(res.stopCause, core::RunStopCause::Completed);
        ASSERT_FALSE(res.branchTraceTruncated);
        expectFoldsAgree(tracker, ref, res.branchTrace, false, true,
                         "fib " + std::to_string(n));
        const core::RunResult capped =
            runTraced(program, {n}, /*traceCap=*/20);
        expectFoldsAgree(tracker, ref, capped.branchTrace,
                         capped.branchTraceTruncated, false,
                         "fib capped " + std::to_string(n));
    }
    EXPECT_EQ(tracker.desyncRuns(), 0u);
    EXPECT_GT(tracker.completedCount(), 0u);
}

TEST(PathCoverageOracle, CorruptedPcDesyncsIdentically)
{
    const auto &w = workloads::getWorkload("schedule2");
    auto program = minic::compile(w.source, "schedule2");
    const core::RunResult res = runTraced(program, w.benignInputs[0]);
    ASSERT_GT(res.branchTrace.size(), 8u);

    coverage::PathCoverage tracker(program);
    ReferenceFold ref(program);
    for (size_t at : {size_t{0}, res.branchTrace.size() / 2,
                      res.branchTrace.size() - 1}) {
        std::vector<uint32_t> bad = res.branchTrace;
        bad[at] ^= 2u << 1;   // flip a pc bit, keep the direction
        expectFoldsAgree(tracker, ref, bad, false, true,
                         "corrupt at " + std::to_string(at));
    }
    EXPECT_EQ(tracker.desyncRuns(), 3u);
}

// ---------------------------------------------------------------------
// Explorer integration: the path objective must keep the explorer's
// checkpoint/resume identity, and a policy-word mismatch must refuse.

struct TempPath
{
    explicit TempPath(const std::string &name)
        : path(std::string(::testing::TempDir()) + name)
    {
        std::remove(path.c_str());
    }
    ~TempPath() { std::remove(path.c_str()); }
    std::string path;
};

explore::ExploreOptions
pathObjectiveOptions(uint64_t maxRuns, uint64_t seed = 0x1234)
{
    explore::ExploreOptions opts;
    opts.config = core::PeConfig::forMode(core::PeMode::Off);
    opts.config.recordEdgeTrace = true;
    opts.pathObjective = true;
    opts.policy = explore::SchedulePolicy::RareEdgeWeighted;
    opts.budget.maxRuns = maxRuns;
    opts.batchSize = 8;
    opts.seed = seed;
    return opts;
}

std::vector<std::vector<int32_t>>
scheduleSeeds(const workloads::Workload &workload)
{
    return {workload.benignInputs.begin(),
            workload.benignInputs.begin() + 3};
}

TEST(PathObjective, CheckpointResumeIsBitIdentical)
{
    const auto &workload = workloads::getWorkload("schedule");
    auto program = minic::compile(workload.source, "schedule");
    TempPath ckpt("pe_pathobj_resume_test.ckpt");

    explore::Explorer full(program, scheduleSeeds(workload),
                           pathObjectiveOptions(59));
    auto fullRes = full.run();
    EXPECT_EQ(fullRes.stop, explore::ExploreStop::RunBudget);
    ASSERT_NE(full.pathTracker(), nullptr);
    EXPECT_GT(full.pathTracker()->completedCount(), 0u);

    {
        auto opts = pathObjectiveOptions(27);
        opts.checkpointPath = ckpt.path;
        explore::Explorer head(program, scheduleSeeds(workload), opts);
        EXPECT_EQ(head.run().runs, 27u);
    }

    auto opts = pathObjectiveOptions(59);
    opts.resumeFrom = ckpt.path;
    explore::Explorer tail(program, scheduleSeeds(workload), opts);
    auto tailRes = tail.run();

    // The general exploration state continues bit-identically...
    EXPECT_EQ(fullRes.runs, tailRes.runs);
    EXPECT_EQ(fullRes.instructions, tailRes.instructions);
    EXPECT_EQ(full.corpus().frontier().takenWords(),
              tail.corpus().frontier().takenWords());
    EXPECT_EQ(full.corpus().frontier().ntWords(),
              tail.corpus().frontier().ntWords());
    ASSERT_EQ(full.corpus().size(), tail.corpus().size());
    for (size_t i = 0; i < full.corpus().size(); ++i) {
        EXPECT_EQ(full.corpus().entries()[i].input,
                  tail.corpus().entries()[i].input);
    }
    // ...and so does the path tracker itself.
    ASSERT_NE(tail.pathTracker(), nullptr);
    EXPECT_EQ(tail.pathTracker()->words(),
              full.pathTracker()->words());
    EXPECT_EQ(tail.pathTracker()->digest(),
              full.pathTracker()->digest());
}

TEST(PathObjective, Schedule2TrackerDigestIsPinned)
{
    // Recorded with the (path, pos) match-list fold the automaton
    // replaced.  The fold feeds the scheduler (cover adjacency), so
    // any drift in completion bits changes the whole session; this
    // pins the tracker end to end on a fixed-seed exploration.
    const auto &workload = workloads::getWorkload("schedule2");
    auto program = minic::compile(workload.source, "schedule2");
    explore::Explorer e(program, scheduleSeeds(workload),
                        pathObjectiveOptions(160, /*seed=*/7));
    EXPECT_EQ(e.run().runs, 160u);
    const coverage::PathCoverage *tracker = e.pathTracker();
    ASSERT_NE(tracker, nullptr);
    EXPECT_EQ(tracker->digest(), 0x0fad7006c1fe50cdull);
    EXPECT_EQ(tracker->coverCompleted(), 29u);
    EXPECT_EQ(tracker->completedCount(), 770u);
    EXPECT_EQ(tracker->foldedRuns(), 160u);
    EXPECT_EQ(tracker->desyncRuns(), 0u);
}

TEST(PathObjective, PolicyWordMismatchRefusesTheCheckpoint)
{
    const auto &workload = workloads::getWorkload("schedule");
    auto program = minic::compile(workload.source, "schedule");
    TempPath ckpt("pe_pathobj_mismatch_test.ckpt");

    {
        auto opts = pathObjectiveOptions(27);
        opts.checkpointPath = ckpt.path;
        explore::Explorer e(program, scheduleSeeds(workload), opts);
        e.run();
    }

    // Same config hash (trace recording still on) but the objective
    // off: the schedule the checkpoint was built under differs, so
    // the policy word must refuse the resume.
    auto opts = pathObjectiveOptions(59);
    opts.pathObjective = false;
    opts.resumeFrom = ckpt.path;
    explore::Explorer e(program, scheduleSeeds(workload), opts);
    EXPECT_THROW(e.run(), FatalError);
}

} // namespace
