/**
 * @file
 * PathExpander engine.
 *
 * Every path the engine runs — the taken path, and each NT-Path,
 * whether inline (standard configuration) or on an idle CMP core — is
 * an *actor*, and one dispatch step, `advance()`, runs any actor: a
 * block of straight-line instructions, or one surfaced instruction
 * and its consequences (cycle charge, detector events, coverage, BTB
 * bookkeeping, NT-Path spawn and termination).  The drivers below
 * only decide which actor advances next:
 *
 *  - `runInline` (Off/Standard) advances the taken path until it ends;
 *    `exploreNtInline` runs one NT-Path to termination on the primary
 *    core, between a register checkpoint and its restore;
 *  - `runCmp` (paper Section 4.3, Figure 4(b) and Figure 6) runs
 *    NT-Paths on the idle cores of the CMP while the primary core
 *    continues on the taken path.  The taken path is cut into
 *    segments at every spawn point; segments and NT-Paths form the
 *    tree-structured version order of Figure 6(c):
 *      - each path reads its own buffer, then its ancestor segments,
 *        then committed memory;
 *      - a segment commits only with a commit token from its parent
 *        segment and a squash token from its sibling NT-Path (the one
 *        spawned at the branch where the segment began);
 *      - when the segment chain must shrink (the paper's dirty-line
 *        displacement case), the oldest blocking NT-Path is squashed
 *        immediately so the taken path never stalls.
 *    Every core has its own cycle clock; the scheduler always advances
 *    the globally least-advanced active core, so cross-core
 *    interleaving and shared L2/memory port contention are modeled.
 *    Spawning charges the primary core the register-copy overhead
 *    (Table 2: 20 cycles); squash charges the NT core (10 cycles).
 */

#include "src/core/engine.hh"

#include <algorithm>
#include <deque>
#include <memory>
#include <optional>
#include <utility>

#include "src/branch/btb.hh"
#include "src/checkpoint/checkpoint.hh"
#include "src/mem/hierarchy.hh"
#include "src/mem/main_memory.hh"
#include "src/mem/versioned_buffer.hh"
#include "src/sim/interpreter.hh"
#include "src/support/rng.hh"
#include "src/support/status.hh"

namespace pe::core
{

namespace
{

/** True when the software (PIN) cost model applies to this run. */
bool
softwareCosts(const PeConfig &cfg)
{
    return cfg.costModel == CostModelKind::Software &&
           cfg.mode != PeMode::Off;
}

/**
 * Per-instruction cycle charge the cost model adds on top of the
 * base opcode cost for block-safe instructions (which touch neither
 * the memory hierarchy nor the detector): the software model's JIT
 * dilation, zero under the hardware model.  Bulk-charging
 * `blockOut.cycles + n * blockDilation(cfg)` is exactly what the
 * per-step path accumulates through chargeStep for the same
 * instructions.
 */
uint64_t
blockDilation(const PeConfig &cfg)
{
    return softwareCosts(cfg) ? cfg.swCosts.perInstructionDilation : 0;
}

} // namespace

/** All per-run mutable state, plus the engine inputs a run reads. */
struct PathExpanderEngine::RunState
{
    explicit RunState(const PathExpanderEngine &engine)
        : program(engine.program),
          cfg(engine.cfg),
          decoded(engine.decoded),
          detector(engine.detector),
          peActive(cfg.mode != PeMode::Off),
          useBlocks(!cfg.legacyStepLoop),
          dilation(blockDilation(cfg)),
          lease(cfg.layout.memWords),
          memory(*lease),
          btb(cfg.btbParams),
          hierarchy(cfg.mode == PeMode::Cmp ? cfg.numCores : 1,
                    cfg.timing.mem),
          l1Capacity(hierarchy.l1LineCapacity()),
          result(program),
          sinceCounterReset(0),
          rng(cfg.randomSpawnSeed)
    {}

    const isa::Program &program;
    const PeConfig &cfg;
    const sim::DecodedProgram &decoded;
    detect::Detector *const detector;
    const bool peActive;        //!< NT-Paths on: BTB counters matter
    const bool useBlocks;       //!< runBlock tier on (not legacy loop)
    const uint64_t dilation;    //!< blockDilation(cfg)

    /**
     * The memory image, borrowed from the process-wide free list and
     * returned (reset) when the run ends, by any exit.  Everything
     * else here is built fresh for the run.
     */
    mem::MemoryLease lease;
    mem::MainMemory &memory;
    branch::Btb btb;
    mem::MemHierarchy hierarchy;
    const uint32_t l1Capacity;          //!< NT write-set bound, lines
    detect::ObjectRegistry registry;    //!< primary-path object view
    RunResult result;
    sim::Core primary;
    uint64_t sinceCounterReset;
    Rng rng;                            //!< random spawn factor

    /** Watchdog cancel token; null for the vast majority of runs. */
    const std::atomic<bool> *cancel = nullptr;
};

namespace
{

using RunState = PathExpanderEngine::RunState;

/**
 * Watchdog poll, placed once per dispatch in every driver loop: a
 * null check when no deadline is armed (the common case), one relaxed
 * atomic load when one is.
 */
bool
cancelRequested(const RunState &state)
{
    return state.cancel &&
           state.cancel->load(std::memory_order_relaxed);
}

/**
 * Instruction cap for one runBlock dispatch.  Without a watchdog a
 * block may run to the actor's full remaining budget; with one, a
 * single dispatch could otherwise retire hundreds of millions of
 * straight-line instructions (PE off runs branches in-block) before
 * the next poll.  Chunking is bit-identical — the drivers re-enter
 * advance() at the updated pc and all counts accumulate — it only
 * bounds the poll interval, to well under a millisecond.
 */
uint64_t
blockCap(const RunState &state, uint64_t remaining)
{
    constexpr uint64_t pollChunk = uint64_t{1} << 16;
    return state.cancel ? std::min(remaining, pollChunk) : remaining;
}

/**
 * Cycles consumed by one executed step on @p coreId at time @p now:
 * base opcode cost, memory-hierarchy latency, detector check cost and
 * (when applicable) the software-implementation instrumentation cost.
 */
uint64_t
chargeStep(RunState &state, int coreId, const sim::StepResult &res,
           uint64_t now, bool inNt)
{
    const PeConfig &cfg = state.cfg;
    detect::Detector *detector = state.detector;
    uint64_t cycles = sim::opcodeCost(cfg.timing, res.op);

    if (res.memRead || res.memWrite) {
        cycles += state.hierarchy.accessLatency(coreId, res.memAddr,
                                                now + cycles);
        if (detector)
            cycles += detector->memAccessCost();
    }
    if (res.boundsCheck && detector)
        cycles += detector->boundsCheckCost();

    if (softwareCosts(cfg)) {
        const SoftwareCostParams &sw = cfg.swCosts;
        cycles += sw.perInstructionDilation;
        if (res.branch)
            cycles += sw.branchAnalysisCost;
        if (inNt && res.memWrite)
            cycles += sw.ntWriteLogCost;
    }
    return cycles;
}

/**
 * Route one step's events into the object registry view @p registry
 * and the installed detector (reports go to the monitor area).
 */
void
routeEvents(RunState &state, detect::ObjectRegistry &registry,
            mem::MemCtx &ctx, const sim::StepResult &res, bool fromNt,
            uint32_t ntSpawnPc)
{
    if (res.registeredObject)
        registry.registerObject(res.objBase, res.objSize, res.objKind);
    if (res.unregisteredObject)
        registry.unregisterObject(res.objBase);

    detect::Detector *detector = state.detector;
    if (!detector)
        return;
    if (!res.memRead && !res.memWrite && !res.boundsCheck &&
        !res.assertFired) {
        return;
    }

    const isa::Program &program = state.program;
    detect::DetectCtx dctx;
    dctx.program = &program;
    dctx.registry = &registry;
    dctx.monitor = &state.result.monitor;
    dctx.pc = res.pc;
    dctx.fromNtPath = fromNt;
    dctx.ntSpawnPc = ntSpawnPc;
    dctx.dataBase = program.dataBase;
    dctx.heapBase = program.heapBase;
    dctx.heapTop =
        static_cast<uint32_t>(ctx.read(isa::Program::heapPtrCell));
    dctx.stackBase = state.cfg.layout.heapLimit();
    dctx.memWords = state.cfg.layout.memWords;

    if (res.boundsCheck)
        detector->onBoundsCheck(dctx, res.checkAddr);
    if (res.memRead)
        detector->onMemAccess(dctx, res.memAddr, false);
    if (res.memWrite)
        detector->onMemAccess(dctx, res.memAddr, true);
    if (res.assertFired)
        detector->onAssert(dctx, res.assertId);
}

/**
 * NT-Path selection (Section 4.2 plus the random-factor extension):
 * spawn when the non-taken edge's exercise count is below the
 * threshold, or — with randomSpawnFraction > 0 — occasionally even
 * when it is not.  The tagged-checking-function exclusion is a
 * per-PC flag folded into the decoded program (no range scan).
 */
inline bool
shouldSpawn(RunState &state, uint32_t pc, bool ntDir)
{
    const PeConfig &cfg = state.cfg;
    if (state.decoded.noSpawn(pc))
        return false;
    if (state.btb.count(pc, ntDir) < cfg.ntPathCounterThreshold)
        return true;
    return cfg.randomSpawnFraction > 0.0 &&
           state.rng.nextDouble() < cfg.randomSpawnFraction;
}

/** Direction and entry PC of the non-taken edge of a resolved branch. */
bool
ntEdgeDir(const sim::StepResult &res)
{
    return !res.branchTaken;
}

uint32_t
ntEdgeTarget(const sim::StepResult &res)
{
    return res.branchTaken ? res.branchFallthrough : res.branchTarget;
}

/**
 * One path advance() can run: the taken path, or one NT-Path.  The
 * four contexts (taken or NT, inline or on a CMP core) differ only in
 * these fields and in the block budget and spawn hook their driver
 * passes to advance().
 */
struct Actor
{
    sim::Core &core;
    mem::VersionedBuffer *buf;  //!< its store buffer; null: main memory
    sim::IoChannel &io;
    bool allowIo;               //!< false: an I/O syscall ends the path
    detect::ObjectRegistry &registry;   //!< its object-registry view
    int coreId;                 //!< the hierarchy port it charges
    bool nt;                    //!< an NT-Path (else the taken path)
    uint32_t spawnPc;           //!< NT: the branch that spawned it
    uint64_t &clock;            //!< the cycle clock it advances
    uint64_t &count;            //!< instructions it has retired ...
    uint64_t limit;             //!< ... and may retire
};

/** How an actor's path ended: an NtStopCause, for either kind. */
struct PathEnd
{
    NtStopCause cause;
    sim::CrashKind crash = sim::CrashKind::None;
};

/**
 * Run one dispatch for @p a: a block of straight-line instructions,
 * or one surfaced sim::step with its cycle charge, detector events
 * and branch handling.  A block may consume @p budget() effective
 * cycles: under CMP, until the scheduler would pick another core;
 * inline, without bound.  It is only asked for when a block can
 * start.  A taken branch the selection rule picks is handed to
 * @p spawn (the driver's NT-Path launch) after its BTB increment and
 * before the counter-reset check; NT actors never spawn.
 *
 * A taken actor's end is also recorded in the RunResult (instruction
 * limit, crash); MaxLength stands for the limit, ProgramEnd for exit.
 *
 * @return how the actor's path ended, or nullopt while it goes on.
 */
template <class Budget, class Spawn>
std::optional<PathEnd>
advance(RunState &state, Actor &a, Budget &&budget, Spawn &&spawn)
{
    const PeConfig &cfg = state.cfg;
    RunResult &result = state.result;

    if (a.count >= a.limit) {
        if (!a.nt) {
            result.hitInstructionLimit = true;
            result.stopCause = RunStopCause::InstructionLimit;
        }
        return PathEnd{NtStopCause::MaxLength};
    }

    // With PE off, a taken branch's whole effect is opcode cost plus
    // a coverage bit, so blocks run straight through them: pass the
    // run's coverage tracker as the in-block branch sink.  Branch
    // tracing needs every branch to surface instead.  Likewise
    // Chkb/Assert are inert without a detector.
    const bool branchesInBlock =
        !a.nt && !state.peActive && !cfg.recordEdgeTrace;
    const bool inertChecks = state.detector == nullptr;
    if (state.useBlocks &&
        state.decoded.startsBlock(a.core.pc, branchesInBlock,
                                  inertChecks)) {
        // Straight-line stretch: no StepResult, no shared-state
        // mutation (BTB, hierarchy, buffers) until the next surfacing
        // instruction.  Block-safe instructions cannot write the
        // versioned buffer, so the capacity check cannot trip
        // mid-block.
        sim::BlockOut blk = sim::runBlock(
            state.decoded, a.core, blockCap(state, a.limit - a.count),
            budget(), state.dilation,
            branchesInBlock ? &result.coverage : nullptr, inertChecks);
        if (blk.instructions) {
            a.count += blk.instructions;
            a.clock += blk.cycles + state.dilation * blk.instructions;
            if (a.nt) {
                result.ntInstructions += blk.instructions;
            } else {
                state.sinceCounterReset += blk.instructions;
                // The per-step path resets the BTB counters at every
                // interval crossing; with no counter bump inside a
                // block (and, under CMP, no other core observing the
                // BTB within the budget), folding the crossings into
                // one reset plus a modulo is bit-identical.
                if (state.peActive &&
                    state.sinceCounterReset >= cfg.counterResetInterval) {
                    state.btb.resetCounters();
                    state.sinceCounterReset %= cfg.counterResetInterval;
                }
            }
            return std::nullopt;
        }
    }

    mem::MemCtx ctx(state.memory, a.buf);
    sim::StepResult res = sim::step(state.program, a.core, ctx, a.io,
                                    a.allowIo, cfg.layout);
    if (res.crashed()) {
        // On an NT-Path the exception is swallowed, never delivered
        // to the OS.
        if (!a.nt) {
            result.programCrashed = true;
            result.programCrashKind = res.crash;
            result.stopCause = RunStopCause::Crashed;
        }
        return PathEnd{NtStopCause::Crash, res.crash};
    }
    if (res.unsafeEvent) {
        pe_assert(a.nt, "unsafe event on the taken path");
        return PathEnd{NtStopCause::UnsafeEvent};
    }

    ++a.count;
    if (a.nt)
        ++result.ntInstructions;
    else
        ++state.sinceCounterReset;
    a.clock += chargeStep(state, a.coreId, res, a.clock, a.nt);
    routeEvents(state, a.registry, ctx, res, a.nt, a.spawnPc);

    if (res.exited)
        return PathEnd{NtStopCause::ProgramEnd};

    if (a.nt) {
        if (res.branch) {
            bool followed = res.branchTaken;
            if (cfg.followNonTakenInNt &&
                state.btb.count(res.pc, !res.branchTaken) == 0) {
                // Ablation: redirect onto the cold non-taken edge.
                followed = !res.branchTaken;
                a.core.pc = followed ? res.branchTarget
                                     : res.branchFallthrough;
                state.btb.increment(res.pc, followed);
            }
            result.coverage.onNtEdge(res.pc, followed);
        }
        if (a.buf->numLines() > state.l1Capacity)
            return PathEnd{NtStopCause::CapacityOverflow};
        return std::nullopt;
    }

    if (res.branch) {
        result.coverage.onTakenEdge(res.pc, res.branchTaken);
        if (cfg.recordEdgeTrace)
            result.recordBranchEvent(res.pc, res.branchTaken,
                                     cfg.edgeTraceCap);
        if (state.peActive) {
            state.btb.increment(res.pc, res.branchTaken);
            if (shouldSpawn(state, res.pc, ntEdgeDir(res)))
                spawn(res);
        }
    }
    if (state.peActive &&
        state.sinceCounterReset >= cfg.counterResetInterval) {
        state.btb.resetCounters();
        state.sinceCounterReset = 0;
    }
    return std::nullopt;
}

/** Block budget of the inline actors, which no other core waits on. */
constexpr auto unbounded = [] { return UINT64_MAX; };

/** Spawn hook of the actors that never spawn (NT-Paths). */
constexpr auto noSpawn = [](const sim::StepResult &) {};

/**
 * Execute one NT-Path inline on the primary core (standard
 * configuration, Figure 4(a)).
 *
 * The caller has already decided to spawn: the register checkpoint is
 * taken here, execution redirects onto the non-taken edge with the
 * NT-entry predicate optionally armed, all stores go to a fresh
 * versioned buffer, and on termination everything but the monitor
 * area rolls back.  Its cycles are charged to the single core's clock,
 * serially.
 */
void
exploreNtInline(RunState &state, const sim::StepResult &branchRes)
{
    const PeConfig &cfg = state.cfg;
    RunResult &result = state.result;
    sim::Core &core = state.primary;

    const bool sw = softwareCosts(cfg);
    result.cycles +=
        sw ? cfg.swCosts.checkpointCost : cfg.timing.spawnOverhead;

    auto checkpoint = checkpoint::take(core);

    const bool ntDir = ntEdgeDir(branchRes);
    core.pc = ntEdgeTarget(branchRes);
    core.ntEntryPred = cfg.variableFixing;

    mem::VersionedBuffer buf(1);
    detect::ObjectRegistry overlay(&state.registry);

    // With the sandboxIo extension the NT-Path runs against a
    // speculative copy of the I/O channel, discarded at squash; the
    // copy is only made when that extension is on.
    sim::IoChannel specIo;
    if (cfg.sandboxIo)
        specIo = result.io;

    result.coverage.onNtEdge(branchRes.pc, ntDir);

    NtPathRecord record;
    record.spawnBranchPc = branchRes.pc;
    record.spawnEdgeTaken = ntDir;

    Actor nt{core, &buf, cfg.sandboxIo ? specIo : result.io,
             cfg.sandboxIo, overlay, /*coreId=*/0, /*nt=*/true,
             branchRes.pc, result.cycles, record.length,
             cfg.maxNtPathLength};
    for (;;) {
        if (cancelRequested(state)) {
            // The whole run is being cancelled; squash this NT-Path
            // now so the caller sees a consistent (rolled-back)
            // architected state.
            record.cause = NtStopCause::HostAbort;
            break;
        }
        if (auto end = advance(state, nt, unbounded, noSpawn)) {
            record.cause = end->cause;
            record.crashKind = end->crash;
            break;
        }
    }

    // Squash: gang-invalidate the Vtag lines, restore the checkpoint,
    // drop the registry overlay.  Only the monitor area survives.
    if (sw) {
        result.cycles += cfg.swCosts.restoreRegsCost +
                         cfg.swCosts.ntRestorePerWord * buf.numWords();
    } else {
        result.cycles += cfg.timing.squashOverhead;
    }
    checkpoint::restore(core, checkpoint);

    result.ntRecords.push_back(record);
}

/** Off and Standard: the taken path on one core, NT-Paths inline. */
void
runInline(RunState &state)
{
    RunResult &result = state.result;
    Actor taken{state.primary, nullptr, result.io, /*allowIo=*/true,
                state.registry, /*coreId=*/0, /*nt=*/false, 0,
                result.cycles, result.takenInstructions,
                state.cfg.maxTakenInstructions};
    auto spawn = [&](const sim::StepResult &res) {
        // Exercise counters are also bumped at the entry of an
        // NT-Path (Section 4.2).
        state.btb.increment(res.pc, ntEdgeDir(res));
        ++result.ntPathsSpawned;
        exploreNtInline(state, res);
    };
    for (;;) {
        if (cancelRequested(state)) {
            result.aborted = true;
            result.stopCause = RunStopCause::Deadline;
            break;
        }
        if (advance(state, taken, unbounded, spawn))
            break;
    }
}

/** One NT-Path in flight (running on a core or queued). */
struct NtTask
{
    sim::Core cpu;
    uint32_t spawnPc = 0;
    bool ntDir = false;
    uint64_t spawnTime = 0;         //!< primary time at spawn
    std::unique_ptr<mem::VersionedBuffer> buf;
    std::unique_ptr<detect::ObjectRegistry> overlay;
    std::unique_ptr<sim::IoChannel> specIo; //!< sandboxIo extension
    int core = -1;                  //!< executing core, or -1 if queued
    uint64_t length = 0;
    bool done = false;
    NtStopCause cause = NtStopCause::MaxLength;
    sim::CrashKind crashKind = sim::CrashKind::None;
};

/** One uncommitted taken-path segment. */
struct Segment
{
    std::unique_ptr<mem::VersionedBuffer> buf;
    NtTask *sibling = nullptr;      //!< must squash before we commit
};

/** Scheduler and version-management state of one CMP run. */
struct CmpState
{
    std::vector<uint64_t> coreTime;             //!< per-core clocks
    std::vector<NtTask *> onCore;               //!< core -> task
    std::vector<std::unique_ptr<NtTask>> tasks; //!< all spawned tasks
    std::deque<NtTask *> queue;                 //!< spawned, no core yet
    std::deque<Segment> segments;               //!< oldest first
    size_t outstanding = 0;                     //!< tasks not yet done
    int nextPathId = 1;

    int allocPathId()
    {
        int id = nextPathId;
        nextPathId = nextPathId % 255 + 1;  // 8-bit IDs, 0 reserved
        return id;
    }

    /**
     * Cycles core @p c may run before the least-advanced-core
     * scheduler would pick another core (lower-indexed cores win
     * clock ties); UINT64_MAX when no other core is active.  The
     * other cores' clocks are frozen while @p c runs, so a block
     * stopped at this budget retires every instruction at the same
     * position in the global step order as the per-step loop — in
     * particular, the instruction count at a later force-squash is
     * identical.
     */
    uint64_t budget(int c) const
    {
        uint64_t bound = UINT64_MAX;
        for (int j = 0; j < static_cast<int>(coreTime.size()); ++j) {
            if (j == c || (j > 0 && !onCore[j]))
                continue;
            bound = std::min(bound,
                             j < c ? coreTime[j] - 1 : coreTime[j]);
        }
        return bound == UINT64_MAX ? bound : bound - coreTime[c];
    }
};

/** The CMP option: NT-Paths on idle cores under TLS versioning. */
void
runCmp(RunState &state)
{
    const PeConfig &cfg = state.cfg;
    RunResult &result = state.result;
    sim::Core &primary = state.primary;

    CmpState cmp;
    cmp.coreTime.assign(cfg.numCores, 0);
    cmp.onCore.assign(cfg.numCores, nullptr);

    auto currentPrimaryBuf = [&]() -> mem::VersionedBuffer * {
        return cmp.segments.empty() ? nullptr
                                    : cmp.segments.back().buf.get();
    };

    // Fix up children when a committed segment's buffer disappears.
    auto reparentChildrenOf = [&](mem::VersionedBuffer *dead,
                                  mem::VersionedBuffer *replacement) {
        for (auto &seg : cmp.segments) {
            if (seg.buf->parent() == dead)
                seg.buf->setParent(replacement);
        }
        for (auto &t : cmp.tasks) {
            if (!t->done && t->buf->parent() == dead)
                t->buf->setParent(replacement);
        }
    };

    // Commit every leading segment whose tokens are available.  A
    // squash token only appears when an NT-Path finishes, so only
    // finishNt (and the final drain) can commit anything.
    auto tryCommit = [&]() {
        while (!cmp.segments.empty()) {
            Segment &front = cmp.segments.front();
            if (front.sibling && !front.sibling->done)
                break;  // waiting for the squash token
            front.buf->commitTo(state.memory);
            reparentChildrenOf(front.buf.get(), front.buf->parent());
            cmp.segments.pop_front();
        }
    };

    // Called exactly once per task, while it is not yet done.
    auto finishNt = [&](NtTask &task, NtStopCause cause,
                        sim::CrashKind crashKind) {
        task.done = true;
        task.cause = cause;
        task.crashKind = crashKind;
        --cmp.outstanding;

        NtPathRecord record;
        record.spawnBranchPc = task.spawnPc;
        record.spawnEdgeTaken = task.ntDir;
        record.length = task.length;
        record.cause = cause;
        record.crashKind = crashKind;
        result.ntRecords.push_back(record);

        if (task.core >= 0) {
            int c = task.core;
            // Gang-invalidation of the path's tagged lines.
            cmp.coreTime[c] += cfg.timing.squashOverhead;
            cmp.onCore[c] = nullptr;
            task.core = -1;
            // Hand the freed core to the oldest queued NT-Path.
            while (!cmp.queue.empty()) {
                NtTask *next = cmp.queue.front();
                cmp.queue.pop_front();
                if (next->done)
                    continue;
                next->core = c;
                cmp.onCore[c] = next;
                cmp.coreTime[c] =
                    std::max(cmp.coreTime[c], next->spawnTime) +
                    cfg.timing.spawnOverhead;
                break;
            }
        }
        tryCommit();
    };

    // Squash the oldest NT-Path blocking the segment chain.
    auto forceSquashOldest = [&]() {
        for (auto &seg : cmp.segments) {
            if (seg.sibling && !seg.sibling->done) {
                finishNt(*seg.sibling, NtStopCause::ForcedSquash,
                         sim::CrashKind::None);
                return;
            }
        }
    };

    auto spawn = [&](const sim::StepResult &branchRes) {
        if (cmp.outstanding >= cfg.maxNumNtPaths) {
            ++result.ntPathsSkippedBusy;
            return;
        }
        bool ntDir = ntEdgeDir(branchRes);
        state.btb.increment(branchRes.pc, ntDir);
        ++result.ntPathsSpawned;
        result.coverage.onNtEdge(branchRes.pc, ntDir);

        auto task = std::make_unique<NtTask>();
        task->cpu = primary;  // fast register copy, core to core
        task->cpu.pc = ntEdgeTarget(branchRes);
        task->cpu.ntEntryPred = cfg.variableFixing;
        task->spawnPc = branchRes.pc;
        task->ntDir = ntDir;
        task->spawnTime = cmp.coreTime[0];
        task->buf =
            std::make_unique<mem::VersionedBuffer>(cmp.allocPathId());
        task->buf->setParent(currentPrimaryBuf());
        task->overlay =
            std::make_unique<detect::ObjectRegistry>(&state.registry);
        if (cfg.sandboxIo) {
            task->specIo =
                std::make_unique<sim::IoChannel>(result.io);
        }

        // Cut the taken path: a new segment begins after the branch;
        // its sibling is the NT-Path just spawned.
        Segment seg;
        seg.buf =
            std::make_unique<mem::VersionedBuffer>(cmp.allocPathId());
        seg.buf->setParent(currentPrimaryBuf());
        seg.sibling = task.get();
        cmp.segments.push_back(std::move(seg));

        // The primary core pays the register-copy spawn overhead.
        cmp.coreTime[0] += cfg.timing.spawnOverhead;

        // Place on an idle core, or queue in a free thread context.
        int idle = -1;
        for (int c = 1; c < cfg.numCores; ++c) {
            if (!cmp.onCore[c]) {
                idle = c;
                break;
            }
        }
        if (idle >= 0) {
            task->core = idle;
            cmp.onCore[idle] = task.get();
            cmp.coreTime[idle] = std::max(cmp.coreTime[idle],
                                          cmp.coreTime[0]);
        } else {
            cmp.queue.push_back(task.get());
        }
        cmp.tasks.push_back(std::move(task));
        ++cmp.outstanding;

        if (cmp.segments.size() > cfg.maxSegmentDepth)
            forceSquashOldest();
    };

    for (;;) {
        if (cancelRequested(state)) {
            result.aborted = true;
            result.stopCause = RunStopCause::Deadline;
            break;
        }
        // Advance the least-advanced active core.
        int next = 0;
        for (int c = 1; c < cfg.numCores; ++c) {
            if (cmp.onCore[c] && cmp.coreTime[c] < cmp.coreTime[next])
                next = c;
        }
        auto budget = [&] { return cmp.budget(next); };
        if (next == 0) {
            Actor taken{primary, currentPrimaryBuf(), result.io,
                        /*allowIo=*/true, state.registry, 0,
                        /*nt=*/false, 0, cmp.coreTime[0],
                        result.takenInstructions,
                        cfg.maxTakenInstructions};
            if (advance(state, taken, budget, spawn))
                break;
        } else {
            NtTask &task = *cmp.onCore[next];
            Actor nt{task.cpu, task.buf.get(),
                     task.specIo ? *task.specIo : result.io,
                     cfg.sandboxIo, *task.overlay, next, /*nt=*/true,
                     task.spawnPc, cmp.coreTime[next], task.length,
                     cfg.maxNtPathLength};
            if (auto end = advance(state, nt, budget, noSpawn))
                finishNt(task, end->cause, end->crash);
        }
    }

    // Program ended: outstanding NT-Paths are squashed and the
    // remaining segments drain into memory.
    for (auto &t : cmp.tasks) {
        if (!t->done)
            finishNt(*t, NtStopCause::ForcedSquash,
                     sim::CrashKind::None);
    }
    tryCommit();
    pe_assert(cmp.segments.empty(), "uncommitted segments at exit");

    result.cycles = cmp.coreTime[0];
    result.coreCycles = cmp.coreTime;
}

} // namespace

PathExpanderEngine::PathExpanderEngine(const isa::Program &prog,
                                       const PeConfig &config,
                                       detect::Detector *det)
    : program(prog), cfg(config), detector(det),
      decoded(prog, config.timing)
{
    pe_assert(cfg.numCores >= 1, "need at least one core");
    pe_assert(cfg.maxNtPathLength > 0, "MaxNTPathLength must be positive");

    // Resolve the tagged checking functions (Section 6.2) to code
    // ranges once, folded into per-PC no-spawn flags.
    for (const auto &name : cfg.noSpawnFuncs) {
        for (const auto &f : program.funcs) {
            if (f.name == name)
                decoded.markNoSpawn(f.startPc, f.endPc);
        }
    }
}

RunResult
PathExpanderEngine::run(const std::vector<int32_t> &input,
                        const std::atomic<bool> *cancel)
{
    RunState state(*this);
    state.cancel = cancel;
    state.result.io.input = input;
    sim::loadProgram(program, state.memory, state.primary, cfg.layout);

    if (cfg.mode == PeMode::Cmp)
        runCmp(state);
    else
        runInline(state);

    state.result.l2ContentionCycles =
        state.hierarchy.l2Port().contentionCycles();
    if (state.result.coreCycles.empty())
        state.result.coreCycles.push_back(state.result.cycles);

    state.result.memoryDigest = state.memory.digest();
    return std::move(state.result);
}

uint64_t
baselineCycles(const isa::Program &program,
               const std::vector<int32_t> &input,
               const sim::MachineLayout &layout)
{
    PeConfig cfg = PeConfig::forMode(PeMode::Off);
    cfg.layout = layout;
    PathExpanderEngine engine(program, cfg, nullptr);
    return engine.run(input).cycles;
}

} // namespace pe::core
