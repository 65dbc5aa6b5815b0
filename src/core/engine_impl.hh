/**
 * @file
 * Shared internal state and helpers of the PathExpander engine,
 * used by both the inline (Off/Standard) and the CMP drivers.
 *
 * This is an implementation header (included only by engine.cc and
 * cmp.cc), not part of the public API.
 */

#ifndef PE_CORE_ENGINE_IMPL_HH
#define PE_CORE_ENGINE_IMPL_HH

#include <algorithm>
#include <utility>

#include "src/branch/btb.hh"
#include "src/core/engine.hh"
#include "src/mem/hierarchy.hh"
#include "src/mem/main_memory.hh"
#include "src/sim/interpreter.hh"
#include "src/support/rng.hh"

namespace pe::core
{

/** All per-run mutable state. */
struct PathExpanderEngine::RunState
{
    RunState(const isa::Program &program, const PeConfig &config)
        : lease(config.layout.memWords),
          memory(*lease),
          btb(config.btbParams),
          hierarchy(config.mode == PeMode::Cmp ? config.numCores : 1,
                    config.timing.mem),
          result(program),
          sinceCounterReset(0),
          rng(config.randomSpawnSeed)
    {}

    /**
     * The memory image, borrowed from the process-wide free list and
     * returned (reset) when the run ends, by any exit.  Everything
     * else here is built fresh for the run.
     */
    mem::MemoryLease lease;
    mem::MainMemory &memory;
    branch::Btb btb;
    mem::MemHierarchy hierarchy;
    detect::ObjectRegistry registry;    //!< primary-path object view
    RunResult result;
    sim::Core primary;
    uint64_t sinceCounterReset;
    Rng rng;                            //!< random spawn factor

    /** Watchdog cancel token; null for the vast majority of runs. */
    const std::atomic<bool> *cancel = nullptr;
};

namespace engine_detail
{

/**
 * Watchdog poll, placed once per execution-loop dispatch: a null
 * check when no deadline is armed (the common case), one relaxed
 * atomic load when one is.
 */
inline bool
cancelRequested(const PathExpanderEngine::RunState &state)
{
    return state.cancel &&
           state.cancel->load(std::memory_order_relaxed);
}

/**
 * Instruction cap for one runBlock dispatch.  Without a watchdog a
 * block may run to the caller's full remaining budget; with one, a
 * single dispatch could otherwise retire hundreds of millions of
 * straight-line instructions (PE off runs branches in-block) before
 * the next poll.  Chunking is bit-identical — the engine loops
 * re-enter the block path at the updated pc and all counts
 * accumulate — it only bounds the poll interval, to well under a
 * millisecond.
 */
inline uint64_t
blockCap(const PathExpanderEngine::RunState &state, uint64_t remaining)
{
    constexpr uint64_t pollChunk = uint64_t{1} << 16;
    return state.cancel ? std::min(remaining, pollChunk) : remaining;
}

/** True when the software (PIN) cost model applies to this run. */
inline bool
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
 * per-step loop accumulates through chargeStep for the same
 * instructions.
 */
inline uint64_t
blockDilation(const PeConfig &cfg)
{
    return softwareCosts(cfg) ? cfg.swCosts.perInstructionDilation : 0;
}

/**
 * Cycles consumed by one executed step on @p coreId at time @p now:
 * base opcode cost, memory-hierarchy latency, detector check cost and
 * (when applicable) the software-implementation instrumentation cost.
 */
uint64_t chargeStep(const isa::Program &program, const PeConfig &cfg,
                    PathExpanderEngine::RunState &state,
                    detect::Detector *detector, int coreId,
                    const sim::StepResult &res, uint64_t now, bool inNt);

/**
 * Route one step's events into the object registry view @p registry
 * and the installed @p detector (reports go to the monitor area).
 */
void routeEvents(const isa::Program &program, const PeConfig &cfg,
                 PathExpanderEngine::RunState &state,
                 detect::Detector *detector,
                 detect::ObjectRegistry &registry, mem::MemCtx &ctx,
                 const sim::StepResult &res, bool fromNt,
                 uint32_t ntSpawnPc);

/**
 * NT-Path selection (Section 4.2 plus the random-factor extension):
 * spawn when the non-taken edge's exercise count is below the
 * threshold, or — with randomSpawnFraction > 0 — occasionally even
 * when it is not.  The tagged-checking-function exclusion is a
 * per-PC flag folded into the decoded program (no range scan).
 */
inline bool
shouldSpawn(const PeConfig &cfg, PathExpanderEngine::RunState &state,
            const sim::DecodedProgram &decoded, uint32_t pc, bool ntDir)
{
    if (decoded.noSpawn(pc))
        return false;
    // Static spawn pre-filter: edges marked doomed at construction
    // (immediate-syscall NT continuations) are never worth a spawn.
    // Flags are only ever set when cfg.spawnPreFilter is on.
    if (decoded.doomedEdge(pc, ntDir))
        return false;
    if (state.btb.count(pc, ntDir) < cfg.ntPathCounterThreshold)
        return true;
    return cfg.randomSpawnFraction > 0.0 &&
           state.rng.nextDouble() < cfg.randomSpawnFraction;
}

/** Direction and entry PC of the non-taken edge of a resolved branch. */
inline bool
ntEdgeDir(const sim::StepResult &res)
{
    return !res.branchTaken;
}

inline uint32_t
ntEdgeTarget(const sim::StepResult &res)
{
    return res.branchTaken ? res.branchFallthrough : res.branchTarget;
}

} // namespace engine_detail

} // namespace pe::core

#endif // PE_CORE_ENGINE_IMPL_HH
