/**
 * @file
 * The pre-decoded program and the block-stepped execution loop.
 *
 * Every simulated instruction used to pay the full `sim::step()` tax:
 * a cold switch over `isa::Opcode`, per-step branch-target
 * revalidation, construction of a fat `StepResult` and an engine
 * round-trip even when nothing detector-relevant happened.  The
 * decode layer moves everything that is knowable once per program out
 * of the per-step path:
 *
 *  - each `isa::Instruction` is classified into a HandlerKind once;
 *  - static branch/jump targets are validated at decode time;
 *  - the per-opcode base cycle cost is precomputed per instruction;
 *  - the engine's no-spawn function ranges are folded into a per-PC
 *    flag, so the spawn decision is one bit test instead of a linear
 *    range scan.
 *
 * `runBlock()` then executes straight-line work — ALU, immediates,
 * unconditional jumps, predicated fixes — in a tight dispatch loop
 * (computed goto under GCC/Clang, switch fallback) without
 * materializing a StepResult, and stops *before* the first
 * instruction the engine must observe: conditional branches, memory
 * ops, detector ops (Chkb/Assert/Regobj/Unregobj/Alloc), syscalls and
 * anything that can crash.  Those surface to the unchanged slim-path
 * semantics (`sim::step` plus the engine's event routing), so results
 * are bit-identical to the legacy per-step loop by construction.
 *
 * One opt-in extension of that boundary: when PathExpander is off, a
 * conditional branch's entire architectural effect is its opcode cost
 * plus one branch-coverage bit — no BTB update, no spawn decision, no
 * detector or software-cost interaction.  A caller in that regime may
 * pass a BranchCoverage sink and the loop executes statically valid
 * conditional branches in-block too, recording edges exactly as the
 * engine would.  With no sink (any PE-on context), branches surface
 * as before.
 */

#ifndef PE_SIM_DECODED_HH
#define PE_SIM_DECODED_HH

#include <cstdint>
#include <vector>

#include "src/isa/program.hh"
#include "src/sim/core.hh"
#include "src/sim/timing.hh"

namespace pe::coverage
{
class BranchCoverage;
}

namespace pe::sim
{

/**
 * How the block loop executes one instruction.  `Surface` marks
 * everything the loop refuses to execute (the engine runs it through
 * `sim::step` instead): memory traffic, conditional branches,
 * detector hooks, syscalls, statically invalid jump targets and
 * unknown opcodes.  The enumerators are dense: they index the
 * computed-goto table.
 */
enum class HandlerKind : uint8_t
{
    Surface = 0,
    Nop,
    Add, Sub, Mul, Div, Rem,
    And, Or, Xor, Shl, Shr, Sra,
    Slt, Sle, Seq, Sne, Sgt, Sge,
    Addi, Andi, Ori, Xori, Shli, Shri, Slti, Li,
    Jmp,        //!< statically valid target only
    Jal,        //!< statically valid target only
    Jr,         //!< target checked at run time; invalid surfaces
    Pfix,       //!< predicated fix: executes only at an NT entrance
    Pfixst,     //!< surfaces while the predicate is set (memory write)
    // Detector hooks that are architecturally inert when no detector
    // is attached (chargeStep and routeEvents both gate on one):
    // in-block they retire as opcode-cost NOPs iff the caller says
    // the run has no detector; otherwise they surface.
    Chkb, Assert,
    // Conditional branches (statically valid target only).  They
    // execute in-block only when the caller provides a
    // branch-coverage sink, and surface otherwise.
    Beq, Bne, Blt, Bge, Ble, Bgt,
    NumHandlerKinds
};

/** One pre-decoded instruction (16 bytes; hot-loop friendly). */
struct DecodedInst
{
    int32_t imm = 0;
    uint32_t cost = 0;          //!< opcodeCost(timing, op), precomputed
    HandlerKind kind = HandlerKind::Surface;
    uint8_t rd = 0;
    uint8_t rs1 = 0;
    uint8_t rs2 = 0;
    uint8_t flags = 0;

    static constexpr uint8_t FlagNoSpawn = 1u << 0;
    /** Static priors: spawning this branch's fall-through-direction
     *  NT-Path is provably useless (immediate syscall). */
    static constexpr uint8_t FlagDoomedFall = 1u << 1;
    /** Same, for the taken-direction NT-Path. */
    static constexpr uint8_t FlagDoomedTaken = 1u << 2;
};

// The decoded array is the hottest data structure in the simulator:
// runBlock streams it.  Pin the 16-byte layout
// so a future field can't silently fatten every program image and
// halve the instructions per cache line.
static_assert(sizeof(DecodedInst) == 16,
              "DecodedInst must stay 16 bytes (hot-loop array)");

/**
 * A program decoded once per engine against a fixed TimingConfig.
 * Read-only after construction (plus markNoSpawn calls), so one
 * instance is safely shared by every run of the owning engine.
 */
class DecodedProgram
{
  public:
    DecodedProgram() = default;

    /** Decode @p program's code against @p timing. */
    DecodedProgram(const isa::Program &program,
                   const TimingConfig &timing);

    /** Fold a no-spawn function range [@p startPc, @p endPc) in. */
    void markNoSpawn(uint32_t startPc, uint32_t endPc);

    /** True when branches at @p pc must not spawn NT-Paths. */
    bool noSpawn(uint32_t pc) const
    {
        return pc < insts.size() &&
               (insts[pc].flags & DecodedInst::FlagNoSpawn) != 0;
    }

    /** Mark @p pc's @p takenDir NT edge as statically doomed. */
    void markDoomedEdge(uint32_t pc, bool takenDir)
    {
        if (pc < insts.size()) {
            insts[pc].flags |= takenDir ? DecodedInst::FlagDoomedTaken
                                        : DecodedInst::FlagDoomedFall;
        }
    }

    /** True when the spawn pre-filter rejects @p pc's @p takenDir edge. */
    bool doomedEdge(uint32_t pc, bool takenDir) const
    {
        const uint8_t flag = takenDir ? DecodedInst::FlagDoomedTaken
                                      : DecodedInst::FlagDoomedFall;
        return pc < insts.size() && (insts[pc].flags & flag) != 0;
    }

    /**
     * True when the instruction at @p pc can start a block — the
     * engine's cheap pre-check that skips the runBlock call entirely
     * on surfacing-dense stretches (a zero-instruction call costs a
     * prologue and a writeback for nothing).  runBlock itself remains
     * correct without it.  @p execBranches mirrors whether the caller
     * will pass a branch-coverage sink and @p inertChecks whether the
     * run has no detector: only then do conditional branches
     * (respectively Chkb/Assert) start a block.
     */
    bool startsBlock(uint32_t pc, bool execBranches = false,
                     bool inertChecks = false) const
    {
        if (pc >= insts.size())
            return false;
        HandlerKind k = insts[pc].kind;
        if (k == HandlerKind::Surface)
            return false;
        if (k < HandlerKind::Chkb)
            return true;
        return k < HandlerKind::Beq ? inertChecks : execBranches;
    }

    uint32_t size() const { return static_cast<uint32_t>(insts.size()); }
    const DecodedInst *data() const { return insts.data(); }

  private:
    std::vector<DecodedInst> insts;
};

/** What one runBlock call retired in bulk. */
struct BlockOut
{
    uint64_t instructions = 0;  //!< straight-line instructions executed
    uint64_t cycles = 0;        //!< their summed base opcode cost
};

/**
 * Execute consecutive block-safe instructions starting at
 * @p core.pc, stopping *before* the first instruction that must
 * surface to the engine and after at most @p maxInstructions.
 *
 * The returned cycle total is the exact sum of the executed
 * instructions' base opcode costs — the same value the legacy loop
 * accumulates through `chargeStep` for these instructions, which add
 * no memory-hierarchy or detector time.  The engine adds the
 * software-cost-model per-instruction dilation on top when that
 * model is active.
 *
 * @p cycleBudget bounds the *effective* cycles (base cost plus
 * @p perInstExtra per instruction) the block may consume: an
 * instruction starts only while the effective cycles retired so far
 * are <= the budget.  This is how the CMP driver reproduces its
 * least-advanced-core scheduling exactly: a core may keep executing
 * precisely while its clock would still make it the scheduler's pick,
 * and the other cores' clocks are frozen while it runs, so a budget
 * computed once at dispatch is exact, not conservative.  The first
 * instruction is always within budget (the caller was just picked).
 *
 * On return `core.pc` rests on the first unexecuted instruction and
 * the NT-entry predicate has been maintained exactly as the per-step
 * loop would have (cleared at the first non-fixing instruction;
 * leading Pfix instructions execute their writes).
 *
 * @p branchSink, when non-null, opts conditional branches into the
 * block: each executed branch records its edge via
 * `branchSink->onTakenEdge(pc, taken)` and redirects, charging only
 * its base opcode cost.  Valid only in a regime where that is the
 * branch's whole effect — PathExpander off, where the engine neither
 * bumps BTB counters nor considers spawning.  When null (every PE-on
 * caller), branches surface untouched.
 *
 * @p inertChecks, when true, asserts the run carries no detector, in
 * which case Chkb and Assert retire in-block as opcode-cost NOPs:
 * every consumer of their events (detector latency in chargeStep,
 * onBoundsCheck/onAssert dispatch in routeEvents) is gated on a
 * detector being present.  When false they surface.
 */
BlockOut runBlock(const DecodedProgram &decoded, Core &core,
                  uint64_t maxInstructions,
                  uint64_t cycleBudget = UINT64_MAX,
                  uint64_t perInstExtra = 0,
                  coverage::BranchCoverage *branchSink = nullptr,
                  bool inertChecks = false);

} // namespace pe::sim

#endif // PE_SIM_DECODED_HH
