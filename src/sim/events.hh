/**
 * @file
 * The event record produced by executing one instruction.
 *
 * The interpreter is policy-free: it reports everything interesting
 * that happened (branch resolution, memory traffic, detector hooks,
 * crashes, I/O attempts) and the PathExpander engine decides what to
 * do (update BTB counters, spawn NT-Paths, invoke detectors, charge
 * cache latencies, terminate paths).
 */

#ifndef PE_SIM_EVENTS_HH
#define PE_SIM_EVENTS_HH

#include <cstdint>

#include "src/isa/opcode.hh"
#include "src/isa/program.hh"

namespace pe::sim
{

/** Why an instruction crashed. */
enum class CrashKind : uint8_t
{
    None = 0,
    DivByZero,
    BadAddress,     //!< load/store outside the address space, or a
                    //!< Regobj base below the low guard
    BadJump,        //!< control transfer outside the code segment
    HeapOverflow,   //!< bump allocator exhausted
};

const char *crashKindName(CrashKind kind);

/** Everything the engine needs to know about one executed step. */
struct StepResult
{
    /** PC of the instruction that executed. */
    uint32_t pc = 0;
    isa::Opcode op = isa::Opcode::Nop;

    /** Crash: the instruction faulted; PC was not advanced. */
    CrashKind crash = CrashKind::None;
    bool crashed() const { return crash != CrashKind::None; }

    /** SYS Exit executed: the program (or NT-Path) reached its end. */
    bool exited = false;

    /**
     * A non-Exit syscall was attempted while I/O was disallowed
     * (i.e. on an NT-Path): the unsafe event of Section 3.2.  The
     * side effect was NOT performed and PC was not advanced.
     */
    bool unsafeEvent = false;

    /** Conditional branch resolved. */
    bool branch = false;
    bool branchTaken = false;
    uint32_t branchTarget = 0;      //!< target if taken
    uint32_t branchFallthrough = 0; //!< pc+1

    /** Data memory traffic (for cache timing and watchpoint checks). */
    bool memRead = false;
    bool memWrite = false;
    uint32_t memAddr = 0;

    /** Compiler-inserted bounds-check hook (Chkb). */
    bool boundsCheck = false;
    uint32_t checkAddr = 0;

    /** Assertion evaluated false. */
    bool assertFired = false;
    int32_t assertId = 0;

    /** Object (un)registration for the dynamic checkers. */
    bool registeredObject = false;
    bool unregisteredObject = false;
    uint32_t objBase = 0;
    uint32_t objSize = 0;
    isa::ObjectKind objKind = isa::ObjectKind::GlobalArray;

    /** Heap allocation performed. */
    bool allocated = false;
    uint32_t allocBase = 0;
    uint32_t allocSize = 0;
};

} // namespace pe::sim

#endif // PE_SIM_EVENTS_HH
