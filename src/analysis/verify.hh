/**
 * @file
 * Static program verifier (linter) over the CFG/dataflow framework.
 *
 * The verifier runs inside the `pelint` tool and when `pe_run` loads
 * a program; engines do not run it.  It never aborts: malformed programs are legal inputs to the simulator
 * (the interpreter raises BadJump and friends at runtime), so every
 * finding is reported as a structured Diagnostic and the caller
 * decides what to do with error-severity ones.
 *
 * Diagnostic classes:
 *
 *   InvalidTarget    (error)  branch/jump/call immediate outside code
 *   FallOffEnd       (error)  execution can run off the program end
 *   UnreachableBlock (warn)   code the entry can never reach
 *   DefBeforeUse     (warn)   register read before any definition
 *   UnbalancedStack  (warn)   `jr ra` with a nonzero net sp offset
 *   UnpairedObj      (warn)   stack-array Regobj never Unregobj'd
 *   SplitFixPair     (warn)   control enters a Pfix/Pfixst pair at
 *                             the Pfixst (targeting the Pfix is the
 *                             normal false-edge fix label)
 */

#ifndef PE_ANALYSIS_VERIFY_HH
#define PE_ANALYSIS_VERIFY_HH

#include <cstdint>
#include <string>
#include <vector>

#include "src/isa/program.hh"

namespace pe::analysis
{

enum class DiagCode : uint8_t
{
    // Verifier findings.
    InvalidTarget,
    FallOffEnd,
    UnreachableBlock,
    DefBeforeUse,
    UnbalancedStack,
    UnpairedObj,
    SplitFixPair,
    // Fix-set checker findings (src/analysis/fixcheck.hh).
    MalformedFixPair,
    MissingFix,
    ExtraFix,
    WrongFixValue,
    WrongFixHome,

    NumDiagCodes
};

enum class Severity : uint8_t { Warning, Error };

const char *diagCodeName(DiagCode code);
const char *severityName(Severity sev);

/** One verifier (or fix-set checker) finding. */
struct Diagnostic
{
    DiagCode code = DiagCode::InvalidTarget;
    Severity severity = Severity::Warning;
    uint32_t pc = 0;
    std::string message;
};

struct VerifyReport
{
    std::vector<Diagnostic> diagnostics;

    size_t errorCount() const;
    size_t warningCount() const;
    bool hasErrors() const { return errorCount() > 0; }
};

/** Render "error: <msg> at pc N (func:line)" for a finding. */
std::string formatDiagnostic(const isa::Program &program,
                             const Diagnostic &diag);

/** Run every verifier pass over @p program. */
VerifyReport verifyProgram(const isa::Program &program);

/**
 * The one identity of a program image: FNV-1a over everything that
 * affects its execution — name, encoded instructions, entry, data
 * and heap bases, the initial data contents, and each function's name
 * and code range (which `noSpawnFuncs` resolves through).  Explorer
 * checkpoints and fleet Hello/Join validate against it.
 */
uint64_t programFingerprint(const isa::Program &program);

} // namespace pe::analysis

#endif // PE_ANALYSIS_VERIFY_HH
