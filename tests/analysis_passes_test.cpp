/**
 * @file
 * Tests for the static-analysis subsystem: CFG construction,
 * dominators, liveness and reaching-definitions oracles on hand-built
 * programs; the program verifier's diagnostic classes on adversarial
 * assembly; the Section-4.4 fix-set checker (clean on every workload,
 * and flags corrupted Pfix/Pfixst sequences); and the retired
 * static-prior bit of the explorer's checkpoint policy word.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <iterator>

#include "src/analysis/cfg.hh"
#include "src/analysis/dataflow.hh"
#include "src/analysis/fixcheck.hh"
#include "src/analysis/verify.hh"
#include "src/core/engine.hh"
#include "src/explore/explorer.hh"
#include "src/explore/serialize.hh"
#include "src/isa/assembler.hh"
#include "src/isa/regs.hh"
#include "src/minic/compiler.hh"
#include "src/support/status.hh"
#include "src/workloads/workload.hh"

namespace
{

using namespace pe;
using analysis::DiagCode;

bool
hasDiag(const std::vector<analysis::Diagnostic> &diags, DiagCode code)
{
    return std::any_of(diags.begin(), diags.end(),
                       [code](const analysis::Diagnostic &d) {
                           return d.code == code;
                       });
}

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

// ---------------------------------------------------------------------
// CFG, dominators, liveness, reaching definitions.

TEST(Cfg, DiamondBlocksEdgesAndReachability)
{
    auto program = isa::assemble(diamondSrc, "diamond");
    analysis::Cfg cfg(program);

    ASSERT_EQ(cfg.numBlocks(), 4u);
    const uint32_t b0 = cfg.blockOf(0);
    const uint32_t bThen = cfg.blockOf(2);
    const uint32_t bElse = cfg.blockOf(4);
    const uint32_t bJoin = cfg.blockOf(5);
    EXPECT_EQ(cfg.blockOf(1), b0);
    EXPECT_EQ(cfg.blockOf(6), bJoin);
    EXPECT_NE(bThen, bElse);

    // Every block is reachable; edge kinds match the branch shape.
    for (uint32_t b = 0; b < cfg.numBlocks(); ++b)
        EXPECT_TRUE(cfg.reachable()[b]) << "block " << b;
    size_t takenEdges = 0, notTakenEdges = 0, jumpEdges = 0;
    for (const auto &e : cfg.edges()) {
        if (e.kind == analysis::EdgeKind::BranchTaken) {
            ++takenEdges;
            EXPECT_EQ(e.from, b0);
            EXPECT_EQ(e.to, bElse);
        } else if (e.kind == analysis::EdgeKind::BranchNotTaken) {
            ++notTakenEdges;
            EXPECT_EQ(e.to, bThen);
        } else if (e.kind == analysis::EdgeKind::Jump) {
            ++jumpEdges;
            EXPECT_EQ(e.to, bJoin);
        }
    }
    EXPECT_EQ(takenEdges, 1u);
    EXPECT_EQ(notTakenEdges, 1u);
    EXPECT_EQ(jumpEdges, 1u);
}

TEST(Cfg, DiamondDominatorsOracle)
{
    auto program = isa::assemble(diamondSrc, "diamond");
    analysis::Cfg cfg(program);
    const uint32_t b0 = cfg.blockOf(0);
    const uint32_t bThen = cfg.blockOf(2);
    const uint32_t bElse = cfg.blockOf(4);
    const uint32_t bJoin = cfg.blockOf(5);

    auto rpo = cfg.reversePostOrder(b0, /*intraprocedural=*/true);
    ASSERT_EQ(rpo.size(), 4u);
    EXPECT_EQ(rpo.front(), b0);
    EXPECT_EQ(rpo.back(), bJoin);   // the join is last in any RPO

    auto idom = cfg.dominators(b0);
    EXPECT_EQ(idom[b0], b0);
    EXPECT_EQ(idom[bThen], b0);
    EXPECT_EQ(idom[bElse], b0);
    // Neither arm dominates the join; the branch block does.
    EXPECT_EQ(idom[bJoin], b0);
    EXPECT_TRUE(analysis::Cfg::dominates(idom, b0, bJoin));
    EXPECT_FALSE(analysis::Cfg::dominates(idom, bThen, bJoin));
    EXPECT_FALSE(analysis::Cfg::dominates(idom, bElse, bJoin));
    EXPECT_TRUE(analysis::Cfg::dominates(idom, bJoin, bJoin));
}

TEST(Dataflow, DiamondLivenessOracle)
{
    auto program = isa::assemble(diamondSrc, "diamond");
    analysis::Cfg cfg(program);
    auto live = analysis::liveness(cfg);

    // r9 carries the arm's value into the join's print.
    EXPECT_NE(analysis::liveBefore(cfg, live, 5) & (1u << 9), 0u);
    // r8 is live into the branch but defined by the read before it.
    EXPECT_NE(analysis::liveBefore(cfg, live, 1) & (1u << 8), 0u);
    EXPECT_EQ(analysis::liveBefore(cfg, live, 0) & (1u << 8), 0u);
    // r9 is dead before its own definitions in either arm.
    EXPECT_EQ(analysis::liveBefore(cfg, live, 2) & (1u << 9), 0u);
    EXPECT_EQ(analysis::liveBefore(cfg, live, 4) & (1u << 9), 0u);
}

TEST(Dataflow, DiamondDefinedRegsAndReachingDefs)
{
    auto program = isa::assemble(diamondSrc, "diamond");
    analysis::Cfg cfg(program);

    constexpr uint32_t entryDefined =
        (1u << isa::reg::zero) | (1u << isa::reg::sp) |
        (1u << isa::reg::fp) | (1u << isa::reg::ra) |
        (1u << isa::reg::rv);
    auto defined = analysis::definedRegsIn(cfg, entryDefined);
    // Both arms define r9, so it is must-defined at the join.
    EXPECT_NE(defined[cfg.blockOf(5)] & (1u << 9), 0u);
    // r9 is not defined on entry to the arms themselves.
    EXPECT_EQ(defined[cfg.blockOf(2)] & (1u << 9), 0u);

    analysis::ReachingDefs rd(cfg);
    // Two definitions of r9 (one per arm) reach the join: no unique
    // def, and defsBefore lists both sites.
    EXPECT_EQ(rd.uniqueRegDef(5, 9), analysis::ReachingDefs::noPc);
    auto defs = rd.defsBefore(5, analysis::Cell::regCell(9));
    EXPECT_FALSE(defs.unknown);
    EXPECT_EQ(defs.pcs, (std::vector<uint32_t>{2, 4}));
    // Inside the then-arm the sole def is pc 2.
    EXPECT_EQ(rd.uniqueRegDef(3, 9), 2u);
}

// ---------------------------------------------------------------------
// Verifier: every diagnostic class fires on a seeded defect.

TEST(Verify, InvalidTargetIsError)
{
    auto program = isa::assemble("    li r8, 1\n"
                                 "    beq r8, r0, 99\n"
                                 "    sys exit\n",
                                 "bad");
    auto report = analysis::verifyProgram(program);
    EXPECT_TRUE(hasDiag(report.diagnostics, DiagCode::InvalidTarget));
    EXPECT_TRUE(report.hasErrors());
}

TEST(Verify, FallOffEndIsError)
{
    auto program = isa::assemble("    li r8, 1\n", "bad");
    auto report = analysis::verifyProgram(program);
    EXPECT_TRUE(hasDiag(report.diagnostics, DiagCode::FallOffEnd));
    EXPECT_TRUE(report.hasErrors());
}

TEST(Verify, UnreachableBlockIsWarning)
{
    auto program = isa::assemble("    jmp fin\n"
                                 "    li r8, 1\n"
                                 "fin:\n"
                                 "    sys exit\n",
                                 "bad");
    auto report = analysis::verifyProgram(program);
    EXPECT_TRUE(
        hasDiag(report.diagnostics, DiagCode::UnreachableBlock));
    EXPECT_FALSE(report.hasErrors());
}

TEST(Verify, DefBeforeUseIsWarning)
{
    auto program = isa::assemble("    add r9, r10, r11\n"
                                 "    sys exit\n",
                                 "bad");
    auto report = analysis::verifyProgram(program);
    EXPECT_TRUE(hasDiag(report.diagnostics, DiagCode::DefBeforeUse));
}

TEST(Verify, UnbalancedStackIsWarning)
{
    auto program = isa::assemble("    addi sp, sp, -2\n"
                                 "    jr ra\n",
                                 "bad");
    auto report = analysis::verifyProgram(program);
    EXPECT_TRUE(
        hasDiag(report.diagnostics, DiagCode::UnbalancedStack));
}

TEST(Verify, UnpairedObjIsWarning)
{
    auto program = isa::assemble("    li r8, 100\n"
                                 "    li r9, 4\n"
                                 "    regobj r8, r9, stack\n"
                                 "    sys exit\n",
                                 "bad");
    auto report = analysis::verifyProgram(program);
    EXPECT_TRUE(hasDiag(report.diagnostics, DiagCode::UnpairedObj));
}

TEST(Verify, BranchIntoFixPairIsWarning)
{
    auto program = isa::assemble("    sys read_int r8\n"
                                 "    beq r8, r0, bad\n"
                                 "    nop\n"
                                 "    pfix r31, 7\n"
                                 "bad:\n"
                                 "    pfixst r31, 8(r0)\n"
                                 "    sys exit\n",
                                 "bad");
    auto report = analysis::verifyProgram(program);
    EXPECT_TRUE(hasDiag(report.diagnostics, DiagCode::SplitFixPair));
}

TEST(Verify, EngineConstructsOnInvalidProgramAndSurfacesReport)
{
    // Malformed programs are legal simulator inputs: the verifier
    // reports them, and engine construction and the run must not
    // abort.
    auto program = isa::assemble("    li r8, 1\n"
                                 "    beq r8, r0, 99\n"
                                 "    sys exit\n",
                                 "bad");
    EXPECT_TRUE(analysis::verifyProgram(program).hasErrors());
    core::PathExpanderEngine engine(
        program, core::PeConfig::forMode(core::PeMode::Standard));
    auto result = engine.run({});
    EXPECT_TRUE(result.programCrashed);
}

// ---------------------------------------------------------------------
// Fix-set checker.

// One fixable branch (global v vs literal 5) with correct fixes on
// both edges — the clean baseline the corruption tests mutate.
const char *fixableSrc = R"(
.data   v 0
    ld r8, v(r0)
    li r9, 5
    bgt r8, r9, big
    pfix r31, 3
    pfixst r31, v(r0)
    jmp fin
big:
    pfix r31, 9
    pfixst r31, v(r0)
fin:
    sys exit
)";

TEST(FixCheck, CleanOnWellFormedFixes)
{
    auto program = isa::assemble(fixableSrc, "fixable");
    auto fc = analysis::checkFixSets(program);
    EXPECT_TRUE(fc.clean());
    EXPECT_EQ(fc.checkedBranches, 1u);
    EXPECT_EQ(fc.derivedSlices, 1u);
    EXPECT_EQ(fc.matchedFixes, 2u);
}

TEST(FixCheck, FlagsWrongFixValue)
{
    auto program = isa::assemble(fixableSrc, "fixable");
    // The fall-through edge's relation is v <= 5; 99 violates it.
    ASSERT_EQ(program.code[3].op, isa::Opcode::Pfix);
    program.code[3].imm = 99;
    auto fc = analysis::checkFixSets(program);
    EXPECT_TRUE(hasDiag(fc.diagnostics, DiagCode::WrongFixValue));
}

TEST(FixCheck, FlagsWrongFixHome)
{
    auto program = isa::assemble(fixableSrc, "fixable");
    // Redirect the fall-through Pfixst one word past v's home slot.
    ASSERT_EQ(program.code[4].op, isa::Opcode::Pfixst);
    program.code[4].imm += 1;
    auto fc = analysis::checkFixSets(program);
    EXPECT_TRUE(hasDiag(fc.diagnostics, DiagCode::WrongFixHome));
}

TEST(FixCheck, FlagsMissingFix)
{
    auto program = isa::assemble(fixableSrc, "fixable");
    // Blank the taken edge's pair; its companion still has one, so
    // the branch is known-fixable and the absence is a finding.
    ASSERT_EQ(program.code[6].op, isa::Opcode::Pfix);
    program.code[6] = isa::Instruction{};
    program.code[7] = isa::Instruction{};
    auto fc = analysis::checkFixSets(program);
    EXPECT_TRUE(hasDiag(fc.diagnostics, DiagCode::MissingFix));
}

TEST(FixCheck, FlagsExtraFixOnUnfixableBranch)
{
    // var-RELOP-var conditions have no derivable slice; a fix pair on
    // such an edge is spurious.
    auto program = isa::assemble("    sys read_int r8\n"
                                 "    sys read_int r9\n"
                                 "    blt r8, r9, less\n"
                                 "    pfix r31, 3\n"
                                 "    pfixst r31, 8(r0)\n"
                                 "less:\n"
                                 "    sys exit\n",
                                 "extra");
    auto fc = analysis::checkFixSets(program);
    EXPECT_TRUE(hasDiag(fc.diagnostics, DiagCode::ExtraFix));
}

TEST(FixCheck, FlagsUnpairedPfixAsMalformed)
{
    auto program = isa::assemble("    sys read_int r8\n"
                                 "    beq r8, r0, fin\n"
                                 "    pfix r31, 5\n"
                                 "    nop\n"
                                 "fin:\n"
                                 "    sys exit\n",
                                 "malformed");
    auto fc = analysis::checkFixSets(program);
    EXPECT_TRUE(
        hasDiag(fc.diagnostics, DiagCode::MalformedFixPair));
}

TEST(FixCheck, AllWorkloadsVerifyErrorFreeAndFixSetsClean)
{
    // The acceptance bar: minic's emitted fix sets and the checker's
    // independent derivation agree on every registered workload, and
    // the verifier finds no error-severity defect in any of them.
    for (const auto &name : workloads::workloadNames()) {
        const auto &w = workloads::getWorkload(name);
        auto program = minic::compile(w.source, name);
        auto report = analysis::verifyProgram(program);
        EXPECT_EQ(report.errorCount(), 0u) << name;
        auto fc = analysis::checkFixSets(program);
        EXPECT_TRUE(fc.clean()) << name << ": "
            << (fc.diagnostics.empty()
                    ? std::string()
                    : analysis::formatDiagnostic(
                          program, fc.diagnostics[0]));
        EXPECT_GT(fc.checkedBranches, 0u) << name;
        EXPECT_GT(fc.matchedFixes, 0u) << name;
    }
}

// ---------------------------------------------------------------------
// Retired static priors.  Bit 0x100 of the checkpoint policy word
// flagged prior-seeded scheduling; the option is gone, and a
// checkpoint that still carries the bit must be refused rather than
// resumed under different energies.

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
exploreOptions(uint64_t maxRuns)
{
    explore::ExploreOptions opts;
    opts.config = core::PeConfig::forMode(core::PeMode::Off);
    opts.policy = explore::SchedulePolicy::RareEdgeWeighted;
    opts.budget.maxRuns = maxRuns;
    opts.batchSize = 8;
    opts.seed = 0x9e11;
    return opts;
}

std::vector<std::vector<int32_t>>
scheduleSeeds(const workloads::Workload &workload)
{
    return {workload.benignInputs.begin(),
            workload.benignInputs.begin() + 3};
}

TEST(Priors, CheckpointRefusesPriorSettingMismatch)
{
    const auto &workload = workloads::getWorkload("schedule");
    auto program = minic::compile(workload.source, "schedule");
    TempPath ckpt("pe_priors_mismatch_test.ckpt");

    {
        auto opts = exploreOptions(27);
        opts.checkpointPath = ckpt.path;
        explore::Explorer head(program, scheduleSeeds(workload),
                               opts);
        head.run();
    }

    // Set the retired prior bit.  The policy word is folded into the
    // session word, the little-endian u64 after magic, version, config
    // hash, seed and program fingerprint (8 + 4 + 8 + 8 + 8 = 36
    // bytes); a policy word with bit 0x100 set yields another session
    // word, which flipping one bit of the stored word stands in for.
    std::string bytes;
    {
        std::ifstream is(ckpt.path, std::ios::binary);
        bytes.assign(std::istreambuf_iterator<char>(is), {});
    }
    ASSERT_GT(bytes.size(), 44u);
    uint64_t stored = 0;
    for (int i = 7; i >= 0; --i)
        stored = (stored << 8) | static_cast<uint8_t>(bytes[36 + i]);
    ASSERT_EQ(stored, explore::sessionWord(exploreOptions(27)));
    bytes[37] ^= 0x01;
    {
        std::ofstream os(ckpt.path, std::ios::binary | std::ios::trunc);
        os.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
    }

    // Same seed, policy and config, but the prior bit differs: the
    // scheduler contract differs, so the resume must be rejected.
    auto opts = exploreOptions(59);
    opts.resumeFrom = ckpt.path;
    explore::Explorer tail(program, scheduleSeeds(workload), opts);
    EXPECT_THROW(tail.run(), FatalError);
}

} // namespace
