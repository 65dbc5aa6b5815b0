/**
 * @file
 * Differential proof of the block-stepped execution loop.
 *
 * The engine's pre-decoded fast path (`sim::runBlock`, selected by
 * default) and the legacy one-instruction-at-a-time loop (forced via
 * `PeConfig::legacyStepLoop`) are bit-identical by contract: same
 * RunResult in every field, including the final memory digest, the
 * per-core cycle clocks, the coverage bitmaps and the NT-Path record
 * stream.  This test enforces the contract in breadth — every
 * registered workload across the mode grid, plus a random-program
 * sweep whose generator deliberately includes the crash-capable
 * opcodes (div/rem by a possibly-zero register) so the
 * surface-before-crash rule of runBlock is exercised.
 */

#include <gtest/gtest.h>

#include <sstream>
#include <string>
#include <vector>

#include "src/core/engine.hh"
#include "src/detect/detector.hh"
#include "src/isa/assembler.hh"
#include "src/minic/compiler.hh"
#include "src/support/rng.hh"
#include "src/workloads/workload.hh"

namespace
{

using namespace pe;

void
expectIdentical(const core::RunResult &blk, const core::RunResult &leg)
{
    EXPECT_EQ(blk.programCrashed, leg.programCrashed);
    EXPECT_EQ(blk.programCrashKind, leg.programCrashKind);
    EXPECT_EQ(blk.hitInstructionLimit, leg.hitInstructionLimit);
    EXPECT_EQ(blk.aborted, leg.aborted);
    EXPECT_EQ(blk.stopCause, leg.stopCause);
    EXPECT_EQ(blk.takenInstructions, leg.takenInstructions);
    EXPECT_EQ(blk.ntInstructions, leg.ntInstructions);
    EXPECT_EQ(blk.cycles, leg.cycles);
    EXPECT_EQ(blk.ntPathsSpawned, leg.ntPathsSpawned);
    EXPECT_EQ(blk.ntPathsSkippedBusy, leg.ntPathsSkippedBusy);
    EXPECT_EQ(blk.l2ContentionCycles, leg.l2ContentionCycles);
    EXPECT_EQ(blk.coreCycles, leg.coreCycles);
    EXPECT_EQ(blk.memoryDigest, leg.memoryDigest);
    EXPECT_EQ(blk.io.intOutput, leg.io.intOutput);
    EXPECT_EQ(blk.io.charOutput, leg.io.charOutput);
    EXPECT_EQ(blk.io.inputPos, leg.io.inputPos);
    EXPECT_EQ(blk.coverage.takenWords(), leg.coverage.takenWords());
    EXPECT_EQ(blk.coverage.ntWords(), leg.coverage.ntWords());
    EXPECT_EQ(blk.branchTrace, leg.branchTrace);
    EXPECT_EQ(blk.branchTraceTruncated, leg.branchTraceTruncated);

    ASSERT_EQ(blk.ntRecords.size(), leg.ntRecords.size());
    for (size_t i = 0; i < blk.ntRecords.size(); ++i) {
        SCOPED_TRACE("ntRecord " + std::to_string(i));
        const auto &a = blk.ntRecords[i];
        const auto &b = leg.ntRecords[i];
        EXPECT_EQ(a.spawnBranchPc, b.spawnBranchPc);
        EXPECT_EQ(a.spawnEdgeTaken, b.spawnEdgeTaken);
        EXPECT_EQ(a.length, b.length);
        EXPECT_EQ(a.cause, b.cause);
        EXPECT_EQ(a.crashKind, b.crashKind);
    }

    ASSERT_EQ(blk.monitor.reports().size(), leg.monitor.reports().size());
    for (size_t i = 0; i < blk.monitor.reports().size(); ++i) {
        SCOPED_TRACE("report " + std::to_string(i));
        const auto &a = blk.monitor.reports()[i];
        const auto &b = leg.monitor.reports()[i];
        EXPECT_EQ(a.kind, b.kind);
        EXPECT_EQ(a.pc, b.pc);
        EXPECT_EQ(a.addr, b.addr);
        EXPECT_EQ(a.assertId, b.assertId);
        EXPECT_EQ(a.fromNtPath, b.fromNtPath);
        EXPECT_EQ(a.ntSpawnPc, b.ntSpawnPc);
        EXPECT_EQ(a.site, b.site);
    }
}

/**
 * Run @p program on @p input under @p cfg twice — block-stepped and
 * legacy — with a fresh detector instance each time, and require the
 * results bit-identical.
 */
void
compareLoops(const isa::Program &program, core::PeConfig cfg,
             const std::string &tools,
             const std::vector<int32_t> &input)
{
    auto runWith = [&](bool legacy) {
        core::PeConfig c = cfg;
        c.legacyStepLoop = legacy;
        detect::WatchChecker watch;
        detect::AssertChecker assert_;
        detect::Detector *det = nullptr;
        if (tools == "memory")
            det = &watch;
        else if (tools == "assert")
            det = &assert_;
        core::PathExpanderEngine engine(program, c, det);
        return engine.run(input);
    };
    core::RunResult blk = runWith(false);
    core::RunResult leg = runWith(true);
    expectIdentical(blk, leg);
}

// ---------------------------------------------------------------------
// Every workload, every mode.
// ---------------------------------------------------------------------

using WorkloadParam = std::tuple<std::string, core::PeMode>;

class BlockStepWorkloads : public ::testing::TestWithParam<WorkloadParam>
{};

TEST_P(BlockStepWorkloads, BitIdenticalToLegacyLoop)
{
    const auto &[name, mode] = GetParam();
    const auto &w = workloads::getWorkload(name);
    auto program = minic::compile(w.source, w.name);

    auto cfg = core::PeConfig::forMode(mode);
    cfg.maxNtPathLength = w.maxNtPathLength;

    {
        SCOPED_TRACE("benign input");
        compareLoops(program, cfg, w.tools, w.benignInputs[0]);
    }
    if (!w.triggerInputs.empty()) {
        SCOPED_TRACE("trigger input " + w.triggerInputs.begin()->first);
        compareLoops(program, cfg, w.tools,
                     w.triggerInputs.begin()->second);
    }
}

std::string
workloadParamName(const ::testing::TestParamInfo<WorkloadParam> &info)
{
    const auto &[name, mode] = info.param;
    std::string s = name + "_" + core::peModeName(mode);
    for (char &c : s)
        if (c == '-')
            c = '_';
    return s;
}

INSTANTIATE_TEST_SUITE_P(
    AllWorkloads, BlockStepWorkloads,
    ::testing::Combine(
        ::testing::ValuesIn(workloads::workloadNames()),
        ::testing::Values(core::PeMode::Off, core::PeMode::Standard,
                          core::PeMode::Cmp)),
    workloadParamName);

// The same grid with taken-path edge tracing on: every conditional
// branch must then surface from the block loop (with PE off too) so
// the trace records it, in order.
class BlockStepTraced : public BlockStepWorkloads
{};

TEST_P(BlockStepTraced, BitIdenticalToLegacyLoop)
{
    const auto &[name, mode] = GetParam();
    const auto &w = workloads::getWorkload(name);
    auto program = minic::compile(w.source, w.name);

    auto cfg = core::PeConfig::forMode(mode);
    cfg.maxNtPathLength = w.maxNtPathLength;
    cfg.recordEdgeTrace = true;
    compareLoops(program, cfg, w.tools, w.benignInputs[0]);
}

INSTANTIATE_TEST_SUITE_P(
    AllWorkloads, BlockStepTraced,
    ::testing::Combine(
        ::testing::ValuesIn(workloads::workloadNames()),
        ::testing::Values(core::PeMode::Off, core::PeMode::Standard,
                          core::PeMode::Cmp)),
    workloadParamName);

// ---------------------------------------------------------------------
// Configuration corners on a couple of representative workloads: the
// software cost model (per-instruction dilation interacts with the
// bulk cycle accounting), sandboxed I/O, disabled variable fixing
// (NT-entry predicate handling in the block prologue), NT-side branch
// redirection and the random spawn factor.
// ---------------------------------------------------------------------

TEST(BlockStepCorners, SoftwareCostModel)
{
    for (const char *name : {"print_tokens2", "pe_bc"}) {
        SCOPED_TRACE(name);
        const auto &w = workloads::getWorkload(name);
        auto program = minic::compile(w.source, w.name);
        for (auto mode : {core::PeMode::Standard, core::PeMode::Cmp}) {
            auto cfg = core::PeConfig::forMode(mode);
            cfg.maxNtPathLength = w.maxNtPathLength;
            cfg.costModel = core::CostModelKind::Software;
            compareLoops(program, cfg, w.tools, w.benignInputs[0]);
        }
    }
}

TEST(BlockStepCorners, SandboxIoAndNoFixing)
{
    const auto &w = workloads::getWorkload("schedule");
    auto program = minic::compile(w.source, w.name);
    for (auto mode : {core::PeMode::Standard, core::PeMode::Cmp}) {
        for (bool sandbox : {false, true}) {
            auto cfg = core::PeConfig::forMode(mode);
            cfg.maxNtPathLength = w.maxNtPathLength;
            cfg.sandboxIo = sandbox;
            cfg.variableFixing = false;
            compareLoops(program, cfg, w.tools, w.benignInputs[0]);
        }
    }
}

TEST(BlockStepCorners, NtRedirectAndRandomSpawn)
{
    const auto &w = workloads::getWorkload("print_tokens");
    auto program = minic::compile(w.source, w.name);
    for (auto mode : {core::PeMode::Standard, core::PeMode::Cmp}) {
        auto cfg = core::PeConfig::forMode(mode);
        cfg.maxNtPathLength = w.maxNtPathLength;
        cfg.followNonTakenInNt = true;
        cfg.randomSpawnFraction = 0.25;
        compareLoops(program, cfg, w.tools, w.benignInputs[0]);
    }
}

TEST(BlockStepCorners, TightCounterResetInterval)
{
    // A reset interval small enough to fire inside straight-line
    // stretches: the block must stop short of the boundary so the
    // reset keeps its legacy position in the global step order.
    const auto &w = workloads::getWorkload("schedule2");
    auto program = minic::compile(w.source, w.name);
    for (auto mode : {core::PeMode::Standard, core::PeMode::Cmp}) {
        for (uint64_t interval : {3ull, 17ull, 256ull}) {
            SCOPED_TRACE(interval);
            auto cfg = core::PeConfig::forMode(mode);
            cfg.maxNtPathLength = w.maxNtPathLength;
            cfg.counterResetInterval = interval;
            compareLoops(program, cfg, w.tools, w.benignInputs[0]);
        }
    }
}

TEST(BlockStepCorners, TruncatedEdgeTrace)
{
    // A cap far below the branch count: both loops must stop
    // recording at the same event and flag the truncation.
    const auto &w = workloads::getWorkload("schedule2");
    auto program = minic::compile(w.source, w.name);
    for (auto mode :
         {core::PeMode::Off, core::PeMode::Standard, core::PeMode::Cmp}) {
        auto cfg = core::PeConfig::forMode(mode);
        cfg.maxNtPathLength = w.maxNtPathLength;
        cfg.recordEdgeTrace = true;
        cfg.edgeTraceCap = 7;
        core::PathExpanderEngine engine(program, cfg, nullptr);
        auto res = engine.run(w.benignInputs[0]);
        EXPECT_EQ(res.branchTrace.size(), 7u);
        EXPECT_TRUE(res.branchTraceTruncated);
        compareLoops(program, cfg, w.tools, w.benignInputs[0]);
    }
}

TEST(BlockStepCorners, InstructionLimit)
{
    // The limit must cut the run at the exact same instruction.
    const auto &w = workloads::getWorkload("pe_bc");
    auto program = minic::compile(w.source, w.name);
    for (auto mode :
         {core::PeMode::Off, core::PeMode::Standard, core::PeMode::Cmp}) {
        for (uint64_t limit : {1000ull, 12345ull}) {
            SCOPED_TRACE(limit);
            auto cfg = core::PeConfig::forMode(mode);
            cfg.maxNtPathLength = w.maxNtPathLength;
            cfg.maxTakenInstructions = limit;
            compareLoops(program, cfg, w.tools, w.benignInputs[0]);
        }
    }
}

// ---------------------------------------------------------------------
// Regobj with a base below the registry's low guard.  Malformed
// programs are legal inputs: the step raises BadAddress (a program
// crash on the taken path, a swallowed NtStopCause::Crash on an
// NT-Path) instead of aborting the host.
// ---------------------------------------------------------------------

isa::Program
lowBaseRegobj(uint32_t base, bool behindBranch)
{
    std::ostringstream out;
    if (behindBranch) {
        // Always taken: the registration sits on the NT side only.
        out << "li r8, 1\n"
            << "bne r8, r0, done\n";
    }
    out << "li r10, " << base << "\n"
        << "li r9, 4\n"
        << "regobj r10, r9, heap\n"
        << "done:\n";
    // Straight-line work keeps the taken path alive long enough for a
    // CMP NT-Path to reach the registration before the exit squashes
    // it.
    for (int i = 0; i < 32; ++i)
        out << "addi r11, r11, 1\n";
    out << "sys exit\n";
    return isa::assemble(out.str(), "lowbase");
}

constexpr core::PeMode kAllModes[] = {
    core::PeMode::Off, core::PeMode::Standard, core::PeMode::Cmp};

TEST(RegobjLowBase, TakenPathCrashesWithBadAddress)
{
    for (uint32_t base : {0u, 1u}) {
        auto program = lowBaseRegobj(base, false);
        for (auto mode : kAllModes) {
            SCOPED_TRACE("base " + std::to_string(base) + " mode " +
                         core::peModeName(mode));
            auto cfg = core::PeConfig::forMode(mode);
            compareLoops(program, cfg, "", {});
            compareLoops(program, cfg, "memory", {});
            core::PathExpanderEngine engine(program, cfg);
            auto r = engine.run({});
            EXPECT_TRUE(r.programCrashed);
            EXPECT_EQ(r.programCrashKind, sim::CrashKind::BadAddress);
        }
    }
}

TEST(RegobjLowBase, NtPathStopsWithCrash)
{
    for (uint32_t base : {0u, 1u}) {
        auto program = lowBaseRegobj(base, true);
        for (auto mode : kAllModes) {
            SCOPED_TRACE("base " + std::to_string(base) + " mode " +
                         core::peModeName(mode));
            auto cfg = core::PeConfig::forMode(mode);
            compareLoops(program, cfg, "", {});
            compareLoops(program, cfg, "memory", {});
            core::PathExpanderEngine engine(program, cfg);
            auto r = engine.run({});
            EXPECT_FALSE(r.programCrashed);
            if (mode == core::PeMode::Off) {
                EXPECT_TRUE(r.ntRecords.empty());
                continue;
            }
            ASSERT_EQ(r.ntRecords.size(), 1u);
            EXPECT_EQ(r.ntRecords[0].cause, core::NtStopCause::Crash);
            EXPECT_EQ(r.ntRecords[0].crashKind,
                      sim::CrashKind::BadAddress);
        }
    }
}

// ---------------------------------------------------------------------
// Saturated loops: with the spawn threshold at the 4-bit counter cap,
// hot branches end up with both coverage bits recorded and their
// exercise counters pinned at saturation, the regime where every
// per-branch bookkeeping step is a value no-op.  The block loop must
// still agree with the legacy loop there, including across counter
// resets that land inside the hot loop.
// ---------------------------------------------------------------------

/**
 * An outer counted loop around a 4-iteration inner loop whose
 * branches all alternate direction, so both coverage bits of each
 * inner branch record within the first outer iteration and the
 * exercise counters saturate after a few more.
 */
isa::Program
saturatedKernel(int iterations)
{
    std::ostringstream out;
    out << "li r8, 0\n"
        << "li r20, " << iterations << "\n"
        << "li r21, 4\nli r9, 1\nli r10, 3\n"
        << "outer:\n"
        << "li r12, 0\n"
        << "inner:\n"
        << "andi r13, r12, 1\n"
        << "beq r13, r0, even\n"
        << "add r9, r9, r10\n"
        << "jmp join1\n"
        << "even:\n"
        << "sub r9, r9, r10\n"
        << "join1:\n"
        << "andi r13, r12, 2\n"
        << "bne r13, r0, skip2\n"
        << "xor r10, r10, r9\n"
        << "skip2:\n"
        << "add r9, r9, r10\n"
        << "xori r10, r10, 21\n"
        << "slt r14, r9, r10\n"
        << "addi r12, r12, 1\n"
        << "blt r12, r21, inner\n"
        << "addi r8, r8, 1\n"
        << "blt r8, r20, outer\n"
        << "sys print_int r9\n"
        << "sys exit\n";
    return isa::assemble(out.str(), "saturated_kernel");
}

/** @p mode config under which the kernel's counters saturate. */
core::PeConfig
saturatingConfig(core::PeMode mode)
{
    auto cfg = core::PeConfig::forMode(mode);
    cfg.maxNtPathLength = 100;
    cfg.ntPathCounterThreshold = 15;    // == 4-bit counter cap
    return cfg;
}

TEST(BlockStepSaturated, KernelAcrossModesCostsAndLimits)
{
    auto program = saturatedKernel(300);
    for (auto mode :
         {core::PeMode::Off, core::PeMode::Standard, core::PeMode::Cmp}) {
        SCOPED_TRACE(core::peModeName(mode));
        compareLoops(program, saturatingConfig(mode), "", {});

        // Per-branch analysis cost must be bulk-charged exactly.
        auto sw = saturatingConfig(mode);
        sw.costModel = core::CostModelKind::Software;
        compareLoops(program, sw, "", {});
    }
    // The limit must cut the run at the exact same instruction even
    // when it lands inside the saturated inner loop.
    auto big = saturatedKernel(100000);
    for (uint64_t limit : {1000ull, 12345ull}) {
        SCOPED_TRACE("limit " + std::to_string(limit));
        auto cfg = saturatingConfig(core::PeMode::Standard);
        cfg.maxTakenInstructions = limit;
        compareLoops(big, cfg, "", {});
    }
}

TEST(BlockStepSaturated, CounterResetInsideSaturatedLoop)
{
    // Resets demote saturated counters back to zero; the loop must
    // re-spawn and re-saturate at the same instructions either way.
    auto program = saturatedKernel(200);
    for (uint64_t interval : {3ull, 17ull, 50ull, 256ull, 1000ull}) {
        SCOPED_TRACE("interval " + std::to_string(interval));
        auto cfg = saturatingConfig(core::PeMode::Standard);
        cfg.counterResetInterval = interval;
        compareLoops(program, cfg, "", {});
    }

    const auto &w = workloads::getWorkload("schedule2");
    auto sched = minic::compile(w.source, w.name);
    for (uint64_t interval : {3ull, 17ull, 256ull}) {
        SCOPED_TRACE("schedule2 interval " + std::to_string(interval));
        auto cfg = core::PeConfig::forMode(core::PeMode::Standard);
        cfg.maxNtPathLength = w.maxNtPathLength;
        cfg.counterResetInterval = interval;
        cfg.ntPathCounterThreshold = 15;
        compareLoops(sched, cfg, w.tools, w.benignInputs[0]);
    }
}

TEST(BlockStepSaturated, NoFixing)
{
    // Without variable fixing, NT-Paths resolve their branches on
    // unfixed values; block stepping must still match the legacy
    // step.
    const auto &w = workloads::getWorkload("schedule");
    auto program = minic::compile(w.source, w.name);
    auto cfg = core::PeConfig::forMode(core::PeMode::Standard);
    cfg.maxNtPathLength = w.maxNtPathLength;
    cfg.ntPathCounterThreshold = 15;
    cfg.variableFixing = false;
    compareLoops(program, cfg, w.tools, w.benignInputs[0]);
}

TEST(BlockStepSaturated, DetectorKeepsChecksSurfacing)
{
    // With a detector attached, Chkb/Assert must surface from the
    // block loop even where the surrounding branches are saturated.
    const auto &w = workloads::getWorkload("pe_bc");
    auto program = minic::compile(w.source, w.name);
    auto cfg = core::PeConfig::forMode(core::PeMode::Standard);
    cfg.maxNtPathLength = w.maxNtPathLength;
    cfg.ntPathCounterThreshold = 15;
    compareLoops(program, cfg, w.tools, w.benignInputs[0]);
}

// ---------------------------------------------------------------------
// Random programs.  The generator mixes plain ALU runs (the block fast
// path), div/rem by a possibly-zero register (crash-capable: must
// surface so the legacy step reproduces the fault at the same PC),
// masked loads/stores and forward branches, inside a counted loop.
// ---------------------------------------------------------------------

std::string
generateProgram(uint64_t seed)
{
    Rng rng(seed);
    std::ostringstream out;
    out << ".data acc 0\n.array buf 16\n";

    for (int r = 8; r <= 15; ++r)
        out << "li r" << r << ", " << rng.nextRange(-50, 50) << "\n";
    out << "li r20, " << rng.nextRange(2, 5) << "\n";
    out << "outer:\n";

    int blocks = static_cast<int>(rng.nextRange(4, 8));
    for (int b = 0; b < blocks; ++b) {
        int ops = static_cast<int>(rng.nextRange(3, 8));
        for (int i = 0; i < ops; ++i) {
            int rd = static_cast<int>(rng.nextRange(8, 15));
            int rs1 = static_cast<int>(rng.nextRange(8, 15));
            int rs2 = static_cast<int>(rng.nextRange(8, 15));
            switch (rng.nextBelow(9)) {
              case 0:
                out << "add r" << rd << ", r" << rs1 << ", r" << rs2
                    << "\n";
                break;
              case 1:
                out << "sub r" << rd << ", r" << rs1 << ", r" << rs2
                    << "\n";
                break;
              case 2:
                out << "mul r" << rd << ", r" << rs1 << ", r" << rs2
                    << "\n";
                break;
              case 3:
                out << "xor r" << rd << ", r" << rs1 << ", r" << rs2
                    << "\n";
                break;
              case 4:
                out << "slt r" << rd << ", r" << rs1 << ", r" << rs2
                    << "\n";
                break;
              case 5:
                // Crash-capable: rs2 may hold zero on some path.
                out << "div r" << rd << ", r" << rs1 << ", r" << rs2
                    << "\n";
                break;
              case 6:
                out << "rem r" << rd << ", r" << rs1 << ", r" << rs2
                    << "\n";
                break;
              case 7: {
                out << "andi r28, r" << rs1 << ", 15\n"
                    << "li r29, buf\n"
                    << "add r28, r28, r29\n"
                    << "st r" << rs2 << ", 0(r28)\n";
                break;
              }
              default: {
                out << "andi r28, r" << rs1 << ", 15\n"
                    << "li r29, buf\n"
                    << "add r28, r28, r29\n"
                    << "ld r" << rd << ", 0(r28)\n";
                break;
              }
            }
        }
        int rs1 = static_cast<int>(rng.nextRange(8, 15));
        int rs2 = static_cast<int>(rng.nextRange(8, 15));
        const char *cond =
            (const char *[]){"beq", "bne", "blt", "bge"}[rng.nextBelow(
                4)];
        out << cond << " r" << rs1 << ", r" << rs2 << ", blk" << seed
            << "_" << b + 1 << "\n";
        out << "addi r" << rs1 << ", r" << rs1 << ", 1\n";
        out << "blk" << seed << "_" << b + 1 << ":\n";
    }

    out << "addi r20, r20, -1\n"
        << "bgt r20, r0, outer\n";
    out << "li r21, 0\n";
    for (int r = 8; r <= 15; ++r)
        out << "xor r21, r21, r" << r << "\n";
    out << "sys print_int r21\n"
        << "sys exit\n";
    return out.str();
}

TEST(BlockStepRandom, SeedSweepIsBitIdentical)
{
    int crashes = 0;
    for (uint64_t seed = 1; seed <= 24; ++seed) {
        SCOPED_TRACE("seed " + std::to_string(seed));
        auto program =
            isa::assemble(generateProgram(seed),
                          "blockstep_" + std::to_string(seed));
        for (auto mode : {core::PeMode::Off, core::PeMode::Standard,
                          core::PeMode::Cmp}) {
            auto cfg = core::PeConfig::forMode(mode);
            cfg.maxNtPathLength = 100;
            cfg.maxTakenInstructions = 50'000;
            cfg.ntPathCounterThreshold = 8;

            auto runWith = [&](bool legacy) {
                core::PeConfig c = cfg;
                c.legacyStepLoop = legacy;
                core::PathExpanderEngine engine(program, c, nullptr);
                return engine.run({});
            };
            core::RunResult blk = runWith(false);
            core::RunResult leg = runWith(true);
            expectIdentical(blk, leg);
            if (blk.programCrashed && mode == core::PeMode::Off)
                ++crashes;
        }
    }
    // The sweep is only meaningful if some seeds actually take the
    // crash-surfacing path (div/rem by zero).
    EXPECT_GT(crashes, 0);
}

} // namespace
