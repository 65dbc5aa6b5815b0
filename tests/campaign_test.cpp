/**
 * @file
 * Campaign-runner tests: deterministic job ordering, bit-identical
 * parallel vs serial execution (digest, cycles, coverage, reports),
 * detector factories, coverage merge-reduce and error propagation,
 * plus the recycled per-run memory image: a run must see exactly a
 * fresh image whatever ran before it, on this thread or another.
 */

#include <gtest/gtest.h>

#include <stdexcept>

#include "src/core/campaign.hh"
#include "src/core/engine.hh"
#include "src/detect/detector.hh"
#include "src/minic/compiler.hh"
#include "src/support/thread_pool.hh"
#include "src/workloads/workload.hh"

namespace
{

using namespace pe;

/** Compile @p name and build jobs over its first @p inputs inputs. */
struct CampaignFixture
{
    explicit CampaignFixture(const std::string &name)
        : workload(&workloads::getWorkload(name)),
          program(minic::compile(workload->source, name))
    {}

    core::CampaignJob
    job(core::PeMode mode, size_t inputIdx,
        core::DetectorFactory factory = nullptr) const
    {
        core::CampaignJob j;
        j.program = &program;
        j.input = workload->benignInputs[inputIdx];
        j.config = core::PeConfig::forMode(mode);
        j.config.maxNtPathLength = workload->maxNtPathLength;
        j.detectorFactory = std::move(factory);
        return j;
    }

    const workloads::Workload *workload;
    isa::Program program;
};

void
expectIdentical(const core::RunResult &a, const core::RunResult &b)
{
    EXPECT_EQ(a.memoryDigest, b.memoryDigest);
    EXPECT_EQ(a.cycles, b.cycles);
    EXPECT_EQ(a.takenInstructions, b.takenInstructions);
    EXPECT_EQ(a.ntInstructions, b.ntInstructions);
    EXPECT_EQ(a.ntPathsSpawned, b.ntPathsSpawned);
    EXPECT_EQ(a.coverage.takenCovered(), b.coverage.takenCovered());
    EXPECT_EQ(a.coverage.combinedCovered(),
              b.coverage.combinedCovered());
    EXPECT_EQ(a.io.charOutput, b.io.charOutput);
    EXPECT_EQ(a.monitor.reports().size(), b.monitor.reports().size());
}

TEST(Campaign, EmptyCampaignIsEmpty)
{
    auto outcome = core::runCampaign({});
    EXPECT_TRUE(outcome.results.empty());
    EXPECT_EQ(outcome.threadsUsed, 1u);
}

TEST(Campaign, ResultsArriveInJobOrder)
{
    CampaignFixture fx("schedule");
    size_t inputs = fx.workload->benignInputs.size();
    std::vector<core::CampaignJob> jobs;
    for (size_t i = 0; i < inputs; ++i)
        jobs.push_back(fx.job(core::PeMode::Off, i));

    auto outcome = core::runCampaign(jobs, core::campaignThreads(4));
    ASSERT_EQ(outcome.results.size(), jobs.size());
    // RunResult carries its input back; slot i must hold job i.
    for (size_t i = 0; i < jobs.size(); ++i)
        EXPECT_EQ(outcome.results[i].io.input, jobs[i].input);
}

TEST(Campaign, ParallelRunsBitIdenticalToSerial)
{
    CampaignFixture fx("print_tokens");
    std::vector<core::CampaignJob> jobs;
    size_t inputs = std::min<size_t>(
        fx.workload->benignInputs.size(), 6);
    for (size_t i = 0; i < inputs; ++i) {
        jobs.push_back(fx.job(core::PeMode::Standard, i));
        jobs.push_back(fx.job(core::PeMode::Cmp, i));
    }

    auto serial = core::runCampaign(jobs, core::campaignThreads(1));
    auto parallel = core::runCampaign(jobs, core::campaignThreads(4));
    EXPECT_EQ(serial.threadsUsed, 1u);
    EXPECT_GT(parallel.threadsUsed, 1u);
    ASSERT_EQ(serial.results.size(), parallel.results.size());
    for (size_t i = 0; i < serial.results.size(); ++i)
        expectIdentical(serial.results[i], parallel.results[i]);
}

TEST(Campaign, DetectorFactoriesGiveEachRunItsOwnDetector)
{
    CampaignFixture fx("schedule2");
    auto factory = [] {
        return std::unique_ptr<detect::Detector>(
            std::make_unique<detect::BoundsChecker>());
    };
    std::vector<core::CampaignJob> jobs;
    for (int rep = 0; rep < 4; ++rep)
        jobs.push_back(fx.job(core::PeMode::Standard, 0, factory));

    auto serial = core::runCampaign(jobs, core::campaignThreads(1));
    auto parallel = core::runCampaign(jobs, core::campaignThreads(4));
    for (size_t i = 0; i < jobs.size(); ++i) {
        expectIdentical(serial.results[i], parallel.results[i]);
        // Identical jobs: a shared or reused detector would dedup
        // reports differently between runs.
        expectIdentical(parallel.results[0], parallel.results[i]);
    }
}

TEST(Campaign, MergeCoverageIsOrderIndependent)
{
    CampaignFixture fx("schedule");
    std::vector<core::CampaignJob> jobs;
    size_t inputs = std::min<size_t>(
        fx.workload->benignInputs.size(), 8);
    for (size_t i = 0; i < inputs; ++i)
        jobs.push_back(fx.job(core::PeMode::Standard, i));
    auto outcome = core::runCampaign(jobs);

    auto merged = core::mergeCoverage(fx.program, outcome.results);
    std::vector<core::RunResult> reversed;
    for (auto it = outcome.results.rbegin();
         it != outcome.results.rend(); ++it) {
        reversed.push_back(std::move(*it));
    }
    auto mergedRev = core::mergeCoverage(fx.program, reversed);
    EXPECT_EQ(merged.takenCovered(), mergedRev.takenCovered());
    EXPECT_EQ(merged.combinedCovered(), mergedRev.combinedCovered());
    EXPECT_EQ(merged.takenWords(), mergedRev.takenWords());
    EXPECT_EQ(merged.ntWords(), mergedRev.ntWords());

    // The union covers at least as much as any single run.
    EXPECT_GE(merged.combinedCovered(),
              reversed.front().coverage.combinedCovered());
}

TEST(Campaign, OnResultObserverSeesEveryJobOnce)
{
    CampaignFixture fx("schedule");
    std::vector<core::CampaignJob> jobs;
    for (size_t i = 0; i < 8; ++i)
        jobs.push_back(fx.job(core::PeMode::Off, i));

    // The hook is serialized, so plain state is safe to touch.
    std::vector<int> seen(jobs.size(), 0);
    core::CampaignOptions opts;
    opts.threads = 4;
    opts.onResult = [&seen](size_t i, const core::RunResult &r) {
        ASSERT_LT(i, seen.size());
        ++seen[i];
        EXPECT_GT(r.takenInstructions, 0u);
    };
    auto outcome = core::runCampaign(jobs, opts);
    ASSERT_EQ(outcome.results.size(), jobs.size());
    for (int n : seen)
        EXPECT_EQ(n, 1);
}

/** Every field of the bit-identity contract, in full. */
void
expectSameRun(const core::RunResult &a, const core::RunResult &b)
{
    EXPECT_EQ(a.programCrashed, b.programCrashed);
    EXPECT_EQ(a.programCrashKind, b.programCrashKind);
    EXPECT_EQ(a.hitInstructionLimit, b.hitInstructionLimit);
    EXPECT_EQ(a.aborted, b.aborted);
    EXPECT_EQ(a.takenInstructions, b.takenInstructions);
    EXPECT_EQ(a.ntInstructions, b.ntInstructions);
    EXPECT_EQ(a.cycles, b.cycles);
    EXPECT_EQ(a.ntPathsSpawned, b.ntPathsSpawned);
    EXPECT_EQ(a.ntPathsSkippedBusy, b.ntPathsSkippedBusy);
    EXPECT_EQ(a.l2ContentionCycles, b.l2ContentionCycles);
    EXPECT_EQ(a.coreCycles, b.coreCycles);
    EXPECT_EQ(a.memoryDigest, b.memoryDigest);
    EXPECT_EQ(a.io.intOutput, b.io.intOutput);
    EXPECT_EQ(a.io.charOutput, b.io.charOutput);
    EXPECT_EQ(a.io.inputPos, b.io.inputPos);
    EXPECT_EQ(a.coverage.takenWords(), b.coverage.takenWords());
    EXPECT_EQ(a.coverage.ntWords(), b.coverage.ntWords());
    ASSERT_EQ(a.ntRecords.size(), b.ntRecords.size());
    for (size_t i = 0; i < a.ntRecords.size(); ++i) {
        EXPECT_EQ(a.ntRecords[i].spawnBranchPc, b.ntRecords[i].spawnBranchPc);
        EXPECT_EQ(a.ntRecords[i].length, b.ntRecords[i].length);
        EXPECT_EQ(a.ntRecords[i].cause, b.ntRecords[i].cause);
    }
    ASSERT_EQ(a.monitor.reports().size(), b.monitor.reports().size());
    for (size_t i = 0; i < a.monitor.reports().size(); ++i) {
        EXPECT_EQ(a.monitor.reports()[i].kind, b.monitor.reports()[i].kind);
        EXPECT_EQ(a.monitor.reports()[i].pc, b.monitor.reports()[i].pc);
        EXPECT_EQ(a.monitor.reports()[i].addr, b.monitor.reports()[i].addr);
    }
}

/**
 * Dirties pages schedule2 never touches: a large global array and a
 * scattered heap block, all non-zero, so a leftover page would show in
 * the next run's memory digest.
 */
const char *kScatterSource = R"(
int big[6000];
int main() {
    int i;
    int *p;
    for (i = 0; i < 6000; i = i + 1) { big[i] = i * 7 + 1; }
    p = malloc(40000);
    for (i = 0; i < 40000; i = i + 97) {
        if (i % 2 == 0) { p[i] = i + 3; }
    }
    print_int(big[5999]);
    return 0;
}
)";

/** Throws from its first store event, after the run has written memory. */
class ThrowingDetector : public detect::Detector
{
  public:
    const char *name() const override { return "throwing"; }
    void onMemAccess(const detect::DetectCtx &, uint32_t,
                     bool isWrite) override
    {
        if (isWrite && ++writes == 200)
            throw std::runtime_error("detector failure");
    }

  private:
    int writes = 0;
};

const core::PeMode kModes[] = {core::PeMode::Off, core::PeMode::Standard,
                               core::PeMode::Cmp};

TEST(MemoryImageReuse, RunAfterOtherProgramIsBitIdentical)
{
    CampaignFixture fx("schedule2");
    const isa::Program scatter = minic::compile(kScatterSource, "scatter");
    for (core::PeMode mode : kModes) {
        SCOPED_TRACE(core::peModeName(mode));
        core::CampaignJob a = fx.job(mode, 0);
        detect::WatchChecker watch;
        core::PathExpanderEngine engineA(fx.program, a.config, &watch);
        core::PathExpanderEngine engineB(scatter, a.config, nullptr);

        const core::RunResult first = engineA.run(a.input);
        const core::RunResult other = engineB.run({});
        EXPECT_NE(other.memoryDigest, first.memoryDigest);
        const core::RunResult again = engineA.run(a.input);
        expectSameRun(first, again);
    }
}

TEST(MemoryImageReuse, ThrownRunLeavesNoTrace)
{
    CampaignFixture fx("schedule2");
    const isa::Program scatter = minic::compile(kScatterSource, "scatter");
    for (core::PeMode mode : kModes) {
        SCOPED_TRACE(core::peModeName(mode));
        core::CampaignJob a = fx.job(mode, 0);
        core::PathExpanderEngine engineA(fx.program, a.config, nullptr);
        const core::RunResult first = engineA.run(a.input);

        ThrowingDetector thrower;
        core::PathExpanderEngine failing(scatter, a.config, &thrower);
        EXPECT_THROW(failing.run({}), std::runtime_error);

        expectSameRun(first, engineA.run(a.input));
    }
}

TEST(MemoryImageReuse, ConcurrentMixedCampaignMatchesFreshRuns)
{
    // Interleaved jobs of two programs over a pool: each worker keeps
    // taking images another program's run just released.
    CampaignFixture fx("schedule2");
    const isa::Program scatter = minic::compile(kScatterSource, "scatter");
    std::vector<core::CampaignJob> jobs;
    for (int rep = 0; rep < 3; ++rep) {
        for (core::PeMode mode : kModes) {
            jobs.push_back(fx.job(mode, rep));
            core::CampaignJob b = fx.job(mode, 0);
            b.program = &scatter;
            b.input.clear();
            jobs.push_back(b);
        }
    }
    auto parallel = core::runCampaign(jobs, core::campaignThreads(4));
    ASSERT_EQ(parallel.results.size(), jobs.size());
    for (size_t i = 0; i < jobs.size(); ++i) {
        SCOPED_TRACE("job " + std::to_string(i));
        core::PathExpanderEngine engine(*jobs[i].program, jobs[i].config,
                                        nullptr);
        expectSameRun(engine.run(jobs[i].input), parallel.results[i]);
    }
}

TEST(MemoryDigest, PinnedForSchedule2FirstBenignInput)
{
    // Recorded campaign digests fold memoryDigest in, so its value —
    // not just its run-to-run equality — is part of the contract.
    CampaignFixture fx("schedule2");
    for (core::PeMode mode : kModes) {
        SCOPED_TRACE(core::peModeName(mode));
        core::CampaignJob a = fx.job(mode, 0);
        core::PathExpanderEngine engine(fx.program, a.config, nullptr);
        EXPECT_EQ(engine.run(a.input).memoryDigest, 0xf2ea230b7a6022e5ull);
    }
}

TEST(Config, HashDistinguishesConfigs)
{
    auto a = core::PeConfig::forMode(core::PeMode::Standard);
    auto b = core::PeConfig::forMode(core::PeMode::Standard);
    EXPECT_EQ(core::configHash(a), core::configHash(b));

    b.maxNtPathLength += 1;
    EXPECT_NE(core::configHash(a), core::configHash(b));

    auto cmp = core::PeConfig::forMode(core::PeMode::Cmp);
    EXPECT_NE(core::configHash(a), core::configHash(cmp));

    auto c = a;
    c.noSpawnFuncs.push_back("checker");
    EXPECT_NE(core::configHash(a), core::configHash(c));
}

TEST(ThreadPool, RunsEverySubmittedTaskOnce)
{
    ThreadPool pool(4);
    EXPECT_EQ(pool.size(), 4u);
    std::vector<int> hits(200, 0);
    for (size_t i = 0; i < hits.size(); ++i)
        pool.submit([&hits, i] { hits[i] += 1; });
    pool.waitIdle();
    for (int h : hits)
        EXPECT_EQ(h, 1);

    // The pool stays usable after an idle wait.
    bool ran = false;
    pool.submit([&ran] { ran = true; });
    pool.waitIdle();
    EXPECT_TRUE(ran);
}

TEST(ThreadPool, WaitIdleOnEmptyPoolReturns)
{
    ThreadPool pool(2);
    pool.waitIdle();    // no tasks: must not block
}

} // namespace
