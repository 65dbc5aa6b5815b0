/**
 * @file
 * Coverage-per-run: guided exploration vs the paper's static suite.
 *
 * Section 7.4 replays a fixed 50-input suite per application and
 * reports the cumulative coverage PathExpander adds.  This bench asks
 * the next question: under an *equal run budget*, does choosing the
 * inputs (coverage-guided exploration over src/explore/) beat
 * replaying the static suite?  Three arms per workload, all with PE
 * on (Standard mode) plus a PE-off ablation of the guided arm:
 *
 *   static   — the workload's benign suite replayed, coverage unioned
 *              (exactly the Section-7.4 experiment);
 *   uniform  — greedy-random exploration: corpus seeded with a few
 *              suite inputs, parents picked uniformly;
 *   rare     — the same, but rare-edge-weighted scheduling;
 *   path     — the rare arm plus the prime-path cover objective
 *              (ExploreOptions::pathObjective): scheduler energy is
 *              tilted toward corpus entries adjacent to incomplete
 *              cover paths.  Judged against a `rare+trace` twin (the
 *              rare arm with the edge trace on but the objective
 *              off), so both sides measure completion with the same
 *              config hash semantics: the gate is cover completion
 *              >= the twin's on most apps with edge coverage within
 *              5% of the plain rare arm;
 *   sharded  — the rare arm distributed over a worker-process fleet
 *              (src/fleet/) at the *same total budget*, recording
 *              wall time and the merged frontier/corpus digests so
 *              CI can (a) compare sharded vs single-process wall
 *              time on multi-core runners and (b) assert the merge
 *              is bit-reproducible.
 *   tcp      — the sharded arm again, but over the TCP transport on
 *              loopback (coordinator binds an ephemeral port, the
 *              workers dial in, exactly as a multi-host deployment
 *              would).  Identical digests to the sharded arm are
 *              the cross-transport reproducibility witness; the
 *              wall-time delta prices the framing + socket tax.
 *
 * The headline claim: the guided explorer matches or beats the
 * static suite's cumulative coverage at <= the same number of runs.
 * Progress streams to bench_explore.jsonl (one JSONL stream, all
 * arms) for coverage-vs-budget curves.
 *
 * PE_EXPLORE_RUNS overrides the per-arm run budget (CI smoke runs a
 * tiny budget; the suite-parity gate only applies at the default).
 * PE_EXPLORE_SHARDS overrides the fleet width (default 4).
 */

#include <chrono>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <iterator>
#include <memory>

#include <unistd.h>

#include "bench_util.hh"
#include "src/coverage/pathcov.hh"
#include "src/explore/explorer.hh"
#include "src/fleet/coordinator.hh"
#include "src/fleet/transport.hh"
#include "src/fleet/worker.hh"
#include "src/support/status.hh"
#include "src/support/strutil.hh"
#include "src/support/subprocess.hh"
#include "src/support/table.hh"

using namespace pe;
using namespace pe::bench;

namespace
{

const char *const kWorkloads[] = {"schedule", "schedule2",
                                  "print_tokens"};

struct Arm
{
    uint64_t runs = 0;
    size_t edges = 0;       //!< frontier combined edges
    size_t corpus = 0;
    double wallSeconds = 0;
    uint64_t frontierDigest = 0;    //!< sharded arm only
    uint64_t corpusDigest = 0;      //!< sharded arm only
    uint64_t planDigest = 0;        //!< sharded arm only
    // Prime-path tracker readout (arms run with the edge trace on).
    uint64_t primePaths = 0;
    uint64_t coverSize = 0;
    uint64_t pathsCompleted = 0;
    uint64_t coverCompleted = 0;
};

double
secondsSince(std::chrono::steady_clock::time_point start)
{
    std::chrono::duration<double> d =
        std::chrono::steady_clock::now() - start;
    return d.count();
}

Arm
runExplorer(const App &app, explore::SchedulePolicy policy,
            core::PeMode mode, uint64_t budget, std::ostream *jsonl,
            bool recordTrace = false, bool pathObjective = false)
{
    explore::ExploreOptions opts;
    opts.config = appConfig(app, mode);
    opts.config.recordEdgeTrace = recordTrace;
    opts.policy = policy;
    opts.pathObjective = pathObjective;
    opts.budget.maxRuns = budget;
    opts.batchSize = 8;
    opts.jsonl = jsonl;
    opts.label = app.workload->name + "/" +
                 explore::schedulePolicyName(policy) + "/" +
                 core::peModeName(mode) +
                 (pathObjective ? "/path"
                                : (recordTrace ? "/trace" : ""));

    // Seed with a few suite inputs only: the explorer must *find*
    // the rest of the behavior the full static suite was given.
    std::vector<std::vector<int32_t>> seeds(
        app.workload->benignInputs.begin(),
        app.workload->benignInputs.begin() +
            std::min<size_t>(
                {app.workload->benignInputs.size(), 5, budget}));

    explore::Explorer explorer(app.program, seeds, opts);
    auto start = std::chrono::steady_clock::now();
    auto result = explorer.run();
    Arm arm;
    arm.runs = result.runs;
    arm.edges = explorer.corpus().frontier().combinedCovered();
    arm.corpus = explorer.corpus().size();
    arm.wallSeconds = secondsSince(start);
    if (const coverage::PathCoverage *pt = explorer.pathTracker()) {
        arm.primePaths = pt->numPaths();
        arm.coverSize = pt->coverSize();
        arm.pathsCompleted = pt->completedCount();
        arm.coverCompleted = pt->coverCompleted();
    }
    return arm;
}

/**
 * The rare arm again, but spread over a process fleet at the same
 * total run budget.  On a single core this pays the fork/IPC tax; on
 * a multi-core runner the shards overlap and the wall time should
 * drop below the single-process rare arm — which is exactly what the
 * recorded `*_sharded_wall_seconds` vs `*_rare_wall_seconds` pairs
 * let CI trend.  The digests witness that the merged result is a
 * deterministic function of the plan, not of host scheduling.
 */
Arm
runSharded(const App &app, unsigned shards, uint64_t budget,
           std::ostream *jsonl)
{
    fleet::FleetOptions fopts;
    fopts.base.config = appConfig(app, core::PeMode::Standard);
    fopts.base.policy = explore::SchedulePolicy::RareEdgeWeighted;
    fopts.base.budget.maxRuns = budget;
    fopts.base.batchSize = 8;
    fopts.base.jsonl = jsonl;
    fopts.base.label = app.workload->name + "/sharded";
    fopts.shards = shards;

    std::vector<std::vector<int32_t>> seeds(
        app.workload->benignInputs.begin(),
        app.workload->benignInputs.begin() +
            std::min<size_t>(
                {app.workload->benignInputs.size(), 5, budget}));

    auto start = std::chrono::steady_clock::now();
    auto result = fleet::runFleet(app.program, seeds, fopts);
    Arm arm;
    arm.runs = result.runs;
    arm.edges = result.edgesCombined;
    arm.corpus = result.corpusSize;
    arm.wallSeconds = secondsSince(start);
    arm.frontierDigest = result.frontierDigest;
    arm.corpusDigest = result.corpusDigest;
    arm.planDigest = result.planDigest;
    return arm;
}

/**
 * The sharded arm over TCP loopback: bind an ephemeral port, fork
 * the same number of worker processes, but have each one *dial in*
 * and run remoteWorkerMain — the exact code path a worker on
 * another machine takes (src/fleet/transport.hh).  Same plan, same
 * budget, so the digests must match the socketpair fleet's
 * byte-for-byte.
 */
Arm
runTcp(const App &app, unsigned shards, uint64_t budget,
       std::ostream *jsonl)
{
    fleet::FleetOptions fopts;
    fopts.base.config = appConfig(app, core::PeMode::Standard);
    fopts.base.policy = explore::SchedulePolicy::RareEdgeWeighted;
    fopts.base.budget.maxRuns = budget;
    fopts.base.batchSize = 8;
    fopts.base.jsonl = jsonl;
    fopts.base.label = app.workload->name + "/tcp";
    fopts.shards = shards;
    fopts.roundDeadlineMs = 60000;

    std::vector<std::vector<int32_t>> seeds(
        app.workload->benignInputs.begin(),
        app.workload->benignInputs.begin() +
            std::min<size_t>(
                {app.workload->benignInputs.size(), 5, budget}));

    auto transport =
        std::make_shared<fleet::TcpTransport>("127.0.0.1:0");
    const std::string addr =
        "127.0.0.1:" + std::to_string(transport->port());
    fopts.transport = transport;

    std::vector<proc::ChildProcess> workers;
    for (unsigned i = 0; i < shards; ++i) {
        workers.push_back(proc::spawnChild([&](int pairFd) {
            close(pairFd);  // dialing worker; the pair is unused
            fleet::RemoteWorkerOptions ro;
            ro.connect = addr;
            ro.shards = shards;
            ro.base = fopts.base;
            ro.seeds = seeds;
            return fleet::remoteWorkerMain(app.program, ro);
        }));
    }

    auto start = std::chrono::steady_clock::now();
    auto result = fleet::runFleet(app.program, seeds, fopts);
    Arm arm;
    arm.runs = result.runs;
    arm.edges = result.edgesCombined;
    arm.corpus = result.corpusSize;
    arm.wallSeconds = secondsSince(start);
    arm.frontierDigest = result.frontierDigest;
    arm.corpusDigest = result.corpusDigest;
    arm.planDigest = result.planDigest;
    for (proc::ChildProcess &worker : workers)
        worker.wait();
    return arm;
}

Arm
runStatic(const App &app, uint64_t budget)
{
    std::vector<core::CampaignJob> jobs;
    size_t n = std::min<uint64_t>(app.workload->benignInputs.size(),
                                  budget);
    for (size_t i = 0; i < n; ++i)
        jobs.push_back(makeJob(app, core::PeMode::Standard,
                               Tool::None, i));
    auto outcome = core::runCampaign(jobs);
    auto merged = core::mergeCoverage(app.program, outcome.results);
    return Arm{jobs.size(), merged.combinedCovered(), n};
}

} // namespace

int
main()
{
    setQuiet(true);

    uint64_t budget = 0;
    bool customBudget = false;
    if (const char *env = std::getenv("PE_EXPLORE_RUNS");
        env && *env) {
        budget = std::strtoull(env, nullptr, 10);
        customBudget = true;
    }
    unsigned shardCount = 4;
    if (const char *env = std::getenv("PE_EXPLORE_SHARDS");
        env && *env)
        shardCount = static_cast<unsigned>(
            std::strtoul(env, nullptr, 10));
    if (shardCount < 2)
        shardCount = 2;

    const char *dir = std::getenv("PE_BENCH_JSON_DIR");
    std::string jsonlPath =
        std::string(dir && *dir ? dir : ".") + "/bench_explore.jsonl";
    std::ofstream jsonl(jsonlPath);

    std::cout << "Coverage-guided exploration vs the static "
                 "Section-7.4 suite (equal run budget, PE on)\n\n";

    BenchJson json("bench_explore");
    json.setConfig(
        core::PeConfig::forMode(core::PeMode::Standard));

    Table table({"App", "Budget", "Static suite", "Uniform-random",
                 "Rare-edge", "Path-objective",
                 "Rare-edge (PE off)",
                 "Sharded x" + std::to_string(shardCount),
                 "TCP x" + std::to_string(shardCount)});
    bool guidedMatches = true;
    int pathWins = 0;       //!< apps where path cover >= rare+trace
    bool pathEdgesOk = true; //!< path edges within 5% of rare, always
    uint64_t totalRuns = 0;
    auto wallStart = std::chrono::steady_clock::now();
    for (const char *name : kWorkloads) {
        App app = loadApp(name);
        uint64_t armBudget =
            customBudget ? budget
                         : app.workload->benignInputs.size();

        Arm stat = runStatic(app, armBudget);
        Arm uniform = runExplorer(
            app, explore::SchedulePolicy::UniformRandom,
            core::PeMode::Standard, armBudget, &jsonl);
        Arm rare = runExplorer(
            app, explore::SchedulePolicy::RareEdgeWeighted,
            core::PeMode::Standard, armBudget, &jsonl);
        // Path-objective arm vs its measurement twin: both carry the
        // edge trace (so completion is observable on both sides);
        // only the arm under test folds it into scheduling energy.
        Arm rareTrace = runExplorer(
            app, explore::SchedulePolicy::RareEdgeWeighted,
            core::PeMode::Standard, armBudget, &jsonl,
            /*recordTrace=*/true);
        Arm path = runExplorer(
            app, explore::SchedulePolicy::RareEdgeWeighted,
            core::PeMode::Standard, armBudget, &jsonl,
            /*recordTrace=*/true, /*pathObjective=*/true);
        Arm rareOff = runExplorer(
            app, explore::SchedulePolicy::RareEdgeWeighted,
            core::PeMode::Off, armBudget, &jsonl);
        // Equal total budget, split over a worker-process fleet.
        Arm sharded = runSharded(app, shardCount, armBudget, &jsonl);
        // The same fleet once more, over TCP loopback.
        Arm tcp = runTcp(app, shardCount, armBudget, &jsonl);

        auto cell = [](const Arm &a) {
            return std::to_string(a.edges) + " edges / " +
                   std::to_string(a.runs) + " runs";
        };
        table.addRow({name, std::to_string(armBudget), cell(stat),
                      cell(uniform), cell(rare),
                      cell(path) + " / cover " +
                          std::to_string(path.coverCompleted) + "/" +
                          std::to_string(path.coverSize),
                      cell(rareOff),
                      cell(sharded) + " / " +
                          fmtDouble(sharded.wallSeconds, 2) + "s",
                      cell(tcp) + " / " +
                          fmtDouble(tcp.wallSeconds, 2) + "s"});

        guidedMatches = guidedMatches && rare.edges >= stat.edges &&
                        rare.runs <= stat.runs;
        if (path.coverCompleted >= rareTrace.coverCompleted)
            ++pathWins;
        // The objective must not trade away edge coverage: within 5%
        // of the plain rare arm, on every app.
        pathEdgesOk =
            pathEdgesOk && path.edges * 100 >= rare.edges * 95;

        totalRuns += stat.runs + uniform.runs + rare.runs +
                     rareTrace.runs + path.runs +
                     rareOff.runs + sharded.runs + tcp.runs;

        std::string prefix = std::string(name) + "_";
        json.setInt(prefix + "budget", armBudget);
        json.setInt(prefix + "static_edges", stat.edges);
        json.setInt(prefix + "uniform_edges", uniform.edges);
        json.setInt(prefix + "rare_edges", rare.edges);
        json.setInt(prefix + "rare_edges_pe_off", rareOff.edges);
        json.setInt(prefix + "rare_runs", rare.runs);
        json.setInt(prefix + "rare_corpus", rare.corpus);
        json.set(prefix + "rare_wall_seconds", rare.wallSeconds);
        json.setInt(prefix + "prime_paths", path.primePaths);
        json.setInt(prefix + "path_cover_size", path.coverSize);
        json.setInt(prefix + "path_edges", path.edges);
        json.setInt(prefix + "path_paths_completed",
                    path.pathsCompleted);
        json.setInt(prefix + "path_cover_completed",
                    path.coverCompleted);
        json.setInt(prefix + "rare_cover_completed",
                    rareTrace.coverCompleted);
        json.setInt(prefix + "sharded_edges", sharded.edges);
        json.setInt(prefix + "sharded_runs", sharded.runs);
        json.setInt(prefix + "sharded_corpus", sharded.corpus);
        json.set(prefix + "sharded_wall_seconds",
                 sharded.wallSeconds);
        json.set(prefix + "sharded_frontier_digest",
                 fmtHex(sharded.frontierDigest));
        json.set(prefix + "sharded_corpus_digest",
                 fmtHex(sharded.corpusDigest));
        json.set(prefix + "sharded_plan_digest",
                 fmtHex(sharded.planDigest));
        json.setInt(prefix + "tcp_edges", tcp.edges);
        json.setInt(prefix + "tcp_runs", tcp.runs);
        json.set(prefix + "tcp_wall_seconds", tcp.wallSeconds);
        json.set(prefix + "tcp_frontier_digest",
                 fmtHex(tcp.frontierDigest));
        json.set(prefix + "tcp_corpus_digest",
                 fmtHex(tcp.corpusDigest));
        // The cross-transport witness: same plan, same bytes.
        json.setInt(prefix + "tcp_matches_sharded",
                    (tcp.frontierDigest == sharded.frontierDigest &&
                     tcp.corpusDigest == sharded.corpusDigest)
                        ? 1
                        : 0);
    }
    table.print(std::cout);

    std::cout << "\nGuided (rare-edge, PE on) "
              << (guidedMatches ? "matches or beats"
                                : "DOES NOT match")
              << " the static suite on every app at <= the same "
                 "number of runs.\n"
              << "Path-objective matches or beats rare-edge cover "
                 "completion on "
              << pathWins << "/" << std::size(kWorkloads)
              << " apps (edge coverage within 5%: "
              << (pathEdgesOk ? "yes" : "NO") << ").\n"
              << "JSONL stream: " << jsonlPath << "\n";

    std::chrono::duration<double> wall =
        std::chrono::steady_clock::now() - wallStart;
    std::cout << "Throughput: " << totalRuns << " monitored runs in "
              << fmtDouble(wall.count(), 2) << "s ("
              << fmtDouble(totalRuns / wall.count(), 2)
              << " runs/s).\n";

    json.setInt("sharded_shards", shardCount);
    json.setInt("guided_matches_static", guidedMatches ? 1 : 0);
    json.setInt("path_beats_rare_apps", pathWins);
    json.setInt("path_edges_within_5pct", pathEdgesOk ? 1 : 0);
    json.setInt("custom_budget", customBudget ? 1 : 0);
    json.setInt("total_runs", totalRuns);
    json.set("wall_seconds", wall.count());
    json.set("runs_per_second", totalRuns / wall.count());
    json.write();

    // The suite-parity and path-vs-rare gates are
    // part of the bench contract only at the default budget; tiny
    // smoke budgets just record numbers.
    return (!customBudget &&
            (!guidedMatches || pathWins < 2 ||
             !pathEdgesOk))
               ? 1
               : 0;
}
