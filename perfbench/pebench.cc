/**
 * @file
 * One benchmark session: one workload, run once, in a fresh process.
 *
 *   pebench --workload detect|overhead|explore|explore_path
 *           --seed N [--trace 0|1] [--spans FILE] [--perturb]
 *
 * Prints one JSON object on stdout: the session's work counts, wall
 * times, simulated outcomes and result digest.  With --trace 1 it
 * also records spans around every call into the library's public API
 * (kept in memory, written to --spans at the end), runs the serial
 * engine-construction/run split pass, and adds raw per-layer samples
 * and counts.  perfbench/run.py runs sessions back to back, checks
 * each digest against perfbench/expected.json and aggregates.
 *
 * --perturb adds 1 to every run's maxNtPathLength: the digest check
 * must then report the session's runs as failed.
 */

#include <sched.h>
#include <sys/resource.h>

#include <algorithm>
#include <array>
#include <chrono>
#include <cstdint>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <map>
#include <memory>
#include <mutex>
#include <set>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "src/analysis/cfg.hh"
#include "src/analysis/primepaths.hh"
#include "src/analysis/verify.hh"
#include "src/core/campaign.hh"
#include "src/core/engine.hh"
#include "src/coverage/pathcov.hh"
#include "src/detect/detector.hh"
#include "src/explore/explorer.hh"
#include "src/explore/serialize.hh"
#include "src/minic/compiler.hh"
#include "src/support/rng.hh"
#include "src/support/status.hh"
#include "src/support/strutil.hh"
#include "src/workloads/analysis.hh"
#include "src/workloads/workload.hh"

using namespace pe;

namespace
{

using Clock = std::chrono::steady_clock;

/** Campaign workers: at most 4, never more than the CPUs we may use. */
unsigned
workerCount()
{
    cpu_set_t set;
    CPU_ZERO(&set);
    unsigned cpus = std::thread::hardware_concurrency();
    if (sched_getaffinity(0, sizeof(set), &set) == 0)
        cpus = static_cast<unsigned>(CPU_COUNT(&set));
    return std::clamp(cpus, 1u, 4u);
}

/** Explorer run budget per app and the number of seed slots. */
constexpr uint64_t kExploreRuns = 400;
constexpr uint64_t kExploreSlots = 8;
constexpr size_t kExploreSeeds = 5;
constexpr size_t kCampaignInputs = 50;

uint64_t
fnv(uint64_t h, uint64_t v)
{
    for (int i = 0; i < 8; ++i) {
        h ^= (v >> (8 * i)) & 0xff;
        h *= 0x100000001b3ull;
    }
    return h;
}

constexpr uint64_t kFnvBasis = 0xcbf29ce484222325ull;

double
usBetween(Clock::time_point a, Clock::time_point b)
{
    return std::chrono::duration<double, std::micro>(b - a).count();
}

// ------------------------------------------------------------------
// Spans

/** One timed interval; parent -1 is the session root's parent. */
struct Span
{
    std::string name;
    Clock::time_point start;
    Clock::time_point end;
    int parent = -1;
};

/**
 * In-memory span store.  Spans are opened and closed on the main
 * thread, or recorded whole from campaign completion callbacks (any
 * worker thread); one mutex covers both.  Disabled, every call is a
 * no-op returning -1.
 */
class Tracer
{
  public:
    Tracer(bool enabled, uint64_t runId) : on(enabled), run(runId) {}

    bool enabled() const { return on; }

    int open(const std::string &name, int parent)
    {
        if (!on)
            return -1;
        std::lock_guard lock(mtx);
        spans.push_back({name, Clock::now(), {}, parent});
        return static_cast<int>(spans.size() - 1);
    }

    void close(int id)
    {
        if (id < 0)
            return;
        auto now = Clock::now();
        std::lock_guard lock(mtx);
        spans[id].end = now;
    }

    void record(const std::string &name, Clock::time_point start,
                Clock::time_point end, int parent)
    {
        if (!on)
            return;
        std::lock_guard lock(mtx);
        spans.push_back({name, start, end, parent});
    }

    const std::vector<Span> &all() const { return spans; }

    /** Duration minus the union of the child intervals it contains. */
    std::vector<double> selfTimesUs() const;

    void write(const std::string &path) const;

  private:
    bool on;
    uint64_t run;
    std::mutex mtx;
    std::vector<Span> spans;
};

std::vector<double>
Tracer::selfTimesUs() const
{
    std::vector<std::vector<int>> children(spans.size());
    for (size_t i = 0; i < spans.size(); ++i) {
        if (spans[i].parent >= 0)
            children[spans[i].parent].push_back(static_cast<int>(i));
    }
    std::vector<double> self(spans.size());
    for (size_t i = 0; i < spans.size(); ++i) {
        const Span &s = spans[i];
        std::vector<std::pair<Clock::time_point, Clock::time_point>> iv;
        for (int c : children[i]) {
            auto lo = std::max(spans[c].start, s.start);
            auto hi = std::min(spans[c].end, s.end);
            if (lo < hi)
                iv.emplace_back(lo, hi);
        }
        std::sort(iv.begin(), iv.end());
        double covered = 0.0;
        Clock::time_point reach = s.start;
        for (auto [lo, hi] : iv) {
            lo = std::max(lo, reach);
            if (lo < hi) {
                covered += usBetween(lo, hi);
                reach = hi;
            }
        }
        self[i] = usBetween(s.start, s.end) - covered;
    }
    return self;
}

void
Tracer::write(const std::string &path) const
{
    std::ofstream out(path);
    if (!out) {
        std::cerr << "pebench: cannot write spans to " << path << "\n";
        return;
    }
    auto t0 = spans.empty() ? Clock::time_point{} : spans[0].start;
    for (size_t i = 0; i < spans.size(); ++i) {
        const Span &s = spans[i];
        out << "{\"run\":" << run << ",\"id\":" << i
            << ",\"parent\":" << s.parent << ",\"name\":\"" << s.name
            << "\",\"start_us\":" << usBetween(t0, s.start)
            << ",\"end_us\":" << usBetween(t0, s.end) << "}\n";
    }
}

/** RAII open/close of one main-thread span. */
class Scope
{
  public:
    Scope(Tracer &t, const std::string &name, int parent)
        : tracer(t), id(t.open(name, parent))
    {}
    ~Scope() { tracer.close(id); }
    Scope(const Scope &) = delete;
    Scope &operator=(const Scope &) = delete;

    Tracer &tracer;
    const int id;
};

// ------------------------------------------------------------------
// Session output

/** Raw per-layer samples and counts of one traced session. */
struct Layers
{
    std::map<std::string, std::vector<double>> samples;
    std::map<std::string, double> counts;
};

struct Session
{
    std::string workload;
    uint64_t seed = 0;
    uint64_t slot = 0;
    unsigned workers = 1;
    uint64_t configHash = 0;
    uint64_t runs = 0;
    uint64_t failedRuns = 0;
    double setupS = 0.0;
    double wallS = 0.0;             //!< measured section (runs) only
    uint64_t simInsts = 0;
    uint64_t edges = 0;
    uint64_t bugsDetected = 0;
    uint64_t coverCompleted = 0;
    uint64_t cyclesOff = 0;
    uint64_t cyclesStd = 0;
    uint64_t cyclesCmp = 0;
    uint64_t digest = kFnvBasis;
    Layers layers;
};

double
peakRssMb()
{
    struct rusage ru;
    getrusage(RUSAGE_SELF, &ru);
    return static_cast<double>(ru.ru_maxrss) / 1024.0;
}

void
printSession(const Session &s, bool traced)
{
    std::ostringstream o;
    o.precision(10);
    o << "{\"workload\":\"" << s.workload << "\",\"seed\":" << s.seed
      << ",\"slot\":" << s.slot << ",\"trace\":" << (traced ? 1 : 0)
      << ",\"workers\":" << s.workers << ",\"config_hash\":\""
      << fmtHex(s.configHash) << "\",\"runs\":" << s.runs
      << ",\"failed_runs\":" << s.failedRuns << ",\"setup_s\":"
      << s.setupS << ",\"wall_s\":" << s.wallS
      << ",\"sim_insts\":" << s.simInsts
      << ",\"peak_rss_mb\":" << peakRssMb() << ",\"edges\":" << s.edges
      << ",\"bugs_detected\":" << s.bugsDetected
      << ",\"cover_completed\":" << s.coverCompleted
      << ",\"cycles_off\":" << s.cyclesOff
      << ",\"cycles_standard\":" << s.cyclesStd
      << ",\"cycles_cmp\":" << s.cyclesCmp << ",\"digest\":\""
      << fmtHex(s.digest) << "\"";
    if (traced) {
        o << ",\"samples\":{";
        bool first = true;
        for (const auto &[name, vals] : s.layers.samples) {
            o << (first ? "" : ",") << "\"" << name << "\":[";
            for (size_t i = 0; i < vals.size(); ++i)
                o << (i ? "," : "") << vals[i];
            o << "]";
            first = false;
        }
        o << "},\"counts\":{";
        first = true;
        for (const auto &[name, val] : s.layers.counts) {
            o << (first ? "" : ",") << "\"" << name << "\":" << val;
            first = false;
        }
        o << "}";
    }
    o << "}";
    std::cout << o.str() << std::endl;
}

// ------------------------------------------------------------------
// Shared pieces

/** The paper's tool for an app (Table 4): CCured-like or assertions. */
std::unique_ptr<detect::Detector>
makeDetector(const workloads::Workload &w)
{
    if (w.tools == "memory")
        return std::make_unique<detect::BoundsChecker>();
    if (w.tools == "assert")
        return std::make_unique<detect::AssertChecker>();
    return nullptr;
}

core::PeConfig
appConfig(const workloads::Workload &w, core::PeMode mode, bool perturb)
{
    auto cfg = core::PeConfig::forMode(mode);
    cfg.maxNtPathLength = w.maxNtPathLength + (perturb ? 1 : 0);
    return cfg;
}

struct App
{
    const workloads::Workload *workload;
    isa::Program program;
};

/** Compile (and, traced, verify) every app: the setup both share. */
std::vector<App>
loadApps(const std::vector<std::string> &names, Tracer &tr, int parent,
         Layers &layers)
{
    std::vector<App> apps;
    for (const auto &name : names) {
        const auto &w = workloads::getWorkload(name);
        auto t0 = Clock::now();
        int id = tr.open("minic.compile", parent);
        isa::Program prog = minic::compile(w.source, name);
        tr.close(id);
        if (tr.enabled()) {
            layers.samples["minic.compile_ms"].push_back(
                usBetween(t0, Clock::now()) / 1000.0);
            auto v0 = Clock::now();
            Scope s(tr, "analysis.verify", parent);
            analysis::verifyProgram(prog);
            layers.samples["analysis.verify_ms"].push_back(
                usBetween(v0, Clock::now()) / 1000.0);
        }
        apps.push_back({&w, std::move(prog)});
    }
    return apps;
}

/** Work counts every result contributes, per-layer side. */
void
countResult(const core::RunResult &r, Layers &layers)
{
    auto &c = layers.counts;
    c["sim.insts_taken"] += static_cast<double>(r.takenInstructions);
    c["sim.insts_nt"] += static_cast<double>(r.ntInstructions);
    c["sim.insts_pruned"] += static_cast<double>(r.prunedInstructions);
    c["core.nt_spawned"] += static_cast<double>(r.ntPathsSpawned);
    c["mem.l2_contention_cycles"] +=
        static_cast<double>(r.l2ContentionCycles);
    for (const auto &rec : r.ntRecords) {
        std::string cause = core::ntStopCauseName(rec.cause);
        std::replace(cause.begin(), cause.end(), '-', '_');
        c["core.nt_stop." + cause] += 1.0;
        c["core.nt_len_total"] += static_cast<double>(rec.length);
    }
    c["detect.reports"] +=
        static_cast<double>(r.monitor.numDistinctSites());
    c["coverage.trace_events"] += static_cast<double>(r.branchTrace.size());
}

/** Cold/warm split: first and last tenth of runs in completion order. */
void
coldWarm(const std::vector<double> &runUs, Layers &layers)
{
    size_t tenth = std::max<size_t>(runUs.size() / 10, 1);
    if (runUs.size() < 2)
        return;
    auto &cold = layers.samples["core.run_us.cold"];
    auto &warm = layers.samples["core.run_us.warm"];
    cold.insert(cold.end(), runUs.begin(), runUs.begin() + tenth);
    warm.insert(warm.end(), runUs.end() - tenth, runUs.end());
}

// ------------------------------------------------------------------
// Campaign workloads: detect, overhead

struct CampaignSpec
{
    std::vector<std::string> apps;
    size_t serialStride;            //!< serial split pass: every k-th job
};

CampaignSpec
campaignSpec(const std::string &name)
{
    if (name == "detect") {
        return {{"pe_bc", "pe_man", "print_tokens", "print_tokens2",
                 "schedule", "schedule2"},
                5};
    }
    return {{"pe_go", "pe_gzip", "pe_vpr"}, 10};
}

constexpr std::array<core::PeMode, 3> kModes = {
    core::PeMode::Off, core::PeMode::Standard, core::PeMode::Cmp};
constexpr std::array<const char *, 3> kModeKeys = {"off", "standard",
                                                    "cmp"};

/** Canonical job k = (app, input, mode), mode fastest. */
struct JobKey
{
    size_t app;
    size_t input;
    size_t mode;
};

JobKey
jobKey(size_t k)
{
    return {k / (kCampaignInputs * kModes.size()),
            (k / kModes.size()) % kCampaignInputs, k % kModes.size()};
}

/**
 * Serial pass over every stride-th job, each run twice: once bare
 * under one timer, once with a span around the detector factory, the
 * engine constructor and run.  This splits engine construction from
 * run, and sets the spans' summed self times (layerSelfTimes) against
 * the untraced wall time of the same jobs.
 */
void
serialSplitPass(const std::vector<App> &apps, const CampaignSpec &spec,
                bool perturb, Tracer &tr, int parent, Layers &layers)
{
    const size_t total = apps.size() * kCampaignInputs * kModes.size();
    auto runOne = [&](size_t k, int serial) {
        JobKey key = jobKey(k);
        const App &app = apps[key.app];
        auto cfg = appConfig(*app.workload, kModes[key.mode], perturb);
        const auto &input = app.workload->benignInputs[key.input];
        if (serial < 0) {
            auto det = makeDetector(*app.workload);
            core::PathExpanderEngine engine(app.program, cfg, det.get());
            return engine.run(input).cycles;
        }
        Scope job(tr, "core.job_serial", serial);
        std::unique_ptr<detect::Detector> det;
        {
            Scope s(tr, "detect.factory", job.id);
            det = makeDetector(*app.workload);
        }
        auto t0 = Clock::now();
        int b = tr.open("core.engine_build", job.id);
        core::PathExpanderEngine engine(app.program, cfg, det.get());
        tr.close(b);
        layers.samples["core.engine_build_us"].push_back(
            usBetween(t0, Clock::now()));
        Scope s(tr, "core.run", job.id);
        return engine.run(input).cycles;
    };

    double untracedUs = 0.0;
    uint64_t mismatches = 0;
    Scope serial(tr, "core.serial", parent);
    for (size_t k = 0, i = 0; k < total; k += spec.serialStride, ++i) {
        // Alternate which copy goes first, so warm caches favour neither.
        uint64_t traced = 0;
        if (i % 2)
            traced = runOne(k, serial.id);
        uint64_t plain;
        {
            // Harness time, so core's self time holds the traced copy only.
            Scope bare(tr, "bench.untraced_copy", serial.id);
            auto t0 = Clock::now();
            plain = runOne(k, -1);
            untracedUs += usBetween(t0, Clock::now());
        }
        if (i % 2 == 0)
            traced = runOne(k, serial.id);
        // Both copies run the same deterministic job.
        mismatches += plain != traced;
    }
    layers.counts["trace.serial_untraced_ms"] = untracedUs / 1000.0;
    layers.counts["trace.serial_mismatch"] = static_cast<double>(mismatches);
}

/** Per-run floor: engine.run of an empty main, Off mode. */
void
runFloor(Tracer &tr, int parent, Layers &layers)
{
    isa::Program empty = minic::compile("int main() { return 0; }",
                                        "empty");
    auto cfg = core::PeConfig::forMode(core::PeMode::Off);
    core::PathExpanderEngine engine(empty, cfg);
    for (int i = 0; i < 50; ++i) {
        auto t0 = Clock::now();
        {
            Scope s(tr, "core.run_floor", parent);
            engine.run({});
        }
        layers.samples["core.run_floor_us"].push_back(
            usBetween(t0, Clock::now()));
    }
}

Session
runCampaignSession(const std::string &name, uint64_t seed, bool perturb,
                   Tracer &tr)
{
    Session s;
    const CampaignSpec spec = campaignSpec(name);
    s.workers = workerCount();
    Layers &layers = s.layers;
    int root = tr.open("bench.session", -1);

    auto setup0 = Clock::now();
    std::vector<App> apps;
    std::vector<core::CampaignJob> jobs;
    std::vector<size_t> canon;      //!< job index -> canonical index
    {
        Scope setup(tr, "bench.setup", root);
        apps = loadApps(spec.apps, tr, setup.id, layers);
        const size_t total = apps.size() * kCampaignInputs * kModes.size();
        canon.resize(total);
        for (size_t k = 0; k < total; ++k)
            canon[k] = k;
        // The seed only orders the jobs: the set of runs, and so every
        // result folded in canonical order, is the same for any seed.
        Rng rng(seed);
        for (size_t k = total; k > 1; --k)
            std::swap(canon[k - 1], canon[rng.nextBelow(k)]);
        jobs.reserve(total);
        for (size_t k : canon) {
            JobKey key = jobKey(k);
            const App &app = apps[key.app];
            core::CampaignJob job;
            job.program = &app.program;
            job.input = app.workload->benignInputs[key.input];
            job.config =
                appConfig(*app.workload, kModes[key.mode], perturb);
            const workloads::Workload *w = app.workload;
            if (w->tools != "none")
                job.detectorFactory = [w] { return makeDetector(*w); };
            jobs.push_back(std::move(job));
        }
    }
    s.setupS = usBetween(setup0, Clock::now()) / 1e6;
    s.configHash = core::configHash(
        appConfig(*apps[0].workload, core::PeMode::Standard, perturb));

    // Traced: a job's span starts when its detector factory runs on
    // the worker (just before engine construction) and ends in the
    // completion hook on the same worker.
    std::vector<Clock::time_point> starts(jobs.size());
    std::vector<double> runUs;
    int campaignSpan = -1;
    if (tr.enabled()) {
        for (size_t j = 0; j < jobs.size(); ++j) {
            auto inner = jobs[j].detectorFactory;
            jobs[j].detectorFactory =
                [inner, &starts, j]() -> std::unique_ptr<detect::Detector> {
                starts[j] = Clock::now();
                return inner ? inner() : nullptr;
            };
        }
    }
    core::CampaignOptions copts;
    copts.threads = s.workers;
    copts.failPolicy = core::FailPolicy::continueOnError();
    if (tr.enabled()) {
        copts.onResult = [&](size_t j, const core::RunResult &) {
            auto end = Clock::now();
            const char *mode = kModeKeys[jobKey(canon[j]).mode];
            tr.record(std::string("core.job.") + mode, starts[j], end,
                      campaignSpan);
            double us = usBetween(starts[j], end);
            runUs.push_back(us);
            layers.samples[std::string("core.run_us.") + mode].push_back(us);
        };
    }

    auto c0 = Clock::now();
    campaignSpan = tr.open("core.campaign", root);
    core::CampaignOutcome out = core::runCampaign(jobs, copts);
    tr.close(campaignSpan);
    auto c1 = Clock::now();
    s.wallS = usBetween(c0, c1) / 1e6;
    s.runs = jobs.size();
    s.failedRuns = out.failures.size();
    if (tr.enabled()) {
        double busy = 0.0;
        for (double us : runUs)
            busy += us;
        layers.counts["core.campaign_busy_frac"] =
            busy / (usBetween(c0, c1) * s.workers);
        coldWarm(runUs, layers);
    }

    // Back to canonical order; failed jobs leave an empty slot.
    std::vector<const core::RunResult *> byCanon(jobs.size(), nullptr);
    for (size_t r = 0; r < out.results.size(); ++r)
        byCanon[canon[out.resultJobIndex[r]]] = &out.results[r];

    std::set<std::pair<size_t, std::string>> bugs;
    for (size_t k = 0; k < byCanon.size(); ++k) {
        const core::RunResult *r = byCanon[k];
        s.digest = fnv(s.digest, k);
        if (!r)
            continue;
        JobKey key = jobKey(k);
        if (r->aborted)
            ++s.failedRuns;
        s.simInsts += r->takenInstructions + r->ntInstructions;
        uint64_t &cyc = key.mode == 0   ? s.cyclesOff
                        : key.mode == 1 ? s.cyclesStd
                                        : s.cyclesCmp;
        cyc += r->cycles;
        s.digest = fnv(s.digest, r->memoryDigest);
        s.digest = fnv(s.digest, r->cycles);
        for (uint64_t w : r->coverage.takenWords())
            s.digest = fnv(s.digest, w);
        for (uint64_t w : r->coverage.ntWords())
            s.digest = fnv(s.digest, w);
        for (const auto &rep : r->monitor.distinctReports()) {
            s.digest = fnv(s.digest, static_cast<uint64_t>(rep.kind));
            s.digest = fnv(s.digest, rep.pc);
            s.digest = fnv(s.digest, static_cast<uint32_t>(rep.assertId));
        }
        if (tr.enabled())
            countResult(*r, layers);

        const App &app = apps[key.app];
        if (app.workload->tools == "none")
            continue;
        auto t0 = Clock::now();
        workloads::DetectionAnalysis da;
        {
            Scope sc(tr, "detect.analyze", root);
            da = workloads::analyzeReports(*app.workload, app.program,
                                           r->monitor,
                                           app.workload->tools == "memory");
        }
        if (tr.enabled())
            layers.samples["detect.analyze_us"].push_back(
                usBetween(t0, Clock::now()));
        for (const auto &o : da.outcomes) {
            if (o.detected)
                bugs.emplace(key.app, o.bug->id);
        }
    }
    s.bugsDetected = bugs.size();

    // Union coverage per app through the public merge-reduce.
    for (size_t a = 0; a < apps.size(); ++a) {
        std::vector<core::RunResult> mine;
        for (size_t r = 0; r < out.results.size(); ++r) {
            if (jobKey(canon[out.resultJobIndex[r]]).app == a)
                mine.push_back(std::move(out.results[r]));
        }
        auto t0 = Clock::now();
        int id = tr.open("coverage.merge", root);
        auto merged = core::mergeCoverage(apps[a].program, mine);
        tr.close(id);
        if (tr.enabled())
            layers.samples["coverage.merge_us"].push_back(
                usBetween(t0, Clock::now()));
        s.edges += merged.combinedCovered();
    }

    if (tr.enabled()) {
        serialSplitPass(apps, spec, perturb, tr, root, layers);
        runFloor(tr, root, layers);
    }
    tr.close(root);
    return s;
}

// ------------------------------------------------------------------
// Exploration workloads: explore, explore_path

const std::vector<std::string> kExploreApps = {"schedule", "schedule2",
                                               "print_tokens"};

/** Explorer master seed for a seed slot (see run.py: seed mod slots). */
uint64_t
slotSeed(uint64_t slot)
{
    return Rng(0x5eedbea7ull + slot).fork(0x9e11).next64();
}

Session
runExploreSession(const std::string &name, uint64_t seed, bool perturb,
                  Tracer &tr)
{
    const bool pathMode = name == "explore_path";
    Session s;
    s.workers = workerCount();
    s.slot = seed % kExploreSlots;
    Layers &layers = s.layers;
    int root = tr.open("bench.session", -1);

    // Traced run spans: start stamped by the (null) detector factory
    // on the worker, end in the completion hook on the same worker.
    thread_local Clock::time_point runStart;
    int stepSpan = -1;
    std::vector<double> runUs;
    struct Trace
    {
        std::vector<uint32_t> events;
        bool truncated;
        bool clean;
    };
    std::vector<Trace> traces;

    auto setup0 = Clock::now();
    std::vector<App> apps;
    std::vector<std::unique_ptr<explore::Explorer>> explorers;
    {
        Scope setup(tr, "bench.setup", root);
        apps = loadApps(kExploreApps, tr, setup.id, layers);
        for (const App &app : apps) {
            if (pathMode && tr.enabled()) {
                auto t0 = Clock::now();
                Scope sp(tr, "analysis.primepaths", setup.id);
                analysis::Cfg cfg(app.program);
                auto set = analysis::enumeratePrimePaths(cfg);
                auto cover = analysis::computePathCover(cfg, set);
                layers.samples["analysis.primepaths_ms"].push_back(
                    usBetween(t0, Clock::now()) / 1000.0);
                layers.counts["analysis.prime_paths"] +=
                    static_cast<double>(set.paths.size());
                layers.counts["analysis.path_cover"] +=
                    static_cast<double>(cover.size());
            }
            explore::ExploreOptions opts;
            opts.config = appConfig(*app.workload, core::PeMode::Standard,
                                    perturb);
            opts.config.recordEdgeTrace = pathMode;
            opts.pathObjective = pathMode;
            opts.budget.maxRuns = kExploreRuns;
            opts.budget.plateauBatches = 0;
            opts.batchSize = 8;
            opts.seed = slotSeed(s.slot);
            opts.threads = s.workers;
            opts.failPolicy = core::FailPolicy::continueOnError();
            opts.label = app.workload->name;
            if (tr.enabled()) {
                opts.detectorFactory =
                    []() -> std::unique_ptr<detect::Detector> {
                    runStart = Clock::now();
                    return nullptr;
                };
                opts.onRun = [&](const core::RunResult &r) {
                    auto end = Clock::now();
                    tr.record("core.job.standard", runStart, end, stepSpan);
                    double us = usBetween(runStart, end);
                    runUs.push_back(us);
                    layers.samples["core.run_us.standard"].push_back(us);
                    countResult(r, layers);
                    if (pathMode) {
                        traces.push_back(
                            {r.branchTrace, r.branchTraceTruncated,
                             r.stopCause == core::RunStopCause::Completed});
                    }
                };
            }
            const auto &benign = app.workload->benignInputs;
            std::vector<std::vector<int32_t>> seeds(
                benign.begin(), benign.begin() + kExploreSeeds);
            Scope sc(tr, "explore.construct", setup.id);
            explorers.push_back(std::make_unique<explore::Explorer>(
                app.program, std::move(seeds), std::move(opts)));
        }
    }
    s.setupS = usBetween(setup0, Clock::now()) / 1e6;
    s.configHash = core::configHash(explorers[0]->options().config);

    for (size_t a = 0; a < apps.size(); ++a) {
        explore::Explorer &ex = *explorers[a];
        traces.clear();
        runUs.clear();
        auto e0 = Clock::now();
        int appSpan = tr.open("explore.session", root);
        if (!tr.enabled()) {
            ex.run();
        } else {
            // One step() per batch: step(1) runs exactly the seed
            // batch, step(batchSize) exactly one mutation batch.
            for (uint64_t want = 1;; want = ex.options().batchSize) {
                auto b0 = Clock::now();
                stepSpan = tr.open("explore.step", appSpan);
                uint64_t ran = ex.step(want);
                tr.close(stepSpan);
                if (ran == 0)
                    break;
                layers.samples["explore.batch_ms"].push_back(
                    usBetween(b0, Clock::now()) / 1000.0);
            }
            ex.finish();
            coldWarm(runUs, layers);
        }
        tr.close(appSpan);
        s.wallS += usBetween(e0, Clock::now()) / 1e6;

        const auto &res = ex.progress();
        s.runs += res.runs;
        s.failedRuns += res.failedJobs;
        s.simInsts += res.instructions;
        const auto &corp = ex.corpus();
        s.edges += corp.frontier().combinedCovered();
        s.digest = fnv(s.digest, res.runs);
        s.digest = fnv(s.digest, res.instructions);
        s.digest = fnv(s.digest, res.ntSpawned);
        s.digest = fnv(s.digest, explore::coverageDigest(corp.frontier()));
        s.digest = fnv(s.digest, corp.size());
        for (const auto &entry : corp.entries()) {
            for (int32_t v : entry.input)
                s.digest = fnv(s.digest, static_cast<uint32_t>(v));
            s.digest = fnv(s.digest, explore::coverageDigest(entry.coverage));
        }
        if (const auto *paths = ex.pathTracker()) {
            s.digest = fnv(s.digest, paths->digest());
            s.coverCompleted += paths->coverCompleted();
        }
        if (tr.enabled()) {
            uint64_t admitted = 0;
            for (const auto &b : res.history)
                admitted += b.admitted;
            layers.counts["explore.admitted"] += static_cast<double>(admitted);
            layers.counts["explore.corpus"] +=
                static_cast<double>(corp.size());
            layers.counts["explore.runs"] += static_cast<double>(res.runs);
        }
        if (pathMode && tr.enabled()) {
            // Re-fold every run's trace into a fresh tracker through
            // the public fold: times the fold from outside and checks
            // the explorer's tracker (OR-merge, order-free).
            int build = tr.open("coverage.pathcov_build", root);
            coverage::PathCoverage replay(apps[a].program);
            tr.close(build);
            for (const Trace &t : traces) {
                auto t0 = Clock::now();
                {
                    Scope sc(tr, "coverage.pathcov_fold", root);
                    replay.fold(t.events, t.truncated, t.clean);
                }
                layers.samples["coverage.pathcov_fold_us"].push_back(
                    usBetween(t0, Clock::now()));
            }
            layers.counts["coverage.fold_mismatch"] +=
                replay.digest() != ex.pathTracker()->digest() ? 1.0 : 0.0;
        }
    }
    tr.close(root);
    return s;
}

// ------------------------------------------------------------------

/**
 * Sum span self times per layer (the span name up to its first dot),
 * plus two derived figures: the self time of the serial pass's job
 * subtrees, and the part of each explorer batch not inside a run.
 */
void
layerSelfTimes(const Tracer &tr, Layers &layers)
{
    auto self = tr.selfTimesUs();
    const auto &spans = tr.all();
    auto &c = layers.counts;
    for (size_t i = 0; i < spans.size(); ++i) {
        const Span &sp = spans[i];
        c["self_ms." + sp.name.substr(0, sp.name.find('.'))] +=
            self[i] / 1000.0;
        bool inJob = sp.name == "core.job_serial" ||
                     (sp.parent >= 0 &&
                      spans[sp.parent].name == "core.job_serial");
        if (inJob)
            c["trace.serial_selfsum_ms"] += self[i] / 1000.0;
        if (sp.name == "explore.step") {
            c["explore.step_wall_us"] += usBetween(sp.start, sp.end);
            c["explore.step_self_us"] += self[i];
        }
    }
}

[[noreturn]] void
usage()
{
    std::cerr << "usage: pebench --workload detect|overhead|explore|"
                 "explore_path --seed N [--trace 0|1] [--spans FILE] "
                 "[--perturb]\n";
    std::exit(2);
}

} // namespace

int
main(int argc, char **argv)
{
    std::string workload, spansPath;
    uint64_t seed = 0;
    bool trace = false, perturb = false, haveSeed = false;
    for (int i = 1; i < argc; ++i) {
        std::string a = argv[i];
        auto value = [&]() -> std::string {
            if (i + 1 >= argc)
                usage();
            return argv[++i];
        };
        if (a == "--workload") {
            workload = value();
        } else if (a == "--seed") {
            seed = std::stoull(value());
            haveSeed = true;
        } else if (a == "--trace") {
            trace = value() == "1";
        } else if (a == "--spans") {
            spansPath = value();
        } else if (a == "--perturb") {
            perturb = true;
        } else {
            usage();
        }
    }
    const bool campaign = workload == "detect" || workload == "overhead";
    const bool exploring =
        workload == "explore" || workload == "explore_path";
    if (!haveSeed || !(campaign || exploring))
        usage();

    setQuiet(true);
    try {
        Tracer tr(trace, seed);
        Session s = campaign
                        ? runCampaignSession(workload, seed, perturb, tr)
                        : runExploreSession(workload, seed, perturb, tr);
        s.workload = workload;
        s.seed = seed;
        if (trace) {
            layerSelfTimes(tr, s.layers);
            if (!spansPath.empty())
                tr.write(spansPath);
        }
        printSession(s, trace);
    } catch (const std::exception &e) {
        std::cerr << "pebench: " << e.what() << "\n";
        return 1;
    }
    return 0;
}
