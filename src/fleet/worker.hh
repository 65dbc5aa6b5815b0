/**
 * @file
 * Fleet worker: one shard's exploration loop, driven over a pipe.
 *
 * A worker is a forked child that owns a full Explorer for its slice
 * of the seed space.  It never decides anything global: the
 * coordinator tells it how many runs to spend each round
 * (RoundStart), hands it the merged frontier delta and foreign
 * corpus entries to import, and the worker answers with its own
 * delta (RoundDelta).  Everything else — work stealing, plateaus,
 * global budget — is the coordinator's problem, which keeps the
 * worker simple enough to be obviously deterministic: its only
 * inputs are the shard seed, its seed slice, and the byte-exact
 * frame sequence.
 */

#ifndef PE_FLEET_WORKER_HH
#define PE_FLEET_WORKER_HH

#include <cstdint>
#include <iosfwd>
#include <string>
#include <vector>

#include "src/explore/explorer.hh"
#include "src/fleet/protocol.hh"
#include "src/isa/program.hh"

namespace pe::fleet
{

/**
 * Worker-local run budget the coordinator's metering must beat: the
 * coordinator hands out runs round by round, so the worker's own
 * budget is set to a value it can never reach.
 */
constexpr uint64_t kUnboundedRuns = ~0ull / 2;

/**
 * Derive one shard's explorer options from the fleet's base options:
 * the shard seed replaces the master seed, budgets/checkpoints/output
 * streams stay with the coordinator, and the label gains a /shardN
 * suffix.  Both the forking coordinator and a remote `--connect`
 * worker MUST build their options through this one function — it is
 * the code-level half of the determinism contract (the session
 * identity in Join and Hello is the wire-level half).
 */
explore::ExploreOptions
shardWorkerOptions(const explore::ExploreOptions &base,
                   uint64_t shardSeed, uint32_t shard,
                   unsigned workerThreads);

/** Everything a forked worker needs besides the fd. */
struct WorkerConfig
{
    /** Hello the coordinator must send for this worker to proceed. */
    Hello expect;

    /** Shard-local explorer options (seed already set to shardSeed). */
    explore::ExploreOptions opts;

    /** This shard's slice of the fleet's seed inputs. */
    std::vector<std::vector<int32_t>> seeds;
};

/**
 * The worker process body: negotiate, then serve rounds until Stop
 * or EOF.  Returns the child's exit code (0 = clean shutdown).
 * Validation failures send an Error frame before exiting nonzero so
 * the coordinator can log *why* the shard refused to start.
 */
int workerMain(int fd, const isa::Program &program,
               const WorkerConfig &config);

/** Everything a dialing (TCP) worker needs. */
struct RemoteWorkerOptions
{
    /** Coordinator address, `host:port`. */
    std::string connect;

    /** Fleet width — must match the coordinator's --shards. */
    uint32_t shards = 0;

    /**
     * Fleet-level base options, exactly as the coordinator sees them
     * (seed = master seed).  The worker derives its own shard options
     * through shardWorkerOptions once the coordinator assigns it a
     * shard.
     */
    explore::ExploreOptions base;

    /** The FULL fleet seed list (the plan deals indices into it). */
    std::vector<std::vector<int32_t>> seeds;

    /** Campaign worker threads; 0 = PE_JOBS default. */
    unsigned workerThreads = 0;

    /** Consecutive dial failures before giving up (coordinator not
     *  up yet, or a dropped connection being re-established). */
    int dialAttempts = 40;

    /** Base delay between dial attempts, ms; consecutive failures
     *  back off exponentially (with seeded jitter) from here. */
    int redialDelayMs = 250;

    /** Ceiling the exponential redial backoff saturates at, ms. */
    int redialMaxMs = 5000;

    /** Human-readable status stream; may be null. */
    std::ostream *status = nullptr;
};

/**
 * Deterministic exponential redial backoff: attempt 0 waits ~baseMs,
 * each further consecutive failure doubles the wait until it
 * saturates at maxMs.  A seeded FNV jitter subtracts up to half the
 * raw wait — per (seedWord, attempt), so a fleet of workers sharing
 * one dead coordinator spreads its redials out instead of thundering
 * in lockstep, while any rerun of the same session reproduces the
 * same schedule byte for byte.  Pure function; always >= 1 ms.
 */
int dialBackoffMs(uint64_t seedWord, uint64_t attempt, int baseMs,
                  int maxMs);

/**
 * The remote worker body: derive the shard plan locally, dial the
 * coordinator, Join (wildcard shard), run the Hello handshake, then
 * serve rounds.  A dropped connection is survivable as long as this
 * process survives: the worker redials with its pinned shard id and
 * last acked round, and the coordinator replays the RoundStart it
 * missed; an already-executed round is answered from the stored
 * delta without re-executing, so reconnects never perturb the
 * deterministic merge.  Returns the process exit code.
 */
int remoteWorkerMain(const isa::Program &program,
                     const RemoteWorkerOptions &options);

} // namespace pe::fleet

#endif // PE_FLEET_WORKER_HH
