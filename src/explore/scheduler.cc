/**
 * @file
 * Scheduler implementation.
 */

#include "src/explore/scheduler.hh"

#include <algorithm>

#include "src/support/status.hh"

namespace pe::explore
{

const char *
schedulePolicyName(SchedulePolicy policy)
{
    switch (policy) {
      case SchedulePolicy::UniformRandom: return "uniform-random";
      case SchedulePolicy::RareEdgeWeighted: return "rare-edge";
    }
    return "?";
}

Scheduler::Scheduler(SchedulePolicy policy, Rng rng)
    : policy(policy), rng(rng)
{}

double
Scheduler::energy(const CorpusEntry &entry) const
{
    if (policy == SchedulePolicy::UniformRandom)
        return 1.0;
    // Rare edges dominate; early-stopped NT-Paths add a bounded
    // bonus; repeated selection decays the whole product so fresh
    // frontier entries get their turn.
    double rare = 1.0 + 4.0 * static_cast<double>(entry.rareEdges);
    double depth =
        1.0 + 0.25 * static_cast<double>(
                         std::min<uint64_t>(entry.ntEarlyStops, 8));
    double fatigue =
        1.0 + 0.5 * static_cast<double>(entry.timesScheduled);
    // Path-cover adjacency: 0 unless the explorer runs with
    // pathObjective, preserving bit-identity the same way.
    double pathw = 1.0 + entry.pathEnergy;
    return rare * depth * pathw / fatigue;
}

std::vector<size_t>
Scheduler::pick(Corpus &corpus, size_t batchSize)
{
    pe_assert(corpus.size() > 0, "scheduling over an empty corpus");
    auto &entries = corpus.entries();

    std::vector<size_t> picks;
    picks.reserve(batchSize);
    std::vector<double> cumulative(entries.size());
    for (size_t b = 0; b < batchSize; ++b) {
        // Recompute each draw: timesScheduled feedback within the
        // batch spreads picks across entries of similar energy.
        double sum = 0.0;
        for (size_t i = 0; i < entries.size(); ++i) {
            sum += energy(entries[i]);
            cumulative[i] = sum;
        }
        double r = rng.nextDouble() * sum;
        size_t idx = static_cast<size_t>(
            std::lower_bound(cumulative.begin(), cumulative.end(),
                             r) -
            cumulative.begin());
        if (idx >= entries.size())
            idx = entries.size() - 1;
        ++entries[idx].timesScheduled;
        picks.push_back(idx);
    }
    return picks;
}

} // namespace pe::explore
