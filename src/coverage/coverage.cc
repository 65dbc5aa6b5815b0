/**
 * @file
 * Branch-coverage implementation.
 */

#include "src/coverage/coverage.hh"

#include <algorithm>

#include "src/support/status.hh"

namespace pe::coverage
{

BranchCoverage::BranchCoverage(const isa::Program &program)
    : total(2 * program.numBranches())
{
    // Two edge bits per code index; only branch pcs are ever set, but
    // sizing by the code extent makes the key a pure shift with no
    // per-edge lookup table.
    size_t bitsNeeded = 2 * program.code.size();
    takenBits.assign((bitsNeeded + 63) / 64, 0);
    ntBits.assign((bitsNeeded + 63) / 64, 0);
}

size_t
BranchCoverage::ntOnlyCovered() const
{
    size_t n = 0;
    for (size_t i = 0; i < ntBits.size(); ++i)
        n += static_cast<size_t>(std::popcount(ntBits[i] & ~takenBits[i]));
    return n;
}

size_t
BranchCoverage::combinedCovered() const
{
    size_t n = 0;
    for (size_t i = 0; i < ntBits.size(); ++i)
        n += static_cast<size_t>(std::popcount(ntBits[i] | takenBits[i]));
    return n;
}

double
BranchCoverage::takenFraction() const
{
    return total ? static_cast<double>(takenCovered()) /
                       static_cast<double>(total)
                 : 0.0;
}

double
BranchCoverage::combinedFraction() const
{
    return total ? static_cast<double>(combinedCovered()) /
                       static_cast<double>(total)
                 : 0.0;
}

void
BranchCoverage::mergeFrom(const BranchCoverage &other)
{
    if (other.takenBits.size() > takenBits.size()) {
        takenBits.resize(other.takenBits.size(), 0);
        ntBits.resize(other.ntBits.size(), 0);
    }
    total = std::max(total, other.total);
    for (size_t i = 0; i < other.takenBits.size(); ++i) {
        takenBits[i] |= other.takenBits[i];
        ntBits[i] |= other.ntBits[i];
    }
}

void
BranchCoverage::restoreWords(const std::vector<uint64_t> &taken,
                             const std::vector<uint64_t> &nt)
{
    pe_assert(taken.size() == takenBits.size() &&
                  nt.size() == ntBits.size(),
              "coverage restore with mismatched bitmap size");
    takenBits = taken;
    ntBits = nt;
}

size_t
BranchCoverage::newEdgesOver(const BranchCoverage &frontier) const
{
    size_t common = std::min(takenBits.size(),
                             frontier.takenBits.size());
    size_t n = 0;
    for (size_t i = 0; i < common; ++i) {
        uint64_t mine = takenBits[i] | ntBits[i];
        uint64_t theirs =
            frontier.takenBits[i] | frontier.ntBits[i];
        n += static_cast<size_t>(std::popcount(mine & ~theirs));
    }
    for (size_t i = common; i < takenBits.size(); ++i)
        n += static_cast<size_t>(
            std::popcount(takenBits[i] | ntBits[i]));
    return n;
}

EdgeExerciseCounts::EdgeExerciseCounts(const isa::Program &program)
    : counts(2 * program.code.size(), 0)
{}

void
EdgeExerciseCounts::accumulate(const BranchCoverage &run)
{
    ++runs;
    const auto &taken = run.takenWords();
    const auto &nt = run.ntWords();
    for (size_t w = 0; w < taken.size(); ++w) {
        uint64_t bits = taken[w] | nt[w];
        while (bits) {
            unsigned bit = static_cast<unsigned>(
                std::countr_zero(bits));
            size_t edge = w * 64 + bit;
            if (edge < counts.size())
                ++counts[edge];
            bits &= bits - 1;
        }
    }
}

uint32_t
EdgeExerciseCounts::rarityThreshold(double percentile) const
{
    std::vector<uint32_t> seen;
    for (uint32_t c : counts) {
        if (c > 0)
            seen.push_back(c);
    }
    if (seen.empty())
        return 0;
    percentile = std::clamp(percentile, 0.0, 1.0);
    size_t rank = static_cast<size_t>(
        percentile * static_cast<double>(seen.size() - 1));
    std::nth_element(seen.begin(), seen.begin() + rank, seen.end());
    return seen[rank];
}

void
EdgeExerciseCounts::restoreCounts(const std::vector<uint32_t> &newCounts,
                                  uint64_t runsAccumulated)
{
    pe_assert(newCounts.size() == counts.size(),
              "exercise-count restore with mismatched edge universe");
    counts = newCounts;
    runs = runsAccumulated;
}

size_t
EdgeExerciseCounts::countRareIn(const BranchCoverage &run,
                                uint32_t threshold) const
{
    const auto &taken = run.takenWords();
    const auto &nt = run.ntWords();
    size_t n = 0;
    for (size_t w = 0; w < taken.size(); ++w) {
        uint64_t bits = taken[w] | nt[w];
        while (bits) {
            unsigned bit = static_cast<unsigned>(
                std::countr_zero(bits));
            size_t edge = w * 64 + bit;
            if (edge < counts.size() && counts[edge] <= threshold)
                ++n;
            bits &= bits - 1;
        }
    }
    return n;
}

} // namespace pe::coverage
