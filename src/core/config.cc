/**
 * @file
 * Configuration helpers.
 */

#include "src/core/config.hh"

#include <type_traits>

namespace pe::core
{

const char *
peModeName(PeMode mode)
{
    switch (mode) {
      case PeMode::Off: return "baseline";
      case PeMode::Standard: return "pe-standard";
      case PeMode::Cmp: return "pe-cmp";
    }
    return "?";
}

PeConfig
PeConfig::forMode(PeMode m)
{
    PeConfig cfg;
    cfg.mode = m;
    cfg.timing = (m == PeMode::Cmp) ? sim::TimingConfig::cmpConfig()
                                    : sim::TimingConfig::standardConfig();
    return cfg;
}

namespace
{

/** Field-by-field FNV-1a; explicit per field so padding never leaks. */
struct Fnv
{
    uint64_t h = 0xcbf29ce484222325ull;

    void bytes(const void *p, size_t n)
    {
        const auto *b = static_cast<const unsigned char *>(p);
        for (size_t i = 0; i < n; ++i) {
            h ^= b[i];
            h *= 0x100000001b3ull;
        }
    }

    template <typename T>
    void value(T v)
    {
        static_assert(std::is_arithmetic_v<T> || std::is_enum_v<T>);
        bytes(&v, sizeof v);
    }

    void str(const std::string &s)
    {
        value(s.size());
        bytes(s.data(), s.size());
    }
};

} // namespace

uint64_t
configHash(const PeConfig &cfg)
{
    Fnv f;
    f.value(cfg.mode);
    f.value(cfg.costModel);
    f.value(cfg.maxNtPathLength);
    f.value(cfg.ntPathCounterThreshold);
    f.value(cfg.maxNumNtPaths);
    f.value(cfg.counterResetInterval);
    f.value(cfg.variableFixing);
    f.value(cfg.followNonTakenInNt);
    f.value(cfg.randomSpawnFraction);
    f.value(cfg.randomSpawnSeed);
    f.value(cfg.sandboxIo);
    f.value(cfg.numCores);
    f.value(cfg.maxTakenInstructions);
    f.value(cfg.maxSegmentDepth);
    f.value(false);     // retired spawnPreFilter bit; keeps old hashes valid
    f.value(false);     // retired self-pruning bit; keeps old hashes valid
    f.value(cfg.recordEdgeTrace);
    f.value(cfg.edgeTraceCap);
    for (const auto &fn : cfg.noSpawnFuncs)
        f.str(fn);
    f.value(cfg.layout.memWords);
    f.value(cfg.layout.stackWords);
    f.value(cfg.btbParams.entries);
    f.value(cfg.btbParams.ways);
    f.value(cfg.btbParams.counterBits);
    f.value(cfg.timing.aluCost);
    f.value(cfg.timing.mulCost);
    f.value(cfg.timing.divCost);
    f.value(cfg.timing.branchCost);
    f.value(cfg.timing.jumpCost);
    f.value(cfg.timing.sysCost);
    f.value(cfg.timing.allocCost);
    f.value(cfg.timing.regObjCost);
    f.value(cfg.timing.fixCost);
    f.value(cfg.timing.spawnOverhead);
    f.value(cfg.timing.squashOverhead);
    f.value(cfg.timing.mem.l1HitLatency);
    f.value(cfg.timing.mem.l2HitLatency);
    f.value(cfg.timing.mem.memLatency);
    f.value(cfg.timing.mem.l2PortHold);
    f.value(cfg.timing.mem.memPortHold);
    f.value(cfg.swCosts.perInstructionDilation);
    f.value(cfg.swCosts.branchAnalysisCost);
    f.value(cfg.swCosts.checkpointCost);
    f.value(cfg.swCosts.ntWriteLogCost);
    f.value(cfg.swCosts.ntRestorePerWord);
    f.value(cfg.swCosts.restoreRegsCost);
    return f.h;
}

} // namespace pe::core
