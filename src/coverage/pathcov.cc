/**
 * @file
 * Prime-path completion tracker: build, fold, merge, serialize.
 */

#include "src/coverage/pathcov.hh"

#include <bit>

#include "src/support/status.hh"

namespace pe::coverage
{

namespace
{

/** Fold-walker step bound: replay can never exceed a real run. */
constexpr uint64_t kMaxFoldSteps = 1ull << 22;

uint64_t
fnvMix(uint64_t h, uint64_t v)
{
    for (int i = 0; i < 8; ++i) {
        h ^= (v >> (8 * i)) & 0xff;
        h *= 1099511628211ull;
    }
    return h;
}

} // namespace

PathCoverage::PathCoverage(const isa::Program &program)
{
    const analysis::Cfg cfg(program);
    const analysis::PrimePathSet set =
        analysis::enumeratePrimePaths(cfg);
    build(cfg, set, analysis::computePathCover(cfg, set));
}

void
PathCoverage::build(const analysis::Cfg &cfg,
                    const analysis::PrimePathSet &set,
                    const std::vector<uint32_t> &cover)
{
    const auto &blocks = cfg.blocks();
    const auto &edges = cfg.edges();
    const isa::Program &program = cfg.program();

    pathCount = static_cast<uint32_t>(set.paths.size());
    setTruncated = set.truncated;
    if (program.entry < program.code.size())
        entryBlock = cfg.blockOf(program.entry);
    bits.assign((pathCount + 63) / 64, 0);

    // Flatten the cover paths' decision keys (cover adjacency), in
    // cover order.
    coverIds = cover;
    decisionOffsets.assign(1, 0);
    for (uint32_t id : coverIds) {
        for (uint32_t e : set.paths[id].edges) {
            const analysis::CfgEdge &edge = edges[e];
            if (edge.kind == analysis::EdgeKind::BranchTaken ||
                edge.kind == analysis::EdgeKind::BranchNotTaken) {
                const uint32_t pc = blocks[edge.from].lastPc;
                const bool taken =
                    edge.kind == analysis::EdgeKind::BranchTaken;
                pathDecisions.push_back((pc << 1) | (taken ? 1u : 0u));
            }
        }
        decisionOffsets.push_back(
            static_cast<uint32_t>(pathDecisions.size()));
    }

    // Walker tables: classify each block by its successor edge kinds
    // (the CFG already encodes the interpreter's control rules); only
    // the no-successor case needs the opcode, to tell a Jr return
    // from a genuine exit.
    const uint32_t nb = static_cast<uint32_t>(blocks.size());
    blockKind.assign(nb, BlockKind::Exit);
    branchPc.assign(nb, 0);
    succBlock.assign(nb, analysis::noBlock);
    succEdge.assign(nb, 0);
    altBlock.assign(nb, analysis::noBlock);
    altEdge.assign(nb, 0);
    retBlock.assign(nb, analysis::noBlock);
    retEdge.assign(nb, 0);
    for (uint32_t id = 0; id < nb; ++id) {
        BlockKind kind = BlockKind::Exit;
        for (uint32_t e : blocks[id].succs) {
            const analysis::CfgEdge &edge = edges[e];
            switch (edge.kind) {
              case analysis::EdgeKind::BranchTaken:
                kind = BlockKind::Cond;
                branchPc[id] = blocks[id].lastPc;
                succBlock[id] = edge.to;
                succEdge[id] = e;
                break;
              case analysis::EdgeKind::BranchNotTaken:
                kind = BlockKind::Cond;
                branchPc[id] = blocks[id].lastPc;
                altBlock[id] = edge.to;
                altEdge[id] = e;
                break;
              case analysis::EdgeKind::Jump:
                kind = BlockKind::Jump;
                succBlock[id] = edge.to;
                succEdge[id] = e;
                break;
              case analysis::EdgeKind::Call:
                kind = BlockKind::Call;
                succBlock[id] = edge.to;
                succEdge[id] = e;
                break;
              case analysis::EdgeKind::CallReturn:
                kind = BlockKind::Call;
                retBlock[id] = edge.to;
                retEdge[id] = e;
                break;
              case analysis::EdgeKind::FallThrough:
                kind = BlockKind::Fall;
                succBlock[id] = edge.to;
                succEdge[id] = e;
                break;
            }
        }
        if (blocks[id].succs.empty() &&
            program.code[blocks[id].lastPc].op == isa::Opcode::Jr)
            kind = BlockKind::Ret;
        blockKind[id] = kind;
    }

    buildAutomaton(cfg, set);
}

uint32_t
PathCoverage::slotEdge(uint32_t block, uint32_t slot) const
{
    switch (blockKind[block]) {
      case BlockKind::Cond:
        if (slot == 0)
            return succBlock[block] != analysis::noBlock ? succEdge[block]
                                                         : kNone;
        return altBlock[block] != analysis::noBlock ? altEdge[block]
                                                    : kNone;
      case BlockKind::Jump:
      case BlockKind::Fall:
        return slot == 0 && succBlock[block] != analysis::noBlock
                   ? succEdge[block]
                   : kNone;
      case BlockKind::Call:
        return slot == 0 && retBlock[block] != analysis::noBlock
                   ? retEdge[block]
                   : kNone;
      default:
        return kNone;
    }
}

void
PathCoverage::buildAutomaton(const analysis::Cfg &cfg,
                             const analysis::PrimePathSet &set)
{
    const auto &edges = cfg.edges();
    rootNext.assign(edges.size(), 0);
    states.assign(1, State{{0, 0}, kNone, 0});
    blockPath.assign(cfg.blocks().size(), kNone);

    // The trie, in path-id order straight into the slot table (slot
    // value 0 = no child yet: the root is never anyone's child).
    for (uint32_t id = 0; id < pathCount; ++id) {
        const analysis::PrimePath &p = set.paths[id];
        if (p.edges.empty()) {
            blockPath[p.startBlock] = id;
            continue;
        }
        uint32_t s = 0;
        for (uint32_t e : p.edges) {
            const analysis::CfgEdge &edge = edges[e];
            const uint32_t slot =
                edge.kind == analysis::EdgeKind::BranchNotTaken ? 1 : 0;
            pe_assert(slotEdge(edge.from, slot) == e,
                      "prime path leaves block ", edge.from,
                      " by an edge the fold walker never takes");
            uint32_t &child = s == 0 ? rootNext[e] : states[s].next[slot];
            if (child == 0)
                child = static_cast<uint32_t>(states.size());
            s = child;
            if (s == states.size())
                states.push_back(State{{0, 0}, kNone, 0});
        }
        states[s].path = id;
    }

    // Breadth-first, carrying each state's block: set each child's
    // fail target (its longest proper suffix that is a path prefix:
    // the root, or a state ending on the same edge, so the same slots
    // apply) and dictionary link, and fill missing slots from the
    // state's own fail target, which is shallower and so already
    // complete.
    struct Pending
    {
        uint32_t state;
        uint32_t block;
    };
    std::vector<Pending> queue;
    std::vector<uint32_t> fail(states.size(), 0);
    for (uint32_t e = 0; e < rootNext.size(); ++e) {
        if (rootNext[e] != 0)
            queue.push_back(Pending{rootNext[e], edges[e].to});
    }
    for (size_t qi = 0; qi < queue.size(); ++qi) {
        const Pending cur = queue[qi];
        const uint32_t f = fail[cur.state];
        for (uint32_t slot = 0; slot < 2; ++slot) {
            const uint32_t e = slotEdge(cur.block, slot);
            const uint32_t target =
                e == kNone ? 0
                           : (f == 0 ? rootNext[e] : states[f].next[slot]);
            const uint32_t child = states[cur.state].next[slot];
            if (child == 0) {
                states[cur.state].next[slot] = target;
                continue;
            }
            fail[child] = target;
            states[child].dict = states[target].path != kNone
                                     ? target
                                     : states[target].dict;
            queue.push_back(Pending{child, edges[e].to});
        }
    }
}

void
PathCoverage::fold(const std::vector<uint32_t> &trace,
                   bool traceTruncated, bool cleanExit)
{
    statFolded++;
    if (traceTruncated)
        statTruncated++;
    if (entryBlock == analysis::noBlock)
        return;

    struct Frame
    {
        uint32_t retB;
        uint32_t retE;
        uint32_t saved;
    };
    std::vector<Frame> frames;
    uint32_t state = 0;
    uint32_t cur = entryBlock;
    size_t ti = 0;
    bool desync = false;
    uint64_t steps = 0;

    for (;;) {
        if (++steps > kMaxFoldSteps) {
            desync = true;
            break;
        }
        if (blockPath[cur] != kNone)
            completePath(blockPath[cur]);

        const BlockKind kind = blockKind[cur];
        if (kind == BlockKind::Exit)
            break;
        if (kind == BlockKind::Cond) {
            if (ti >= trace.size())
                break;   // crash or recording cap hit mid-run
            const uint32_t ev = trace[ti++];
            if ((ev >> 1) != branchPc[cur]) {
                desync = true;
                break;
            }
            const bool taken = (ev & 1) != 0;
            const uint32_t nb = taken ? succBlock[cur] : altBlock[cur];
            if (nb == analysis::noBlock)
                break;   // fell off the program end
            state = taken ? step(state, succEdge[cur], 0)
                          : step(state, altEdge[cur], 1);
            cur = nb;
            continue;
        }

        // Non-consuming step.  A run that did not exit cleanly gets
        // no credit for the straight-line tail past its last branch:
        // the crash point is somewhere in there and the walk cannot
        // tell which side of it a block is on.
        if (!cleanExit && ti == trace.size())
            break;
        if (kind == BlockKind::Jump || kind == BlockKind::Fall) {
            if (succBlock[cur] == analysis::noBlock)
                break;
            state = step(state, succEdge[cur], 0);
            cur = succBlock[cur];
            continue;
        }
        if (kind == BlockKind::Call) {
            if (succBlock[cur] == analysis::noBlock)
                break;
            if (frames.size() >= kMaxFoldDepth) {
                desync = true;
                break;
            }
            frames.push_back(Frame{retBlock[cur], retEdge[cur], state});
            state = 0;
            cur = succBlock[cur];
            continue;
        }
        // Ret: resume the caller's suspended state across the
        // CallReturn edge (intraprocedural path semantics).
        if (frames.empty()) {
            desync = true;
            break;
        }
        const Frame f = frames.back();
        frames.pop_back();
        if (f.retB == analysis::noBlock)
            break;
        state = step(f.saved, f.retE, 0);
        cur = f.retB;
    }
    if (desync)
        statDesync++;
}

void
PathCoverage::merge(const PathCoverage &other)
{
    pe_assert(other.pathCount == pathCount,
              "merging path trackers of different programs");
    for (size_t i = 0; i < bits.size(); ++i)
        bits[i] |= other.bits[i];
    statFolded += other.statFolded;
    statTruncated += other.statTruncated;
    statDesync += other.statDesync;
}

void
PathCoverage::mergeWords(const std::vector<uint64_t> &incoming)
{
    pe_assert(incoming.size() == bits.size(),
              "merging path words of a different path-id space");
    for (size_t i = 0; i < bits.size(); ++i)
        bits[i] |= incoming[i];
}

void
PathCoverage::restoreWords(const std::vector<uint64_t> &saved)
{
    pe_assert(saved.size() == bits.size(),
              "restoring path words of a different path-id space");
    bits = saved;
}

uint64_t
PathCoverage::completedCount() const
{
    uint64_t n = 0;
    for (uint64_t w : bits)
        n += static_cast<uint64_t>(std::popcount(w));
    return n;
}

uint64_t
PathCoverage::coverCompleted() const
{
    uint64_t n = 0;
    for (uint32_t id : coverIds)
        n += completed(id) ? 1 : 0;
    return n;
}

double
PathCoverage::coverAdjacency(const std::vector<uint64_t> &takenWords,
                             const std::vector<uint64_t> &ntWords) const
{
    auto has = [](const std::vector<uint64_t> &words, uint32_t key) {
        const size_t word = key >> 6;
        return word < words.size() && ((words[word] >> (key & 63)) & 1);
    };
    double energy = 0.0;
    for (size_t c = 0; c < coverIds.size(); ++c) {
        if (completed(coverIds[c]))
            continue;
        const uint32_t lo = decisionOffsets[c];
        const uint32_t hi = decisionOffsets[c + 1];
        if (lo == hi)
            continue;
        uint32_t covered = 0;
        for (uint32_t i = lo; i < hi; ++i) {
            const uint32_t key = pathDecisions[i];
            if (has(takenWords, key) || has(ntWords, key))
                covered++;
        }
        energy += static_cast<double>(covered) /
                  static_cast<double>(hi - lo);
    }
    return energy;
}

uint64_t
PathCoverage::digest() const
{
    uint64_t h = 14695981039346656037ull;
    h = fnvMix(h, pathCount);
    for (uint64_t w : bits)
        h = fnvMix(h, w);
    return h;
}

void
PathCoverage::encodeState(wire::Encoder &enc) const
{
    enc.u64(statFolded);
    enc.u64(statTruncated);
    enc.u64(statDesync);
    // Retired match-overflow counter: always 0, kept so explorer
    // checkpoint v3, fleet wire v4 and fleet checkpoint v2 keep their
    // byte layouts.
    enc.u64(0);
    enc.u64vec(bits);
}

void
PathCoverage::decodeState(wire::Decoder &dec)
{
    const uint64_t folded = dec.u64("path folded runs");
    const uint64_t truncatedRuns = dec.u64("path truncated runs");
    const uint64_t desync = dec.u64("path desync runs");
    dec.u64("path match overflows");   // retired, see encodeState
    std::vector<uint64_t> saved = dec.u64vec("path words");
    if (saved.size() != bits.size()) {
        throw wire::WireError(wire::WireErrorKind::Mismatch,
                              "path completion word count mismatch",
                              bits.size(), saved.size());
    }
    statFolded = folded;
    statTruncated = truncatedRuns;
    statDesync = desync;
    bits = std::move(saved);
}

} // namespace pe::coverage
