/**
 * @file
 * Prime-path enumeration and greedy minimum path cover.
 */

#include "src/analysis/primepaths.hh"

#include <algorithm>

#include "src/support/status.hh"

namespace pe::analysis
{

namespace
{

constexpr uint32_t kNone = ~0u;

/**
 * A candidate simple path on the worklist: candidate @c parent
 * extended by @c edge to @c block (a seed has no parent and no edge).
 * The path itself is the parent chain; it is only spelled out when it
 * finalizes.
 */
struct Candidate
{
    uint32_t parent;
    uint32_t edge;
    uint32_t block;
    uint32_t len;       ///< edge count
};

/** A finalized path: start block plus a slice of the shared edge pool. */
struct Final
{
    uint32_t start;
    uint32_t offset;
    uint32_t len;
};

/**
 * A node of the subpath trie: the finals starting at one block share
 * a root, and a node's children are indexed by the same slot rule as
 * the coverage::PathCoverage automaton (taken or the only edge = 0,
 * not-taken = 1; child 0 means none, the trie's node 0 is a dummy).
 */
struct TrieNode
{
    uint32_t child[2];
    uint32_t edge;      ///< edge that leads here (kNone at a root)
    uint32_t final;     ///< final ending here, kNone if none
};

uint32_t
slotOf(const CfgEdge &edge)
{
    return edge.kind == EdgeKind::BranchNotTaken ? 1 : 0;
}

} // namespace

std::vector<uint32_t>
primePathBlocks(const Cfg &cfg, const PrimePath &path)
{
    std::vector<uint32_t> nodes{path.startBlock};
    for (uint32_t e : path.edges)
        nodes.push_back(cfg.edges()[e].to);
    return nodes;
}

PrimePathSet
enumeratePrimePaths(const Cfg &cfg, const PrimePathOptions &opts)
{
    PrimePathSet set;
    const auto &blocks = cfg.blocks();
    const auto &edges = cfg.edges();
    if (blocks.empty())
        return set;

    const uint64_t maxGenerated =
        opts.maxGenerated != 0 ? opts.maxGenerated
                               : 32ull * opts.maxPaths;

    // Enumeration roots: the entry block plus every function start,
    // ascending, restricted to blocks reachable from the entry.  A
    // block first reached through an earlier root's subgraph is not
    // re-seeded — the intraprocedural edge relation is static, so
    // every simple path from it was already generated.
    std::vector<uint32_t> rootList;
    const isa::Program &program = cfg.program();
    if (program.entry < program.code.size())
        rootList.push_back(cfg.blockOf(program.entry));
    for (const auto &f : program.funcs) {
        if (f.startPc < program.code.size())
            rootList.push_back(cfg.blockOf(f.startPc));
    }
    std::sort(rootList.begin(), rootList.end());
    rootList.erase(std::unique(rootList.begin(), rootList.end()),
                   rootList.end());

    std::vector<bool> seeded(blocks.size(), false);
    std::vector<Final> finals;
    std::vector<uint32_t> pool;
    bool budgetHit = false;

    // Simplicity test: stamp[b] == epoch iff block b is on the
    // candidate being extended.
    std::vector<uint64_t> stamp(blocks.size(), 0);
    uint64_t epoch = 0;
    std::vector<Candidate> work;

    // Spell out candidate @p c (plus @p extra unless kNone) into the
    // pool, walking the parent chain backwards.
    auto finalize = [&](uint32_t c, uint32_t front, uint32_t extra) {
        const uint32_t len = work[c].len + (extra != kNone ? 1 : 0);
        const uint32_t offset = static_cast<uint32_t>(pool.size());
        pool.resize(pool.size() + len);
        uint32_t *out = pool.data() + offset + len;
        if (extra != kNone)
            *--out = extra;
        for (uint32_t i = c; work[i].parent != kNone; i = work[i].parent)
            *--out = work[i].edge;
        finals.push_back(Final{front, offset, len});
    };

    for (uint32_t root : rootList) {
        if (root == noBlock || !cfg.reachable()[root])
            continue;
        if (budgetHit)
            break;

        // Intraprocedural closure of the root (skip Call edges).
        std::vector<uint32_t> subNodes;
        {
            std::vector<bool> inSub(blocks.size(), false);
            std::vector<uint32_t> stack{root};
            inSub[root] = true;
            while (!stack.empty()) {
                uint32_t b = stack.back();
                stack.pop_back();
                subNodes.push_back(b);
                for (uint32_t e : blocks[b].succs) {
                    const CfgEdge &edge = edges[e];
                    if (edge.kind == EdgeKind::Call)
                        continue;
                    if (!inSub[edge.to]) {
                        inSub[edge.to] = true;
                        stack.push_back(edge.to);
                    }
                }
            }
        }
        std::sort(subNodes.begin(), subNodes.end());
        set.roots++;

        // FIFO worklist; the vector holds every candidate ever
        // generated, which is exactly what the budget bounds.
        work.clear();
        for (uint32_t b : subNodes) {
            if (seeded[b])
                continue;
            seeded[b] = true;
            work.push_back(Candidate{kNone, kNone, b, 0});
            set.generated++;
        }

        for (uint32_t qi = 0; qi < work.size() && !budgetHit; ++qi) {
            // work may reallocate while extending; copy, not ref.
            const Candidate cur = work[qi];
            ++epoch;
            uint32_t front = cur.block;
            for (uint32_t i = qi; i != kNone; i = work[i].parent) {
                stamp[work[i].block] = epoch;
                front = work[i].block;
            }
            bool extended = false;
            for (uint32_t e : blocks[cur.block].succs) {
                const CfgEdge &edge = edges[e];
                if (edge.kind == EdgeKind::Call)
                    continue;
                if (edge.to == front) {
                    // Closing the cycle finalizes: the cycle cannot
                    // be extended without repeating an inner node.
                    finalize(qi, front, e);
                    extended = true;
                    continue;
                }
                if (stamp[edge.to] == epoch)
                    continue;
                if (set.generated >= maxGenerated) {
                    budgetHit = true;
                    break;
                }
                work.push_back(Candidate{qi, e, edge.to, cur.len + 1});
                set.generated++;
                extended = true;
            }
            if (!extended)
                finalize(qi, front, kNone);
        }
    }
    if (budgetHit)
        set.truncated = true;

    // Every final goes into a trie rooted at its start block.  The
    // trie merges duplicates (overlapping root subgraphs can emit the
    // same back-extension twice only through seeding races, which the
    // seeded[] guard prevents, but merging them is free) and its
    // preorder is the canonical order.
    std::vector<TrieNode> trie(1, TrieNode{{0, 0}, kNone, kNone});
    std::vector<uint32_t> rootOf(blocks.size(), 0);
    std::vector<uint32_t> terminals;    // trie nodes where finals end
    for (uint32_t fi = 0; fi < finals.size(); ++fi) {
        const Final &f = finals[fi];
        uint32_t &root = rootOf[f.start];
        if (root == 0) {
            root = static_cast<uint32_t>(trie.size());
            trie.push_back(TrieNode{{0, 0}, kNone, kNone});
        }
        uint32_t node = root;
        for (uint32_t k = 0; k < f.len; ++k) {
            const uint32_t e = pool[f.offset + k];
            const uint32_t slot = slotOf(edges[e]);
            uint32_t child = trie[node].child[slot];
            if (child == 0) {
                child = static_cast<uint32_t>(trie.size());
                trie[node].child[slot] = child;
                trie.push_back(TrieNode{{0, 0}, e, kNone});
            }
            pe_assert(trie[child].edge == e, "block ", edges[e].from,
                      " has two intraprocedural edges in one slot");
            node = child;
        }
        if (trie[node].final == kNone) {
            trie[node].final = fi;
            terminals.push_back(node);
        }
    }

    // Prime filter: drop finals whose edge sequence appears
    // contiguously inside another final (a single-block path is a
    // subpath of anything visiting its block with at least one edge).
    // For a host and every offset into it, walking the trie from the
    // block at that offset along the host's remaining edges passes
    // exactly the finals occurring there, each a proper subpath
    // unless it is the host itself.  A host already killed is
    // skipped: the host that killed it has walked and contains all it
    // would drop.  Going longest first makes that skip the common
    // case; the result does not depend on the order.
    std::sort(terminals.begin(), terminals.end(),
              [&](uint32_t a, uint32_t b) {
                  return finals[trie[a].final].len >
                         finals[trie[b].final].len;
              });
    std::vector<bool> killed(trie.size(), false);
    for (uint32_t host : terminals) {
        if (killed[host])
            continue;
        const Final &q = finals[trie[host].final];
        const uint32_t *qEdges = pool.data() + q.offset;
        uint32_t at = q.start;  // block at offset off
        for (uint32_t off = 0; off <= q.len; ++off) {
            if (off > 0)
                at = edges[qEdges[off - 1]].to;
            uint32_t node = rootOf[at];
            for (uint32_t k = off; node != 0; ++k) {
                if (trie[node].final != kNone && node != host)
                    killed[node] = true;
                if (k == q.len)
                    break;
                const uint32_t e = qEdges[k];
                const uint32_t child = trie[node].child[slotOf(edges[e])];
                node = child != 0 && trie[child].edge == e ? child : 0;
            }
        }
    }

    // Spell out the survivors in canonical order, at most maxPaths of
    // them: preorder over the roots by block, children by edge id.
    struct Visit
    {
        uint32_t node;
        uint32_t depth;     ///< edges from the root
    };
    std::vector<Visit> stack;
    std::vector<uint32_t> path;
    size_t kept = 0;
    bool capHit = false;
    for (uint32_t b = 0; b < blocks.size() && !capHit; ++b) {
        if (rootOf[b] != 0)
            stack.push_back(Visit{rootOf[b], 0});
        while (!stack.empty()) {
            const Visit v = stack.back();
            stack.pop_back();
            const TrieNode &n = trie[v.node];
            path.resize(v.depth);
            if (v.depth > 0)
                path.back() = n.edge;
            if (n.final != kNone && !killed[v.node]) {
                if (kept++ == opts.maxPaths) {
                    capHit = true;
                    break;
                }
                set.paths.push_back(PrimePath{b, path});
            }
            // Push the higher edge id first so the lower pops first.
            uint32_t c0 = n.child[0];
            uint32_t c1 = n.child[1];
            if (c0 != 0 && c1 != 0 && trie[c0].edge < trie[c1].edge)
                std::swap(c0, c1);
            for (uint32_t c : {c0, c1}) {
                if (c != 0)
                    stack.push_back(Visit{c, v.depth + 1});
            }
        }
    }
    if (capHit)
        set.truncated = true;
    if (set.truncated) {
        warn("prime-path enumeration truncated: kept ",
             set.paths.size(), " path(s) (cap ", opts.maxPaths,
             ", ", set.generated, " candidate(s) generated)");
    }
    return set;
}

std::vector<uint32_t>
computePathCover(const Cfg &cfg, const PrimePathSet &set)
{
    // Greedy set cover over the edges prime paths touch: repeatedly
    // take the path covering the most still-uncovered edges, lowest
    // path id on ties (see primepaths.hh for why not matching).
    const size_t numEdges = cfg.edges().size();
    std::vector<bool> covered(numEdges, true);
    size_t uncovered = 0;
    for (const PrimePath &p : set.paths) {
        for (uint32_t e : p.edges) {
            if (covered[e]) {
                covered[e] = false;
                uncovered++;
            }
        }
    }
    auto gainOf = [&](uint32_t id) {
        size_t gain = 0;
        for (uint32_t e : set.paths[id].edges) {
            if (!covered[e])
                gain++;
        }
        return gain;
    };

    // Lazy greedy: a max-heap of (gain, id) whose gains are upper
    // bounds, since covering an edge only lowers gains.  A popped
    // entry whose gain is still current beats every other entry's
    // bound, and the heap pops the lowest id among equal gains, so
    // the picks equal a full rescan's.  Stale entries go back
    // re-scored; zero-gain ones are dropped.
    struct Entry
    {
        size_t gain;
        uint32_t id;
    };
    auto lower = [](const Entry &a, const Entry &b) {
        return a.gain != b.gain ? a.gain < b.gain : a.id > b.id;
    };
    std::vector<Entry> heap;
    for (uint32_t id = 0; id < set.paths.size(); ++id) {
        if (const size_t gain = gainOf(id); gain > 0)
            heap.push_back(Entry{gain, id});
    }
    std::make_heap(heap.begin(), heap.end(), lower);

    std::vector<uint32_t> cover;
    while (uncovered > 0 && !heap.empty()) {
        std::pop_heap(heap.begin(), heap.end(), lower);
        const Entry top = heap.back();
        heap.pop_back();
        const size_t gain = gainOf(top.id);
        if (gain < top.gain) {
            if (gain > 0) {
                heap.push_back(Entry{gain, top.id});
                std::push_heap(heap.begin(), heap.end(), lower);
            }
            continue;
        }
        cover.push_back(top.id);
        for (uint32_t e : set.paths[top.id].edges) {
            if (!covered[e]) {
                covered[e] = true;
                uncovered--;
            }
        }
    }
    return cover;
}

} // namespace pe::analysis
