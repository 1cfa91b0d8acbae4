/**
 * @file
 * Behaviour ledger: an absolute pin of simulated behaviour.
 *
 * Every other equivalence check compares two runs of the current
 * code (jobs=1 vs N, scalar vs SIMD); a regression in shared code
 * passes all of them. The ledger instead maps a fixed grid of
 * configurations — the seed scenes at scale 0.125 under block and
 * SLI distributions, several machine sizes and FIFO depths, the
 * geometry stage, L2s, a perfect cache, every fault kind, the
 * watchdog policies, sort-last, a checkpointed pan and the Figure 7
 * grid run through FrameLab::runBatch (which buckets one shared
 * rasterization) — to the per-frame FNV digest and the fault and
 * imbalance counters, and compares against the committed table.
 *
 *   ledger --check=<tsv>   recompute and diff; exit 1 on any change
 *   ledger --write=<tsv>   regenerate (a deliberate behaviour change)
 */

#include <cstdio>
#include <iostream>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include "core/error.hh"
#include "core/experiments.hh"
#include "core/interframe.hh"
#include "core/options.hh"
#include "core/replay.hh"
#include "core/sequence.hh"
#include "core/sortlast.hh"
#include "io/vfs.hh"
#include "scene/benchmarks.hh"
#include "sim/checkpoint.hh"
#include "sim/thread_pool.hh"

using namespace texdist;

namespace
{

const char *const scale = "0.125";

struct Row
{
    std::string key;
    std::vector<std::string> args;
    enum class Kind { Frame, SortLast, Pan, Fig7Batch } kind = Kind::Frame;
};

/** One ledger line: a suffix to the row key, and its columns. */
struct Line
{
    std::string suffix;
    std::string columns;
};

std::vector<std::string>
split(const std::string &s)
{
    std::vector<std::string> out;
    std::istringstream is(s);
    std::string tok;
    while (is >> tok)
        out.push_back(tok);
    return out;
}

std::vector<Row>
ledgerRows()
{
    std::vector<Row> rows;
    auto add = [&](const std::string &scene, const std::string &cfg,
                   Row::Kind kind = Row::Kind::Frame) {
        Row r;
        r.key = scene + " " + cfg;
        r.args = split("--scene=" + scene + " --scale=" + scale + " " +
                       cfg);
        r.kind = kind;
        rows.push_back(r);
    };

    for (const std::string &scene : benchmarkNames())
        for (const char *dist : {"--dist=block --param=16",
                                 "--dist=sli --param=8"})
            for (int procs : {1, 4, 16, 64})
                for (int fifo : {4, 16, 500, 10000})
                    add(scene, std::string(dist) +
                                   " --procs=" + std::to_string(procs) +
                                   " --buffer=" + std::to_string(fifo));

    const std::string base = "--dist=block --param=16 --procs=16 "
                             "--buffer=16";
    const std::vector<std::string> extras = {
        "--geometry=0.05",
        "--geom-procs=4 --geom-cycles=100",
        "--l2-kb=128",
        "--l2-kb=128 --l2-inclusive",
        "--cache=perfect",
        "--fault=slow-node:3,at=2000,x=4",
        "--fault=bus-stall:5,at=1000,for=5000",
        "--fault=fifo-freeze:2,at=1000,for=20000",
        "--fault=fifo-freeze:2,at=1000 --watchdog-ticks=5000 "
        "--watchdog=fail",
        "--fault=fifo-freeze:2,at=1000 --watchdog-ticks=5000 "
        "--watchdog=degrade",
        "--fault=kill-node:3,at=2000",
        "--fault=kill-node:rand,at=2000 --fault-seed=7",
    };
    for (const std::string &scene : benchmarkNames()) {
        for (const std::string &extra : extras)
            add(scene, base + " " + extra);
        add(scene, "--procs=16 sortlast=round-robin",
            Row::Kind::SortLast);
        add(scene, "--procs=16 sortlast=chunked", Row::Kind::SortLast);
    }
    add("quake", base + " frames=3 pan=8", Row::Kind::Pan);
    add("32massive11255", "fig7", Row::Kind::Fig7Batch);
    return rows;
}

/** The ledger's columns for one simulated frame. */
std::string
frameColumns(const FrameResult &r)
{
    const FaultStats &f = r.faultStats;
    char imbalance[32];
    std::snprintf(imbalance, sizeof(imbalance), "%.4f",
                  r.timeImbalancePercent);
    std::ostringstream os;
    os << digestHex(digestFrame(r)) << '\t' << int(r.failed) << '\t'
       << int(r.degraded) << '\t' << f.injected << '\t'
       << f.nodesKilled << '\t' << f.trianglesRedistributed << '\t'
       << f.fragmentsRerouted << '\t' << f.watchdogChecks << '\t'
       << f.detectionTick << '\t' << imbalance;
    return os.str();
}

/** Digest of a sort-last frame over the fields every run reports. */
std::string
sortLastColumns(const SortLastResult &r)
{
    StateDigest d;
    d.mix(r.frameTime);
    d.mix(r.renderTime);
    d.mix(r.compositionCycles);
    d.mix(r.totalPixels);
    d.mix(r.totalTexelsFetched);
    for (const NodeResult &n : r.nodes) {
        d.mix(n.pixels);
        d.mix(n.triangles);
        d.mix(n.finishTime);
        d.mix(n.cacheAccesses);
        d.mix(n.cacheMisses);
        d.mix(n.texelsFetched);
        d.mix(n.stallCycles);
        d.mix(n.idleCycles);
        d.mix(n.setupBoundTriangles);
        d.mix(n.setupWaitCycles);
    }
    return digestHex(d.value()) + "\t0\t0\t0\t0\t0\t0\t0\t0\t-";
}

/**
 * The Figure 7 grid (P in {4, 16, 64} x block widths 2-128, a
 * 1 texel/pixel bus) through one FrameLab::runBatch: a line per
 * config, then one for the T(1) all of them share.
 */
std::vector<Line>
fig7Batch(const Scene &scene)
{
    std::vector<MachineConfig> grid;
    std::vector<std::string> names;
    for (uint32_t procs : {4u, 16u, 64u}) {
        for (uint32_t width : {2u, 4u, 8u, 16u, 32u, 64u, 128u}) {
            MachineConfig cfg;
            cfg.numProcs = procs;
            cfg.dist = DistKind::Block;
            cfg.tileParam = width;
            cfg.busTexelsPerCycle = 1.0;
            cfg.triangleBufferSize = 10000;
            grid.push_back(cfg);
            names.push_back(" procs=" + std::to_string(procs) +
                            " width=" + std::to_string(width));
        }
    }
    FrameLab lab(scene);
    ThreadPool pool(2);
    std::vector<FrameLab::SpeedupResult> results =
        lab.runBatch(grid, pool);
    std::vector<Line> out;
    for (size_t i = 0; i < grid.size(); ++i)
        out.push_back({names[i], frameColumns(results[i].frame)});
    StateDigest t1;
    t1.mix(uint64_t(results.front().baselineTime));
    out.push_back({" T(1)",
                   digestHex(t1.value()) + "\t0\t0\t0\t0\t0\t0\t0\t0\t-"});
    return out;
}

/** Everything after the row key: one line per frame of the row. */
std::vector<Line>
compute(const Row &row)
{
    std::vector<std::string> sim_args;
    std::string sortlast;
    uint32_t frames = 1;
    float pan = 0.0f;
    for (const std::string &a : row.args) {
        if (a.rfind("sortlast=", 0) == 0)
            sortlast = a.substr(9);
        else if (a.rfind("frames=", 0) == 0)
            frames = uint32_t(std::stoul(a.substr(7)));
        else if (a.rfind("pan=", 0) == 0)
            pan = std::stof(a.substr(4));
        else
            sim_args.push_back(a);
    }
    if (row.kind == Row::Kind::Fig7Batch) {
        const std::string name = row.key.substr(0, row.key.find(' '));
        return fig7Batch(makeBenchmark(name, std::stod(scale)));
    }
    SimOptions opts = SimOptions::parse(sim_args);
    Scene scene = makeBenchmark(opts.scene, opts.scale);

    if (row.kind == Row::Kind::SortLast) {
        SortLastConfig sl;
        sl.node = opts.machine;
        sl.assign = sortlast == "chunked" ? SortLastAssign::Chunked
                                          : SortLastAssign::RoundRobin;
        return {{"", sortLastColumns(runSortLastFrame(scene, sl))}};
    }
    if (row.kind == Row::Kind::Frame)
        return {{"", frameColumns(runFrame(scene, opts.machine))}};

    // A pan: every frame, then the last frame again from a
    // checkpoint taken before it, which must match bit for bit.
    std::vector<Scene> moved;
    for (uint32_t f = 0; f < frames; ++f)
        moved.push_back(translateScene(scene, pan * float(f), 0.0f));
    SequenceMachine machine(moved.front(), opts.machine);
    std::vector<Line> out;
    std::string image;
    for (uint32_t f = 0; f < frames; ++f) {
        if (f + 1 == frames) {
            CheckpointWriter w;
            machine.serialize(w);
            image = w.bytes();
        }
        out.push_back({" frame" + std::to_string(f),
                       frameColumns(machine.runFrame(moved[f]))});
    }
    SequenceMachine restored(moved.front(), opts.machine);
    CheckpointReader r("ledger-pan", image);
    restored.restore(r);
    out.push_back({" restored",
                   frameColumns(restored.runFrame(moved.back()))});
    return out;
}

std::string
render(const std::vector<Row> &rows,
       const std::vector<std::vector<Line>> &cols)
{
    std::ostringstream os;
    os << "# key\tdigest\tfailed\tdegraded\tinjected\tkilled\t"
          "redistributed\trerouted\twatchdog_checks\tdetect_tick\t"
          "time_imbalance_pct\n";
    for (size_t i = 0; i < rows.size(); ++i)
        for (const Line &line : cols[i])
            os << rows[i].key << line.suffix << '\t' << line.columns
               << '\n';
    return os.str();
}

std::vector<std::string>
lines(const std::string &text)
{
    std::vector<std::string> out;
    std::istringstream is(text);
    std::string line;
    while (std::getline(is, line))
        out.push_back(line);
    return out;
}

int
run(int argc, char **argv)
{
    std::string check, write;
    for (int i = 1; i < argc; ++i) {
        std::string arg = argv[i];
        if (arg.rfind("--check=", 0) == 0)
            check = arg.substr(8);
        else if (arg.rfind("--write=", 0) == 0)
            write = arg.substr(8);
    }
    if (check.empty() == write.empty()) {
        std::cerr << "usage: ledger --check=<tsv> | --write=<tsv>\n";
        return 2;
    }

    const std::vector<Row> rows = ledgerRows();
    std::vector<std::vector<Line>> cols(rows.size());
    ThreadPool pool(ThreadPool::defaultThreads());
    // texlint: phase(isolated) each task simulates a private machine;
    // nothing crosses tasks but the per-row result slot
    pool.parallelFor(rows.size(), [&](uint32_t, size_t i) {
        cols[i] = compute(rows[i]);
    });
    const std::string table = render(rows, cols);

    if (!write.empty()) {
        io::writeFileAtomic(write, table);
        std::cout << "ledger: wrote " << rows.size() << " rows to "
                  << write << "\n";
        return 0;
    }

    const std::vector<std::string> want = lines(io::readFile(check));
    const std::vector<std::string> got = lines(table);
    std::map<std::string, std::string> wanted;
    for (const std::string &line : want)
        wanted[line.substr(0, line.find('\t'))] = line;
    size_t diffs = 0;
    for (const std::string &line : got) {
        std::string key = line.substr(0, line.find('\t'));
        auto it = wanted.find(key);
        if (it == wanted.end()) {
            std::cout << "new row:  " << line << "\n";
            ++diffs;
        } else {
            if (it->second != line) {
                std::cout << "ledger:   " << it->second << "\n"
                          << "now:      " << line << "\n";
                ++diffs;
            }
            wanted.erase(it);
        }
    }
    for (const auto &[key, line] : wanted) {
        std::cout << "missing:  " << line << "\n";
        ++diffs;
    }
    if (diffs > 0) {
        std::cout << "ledger: " << diffs << " row(s) differ from "
                  << check << " (regenerate with --write only for a "
                  << "deliberate behaviour change)\n";
        return 1;
    }
    std::cout << "ledger: PASS (" << got.size() - 1 << " rows)\n";
    return 0;
}

} // namespace

int
main(int argc, char **argv)
{
    try {
        return run(argc, argv);
    } catch (const ParseError &e) {
        std::cerr << "fatal: " << e.describe() << "\n";
        return e.exitCode();
    }
}
