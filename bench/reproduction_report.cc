/**
 * @file
 * The reproduction report: evaluates the paper's headline claims
 * live on the current build and prints a PASS/FAIL verdict per
 * claim — the executable version of EXPERIMENTS.md's conclusion
 * table. Runs on a subset of scenes sized so the whole report takes
 * a couple of minutes at the default scale.
 *
 * Every configuration sweep runs through FrameLab::runBatch on one
 * pool of --threads workers; the output is identical for any thread
 * count. Exit status: 0 when every claim passes, 1 when any claim
 * fails or an option is malformed — so `reproduction_report --quick
 * --threads=4` (scale 0.25) runs as the ctest `paper.claims`.
 */

#include <iomanip>
#include <iostream>
#include <map>
#include <sstream>

#include "bench_common.hh"

using namespace texdist;

namespace
{

int passed = 0;
int failed = 0;

void
verdict(const std::string &claim, bool ok, const std::string &detail)
{
    std::cout << (ok ? "[PASS] " : "[FAIL] ") << claim << "\n"
              << "       " << detail << "\n";
    (ok ? passed : failed)++;
}

/** Append one scene/machine family's tile-parameter sweep. */
void
addSweep(std::vector<MachineConfig> &grid, uint32_t procs,
         DistKind kind, const std::vector<uint32_t> &params)
{
    for (uint32_t param : params) {
        MachineConfig cfg = paperConfig();
        cfg.numProcs = procs;
        cfg.dist = kind;
        cfg.tileParam = param;
        grid.push_back(cfg);
    }
}

/**
 * Speedups per tile parameter of the sweep that starts at
 * results[*next] (in addSweep's order); advances *next past it.
 */
std::map<uint32_t, double>
takeSweep(const std::vector<FrameLab::SpeedupResult> &results,
          size_t *next, const std::vector<uint32_t> &params)
{
    std::map<uint32_t, double> out;
    for (uint32_t param : params)
        out[param] = results[(*next)++].speedup;
    return out;
}

uint32_t
argmax(const std::map<uint32_t, double> &sweep, double *best_out)
{
    double best = -1.0;
    uint32_t best_param = 0;
    for (const auto &[param, s] : sweep) {
        if (s > best) {
            best = s;
            best_param = param;
        }
    }
    if (best_out)
        *best_out = best;
    return best_param;
}

} // namespace

static int
run(int argc, char **argv)
{
    BenchOptions opts = BenchOptions::parse(argc, argv);
    std::cout << "texdist reproduction report (scale " << opts.scale
              << ")\n"
              << "claims from Vartanian/Bechennec/Drach-Temam, "
                 "HPCA 2000\n\n";

    const std::vector<std::string> keyScenes = {
        "32massive11255", "truc640", "room3"};

    // --- claims about the full machine (Fig. 7) ---------------------
    // block_sweeps[scene][procs][width] = speedup
    std::map<std::string,
             std::map<uint32_t, std::map<uint32_t, double>>>
        block_sweeps;
    std::map<std::string, std::map<uint32_t, uint32_t>> best_sli;
    std::map<std::string, std::map<uint32_t, double>> block_speed;
    std::map<std::string, std::map<uint32_t, double>> sli_speed;

    ThreadPool pool(opts.threads);
    const std::vector<uint32_t> keyProcs = {4, 16, 64};
    for (const std::string &name : keyScenes) {
        Scene scene = loadScene(name, opts.scale);
        FrameLab lab(scene);
        // One batch per scene: the whole P x tile-parameter grid.
        std::vector<MachineConfig> grid;
        for (uint32_t procs : keyProcs) {
            addSweep(grid, procs, DistKind::Block, blockWidths);
            addSweep(grid, procs, DistKind::SLI, sliLines);
        }
        auto results = lab.runBatch(grid, pool);
        size_t next = 0;
        for (uint32_t procs : keyProcs) {
            auto sweep = takeSweep(results, &next, blockWidths);
            block_sweeps[name][procs] = sweep;
            double sb = 0.0, ss = 0.0;
            argmax(sweep, &sb);
            auto sli_sweep = takeSweep(results, &next, sliLines);
            best_sli[name][procs] = argmax(sli_sweep, &ss);
            block_speed[name][procs] = sb;
            sli_speed[name][procs] = ss;
        }
    }

    // Claim 1: one FIXED block width is near-optimal at every
    // processor count (the paper's argument for a scalable chip
    // with a hard-coded distribution). Pass when some width in
    // {8, 16, 32} achieves >= 85% of the per-configuration optimum
    // for every key scene and processor count.
    {
        double best_fixed = 0.0;
        uint32_t best_width = 0;
        for (uint32_t fixed : {8u, 16u, 32u}) {
            double worst = 1.0;
            for (const auto &[name, by_procs] : block_sweeps) {
                for (const auto &[procs, sweep] : by_procs) {
                    double best = 0.0;
                    argmax(sweep, &best);
                    worst = std::min(worst,
                                     sweep.at(fixed) / best);
                }
            }
            if (worst > best_fixed) {
                best_fixed = worst;
                best_width = fixed;
            }
        }
        std::ostringstream d;
        d << "fixed w" << best_width << " achieves >= "
          << std::fixed << std::setprecision(0)
          << 100.0 * best_fixed
          << "% of the optimum everywhere";
        verdict("one fixed block width is near-optimal at every "
                "processor count",
                best_fixed >= 0.85, d.str());
    }

    // Claim 2: the best SLI group height shrinks with P.
    {
        bool ok = true;
        std::string detail;
        for (const auto &[name, by_procs] : best_sli) {
            uint32_t b4 = by_procs.at(4);
            uint32_t b64 = by_procs.at(64);
            detail += name + ": 4P:l" + std::to_string(b4) +
                      " -> 64P:l" + std::to_string(b64) + "  ";
            if (b64 > b4)
                ok = false;
        }
        verdict("best SLI group height shrinks as processors grow",
                ok, detail);
    }

    // Claim 3: distributions tie at <=16P; block wins at 64P.
    {
        bool tie_ok = true;
        bool win_ok = true;
        std::string detail;
        for (const std::string &name : keyScenes) {
            double ratio16 =
                block_speed[name][16] / sli_speed[name][16];
            double ratio64 =
                block_speed[name][64] / sli_speed[name][64];
            std::ostringstream d;
            d << name << ": 16P x" << std::fixed
              << std::setprecision(2) << ratio16 << " 64P x"
              << ratio64 << "  ";
            detail += d.str();
            if (ratio16 < 0.85 || ratio16 > 1.2)
                tie_ok = false;
            if (ratio64 < 1.0)
                win_ok = false;
        }
        verdict("block and SLI comparable at 16 processors", tie_ok,
                detail);
        verdict("block beats SLI at 64 processors", win_ok, detail);
    }

    // --- load balance / locality mechanisms (Fig. 5 / 6) ------------
    {
        Scene scene = loadScene("32massive11255", opts.scale);
        auto imb = [&](uint32_t width) {
            auto dist = Distribution::make(
                DistKind::Block, scene.screenWidth,
                scene.screenHeight, 64, width);
            return imbalancePercent(pixelWorkPerProc(scene, *dist));
        };
        double i16 = imb(16), i128 = imb(128);
        std::ostringstream d;
        d << "w16: " << std::fixed << std::setprecision(1) << i16
          << "%  w128: " << i128 << "%";
        verdict("imbalance grows with block size (w128 >> w16 <= "
                "25%)",
                i128 > 4.0 * i16 && i16 <= 25.0, d.str());

        FrameLab lab(scene);
        auto ratioConfig = [](uint32_t procs, DistKind kind,
                              uint32_t param) {
            MachineConfig cfg = paperConfig();
            cfg.infiniteBus = true;
            cfg.numProcs = procs;
            cfg.dist = kind;
            cfg.tileParam = param;
            return cfg;
        };
        auto frames = lab.runMany(
            {ratioConfig(1, DistKind::Block, 16),
             ratioConfig(64, DistKind::Block, 16),
             ratioConfig(64, DistKind::SLI, 2)},
            pool);
        double r1 = frames[0].texelToFragmentRatio;
        double r64 = frames[1].texelToFragmentRatio;
        double sli2 = frames[2].texelToFragmentRatio;
        std::ostringstream d2;
        d2 << "P1: " << std::setprecision(3) << r1 << "  P64: "
           << r64 << "  SLI-2@64P: " << sli2;
        verdict("texel/fragment ratio grows with processor count",
                r64 > 1.2 * r1, d2.str());
        verdict("SLI-2 loses more locality than block-16",
                sli2 > r64, d2.str());
    }

    // --- triangle buffer (Fig. 8) ------------------------------------
    {
        Scene scene = loadScene("truc640", opts.scale);
        FrameLab lab(scene);
        auto bufferConfig = [](uint32_t buffer) {
            MachineConfig cfg = paperConfig();
            cfg.cacheKind = CacheKind::Perfect;
            cfg.infiniteBus = true;
            cfg.numProcs = 64;
            cfg.tileParam = 16;
            cfg.triangleBufferSize = buffer;
            return cfg;
        };
        auto speeds = lab.runBatch(
            {bufferConfig(1), bufferConfig(500), bufferConfig(10000)},
            pool);
        double b1 = speeds[0].speedup, b500 = speeds[1].speedup,
               big = speeds[2].speedup;
        std::ostringstream d;
        d << "b1: " << std::fixed << std::setprecision(2) << b1
          << "  b500: " << b500 << "  b10000: " << big;
        verdict("a 500-entry triangle buffer reaches ideal-buffer "
                "performance",
                b500 >= 0.98 * big && b1 < 0.8 * big, d.str());
    }

    std::cout << "\n" << passed << " claims passed, " << failed
              << " failed\n";
    return failed == 0 ? 0 : 1;
}

int
main(int argc, char **argv)
{
    return texdist::guardParseErrors([&] { return run(argc, argv); });
}
