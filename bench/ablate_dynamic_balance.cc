/**
 * @file
 * Ablation A5 (future work, Section 9): what could dynamic load
 * balancing buy, and what would it cost the texture caches?
 *
 * We bound any dynamic scheme with an *oracle*: measure every tile's
 * fragment count, assign tiles to processors greedily
 * (longest-processing-time), and run the otherwise identical static
 * machine on that map. Compared to interleaving this removes nearly
 * all global load imbalance — which lets bigger tiles be used, and
 * bigger tiles keep texture locality. The experiment prints, per
 * block width: imbalance, full-machine speedup and texel-to-fragment
 * ratio for interleaved vs oracle assignment.
 */

#include <iostream>

#include "bench_common.hh"
#include "core/mapped.hh"
#include "core/sequence.hh"

using namespace texdist;

namespace
{

FrameLab::SpeedupResult
runOracle(FrameLab &lab, const Scene &scene,
          const MachineConfig &cfg, uint32_t width)
{
    std::vector<uint64_t> work = tileWork(scene, width);
    auto oracle = std::make_unique<MappedBlockDistribution>(
        scene.screenWidth, scene.screenHeight, cfg.numProcs, width,
        balanceTilesGreedy(work, cfg.numProcs));

    FrameLab::SpeedupResult out;
    out.baselineTime = lab.baseline(cfg);
    SequenceMachine machine(scene, cfg, 1,
                            FrameEntry::SingleFrame,
                            std::move(oracle));
    out.frame = machine.runFrame(scene);
    out.speedup = out.frame.frameTime
                      ? double(out.baselineTime) /
                            double(out.frame.frameTime)
                      : 0.0;
    return out;
}

} // namespace

int
main(int argc, char **argv)
{
    BenchOptions opts = BenchOptions::parse(argc, argv);
    std::cout << "Ablation A5: oracle dynamic tile assignment "
                 "(scale "
              << opts.scale << ")\n";

    for (const std::string &name :
         {std::string("32massive11255"), std::string("room3")}) {
        Scene scene = loadScene(name, opts.scale);
        FrameLab lab(scene);
        std::cout << "\n== " << name
                  << ", 64 processors, 16KB caches, 1x bus ==\n";
        TablePrinter table(
            std::cout,
            {"width", "imb% il", "imb% or", "spdup il", "spdup or",
             "t/f il", "t/f or"},
            10);
        table.printHeader();

        for (uint32_t width : {8u, 16u, 32u, 64u, 128u}) {
            MachineConfig cfg = paperConfig();
            cfg.numProcs = 64;
            cfg.dist = DistKind::Block;
            cfg.tileParam = width;

            auto interleaved = Distribution::make(
                DistKind::Block, scene.screenWidth,
                scene.screenHeight, 64, width);
            MappedBlockDistribution oracle(
                scene.screenWidth, scene.screenHeight, 64, width,
                balanceTilesGreedy(tileWork(scene, width), 64));

            auto il = lab.runWithSpeedup(cfg);
            auto orc = runOracle(lab, scene, cfg, width);

            table.cell(uint64_t(width));
            table.cell(imbalancePercent(
                           pixelWorkPerProc(scene, *interleaved)),
                       1);
            table.cell(
                imbalancePercent(pixelWorkPerProc(scene, oracle)),
                1);
            table.cell(il.speedup, 2);
            table.cell(orc.speedup, 2);
            table.cell(il.frame.texelToFragmentRatio, 3);
            table.cell(orc.frame.texelToFragmentRatio, 3);
            table.endRow();
        }
    }

    std::cout << "\n(reading: if the oracle's speedup at large "
                 "widths beats interleaving's best,\ndynamic "
                 "assignment would let a machine use big "
                 "locality-friendly tiles —\nthe trade-off the "
                 "paper's conclusion asks about.)\n";
    return 0;
}
