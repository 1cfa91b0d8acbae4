/**
 * @file
 * Ablation A1 — interleave order. The paper fixes raster-order
 * interleaving of tiles onto processors; this ablation compares it
 * with a diagonally skewed assignment ((tile_x + tile_y) mod P).
 * With tilesX divisible by P, raster order gives every processor a
 * vertical stripe of tiles — terrible balance — which the skew
 * avoids; the experiment quantifies how much the order matters per
 * block width.
 */

#include <iostream>

#include "bench_common.hh"

using namespace texdist;

static int
run(int argc, char **argv)
{
    BenchOptions opts = BenchOptions::parse(argc, argv);
    std::cout << "Ablation A1: tile interleave order (scale "
              << opts.scale << ")\n";

    for (uint32_t procs : {16u, 64u}) {
        std::cout << "\n== imbalance % at " << procs
                  << " processors: raster vs diagonal ==\n";
        TablePrinter table(std::cout,
                           {"scene", "w8 rast", "w8 diag", "w16 rast",
                            "w16 diag", "w64 rast", "w64 diag"},
                           10);
        table.printHeader();
        for (const std::string &name : benchmarkNames()) {
            Scene scene = makeBenchmark(name, opts.scale);
            table.cell(name);
            for (uint32_t width : {8u, 16u, 64u}) {
                for (InterleaveOrder order :
                     {InterleaveOrder::Raster,
                      InterleaveOrder::Diagonal}) {
                    auto dist = Distribution::make(
                        DistKind::Block, scene.screenWidth,
                        scene.screenHeight, procs, width, order);
                    table.cell(imbalancePercent(
                                   pixelWorkPerProc(scene, *dist)),
                               1);
                }
            }
            table.endRow();
        }
    }

    // Does the order change end-to-end performance at the paper's
    // operating point (block 16, 64 procs, 16KB cache, 1x bus)?
    std::cout << "\n== speedup at block 16, 64 processors, 16KB "
                 "cache, 1x bus ==\n";
    TablePrinter table(std::cout, {"scene", "raster", "diagonal"},
                       10);
    table.printHeader();
    for (const std::string &name : benchmarkNames()) {
        Scene scene = makeBenchmark(name, opts.scale);
        FrameLab lab(scene);
        table.cell(name);
        for (InterleaveOrder order :
             {InterleaveOrder::Raster, InterleaveOrder::Diagonal}) {
            MachineConfig cfg = paperConfig();
            cfg.numProcs = 64;
            cfg.tileParam = 16;
            cfg.interleave = order;
            table.cell(lab.runWithSpeedup(cfg).speedup, 2);
        }
        table.endRow();
    }
    return 0;
}

int
main(int argc, char **argv)
{
    return texdist::guardParseErrors([&] { return run(argc, argv); });
}
