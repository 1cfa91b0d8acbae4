/**
 * @file
 * Experiment F1 — reproduces Figure 1, "Impact of the distribution
 * on load balancing", as a measurement instead of an illustration.
 *
 * The figure argues that small interleaved tiles spread each
 * processor's workload across the screen while big contiguous tiles
 * tie a processor to one region, so clustered depth complexity lands
 * on one unlucky node. We measure the busiest/average work ratio for
 * exactly those four cases (small interleaved tiles, big interleaved
 * tiles, big contiguous regions, and SLI groups small and large) on
 * every benchmark at 16 processors.
 */

#include <iostream>

#include "bench_common.hh"

using namespace texdist;

static int
run(int argc, char **argv)
{
    BenchOptions opts = BenchOptions::parse(argc, argv);
    std::cout << "Figure 1: why interleaving - % imbalance at 16 "
                 "processors (scale "
              << opts.scale << ")\n\n";

    TablePrinter table(std::cout,
                       {"scene", "blk8 il", "blk64 il", "contig",
                        "sli2 il", "sli32 il"},
                       10);
    table.printHeader();

    for (const std::string &name : benchmarkNames()) {
        Scene scene = makeBenchmark(name, opts.scale);
        auto imb = [&](DistKind kind, uint32_t param) {
            auto dist =
                Distribution::make(kind, scene.screenWidth,
                                   scene.screenHeight, 16, param);
            return imbalancePercent(pixelWorkPerProc(scene, *dist));
        };
        table.cell(name);
        table.cell(imb(DistKind::Block, 8), 1);
        table.cell(imb(DistKind::Block, 64), 1);
        table.cell(imb(DistKind::Contiguous, 0), 1);
        table.cell(imb(DistKind::SLI, 2), 1);
        table.cell(imb(DistKind::SLI, 32), 1);
        table.endRow();
    }

    std::cout << "\n(reading: interleaved small tiles stay within a "
                 "few percent; contiguous\nregions — the screen "
                 "split a sort-first machine would use — take the "
                 "full\nbrunt of the scene's hot spots, Figure 1's "
                 "point.)\n";
    return 0;
}

int
main(int argc, char **argv)
{
    return texdist::guardParseErrors([&] { return run(argc, argv); });
}
