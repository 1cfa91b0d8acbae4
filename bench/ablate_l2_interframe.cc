/**
 * @file
 * Ablation A6 (future work, Section 9): inter-frame locality of a
 * second-level texture cache in the multiprocessor machine.
 *
 * Cox showed a board-level L2 (2-8 MB) makes frame N+1 nearly free:
 * its texels were fetched for frame N. The paper's closing paragraph
 * predicts this breaks in a sort-middle machine once the viewpoint
 * translates by more than a tile between frames, because each node's
 * L2 only holds the texels of *its own* tiles — after the pan those
 * pixels belong to a different node.
 *
 * The experiment: render frame N through per-node L1+L2 hierarchies,
 * then render frame N+1 = frame N panned by d pixels with the caches
 * left warm (two functional frames of one machine), and report frame
 * N+1's external texel-to-fragment ratio per pan distance and tile
 * size.
 */

#include <iostream>

#include "bench_common.hh"
#include "core/interframe.hh"

using namespace texdist;

static int
run(int argc, char **argv)
{
    BenchOptions opts = BenchOptions::parse(argc, argv);
    std::cout << "Ablation A6: L2 inter-frame locality vs viewpoint "
                 "pan (scale "
              << opts.scale << ")\n";

    Scene frame1 = loadScene("quake", opts.scale);

    const std::vector<int> pans = {0, 4, 8, 16, 32, 64, 128};

    for (uint32_t procs : {1u, 16u}) {
        for (uint32_t width : {16u, 64u}) {
            std::cout << "\n== " << procs
                      << " processors, block " << width
                      << ": frame-2 external texel/fragment ratio "
                         "(16KB L1 + 2MB L2 per node) ==\n";
            TablePrinter table(std::cout,
                               {"pan px", "f2 ratio", "vs f1",
                                "reuse %"},
                               12);
            table.printHeader();
            for (int pan : pans) {
                Scene frame2 =
                    translateScene(frame1, float(pan), 0.0f);
                MachineConfig cfg; // 16KB L1 + 2MB L2, as Cox
                cfg.numProcs = procs;
                cfg.tileParam = width;
                cfg.hasL2 = true;
                InterFrameResult r =
                    measureInterFrame(frame1, frame2, cfg);
                table.cell(uint64_t(pan));
                table.cell(r.frame2Ratio, 4);
                table.cell(r.reuseFactor(), 3);
                table.cell(100.0 * (1.0 - r.reuseFactor()), 1);
                table.endRow();
            }
        }
    }

    std::cout << "\n(reading: at 1 processor the reuse stays high "
                 "for any pan — the single L2 holds\nthe whole "
                 "frame. At 16 processors reuse should fall once "
                 "the pan exceeds the tile\nsize, confirming the "
                 "paper's Section 9 prediction.)\n";
    return 0;
}

int
main(int argc, char **argv)
{
    return texdist::guardParseErrors([&] { return run(argc, argv); });
}
