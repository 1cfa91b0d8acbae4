/**
 * @file
 * Ablation A7 — texture blocking vs linear (raster) layout.
 *
 * The paper inherits Hakura & Gupta's blocked layout (4x4 texel
 * tiles, one per cache line) without revisiting it. This ablation
 * re-runs the locality and performance measurements with the same
 * textures laid out linearly: a bilinear footprint then spans two
 * *rows*, whose texels sit a full row apart in memory, so vertical
 * reuse pays extra lines and short rows of small mip levels waste
 * line capacity. The effect compounds with the multiprocessor
 * locality loss, which is why the parallel machine cares.
 */

#include <iostream>

#include "bench_common.hh"

using namespace texdist;

namespace
{

Scene
withLayout(const Scene &scene, TexLayout layout)
{
    Scene out;
    out.name = scene.name;
    out.screenWidth = scene.screenWidth;
    out.screenHeight = scene.screenHeight;
    out.textures = scene.textures.clone(layout);
    out.triangles = scene.triangles;
    return out;
}

} // namespace

static int
run(int argc, char **argv)
{
    BenchOptions opts = BenchOptions::parse(argc, argv);
    std::cout << "Ablation A7: blocked vs linear texture layout "
                 "(scale "
              << opts.scale << ")\n";

    std::cout << "\n== texel/fragment ratio (16KB caches, infinite "
                 "bus, block 16) ==\n";
    TablePrinter table(std::cout,
                       {"scene", "blk P1", "lin P1", "blk P16",
                        "lin P16", "blk P64", "lin P64"},
                       10);
    table.printHeader();

    for (const std::string &name : benchmarkNames()) {
        Scene blocked = makeBenchmark(name, opts.scale);
        Scene linear = withLayout(blocked, TexLayout::Linear);
        FrameLab lab_b(blocked);
        FrameLab lab_l(linear);

        table.cell(name);
        for (uint32_t procs : {1u, 16u, 64u}) {
            MachineConfig cfg = paperConfig();
            cfg.infiniteBus = true;
            cfg.numProcs = procs;
            cfg.tileParam = 16;
            table.cell(lab_b.run(cfg).texelToFragmentRatio, 3);
            table.cell(lab_l.run(cfg).texelToFragmentRatio, 3);
        }
        table.endRow();
    }

    // End-to-end cost at the paper's operating point.
    std::cout << "\n== speedup at 64 processors, block 16, 1x bus "
                 "==\n";
    TablePrinter sp(std::cout, {"scene", "blocked", "linear"}, 11);
    sp.printHeader();
    for (const std::string &name : benchmarkNames()) {
        Scene blocked = makeBenchmark(name, opts.scale);
        Scene linear = withLayout(blocked, TexLayout::Linear);
        FrameLab lab_b(blocked);
        FrameLab lab_l(linear);
        MachineConfig cfg = paperConfig();
        cfg.numProcs = 64;
        cfg.tileParam = 16;
        sp.cell(name);
        sp.cell(lab_b.runWithSpeedup(cfg).speedup, 2);
        sp.cell(lab_l.runWithSpeedup(cfg).speedup, 2);
        sp.endRow();
    }

    std::cout << "\n(reading: blocking should cut the ratio "
                 "substantially at every processor\ncount — the "
                 "Hakura & Gupta result carrying over to the "
                 "parallel machine.)\n";
    return 0;
}

int
main(int argc, char **argv)
{
    return texdist::guardParseErrors([&] { return run(argc, argv); });
}
