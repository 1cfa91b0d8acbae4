/**
 * @file
 * Experiment T1 — reproduces Table 1, "Benchmark Scene
 * Characteristics": for each of the seven benchmarks, the measured
 * characteristics of our synthetic stand-in frame next to the
 * paper's published values.
 *
 * Paper columns: screen size, pixels rendered (millions), depth
 * complexity, number of triangles, number of textures, texture used
 * (MB), unique texel/fragment. At --full the frames are paper-sized;
 * at smaller scales pixels/triangles shrink with scale^2 and texture
 * MB likewise, while depth complexity and the unique-texel ratio are
 * scale-invariant targets.
 */

#include <iostream>

#include "core/error.hh"
#include "core/experiments.hh"
#include "scene/benchmarks.hh"
#include "scene/stats.hh"

using namespace texdist;

static int
run(int argc, char **argv)
{
    BenchOptions opts = BenchOptions::parse(argc, argv);
    double s2 = opts.scale * opts.scale;

    std::cout << "Table 1: benchmark scene characteristics "
              << "(scale " << opts.scale << ")\n"
              << "paper rows are scaled by scale^2 where applicable\n\n";

    TablePrinter table(std::cout,
                       {"scene", "who", "Mpix", "depth", "tris",
                        "texs", "texMB", "uniq t/f", "px/tri"},
                       10);
    table.printHeader();

    for (const std::string &name : benchmarkNames()) {
        const BenchmarkSpec &spec = benchmarkSpec(name);
        Scene scene = makeBenchmark(name, opts.scale);
        SceneStats stats = measureScene(scene);

        table.cell(name);
        table.cell(std::string("paper"));
        table.cell(spec.paperMPixels * s2, 2);
        table.cell(spec.paperDepth, 1);
        table.cell(uint64_t(spec.paperTriangles * s2));
        table.cell(name == "teapot.full"
                       ? uint64_t(1)
                       : uint64_t(spec.paperTextures * s2));
        table.cell(spec.paperTextureMB * s2, 2);
        table.cell(spec.paperUniqueTF, 2);
        table.cell(spec.paperMPixels * 1e6 / spec.paperTriangles, 0);
        table.endRow();

        table.cell(std::string(""));
        table.cell(std::string("ours"));
        table.cell(double(stats.pixelsRendered) / 1e6, 2);
        table.cell(stats.depthComplexity, 1);
        table.cell(stats.numTriangles);
        table.cell(stats.numTextures);
        table.cell(double(stats.textureBytesTouched) /
                       (1024.0 * 1024.0),
                   2);
        table.cell(stats.uniqueTexelPerScreenPixel, 2);
        table.cell(stats.meanTrianglePixels, 0);
        table.endRow();
    }

    std::cout << "\nnotes: texMB is texture bytes actually touched "
                 "(unique texels x 4);\nuniq t/f is unique texels / "
                 "screen pixels, the reading under which the\n"
                 "paper's Texture-Used and unique-t/f columns are "
                 "mutually consistent.\n";
    return 0;
}

int
main(int argc, char **argv)
{
    return texdist::guardParseErrors([&] { return run(argc, argv); });
}
