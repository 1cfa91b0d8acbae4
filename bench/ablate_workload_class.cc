/**
 * @file
 * Ablation A9 — why not Viewperf? (Section 4.2.)
 *
 * The paper rejects the SPEC Viewperf CAD viewsets as texture
 * benchmarks: "they are not representative of the way texture
 * mapping is used in virtual reality applications". This ablation
 * makes that argument quantitative. A synthetic CAD frame (one
 * densely tessellated untextured-ish model: thousands of small
 * gouraud triangles, a single tiny material texture) is run through
 * the same machine as the game frames: its texture working set fits
 * any cache, its texel ratio is negligible at every processor count,
 * and the distribution choice stops mattering for bandwidth —
 * exactly why a texture-cache study needs game workloads.
 */

#include <iostream>

#include "bench_common.hh"
#include "scene/builder.hh"
#include "scene/parametric.hh"
#include "scene/stats.hh"

using namespace texdist;

namespace
{

/** A Viewperf-like CAD frame: a tessellated model, one material. */
Scene
makeCadScene(double scale)
{
    uint32_t w = uint32_t(1280 * scale);
    uint32_t h = uint32_t(1024 * scale);
    SceneBuilder b("cad.viewperf", w, h, 0xCAD);
    // CAD viewers use at most a tiny material/environment texture.
    TextureId tex = b.makeTexture(16, 16);

    // A grid of densely tessellated parts fills the view.
    for (int part = 0; part < 9; ++part) {
        Mesh m = part % 2 == 0 ? makeSphere(40, 24, tex)
                               : makePot(36, 20, tex);
        float cx = float(part % 3 - 1) * 2.4f;
        float cy = float(part / 3 - 1) * 2.4f;
        Mat4 model = Mat4::translate(Vec3(cx, cy, 0.0f)) *
                     Mat4::scale(Vec3(1.1f, 1.1f, 1.1f));
        Mat4 proj = Mat4::perspective(1.0f, float(w) / float(h),
                                      0.5f, 50.0f);
        Mat4 view = Mat4::lookAt(Vec3(0, 0, 7.5f), Vec3(0, 0, 0),
                                 Vec3(0, 1, 0));
        b.addMesh(m, proj * view * model);
    }
    return b.take();
}

} // namespace

static int
run(int argc, char **argv)
{
    BenchOptions opts = BenchOptions::parse(argc, argv);
    std::cout << "Ablation A9: workload class - CAD (Viewperf-like) "
                 "vs game frames (scale "
              << opts.scale << ")\n\n";

    Scene cad = makeCadScene(opts.scale);
    Scene game = makeBenchmark("quake", opts.scale);

    printSceneStatsHeader(std::cout);
    printSceneStatsRow(std::cout, measureScene(cad));
    printSceneStatsRow(std::cout, measureScene(game));

    std::cout << "\n== texel/fragment ratio and speedup, 16KB "
                 "caches, 1x bus, block 16 ==\n";
    TablePrinter table(std::cout,
                       {"scene", "t/f P1", "t/f P16", "t/f P64",
                        "spd P16", "spd P64"},
                       10);
    table.printHeader();
    for (Scene *scene : {&cad, &game}) {
        FrameLab lab(*scene);
        table.cell(scene->name);
        for (uint32_t procs : {1u, 16u, 64u}) {
            MachineConfig cfg = paperConfig();
            cfg.infiniteBus = true;
            cfg.numProcs = procs;
            cfg.tileParam = 16;
            table.cell(lab.run(cfg).texelToFragmentRatio, 3);
        }
        for (uint32_t procs : {16u, 64u}) {
            MachineConfig cfg = paperConfig();
            cfg.numProcs = procs;
            cfg.tileParam = 16;
            table.cell(lab.runWithSpeedup(cfg).speedup, 2);
        }
        table.endRow();
    }

    std::cout << "\n(reading: the CAD frame's texture traffic is "
                 "negligible at any processor\ncount — a texture-"
                 "cache distribution study run on Viewperf would "
                 "see nothing,\nwhich is the paper's Section 4.2 "
                 "point.)\n";
    return 0;
}

int
main(int argc, char **argv)
{
    return texdist::guardParseErrors([&] { return run(argc, argv); });
}
