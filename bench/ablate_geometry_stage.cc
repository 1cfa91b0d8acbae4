/**
 * @file
 * Ablation A8 — how ideal may the geometry stage be?
 *
 * The paper assumes the geometry processors and the sort network are
 * never the bottleneck and focuses on the texture stage. This
 * ablation asks what that assumption costs: with G geometry engines
 * at c cycles/triangle feeding the in-order sort network, how many
 * engines does a 64-node texture machine need before the paper's
 * idealization is accurate? Frames with small triangles (room3,
 * ~80 px/triangle) stress geometry hardest — transform cost per
 * triangle rivals rasterization cost.
 */

#include <iostream>

#include "bench_common.hh"

using namespace texdist;

static int
run(int argc, char **argv)
{
    BenchOptions opts = BenchOptions::parse(argc, argv);
    std::cout << "Ablation A8: geometry stage balance (scale "
              << opts.scale << ")\n";

    for (const std::string &name :
         {std::string("room3"), std::string("massive11255")}) {
        Scene scene = loadScene(name, opts.scale);
        FrameLab lab(scene);

        // Ideal-geometry reference.
        MachineConfig ideal = paperConfig();
        ideal.numProcs = 64;
        ideal.tileParam = 16;
        Tick ideal_time = lab.run(ideal).frameTime;

        for (uint32_t cycles : {50u, 100u, 200u}) {
            std::cout << "\n== " << name << ", 64 texture nodes, "
                      << cycles
                      << " cycles/triangle per geometry engine: "
                         "frame time vs engines ==\n";
            TablePrinter table(std::cout,
                               {"geom engines", "cycles",
                                "vs ideal", "feeder-bound"},
                               13);
            table.printHeader();
            for (uint32_t engines : {1u, 2u, 4u, 8u, 16u, 32u, 64u}) {
                MachineConfig cfg = ideal;
                cfg.geometryProcs = engines;
                cfg.geometryCyclesPerTriangle = cycles;
                FrameResult r = lab.run(cfg);
                // Lower bound the geometry stage imposes by itself.
                double geom_bound =
                    double(scene.triangles.size()) * cycles /
                    engines;
                table.cell(uint64_t(engines));
                table.cell(uint64_t(r.frameTime));
                table.cell(double(r.frameTime) / double(ideal_time),
                           3);
                table.cell(geom_bound / double(r.frameTime), 3);
                table.endRow();
            }
        }
    }

    std::cout << "\n(reading: 'vs ideal' ~ 1.0 marks the engine "
                 "count where the paper's ideal-\ngeometry "
                 "assumption becomes valid; 'feeder-bound' ~ 1.0 "
                 "means the frame is\npure geometry throughput.)\n";
    return 0;
}

int
main(int argc, char **argv)
{
    return texdist::guardParseErrors([&] { return run(argc, argv); });
}
