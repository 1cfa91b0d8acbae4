/**
 * @file
 * Ablations A2/A4 — texture cache geometry.
 *
 * A2: the paper adopts Hakura & Gupta's 16 KB 4-way 64 B-line cache
 * unchanged; this sweep asks how sensitive the Figure 6 conclusion
 * (block-16 locality loss across processor counts) is to the cache
 * size and associativity a PC accelerator vendor might actually
 * ship.
 *
 * A4 (future work, Section 9): a large second-level-sized cache per
 * node — does extra capacity absorb the multiprocessor locality
 * loss, or is the damage at the line-sharing level that capacity
 * cannot recover?
 */

#include <iostream>

#include "bench_common.hh"

using namespace texdist;

static int
run(int argc, char **argv)
{
    BenchOptions opts = BenchOptions::parse(argc, argv);
    std::cout << "Ablation A2/A4: cache geometry (scale "
              << opts.scale << ")\n";

    Scene scene = loadScene("32massive11255", opts.scale);
    FrameLab lab(scene);

    auto ratio = [&](uint32_t procs, CacheGeometry geom) {
        MachineConfig cfg = paperConfig();
        cfg.infiniteBus = true;
        cfg.numProcs = procs;
        cfg.tileParam = 16;
        cfg.cacheGeom = geom;
        return lab.run(cfg).texelToFragmentRatio;
    };

    std::cout << "\n== A2a: texel/fragment ratio vs cache size "
                 "(4-way, 64B lines, block 16) ==\n";
    TablePrinter size_table(std::cout,
                            {"procs", "4KB", "8KB", "16KB", "32KB",
                             "64KB", "infinite"},
                            10);
    size_table.printHeader();
    for (uint32_t procs : {1u, 16u, 64u}) {
        size_table.cell(uint64_t(procs));
        for (uint32_t kb : {4u, 8u, 16u, 32u, 64u})
            size_table.cell(
                ratio(procs, CacheGeometry{kb * 1024, 4, 64}), 3);
        MachineConfig inf = paperConfig();
        inf.infiniteBus = true;
        inf.numProcs = procs;
        inf.tileParam = 16;
        inf.cacheKind = CacheKind::Infinite;
        size_table.cell(lab.run(inf).texelToFragmentRatio, 3);
        size_table.endRow();
    }

    std::cout << "\n== A2b: texel/fragment ratio vs associativity "
                 "(16KB, 64B lines, block 16) ==\n";
    TablePrinter way_table(
        std::cout, {"procs", "1-way", "2-way", "4-way", "8-way"}, 10);
    way_table.printHeader();
    for (uint32_t procs : {1u, 16u, 64u}) {
        way_table.cell(uint64_t(procs));
        for (uint32_t ways : {1u, 2u, 4u, 8u})
            way_table.cell(
                ratio(procs, CacheGeometry{16 * 1024, ways, 64}), 3);
        way_table.endRow();
    }

    std::cout << "\n== A4: can capacity recover the multiprocessor "
                 "locality loss? (ratio at 64 procs / ratio at 1 "
                 "proc, per cache size) ==\n";
    TablePrinter a4(std::cout,
                    {"size", "P1 ratio", "P64 ratio", "loss x"}, 12);
    a4.printHeader();
    for (uint32_t kb : {16u, 64u, 256u, 2048u}) {
        CacheGeometry geom{kb * 1024, 4, 64};
        double p1 = ratio(1, geom);
        double p64 = ratio(64, geom);
        a4.cell(std::to_string(kb) + "KB");
        a4.cell(p1, 3);
        a4.cell(p64, 3);
        a4.cell(p1 > 0 ? p64 / p1 : 0.0, 2);
        a4.endRow();
    }
    std::cout << "\n(A4 reading: if 'loss x' stays well above 1 even "
                 "at L2-like sizes,\nthe multiprocessor penalty is "
                 "line sharing, not capacity - supporting the\n"
                 "paper's warning that an L2's efficiency drops in "
                 "multiprocessor configs.)\n";
    return 0;
}

int
main(int argc, char **argv)
{
    return texdist::guardParseErrors([&] { return run(argc, argv); });
}
