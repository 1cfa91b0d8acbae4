/**
 * @file
 * Experiment F2 — reproduces Figure 2, "Effect of tile size on
 * spatial locality", as a direct measurement: for each tile size,
 * how many texture cache lines end up referenced by more than one
 * processor, and by how many on average? A line used by k
 * processors is fetched (at least) k times across the machine's
 * private caches — the mechanism behind Figure 6's bandwidth
 * growth.
 */

#include <bit>
#include <iostream>
#include <unordered_map>

#include "bench_common.hh"
#include "sim/logging.hh"
#include "raster/raster.hh"
#include "texture/sampler.hh"

using namespace texdist;

namespace
{

struct SharingStats
{
    uint64_t lines = 0;        ///< distinct lines referenced
    uint64_t shared_lines = 0; ///< referenced by > 1 processor
    double mean_owners = 0.0;  ///< processors per line
};

SharingStats
measureSharing(const Scene &scene, const Distribution &dist)
{
    // Line address -> bitmask of owning processors; the bitmask
    // caps the technique at 64 processors, so refuse more.
    if (dist.numProcs() > 64)
        texdist_fatal("line-sharing measurement supports at most "
                      "64 processors");
    std::unordered_map<uint64_t, uint64_t> owners;
    owners.reserve(1 << 20);
    const std::vector<uint16_t> &owner_map = dist.ownerMap();
    Rect screen = scene.screenRect();
    TexelRefs refs;

    for (const TexTriangle &tri : scene.triangles) {
        const Texture &tex = scene.textures.get(tri.tex);
        TriangleRaster raster(tri, tex.width(), tex.height());
        if (raster.degenerate())
            continue;
        raster.rasterize(screen, [&](const Fragment &frag) {
            uint16_t p =
                owner_map[size_t(frag.y) * scene.screenWidth +
                          size_t(frag.x)];
            TrilinearSampler::generate(tex, frag.u, frag.v,
                                       frag.lod, refs);
            for (uint64_t addr : refs)
                owners[addr / lineBytes] |= uint64_t(1) << p;
        });
    }

    SharingStats out;
    uint64_t owner_total = 0;
    // texlint: allow(ordered-iteration) commutative integer accumulation;
    // the visit order cannot change the totals
    for (const auto &[line, mask] : owners) {
        ++out.lines;
        int count = int(std::popcount(mask));
        owner_total += uint64_t(count);
        if (count > 1)
            ++out.shared_lines;
    }
    out.mean_owners =
        out.lines ? double(owner_total) / double(out.lines) : 0.0;
    return out;
}

} // namespace

static int
run(int argc, char **argv)
{
    BenchOptions opts = BenchOptions::parse(argc, argv);
    std::cout << "Figure 2: cache-line sharing vs tile size, 64 "
                 "processors (scale "
              << opts.scale << ")\n";

    for (const std::string &name :
         {std::string("32massive11255"), std::string("teapot.full")}) {
        Scene scene = loadScene(name, opts.scale);
        std::cout << "\n== " << name
                  << ": % of texture lines shared between "
                     "processors / mean processors per line ==\n";
        TablePrinter table(std::cout,
                           {"dist", "shared %", "procs/line"}, 12);
        table.printHeader();

        auto row = [&](const std::string &label, DistKind kind,
                       uint32_t param) {
            auto dist = Distribution::make(kind, scene.screenWidth,
                                           scene.screenHeight, 64,
                                           param);
            SharingStats s = measureSharing(scene, *dist);
            table.cell(label);
            table.cell(s.lines ? 100.0 * double(s.shared_lines) /
                                     double(s.lines)
                               : 0.0,
                       1);
            table.cell(s.mean_owners, 2);
            table.endRow();
        };
        row("block 4", DistKind::Block, 4);
        row("block 16", DistKind::Block, 16);
        row("block 64", DistKind::Block, 64);
        row("contiguous", DistKind::Contiguous, 0);
        row("sli 1", DistKind::SLI, 1);
        row("sli 4", DistKind::SLI, 4);
        row("sli 16", DistKind::SLI, 16);
    }

    std::cout << "\n(reading: smaller tiles and thinner line groups "
                 "share more lines — every\nshared line is fetched "
                 "once per sharing processor, which is Figure 2's\n"
                 "explanation for Figure 6's bandwidth growth.)\n";
    return 0;
}

int
main(int argc, char **argv)
{
    return texdist::guardParseErrors([&] { return run(argc, argv); });
}
