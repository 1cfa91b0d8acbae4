#include "core/scene_raster.hh"

#include "raster/raster.hh"

namespace texdist
{

SceneRaster::SceneRaster(const Scene &scene, ThreadPool &pool)
    : _scene(scene), tris(scene.triangles.size()),
      arenas(pool.threads())
{
    pool.parallelFor(tris.size(), [&](uint32_t worker, size_t t) {
        rasterizeTri(worker, t);
    });
}

// texlint: phase(parallel) raster task body: triangle t is this
// task's private slot; the arena is this worker's own
void
SceneRaster::rasterizeTri(uint32_t worker, size_t t)
{
    const TexTriangle &tri = _scene.triangles[t];
    const Texture &tex = _scene.textures.get(tri.tex);
    TriangleRaster raster(tri, tex.width(), tex.height());
    Tri &out = tris[t];
    if (raster.degenerate())
        return;
    out.degenerate = false;
    out.bbox = raster.bbox().intersect(_scene.screenRect());
    if (out.bbox.empty())
        return;

    // Every covered pixel lies in the clipped box, so its area
    // bounds the fragment count: write straight into the arena.
    BumpArena<NodeFragment> &arena = arenas[worker];
    NodeFragment *dst = arena.reserve(size_t(out.bbox.area()));
    uint32_t n = 0;
    raster.rasterize(out.bbox, [&](const Fragment &frag) {
        dst[n++] = NodeFragment{uint16_t(frag.x), uint16_t(frag.y),
                                frag.u, frag.v, frag.lod};
    });
    out.count = n;
    out.frags = n ? arena.commit(n) : nullptr;
}

} // namespace texdist
