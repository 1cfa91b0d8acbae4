/**
 * @file
 * Phase 0's scene-only half, shared by every machine that renders
 * one scene.
 *
 * Rasterization does not depend on the machine distribution: only
 * the owner map that buckets the fragments does. A SceneRaster holds
 * one rasterization of a scene — per triangle, whether it is
 * degenerate, its bounding box clipped to the screen and its
 * fragments in raster order — so a batch of configurations over one
 * scene (FrameLab) rasterizes and interpolates it once. Each
 * configuration's engine then only buckets: it selects every
 * target's fragments by index (FragmentView), copying none.
 *
 * The raster is built on a pool into per-worker arenas and is
 * read-only afterwards, so any number of engines may read it at
 * once. Its contents are a pure function of the scene: the worker
 * count changes only where the fragments live, never what they are.
 */

#ifndef TEXDIST_CORE_SCENE_RASTER_HH
#define TEXDIST_CORE_SCENE_RASTER_HH

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <memory>
#include <vector>

#include "core/node.hh"
#include "geom/rect.hh"
#include "scene/scene.hh"
#include "sim/thread_pool.hh"

namespace texdist
{

/**
 * Bump allocator of trivially copyable items in large reusable
 * blocks: one allocation per ~64K items instead of one per
 * (triangle, node) bucket. Pointers stay valid until reset(), which
 * only rewinds (blocks never move or shrink).
 */
template <typename T>
class BumpArena
{
  public:
    /**
     * Room for up to @p n items at the returned pointer, valid until
     * the next reserve(); commit() keeps the ones written.
     */
    T *
    reserve(size_t n)
    {
        while (active < blocks.size() &&
               blocks[active].used + n > blocks[active].cap)
            ++active;
        if (active == blocks.size()) {
            const size_t cap = std::max(blockItems, n);
            // Default-initialized: pages are only touched as used.
            blocks.push_back(Block{std::unique_ptr<T[]>(new T[cap]),
                                   cap, 0});
        }
        Block &b = blocks[active];
        return b.data.get() + b.used;
    }

    /** Keep the first @p n items of the last reserve(). */
    const T *
    commit(size_t n)
    {
        Block &b = blocks[active];
        const T *out = b.data.get() + b.used;
        b.used += n;
        return out;
    }

    /** Copy @p n items in; null when n is 0. */
    const T *
    store(const T *src, size_t n)
    {
        if (n == 0)
            return nullptr;
        std::memcpy(reserve(n), src, n * sizeof(T));
        return commit(n);
    }

    void
    reset()
    {
        for (Block &b : blocks)
            b.used = 0;
        active = 0;
    }

  private:
    static constexpr size_t blockItems = size_t(1) << 16;

    struct Block
    {
        std::unique_ptr<T[]> data;
        size_t cap = 0;
        size_t used = 0;
    };

    std::vector<Block> blocks;
    size_t active = 0;
};

/** One rasterization of a scene, read-only once built. */
// texlint: owned-by-task
class SceneRaster
{
  public:
    /** What phase 0 needs of one triangle. */
    struct Tri
    {
        /** Fragments in raster order (contiguous, `count` of them). */
        const NodeFragment *frags = nullptr;
        uint32_t count = 0;
        bool degenerate = true;
        /** Bounding box clipped to the screen (set if !degenerate). */
        Rect bbox;
    };

    /**
     * Rasterize every triangle of @p scene on @p pool. The scene
     * must outlive the raster.
     */
    SceneRaster(const Scene &scene, ThreadPool &pool);

    SceneRaster(const SceneRaster &) = delete;
    SceneRaster &operator=(const SceneRaster &) = delete;

    /** The scene this raster was built from. */
    const Scene &scene() const { return _scene; }

    const Tri &tri(size_t t) const { return tris[t]; }
    size_t size() const { return tris.size(); }

  private:
    void rasterizeTri(uint32_t worker, size_t t);

    // texlint: shared(the scene is read-only while rastering)
    const Scene &_scene;
    // texlint: owned-by-task
    std::vector<Tri> tris; ///< one per triangle, by task index
    // texlint: owned-by-task
    std::vector<BumpArena<NodeFragment>> arenas; ///< by worker id
};

} // namespace texdist

#endif // TEXDIST_CORE_SCENE_RASTER_HH
