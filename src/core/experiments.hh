/**
 * @file
 * Experiment drivers shared by the benchmark harnesses and the
 * examples: the fast analytic load-balance path used by Figure 5's
 * top graphs (no event simulation needed — just fragment ownership
 * counts), a FrameLab that runs configurations against a scene and
 * caches the single-processor baselines that speedups divide by, and
 * small table-printing helpers so every harness reports in the same
 * format as the paper's figures.
 */

#ifndef TEXDIST_CORE_EXPERIMENTS_HH
#define TEXDIST_CORE_EXPERIMENTS_HH

#include <map>
#include <memory>
#include <ostream>
#include <string>
#include <vector>

#include "core/machine.hh"
#include "core/scene_raster.hh"
#include "scene/scene.hh"
#include "sim/thread_pool.hh"

namespace texdist
{

/**
 * Fragments owned by each processor under a distribution — the
 * "amount of work done" of Section 5, measured by rasterizing the
 * scene once (no timing). This is what a machine with a perfect
 * cache, ideal buffers and no setup limit would balance.
 */
std::vector<uint64_t> pixelWorkPerProc(const Scene &scene,
                                       const Distribution &dist);

/**
 * Runs machine configurations against one scene and caches the
 * single-processor baseline times used as speedup denominators
 * (T(1) uses the same node parameters — cache, bus, setup,
 * prefetch — with an ideal triangle buffer). Every run is a cold
 * single frame (runFrame) on a machine of its own.
 *
 * The lab rasterizes its scene once, on first use, into a
 * SceneRaster that every run then buckets read-only: runs differ
 * only in how they distribute the same fragments, so results are
 * identical to runFrame on the bare scene.
 */
class FrameLab
{
  public:
    explicit FrameLab(const Scene &scene_) : scene(scene_) {}

    /** Simulate one configuration. */
    FrameResult run(const MachineConfig &config);

    /** T(1) for the node parameters of @p config (cached). */
    Tick baseline(const MachineConfig &config);

    /** Result of a run plus its speedup. */
    struct SpeedupResult
    {
        FrameResult frame;
        Tick baselineTime = 0;
        double speedup = 0.0;
    };

    /** Simulate and attach the speedup over the cached baseline. */
    SpeedupResult runWithSpeedup(const MachineConfig &config);

    /**
     * Simulate a batch of configurations on @p pool, one config per
     * worker, each on a private single-frame SequenceMachine. The
     * scene is rasterized on the pool first (once per lab), and the
     * baselines not cached yet run as the batch's first tasks. The
     * runs are independent simulations, so results are identical to
     * calling runWithSpeedup() in a loop — only the wall-clock time
     * changes.
     */
    std::vector<SpeedupResult>
    runBatch(const std::vector<MachineConfig> &configs,
             ThreadPool &pool);

    /** Like runBatch() but without the speedup denominators. */
    std::vector<FrameResult>
    runMany(const std::vector<MachineConfig> &configs,
            ThreadPool &pool);

    const Scene &frameScene() const { return scene; }

  private:
    /**
     * The lab's rasterization, built at first use on @p pool (or
     * serially when null).
     */
    const SceneRaster &sharedRaster(ThreadPool *pool);

    /** The T(1) machine for the node parameters of @p config. */
    MachineConfig baselineConfig(const MachineConfig &config) const;

    const Scene &scene;
    std::unique_ptr<SceneRaster> raster;
    std::map<std::string, Tick> baselines;
};

/**
 * Common command-line handling for the bench harnesses.
 *
 * Flags: --scale=<f> (linear scene scale; default 0.5),
 * --full (scale 1.0, the paper's frame sizes),
 * --quick (scale 0.25, for smoke runs),
 * --csv=<dir> (also write figure series as CSV files for
 * scripts/plot_figures.py),
 * --threads=<n> (simulate n configurations at a time; results are
 * identical for any value). The TEXDIST_SCALE environment variable
 * provides a default scale that flags override.
 */
struct BenchOptions
{
    double scale = 0.5;

    /** Directory for CSV series output; empty disables it. */
    std::string csvDir;

    /** Host threads simulating configurations concurrently. */
    uint32_t threads = 1;

    static BenchOptions parse(int argc, char **argv);
};

/** Fixed-width column table printer used by all harnesses. */
class TablePrinter
{
  public:
    TablePrinter(std::ostream &os, std::vector<std::string> headers,
                 int width = 10);

    /** Print the header row and a separator. */
    void printHeader();

    /** Start a row; then call cell() once per column. */
    void cell(const std::string &value);
    void cell(double value, int precision = 2);
    void cell(uint64_t value);
    void endRow();

  private:
    std::ostream &os;
    std::vector<std::string> headers;
    int width;
    size_t column = 0;
};

} // namespace texdist

#endif // TEXDIST_CORE_EXPERIMENTS_HH
