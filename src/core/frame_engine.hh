/**
 * @file
 * The deterministic two-phase parallel frame engine — the one engine
 * every frame runs on.
 *
 * The geometry feeder and the P texture nodes interact only through
 * FIFO back-pressure and the fault plan; everything else a node
 * does — cache hits, bus transfers, prefetch-queue stalls — is a
 * pure function of its own (push tick, triangle work) stream,
 * because triangle k starts at max(scan-free time after k-1, push
 * tick of k). The engine exploits that:
 *
 *  - Phase 0 (parallel): rasterize every triangle and bucket its
 *    fragments by owning processor (sort-middle) or deal it whole
 *    to one node (sort-last). Rasterization has no timing inputs,
 *    so triangles fan out over the worker pool. Given a SceneRaster
 *    (one rasterization shared by every config of a batch), phase 0
 *    only buckets: each target's share is a list of indices into
 *    the triangle's shared fragments, and a triangle with one
 *    target takes them whole, copying nothing.
 *  - Phase 1 (serial, cheap): replay the feeder's timing — geometry
 *    engines, dispatch-rate credit, FIFO back-pressure — and the
 *    tick-known actions that couple nodes: fifo-freeze (a lane with
 *    capacity 0 over [at, end)), kill-node (the victim's unstarted
 *    triangles move round-robin to the survivors, later dispatches
 *    reroute its buckets) and the no-progress watchdog. When a FIFO
 *    would be full the engine advances *that node's* simulation
 *    just far enough to find the pop that frees a slot (lazy,
 *    conservative coupling); with the default 10000-entry buffers
 *    this almost never triggers and phase 1 is pure arithmetic.
 *  - Phase 2 (parallel): drain every node's remaining stream on the
 *    pool, one node per task.
 *
 * Results merge in node-index order, so counters, digests, CSV rows
 * and checkpoint bytes are bit-exact across any --jobs value — the
 * serial schedule and the parallel schedule are the *same* schedule.
 */

#ifndef TEXDIST_CORE_FRAME_ENGINE_HH
#define TEXDIST_CORE_FRAME_ENGINE_HH

#include <algorithm>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "core/distribution.hh"
#include "core/node.hh"
#include "core/scene_raster.hh"
#include "core/sortlast.hh"
#include "scene/scene.hh"
#include "sim/thread_pool.hh"

namespace texdist
{

/**
 * The entry point a machine was built for. It fixes one thing: how
 * the FIFO high-water statistic breaks a tie between a push and a
 * pop at the same tick (timing never depends on it).
 *
 *  - Sequence: the pop counts first.
 *  - SingleFrame: the order a discrete-event schedule runs them
 *    in. A dispatch burst's pushes count before the same-tick pops
 *    scheduled after the burst was — such as the pop of a triangle
 *    the burst itself pushed — while a pop scheduled earlier, like
 *    the one that freed the slot the burst waited for, counts first.
 */
enum class FrameEntry : uint8_t
{
    Sequence,
    SingleFrame,
};

/**
 * One pre-resolved fault action for a frame. Fault actions fire
 * before any frame activity at their tick (before same-tick pops,
 * dispatches and watchdog checks), in arm order among themselves.
 * Slowdown and bus-stall only change how the victim scans, so its
 * lane applies them lazily as it starts triangles; freeze, thaw and
 * kill couple nodes through the feeder and fire in phase 1.
 */
struct EngineFaultAction
{
    enum class Kind : uint8_t
    {
        Slowdown, ///< setSlowdown(factor) — strike or recovery
        BusStall, ///< stallBus(stallFrom, stallUntil)
        Freeze,   ///< the victim's FIFO accepts nothing
        Thaw,     ///< fifo-freeze recovery
        Kill,     ///< the victim dies; its queue moves to survivors
    };

    Tick at = 0;
    uint32_t victim = 0;
    Kind kind = Kind::Slowdown;
    uint32_t factor = 1;
    Tick stallFrom = 0;
    Tick stallUntil = 0;
    /** A strike (counted in FaultStats::injected), not a recovery. */
    bool strike = true;
};

/** Feeder-side and fault outcomes of one two-phase frame. */
struct FrameEngineResult
{
    Tick frameEnd = 0; ///< latest node finish time
    uint64_t trianglesDispatched = 0;
    uint64_t degenerateTriangles = 0;
    uint64_t culledTriangles = 0;
    uint64_t feederBlockedCycles = 0;

    bool degraded = false; ///< a node died; survivors took its work
    bool failed = false;   ///< the frame was abandoned
    std::string failureReason;
    std::string diagnostic; ///< machine state at the first stall
    /** detectionTick is relative to the frame start. */
    FaultStats faultStats;
};

/**
 * Reusable two-phase engine bound to one machine (distribution +
 * nodes). Owns the worker pool and all per-worker scratch (fragment
 * arenas, rasterization buckets), which persist across frames.
 */
class TwoPhaseFrameEngine
{
  public:
    /**
     * @param jobs host threads (>= 1); 1 = fully serial
     * @param entry fixes the FIFO high-water tie rule
     * @param sort_last deal whole triangles per this config instead
     *        of bucketing fragments by screen owner; null for
     *        sort-middle
     * @param raster a shared rasterization of the one scene every
     *        frame will render (it must outlive the engine); null
     *        rasterizes each frame in phase 0
     */
    TwoPhaseFrameEngine(
        const MachineConfig &config, const Distribution &dist,
        std::vector<std::unique_ptr<TextureNode>> &nodes,
        uint32_t jobs, FrameEntry entry,
        const SortLastConfig *sort_last,
        const SceneRaster *raster = nullptr);

    /**
     * Simulate one frame starting at @p frame_start.
     * @param actions the frame's fault plan in arm order
     */
    FrameEngineResult runFrame(
        const Scene &scene, Tick frame_start,
        const std::vector<EngineFaultAction> &actions);

    /**
     * Functional (no-timing) execution of one frame for sampled
     * warm-up: phase 0 runs unchanged, then every node consumes its
     * triangle stream in dispatch order through
     * TextureNode::functionalScan, so each cache sees exactly the
     * reference sequence a detailed frame would have shown it while
     * no simulated time passes anywhere. The result carries the
     * dispatch counters; frameEnd stays 0 and no fault actions are
     * accepted (sampled runs exclude fault plans).
     */
    FrameEngineResult runFrameFunctional(const Scene &scene);

    /**
     * Run phase 0 of a frame of @p scene alone — rasterize and
     * bucket, or bucket the shared raster — and return the number of
     * fragments bucketed: the layer benchmark of phase 0. Changes no
     * node; the next frame starts afresh.
     */
    uint64_t bucketOnly(const Scene &scene);

    uint32_t jobs() const { return pool.threads(); }

    /**
     * Occupancy of each destination FIFO just before each dispatch
     * to it, over every frame run so far.
     */
    Histogram dispatchOccupancy() const;

  private:
    /** Phase-0 output: one node's share of one triangle. */
    struct StreamEntry
    {
        uint32_t dest = 0;
        FragmentView frags;
    };

    enum class TriKind : uint8_t { Normal, Degenerate, Culled };

    /** Phase-0 per-triangle slot, indexed by triangle number. */
    struct TriSlot
    {
        TriKind kind = TriKind::Normal;
        uint32_t worker = 0;     ///< whose entry list holds it
        uint32_t entryBegin = 0; ///< index into that worker's entries
        uint32_t entryCount = 0;
    };

    /** Per-worker phase-0 scratch; persists across frames. */
    // texlint: owned-by-task
    struct WorkerCtx
    {
        BumpArena<NodeFragment> arena; ///< rasterized here
        BumpArena<uint32_t> idxArena;  ///< indices into a SceneRaster
        std::vector<StreamEntry> entries;
        OverlapScratch scratch;
        std::vector<uint32_t> targets;
        std::vector<std::vector<NodeFragment>> buckets;
        std::vector<std::vector<uint32_t>> idxBuckets;
    };

    /** One triangle of a node's materialized stream. */
    struct LaneTri
    {
        Tick push = 0;
        TextureId tex = 0;
        FragmentView frags;
        /** Dispatch burst that pushed it; 0 = a kill's migration. */
        uint32_t burst = 0;
    };

    /** When, and by which event, a pop was queued. */
    struct PopSched
    {
        Tick at = 0;
        /** By the push into an empty FIFO; else by the previous pop. */
        bool byPush = false;
    };

    /** A dispatch burst: one run of the feeder at one tick. */
    struct Burst
    {
        Tick sched = 0;      ///< tick it was queued at
        int32_t parent = -1; ///< burst that queued it; -1 = a wake-up
    };

    /** Per-node stream state for phases 1 and 2. */
    // texlint: owned-by-task
    struct Lane
    {
        std::vector<LaneTri> stream;
        std::vector<Tick> starts; ///< pop tick of each consumed tri
        std::vector<PopSched> sched; ///< of each consumed tri's pop
        size_t next = 0; ///< first unconsumed stream index
        /** Consumption stops here (a kill or a failed frame). */
        size_t cut = SIZE_MAX;
        std::vector<const EngineFaultAction *> actions;
        size_t nextAction = 0;
        bool frozen = false; ///< the node's FIFO accepts nothing

        /** Queued triangles this lane will still start. */
        size_t
        pending() const
        {
            return std::min(stream.size(), cut) - next;
        }
        bool consumable() const { return pending() > 0; }
    };

    /** Phase-1 feeder state of the frame being replayed. */
    // texlint: owned-by-task
    struct Feed
    {
        Tick frameStart = 0;
        Tick now = 0;         ///< tick of the current dispatch burst
        uint32_t burst = 0;   ///< current burst id
        double credit = 0.0;  ///< dispatch-rate credit
        Tick lastRateTick = 0;
        uint64_t checkedDispatches = 0; ///< dispatched at last check
        bool done = false; ///< every triangle dispatched
        int32_t blockedOn = -1; ///< lane the feeder waits on, or -1
        uint64_t dispatched = 0;
        std::vector<const EngineFaultAction *> events;
        size_t nextEvent = 0;
        Tick nextCheck = maxTick; ///< next watchdog check
        Tick cutoff = maxTick;    ///< failure tick; later faults void
        std::vector<bool> alive;
        std::vector<Tick> frozenSince; ///< tick each node last froze
        uint32_t aliveCount = 0;
        size_t rerouteCursor = 0;
        size_t redistributeCursor = 0;
        std::vector<uint32_t> dests;
        std::vector<NodeFragment> fold;
        FrameEngineResult *res = nullptr;
    };

    /** Reset the per-frame state and run phase 0. */
    void beginFrame(const Scene &scene, Tick frame_start,
                    FrameEngineResult &res);
    void rasterizeOne(const Scene &scene, uint32_t worker,
                      size_t tri);
    /**
     * Fill ctx.targets with the destinations of triangle @p t, whose
     * screen-clipped box is @p bbox.
     * @return false when it has none (culled)
     */
    bool findTargets(WorkerCtx &ctx, size_t t, const Rect &bbox) const;
    Tick consumeOne(Lane &lane, TextureNode &node);
    void applyAction(TextureNode &node,
                     const EngineFaultAction &action);
    /**
     * Whether the pop of stream[q] (at @p start, scheduled at
     * @p sched) runs before a push at @p push by burst @p burst.
     */
    bool popPrecedes(const Lane &lane, size_t q, Tick start,
                     PopSched sched, Tick push, uint32_t burst) const;
    /** When and how the pop of stream[lane.next] is queued. */
    PopSched nextPopSched(const Lane &lane) const;
    /**
     * Replay one lane's pushes and pops under the tie rule: adds the
     * occupancy before each dispatch to @p at_dispatch and returns
     * the high-water mark.
     */
    size_t replayFifo(const Lane &lane, Histogram &at_dispatch) const;

    // --- phase 1 ---------------------------------------------------------
    void replay(const Scene &scene);
    /** Push every triangle at once, with no feeder coupling. */
    void pushAll(const Scene &scene);
    /**
     * Start a new dispatch burst at @p at, queued at @p sched by the
     * current burst when @p chained, else by a wake-up.
     */
    void newBurst(Tick at, Tick sched, bool chained);
    void advanceTo(Tick to);
    /**
     * Fire fault events at ticks <= @p upto and watchdog checks
     * before it, in tick order. With @p stop_at_notify, stop after
     * the first event that wakes a blocked feeder.
     * @return the tick of that event, or maxTick
     */
    Tick fireEvents(Tick upto, bool stop_at_notify);
    /** @return true when it woke the feeder */
    bool fireAction(const EngineFaultAction &action);
    /** @return true when it woke the feeder */
    bool watchdogCheck(Tick at);
    /** Watchdog checks after the last dispatch, from @p next_check. */
    uint64_t trailingChecks(Tick next_check) const;
    /** Consume the lane's pops that start at or before @p at. */
    void advanceLane(uint32_t p, Tick at);
    void kill(uint32_t victim, Tick at, const char *why);
    void fail(Tick at, const std::string &reason);
    std::string dumpState(Tick at) const;
    /**
     * Route a triangle's targets to live destinations (feed.dests).
     * @return true when a dead target was rerouted
     */
    bool routeTargets(size_t entry_begin, size_t entry_end,
                      const std::vector<StreamEntry> &entries);
    /**
     * Tick of the next pop on any live lane that the current burst
     * has not seen (uncovering those it has); maxTick when none.
     */
    Tick nextPop();
    /**
     * Push triangle @p t to its destinations (feed.dests), folding
     * the buckets of @p rerouted targets that share one.
     */
    void push(const Scene &scene, size_t t, size_t entry_begin,
              size_t entry_end, const std::vector<StreamEntry> &entries,
              bool rerouted);

    // texlint: shared(immutable machine description, read-only)
    const MachineConfig &cfg;
    // texlint: shared(immutable screen-ownership map, read-only)
    const Distribution &dist;
    // texlint: shared(vector shape is fixed before any phase starts)
    std::vector<std::unique_ptr<TextureNode>> &nodes;
    // texlint: shared(immutable tie rule, fixed at construction)
    const FrameEntry frameEntry;
    // texlint: shared(immutable sort-last dealing, read-only)
    const SortLastConfig *sortLast;
    // texlint: shared(read-only rasterization of the one scene)
    const SceneRaster *raster;
    // texlint: shared(tasks are only ever submitted from serial code)
    ThreadPool pool;
    // texlint: owned-by-task
    std::vector<WorkerCtx> workers; ///< one per worker, by worker id
    // texlint: owned-by-task
    std::vector<TriSlot> slots; ///< one per triangle, by task index
    // texlint: owned-by-task
    std::vector<Lane> lanes; ///< one per node, by phase-2 task index
    // texlint: owned-by-task
    std::vector<Histogram> occupancy; ///< per node, see dispatchOccupancy
    // texlint: shared(written only by serial phase 1, read in phase 2)
    std::vector<Burst> bursts;
    // texlint: owned-by-task
    BumpArena<NodeFragment> foldArena; ///< phase-1 folded buckets
    // texlint: owned-by-task
    Feed feed;
};

} // namespace texdist

#endif // TEXDIST_CORE_FRAME_ENGINE_HH
