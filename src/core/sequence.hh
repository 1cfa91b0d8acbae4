/**
 * @file
 * The machine: P texture-mapping nodes behind one distribution,
 * running frames on the two-phase engine. A single frame (the
 * paper's cold-cache studies, runFrame) is a one-frame sequence. An
 * animated demo re-renders nearly the same frame 60 times a second,
 * so caches — especially board-level L2s — start each frame warm:
 * the machine runs frames back to back on persistent nodes, caches
 * and buses carry over, frame N+1's geometry stream starts when
 * frame N has fully retired (double-buffered rendering), and each
 * frame gets its own FrameResult with delta statistics.
 *
 * All frames must share the screen size and a texture address space
 * laid out identically to the first frame's (translateScene and
 * TextureManager::clone guarantee this).
 */

#ifndef TEXDIST_CORE_SEQUENCE_HH
#define TEXDIST_CORE_SEQUENCE_HH

#include <memory>
#include <ostream>
#include <vector>

#include "core/frame_engine.hh"
#include "core/machine.hh"
#include "core/sortlast.hh"
#include "geom/rng.hh"
#include "sim/checkpoint.hh"

namespace texdist
{

/** Results of a frame sequence. */
struct SequenceResult
{
    std::vector<FrameResult> frames; ///< per-frame deltas
    Tick totalTime = 0;              ///< end of the last frame
};

/**
 * A persistent machine that renders frames one after another.
 * Construct with the machine configuration and the *first* frame
 * (whose texture manager the nodes bind to), then call runFrame for
 * each frame in order.
 *
 * Frames execute on the deterministic two-phase engine
 * (TwoPhaseFrameEngine): `host_jobs` controls only how many host
 * threads simulate the independent per-node streams. Every result,
 * digest and checkpoint byte is identical for any value of
 * host_jobs — it is a host-side throughput knob, not part of the
 * machine configuration, which is why it does not appear in
 * MachineConfig::describe() and checkpoints restore across
 * different job counts.
 */
class SequenceMachine
{
  public:
    SequenceMachine(const SequenceMachine &) = delete;
    SequenceMachine &operator=(const SequenceMachine &) = delete;

    /**
     * @param entry single frames and sequences differ only in the
     *        FIFO high-water tie rule (see FrameEntry)
     * @param distribution an externally built screen distribution
     *        (e.g. a MappedBlockDistribution from the oracle
     *        balancer) matching the frame and the processor count;
     *        null builds the configured one
     * @param raster a shared rasterization of @p first_frame, the
     *        only frame the machine may then run (see SceneRaster);
     *        null rasterizes every frame itself
     */
    SequenceMachine(const Scene &first_frame,
                    const MachineConfig &config,
                    uint32_t host_jobs = 1,
                    FrameEntry entry = FrameEntry::Sequence,
                    std::unique_ptr<Distribution> distribution = nullptr,
                    const SceneRaster *raster = nullptr);

    /**
     * A sort-last machine: whole triangles are dealt to the nodes
     * per @p config, every node owns its stream from the frame
     * start, and nothing couples the nodes. Single-frame tie rule.
     */
    SequenceMachine(const Scene &first_frame,
                    const SortLastConfig &config,
                    uint32_t host_jobs = 1);

    /**
     * Simulate one frame; caches stay warm from previous frames.
     * The scene must match the screen size and texture layout of
     * the first frame.
     */
    FrameResult runFrame(const Scene &scene);

    /**
     * Execute one frame functionally for sampled fast-forward
     * (--sample warm frames): every cache sees the frame's texel
     * references in detailed order — tags, LRU and access/miss
     * counters advance exactly as a detailed frame's would — but no
     * simulated time passes and the clock stays put. The returned
     * result carries the exact work and cache deltas with
     * frameTime 0 and `estimated` set. After the first functional
     * frame the machine refuses to serialize(): its timing state no
     * longer corresponds to any exact run. Fault plans are not
     * supported in sampled runs.
     */
    FrameResult runFrameFunctional(const Scene &scene);

    /** End of the last simulated frame. */
    Tick currentTime() const { return frameStart; }

    /** The static image distribution all frames share. */
    const Distribution &distribution() const { return *dist; }

    /** Frames simulated (or restored) so far. */
    uint32_t framesRun() const { return _framesRun; }

    /** Host threads simulating each frame. */
    uint32_t jobs() const { return engine->jobs(); }

    /** Per-node access for the oracle, tests and reports. */
    TextureNode &node(uint32_t i) { return *nodes[i]; }
    const TextureNode &node(uint32_t i) const { return *nodes[i]; }
    uint32_t numNodes() const { return uint32_t(nodes.size()); }

    /**
     * Feeder totals over the frames run so far: dispatch counters,
     * blocked cycles and rerouted fragments.
     */
    const FrameEngineResult &feeder() const { return feederTotals; }

    /**
     * Dump the feeder's and every node's statistics (gem5-style
     * lines), cumulative over the frames run so far.
     */
    void dumpStats(std::ostream &os) const;

    /**
     * Serialize the machine at a frame boundary: the clock, the
     * fault RNG stream, per-node delta snapshots and every node's
     * full state (caches, engine clocks, FIFO, bus). A machine
     * restored from this checkpoint simulates the remaining frames
     * bit-exactly as the uninterrupted run would have.
     */
    void serialize(CheckpointWriter &w) const;

    /**
     * Restore a checkpoint into a freshly constructed machine with
     * an identical configuration and first frame; throws ParseError
     * (surface: checkpoint) on any mismatch or truncation. Must be
     * called before the first runFrame(). If the restore throws, the
     * machine is poisoned — it holds partial state, and runFrame()
     * panics rather than simulate from it.
     */
    void restore(CheckpointReader &r);

  private:
    /** @param sort_last null for a sort-middle machine */
    SequenceMachine(const Scene &first_frame,
                    const MachineConfig &config, uint32_t host_jobs,
                    FrameEntry entry,
                    std::unique_ptr<Distribution> distribution,
                    const SortLastConfig *sort_last,
                    const SceneRaster *raster);

    /**
     * Build the per-frame fault plan as engine actions: fault ticks
     * are relative to the frame start and the plan strikes every
     * frame, with `rand` victims re-resolved per frame from the
     * session RNG stream. Throws the typed CLI ParseError for an
     * explicit victim out of range. Updates maxActionTick.
     */
    std::vector<EngineFaultAction> armFaults(Tick frame_start);

    /** Shared preconditions of runFrame and runFrameFunctional. */
    void checkFrame(const Scene &scene) const;

    /**
     * Throws the typed checkpoint ParseError when the machine is
     * sample-tainted; serialize() calls this first. Kept out of
     * serialize() itself so the taint guard does not perturb the
     * texlint layout fingerprint — the serialized byte layout is
     * unchanged by sampling support.
     */
    void requireExactState() const;

    /**
     * Assemble a FrameResult from per-node counter deltas against
     * the snapshots, advancing the snapshots; shared by the detailed
     * and functional paths (the functional path passes
     * frame_end == frameStart so all timing fields are zero).
     */
    FrameResult assembleResult(Tick frame_end,
                               const FrameEngineResult &eng);

    /** Per-node counter snapshot for delta accounting. */
    struct NodeSnapshot
    {
        uint64_t pixels = 0;
        uint64_t triangles = 0;
        uint64_t accesses = 0;
        uint64_t misses = 0;
        uint64_t texelsFetched = 0;
        uint64_t stallCycles = 0;
        uint64_t idleCycles = 0;
        uint64_t setupBound = 0;
        uint64_t setupWait = 0;
    };

    MachineConfig cfg;
    // texlint: allow(checkpoint) construction state, like cfg
    SortLastConfig sortLast;
    // texlint: allow(checkpoint) static tile map, a pure function of cfg
    std::unique_ptr<Distribution> dist;
    std::vector<std::unique_ptr<TextureNode>> nodes;
    std::vector<NodeSnapshot> snapshots;
    // texlint: allow(checkpoint) stateless between frames; rebuilt from cfg
    std::unique_ptr<TwoPhaseFrameEngine> engine;
    Rng faultRng;
    // texlint: allow(checkpoint) feeder totals, only for dumpStats
    FrameEngineResult feederTotals;
    /** Latest tick of any action of the current frame's plan. */
    // texlint: allow(checkpoint) per-frame scratch, folded into frameStart
    Tick maxActionTick = 0;
    uint32_t _framesRun = 0;
    Tick frameStart = 0;
    // texlint: allow(checkpoint) restore-once guard, meaningless in a file
    bool restored = false;
    // texlint: allow(checkpoint) poison flag, meaningless in a file
    bool restoreFailed = false;
    /**
     * Set by the first functional frame; serialize() then throws a
     * typed checkpoint ParseError, because the machine's timing
     * state no longer matches any exact detailed run.
     */
    // texlint: allow(checkpoint) taint guard that itself forbids
    // serialization
    bool _sampleTainted = false;
};

/** Convenience: run a whole sequence. */
SequenceResult runFrameSequence(const std::vector<Scene> &frames,
                                const MachineConfig &config,
                                uint32_t jobs = 1);

} // namespace texdist

#endif // TEXDIST_CORE_SEQUENCE_HH
