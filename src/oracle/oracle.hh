/**
 * @file
 * Online invariant oracle (`--oracle=off|cheap|full`).
 *
 * The replay/digest machinery of earlier PRs catches divergence from
 * *yesterday's run*; the oracle catches divergence from the *model*.
 * At every checked frame boundary it verifies the conservation laws
 * the paper's sort-middle machine implies, independent of
 * distribution, fault plan or thread count:
 *
 *  - spatial coverage: every framebuffer pixel is drawn exactly as
 *    often as an independent rasterization of the scene says,
 *    including on fault-degraded frames where a dead node's work was
 *    redistributed (nodes note every fragment into a FrameCoverage;
 *    the map is compared per pixel);
 *  - texel conservation across sampler → L1 → L2 → bus: cache
 *    accesses equal fragments × texelsPerFragment, external texels
 *    equal misses × fill size, and the bus moved exactly the texels
 *    the caches requested (per-level for two-level hierarchies);
 *  - cache-structural sanity: distinct tags per set, LRU stamps
 *    consistent with the access clock, and L1 ⊆ L2 inclusion when
 *    the configuration promises it;
 *  - (full mode) per-access shadow differential: every cache verdict
 *    cross-checked against a trivially-correct reference LRU model.
 *
 * Cheap mode runs the frame-boundary checks on sampled frames; full
 * mode checks every frame and adds the shadows. The oracle is a
 * host-side observer like `--jobs`: simulated timing, results,
 * digests and checkpoints are bit-identical with it on or off.
 * Violations throw OracleError (exit code 13) carrying frame, node
 * and cycle context.
 */

#ifndef TEXDIST_ORACLE_ORACLE_HH
#define TEXDIST_ORACLE_ORACLE_HH

#include <memory>
#include <string>
#include <vector>

#include "core/coverage.hh"
#include "core/options.hh"
#include "core/sequence.hh"
#include "oracle/shadow.hh"
#include "scene/scene.hh"

namespace texdist
{

/** Frame-boundary invariant checker for one machine's nodes. */
class OracleEngine
{
  public:
    /**
     * @param config the machine configuration being checked
     * @param mode Off constructs an inert engine (every call is a
     *        no-op) so drivers need no branching
     */
    OracleEngine(const MachineConfig &config, OracleMode mode);

    /** Detaches sinks and unwraps shadows from attached nodes. */
    ~OracleEngine();

    OracleEngine(const OracleEngine &) = delete;
    OracleEngine &operator=(const OracleEngine &) = delete;

    /**
     * Attach to a machine's nodes: registers coverage sinks and (in
     * full mode) wraps each set-associative cache in a shadow
     * differential decorator. Call once, before the first frame.
     */
    void attach(SequenceMachine &machine);

    OracleMode mode() const { return _mode; }

    /** True when frame @p frame gets the boundary checks. */
    bool checksFrame(uint32_t frame) const;

    /**
     * Arm the oracle for one frame: resets and connects the coverage
     * map when this frame is checked, disconnects it otherwise.
     */
    void beginFrame(uint32_t frame, const Scene &scene);

    /**
     * Run the frame-boundary checks; throws OracleError (exit 13)
     * on any violation.
     *
     * @param dist owner map for the per-node expected-work checks;
     *        null skips them (sort-last has no screen distribution)
     * @param result frame measurements; null runs the coverage and
     *        structural checks only
     * @param end_cycle absolute tick of the frame end, for error
     *        context
     */
    void endFrame(uint32_t frame, const Scene &scene,
                  const Distribution *dist, const FrameResult *result,
                  uint64_t end_cycle);

    /**
     * FNV digest of the last checked frame's coverage map — the
     * organization-independent "framebuffer digest" the metamorphic
     * harness compares across block / SLI / sort-last runs.
     */
    uint64_t lastCoverageDigest() const { return _lastDigest; }

    /** The live coverage map (null before the first checked frame). */
    const FrameCoverage *coverageMap() const { return coverage.get(); }

  private:
    struct BusSnapshot
    {
        uint64_t texels = 0;
        uint64_t transfers = 0;
        uint64_t l1Misses = 0;
    };

    void attachNode(TextureNode &node);

    /** The node's cache with any shadow decorator peeled off. */
    static const TextureCache &realCache(const TextureNode &node);

    void checkCoverage(const Scene &scene,
                       std::vector<std::string> &violations);
    void checkConservation(const FrameResult &result,
                           std::vector<std::string> &violations,
                           int32_t &first_node);
    void checkStructure(std::vector<std::string> &violations,
                        int32_t &first_node);

    MachineConfig cfg;
    OracleMode _mode;
    std::vector<TextureNode *> nodes;
    std::vector<ShadowedCache *> shadows; ///< parallel to nodes; may be null
    std::unique_ptr<FrameCoverage> coverage;
    std::vector<BusSnapshot> busAtFrameStart;
    bool checkingThisFrame = false;
    uint64_t _lastDigest = 0;
};

} // namespace texdist

#endif // TEXDIST_ORACLE_ORACLE_HH
