/**
 * @file
 * Shadow differential cache — the oracle's defense against
 * plausible-but-wrong cache behaviour.
 *
 * Structural checks (distinct tags, stamp ordering, inclusion) catch
 * corrupted state, but a cache that *updates its replacement state
 * wrongly* — the classic "forgot to touch the LRU stamp on a hit" —
 * keeps every structural invariant while silently measuring a
 * different machine. The only way to catch that class of bug is a
 * second opinion: ShadowedCache decorates a node's real cache with a
 * trivially-correct reference model (per-set MRU-ordered tag lists,
 * no clever fast paths, no shared counters) and compares, on every
 * single access, both the hit/miss verdict and the full recency
 * order of the touched set (real stamp ordering vs reference list).
 * The order comparison is what makes the differential sensitive: a
 * skipped LRU touch rarely flips a verdict on a high-locality
 * workload, but it reorders the set immediately. Divergences are
 * collected and raised by the OracleEngine at the frame boundary as
 * exit-13 OracleErrors.
 *
 * The simulation probes its cache a batch at a time
 * (TextureCache::accessBatch), and the decorator routes each batch
 * through the inner cache's own accessBatch, so the oracle checks the
 * code simulations run. The reference comparison needs the state
 * after every single access, which a batch never exposes, so it runs
 * against a per-address *twin*: a copy of the inner cache driven by
 * access() one address at a time and checked against the reference
 * model on every access exactly as above. The batch is then held to
 * the twin — the same verdict for every address, and bit-identical
 * tags, stamps, stamp clock and counters once the batch is done. The
 * twin copies the inner cache's state, never its planted-bug knob, so
 * a bug inside the batched path shows up as batch-versus-twin
 * divergence.
 *
 * The decorator is transparent to the simulation: timing uses the
 * inner cache's verdicts, statistics mirror the inner counters, and
 * serialize/unserialize forward to the inner cache so checkpoints
 * stay byte-identical with and without the oracle. The twin and the
 * reference model reseed themselves from the inner cache after a
 * restore or reset, so shadows attach correctly to warm caches.
 */

#ifndef TEXDIST_ORACLE_SHADOW_HH
#define TEXDIST_ORACLE_SHADOW_HH

#include <memory>
#include <string>
#include <vector>

#include "cache/cache.hh"
#include "cache/two_level.hh"

namespace texdist
{

/**
 * Reference LRU set-associative cache: per-set tag lists kept in
 * MRU-first order. Deliberately the simplest possible correct
 * implementation — it shares no code, no layout and no counters with
 * SetAssocCache, which is what makes the differential meaningful.
 */
class ReferenceLru
{
  public:
    explicit ReferenceLru(const CacheGeometry &geometry);

    /** What one access did. */
    struct Outcome
    {
        bool hit = false;
        bool evicted = false;      ///< a valid line was replaced
        uint64_t evictedAddr = 0;  ///< its byte address
    };

    Outcome access(uint64_t addr);

    /** Drop a line if present (back-invalidation). */
    void invalidate(uint64_t addr);

    /** True when the line holding @p addr is resident. */
    bool probe(uint64_t addr) const;

    void clear();

    /**
     * Adopt the exact contents of a warm SetAssocCache: valid lines
     * per set, ordered by descending LRU stamp (MRU first).
     */
    void seedFrom(const SetAssocCache &cache);

    /** Set index of the line holding @p addr. */
    uint32_t
    setIndexOf(uint64_t addr) const
    {
        return uint32_t((addr >> lineShift) & (sets - 1));
    }

    /** Resident line addresses of @p set, MRU first. */
    const std::vector<uint64_t> &
    setLines(uint32_t set) const
    {
        return mru[set];
    }

  private:
    uint32_t lineShift;
    uint32_t setShift;
    uint32_t sets;
    uint32_t ways;
    /** mru[set] holds resident line addresses, MRU first. */
    std::vector<std::vector<uint64_t>> mru;
};

/**
 * TextureCache decorator running every batch through the real cache
 * and every access through a per-address twin and a reference model,
 * recording divergences.
 */
class ShadowedCache : public TextureCache
{
  public:
    /**
     * @param inner_cache the node's cache; must satisfy canShadow()
     * @param owner_name for violation messages, e.g. "node3"
     */
    ShadowedCache(std::unique_ptr<TextureCache> inner_cache,
                  std::string owner_name);

    /** True for the cache models a shadow knows how to mirror. */
    static bool canShadow(const TextureCache &cache);

    /** One-address batch. */
    bool access(uint64_t addr) override;
    void accessBatch(const uint64_t *addrs, size_t n,
                     uint8_t *miss) override;
    void reset() override;
    void serialize(CheckpointWriter &w) const override;
    void unserialize(CheckpointReader &r) override;
    CacheKind kind() const override { return inner->kind(); }
    uint32_t
    texelsPerFill() const override
    {
        return inner->texelsPerFill();
    }

    /** The wrapped cache (for structural checks and stats). */
    const TextureCache &innerCache() const { return *inner; }

    /** Detach: hand the inner cache back (the shadow is then dead). */
    std::unique_ptr<TextureCache> releaseInner();

    /**
     * Divergence messages recorded since the last drain (capped;
     * excess divergences are summarized in the final message).
     */
    std::vector<std::string> drainViolations();

    uint64_t divergences() const { return _divergences; }

  private:
    /**
     * Rebuild the twin from the inner cache's state (without its
     * planted-bug knob) and the reference models from the twin.
     */
    void reseed();

    /**
     * One per-address access of the twin, checked against the
     * reference model(s) for its verdict and recency order.
     * @return the twin's verdict (true on an L1 hit)
     */
    bool checkedTwinAccess(uint64_t addr);

    /** True when the inner cache's state equals the twin's. */
    bool innerMatchesTwin() const;

    void recordDivergence(uint64_t addr, const char *what);

    /**
     * Compare the recency order of the set @p addr maps to: the real
     * cache's valid lines sorted by descending LRU stamp must equal
     * the reference's MRU-first list exactly (contents and order).
     */
    void checkRecencyOrder(const SetAssocCache &real,
                           const ReferenceLru &ref, uint64_t addr,
                           const char *what);

    /** Mirror the inner statistics into the TextureCache base. */
    void
    syncStats()
    {
        _accesses = inner->accesses();
        _misses = inner->misses();
    }

    // The shadow owns no checkpointed state of its own: serialize
    // forwards wholesale to the inner cache and the reference models
    // rebuild from the restored inner state via reseed().
    std::unique_ptr<TextureCache> inner;
    /** Exactly one of these is non-null, aliasing `inner`. */
    // texlint: allow(checkpoint) downcast alias of inner, fixed at construction
    SetAssocCache *innerFlat = nullptr;
    // texlint: allow(checkpoint) downcast alias of inner, fixed at construction
    TwoLevelCache *innerTwoLevel = nullptr;

    // The per-address twin and its downcast aliases (exactly one
    // non-null, matching the inner model).
    // texlint: allow(checkpoint) copy of inner, rebuilt by reseed() on restore
    std::unique_ptr<TextureCache> twin;
    // texlint: allow(checkpoint) downcast alias of twin, set by reseed()
    SetAssocCache *twinFlat = nullptr;
    // texlint: allow(checkpoint) downcast alias of twin, set by reseed()
    TwoLevelCache *twinTwoLevel = nullptr;

    // texlint: allow(checkpoint) diagnostic label, fixed at construction
    std::string owner;
    // texlint: allow(checkpoint) reference model, rebuilt by reseed() on restore
    ReferenceLru refL1;
    // texlint: allow(checkpoint) reference model, rebuilt by reseed() on restore
    std::unique_ptr<ReferenceLru> refL2; ///< two-level only

    // texlint: allow(checkpoint) host-side diagnostics, drained every frame
    std::vector<std::string> violations;
    // texlint: allow(checkpoint) host-side diagnostics, drained every frame
    uint64_t _divergences = 0;
};

} // namespace texdist

#endif // TEXDIST_ORACLE_SHADOW_HH
