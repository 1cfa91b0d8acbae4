#include "oracle/shadow.hh"

#include <algorithm>
#include <bit>
#include <utility>

#include "sim/logging.hh"

namespace texdist
{

ReferenceLru::ReferenceLru(const CacheGeometry &geometry)
    : lineShift(uint32_t(std::countr_zero(geometry.lineBytes))),
      setShift(uint32_t(std::countr_zero(geometry.numSets()))),
      sets(geometry.numSets()), ways(geometry.ways), mru(sets)
{
    for (std::vector<uint64_t> &set : mru)
        set.reserve(ways);
}

ReferenceLru::Outcome
ReferenceLru::access(uint64_t addr)
{
    Outcome out;
    uint64_t line = addr >> lineShift;
    uint64_t line_addr = line << lineShift;
    std::vector<uint64_t> &set = mru[uint32_t(line & (sets - 1))];

    auto it = std::find(set.begin(), set.end(), line_addr);
    if (it != set.end()) {
        out.hit = true;
        std::rotate(set.begin(), it, it + 1);
        return out;
    }
    if (set.size() == ways) {
        out.evicted = true;
        out.evictedAddr = set.back();
        set.pop_back();
    }
    set.insert(set.begin(), line_addr);
    return out;
}

void
ReferenceLru::invalidate(uint64_t addr)
{
    uint64_t line = addr >> lineShift;
    uint64_t line_addr = line << lineShift;
    std::vector<uint64_t> &set = mru[uint32_t(line & (sets - 1))];
    auto it = std::find(set.begin(), set.end(), line_addr);
    if (it != set.end())
        set.erase(it);
}

bool
ReferenceLru::probe(uint64_t addr) const
{
    uint64_t line = addr >> lineShift;
    uint64_t line_addr = line << lineShift;
    const std::vector<uint64_t> &set =
        mru[uint32_t(line & (sets - 1))];
    return std::find(set.begin(), set.end(), line_addr) != set.end();
}

void
ReferenceLru::clear()
{
    for (std::vector<uint64_t> &set : mru)
        set.clear();
}

void
ReferenceLru::seedFrom(const SetAssocCache &cache)
{
    clear();
    std::vector<std::pair<uint64_t, uint64_t>> lines; // stamp, addr
    for (uint32_t s = 0; s < cache.numSets(); ++s) {
        lines.clear();
        for (uint32_t w = 0; w < cache.numWays(); ++w)
            if (cache.lineValid(s, w))
                lines.emplace_back(cache.lineStamp(s, w),
                                   cache.lineAddress(s, w));
        std::sort(lines.begin(), lines.end(),
                  [](const auto &a, const auto &b) {
                      return a.first > b.first;
                  });
        for (const auto &[stamp, addr] : lines)
            mru[s].push_back((addr >> lineShift) << lineShift);
    }
}

bool
ShadowedCache::canShadow(const TextureCache &cache)
{
    return dynamic_cast<const TwoLevelCache *>(&cache) != nullptr ||
           dynamic_cast<const SetAssocCache *>(&cache) != nullptr;
}

ShadowedCache::ShadowedCache(
    std::unique_ptr<TextureCache> inner_cache,
    std::string owner_name)
    : inner(std::move(inner_cache)),
      innerFlat(dynamic_cast<SetAssocCache *>(inner.get())),
      innerTwoLevel(dynamic_cast<TwoLevelCache *>(inner.get())),
      owner(std::move(owner_name)),
      refL1(innerTwoLevel ? innerTwoLevel->l1().geometry()
                          : innerFlat->geometry())
{
    if (!innerFlat && !innerTwoLevel)
        texdist_panic(owner, ": cannot shadow this cache model");
    if (innerTwoLevel)
        refL2 = std::make_unique<ReferenceLru>(
            innerTwoLevel->l2().geometry());
    reseed();
    syncStats();
}

void
ShadowedCache::recordDivergence(uint64_t addr, const char *what)
{
    ++_divergences;
    constexpr size_t keep = 4;
    if (violations.size() < keep) {
        violations.push_back(
            "shadow divergence on " + owner + ": " + what +
            " for texel address " + std::to_string(addr) +
            " (access #" + std::to_string(twin->accesses()) + ")");
    }
}

bool
ShadowedCache::access(uint64_t addr)
{
    uint8_t miss;
    accessBatch(&addr, 1, &miss);
    return miss == 0;
}

void
ShadowedCache::accessBatch(const uint64_t *addrs, size_t n,
                           uint8_t *miss)
{
    inner->accessBatch(addrs, n, miss);
    for (size_t i = 0; i < n; ++i) {
        bool hit = checkedTwinAccess(addrs[i]);
        if (miss[i] != (hit ? 0 : 1))
            recordDivergence(addrs[i],
                             "batched verdict differs from "
                             "per-address access()");
    }
    if (n > 0 && !innerMatchesTwin())
        recordDivergence(addrs[n - 1],
                         "cache state after a batch differs from "
                         "per-address access()");
    syncStats();
}

bool
ShadowedCache::checkedTwinAccess(uint64_t addr)
{
    if (twinTwoLevel) {
        uint64_t ext_before = twinTwoLevel->misses();
        bool l1_hit = twin->access(addr);
        ReferenceLru::Outcome o1 = refL1.access(addr);
        if (l1_hit != o1.hit)
            recordDivergence(addr, l1_hit
                                       ? "L1 hit where the reference "
                                         "model misses"
                                       : "L1 miss where the reference "
                                         "model hits");
        if (!o1.hit) {
            ReferenceLru::Outcome o2 = refL2->access(addr);
            bool ext_miss = twinTwoLevel->misses() != ext_before;
            if (ext_miss == o2.hit)
                recordDivergence(addr,
                                 ext_miss
                                     ? "external fetch where the "
                                       "reference L2 hits"
                                     : "L2 hit where the reference "
                                       "model fetches externally");
            if (twinTwoLevel->inclusive() && o2.evicted)
                refL1.invalidate(o2.evictedAddr);
            checkRecencyOrder(twinTwoLevel->l2(), *refL2, addr,
                              "L2 replacement order diverged from "
                              "the reference model");
        }
        // Checked after any back-invalidation so both sides are in
        // their post-access state; a wrong L2 victim choice surfaces
        // here as an L1 content mismatch.
        checkRecencyOrder(twinTwoLevel->l1(), refL1, addr,
                          "L1 replacement order diverged from the "
                          "reference model");
        return l1_hit;
    }

    bool hit = twin->access(addr);
    ReferenceLru::Outcome out = refL1.access(addr);
    if (hit != out.hit)
        recordDivergence(addr, hit ? "hit where the reference model "
                                     "misses"
                                   : "miss where the reference model "
                                     "hits");
    checkRecencyOrder(*twinFlat, refL1, addr,
                      "replacement order diverged from the "
                      "reference model");
    return hit;
}

bool
ShadowedCache::innerMatchesTwin() const
{
    if (innerTwoLevel)
        return innerTwoLevel->sameState(*twinTwoLevel);
    return innerFlat->sameState(*twinFlat);
}

void
ShadowedCache::checkRecencyOrder(const SetAssocCache &real,
                                 const ReferenceLru &ref,
                                 uint64_t addr, const char *what)
{
    uint32_t set = ref.setIndexOf(addr);
    // Real lines in recency order: descending LRU stamp. Stamps are
    // drawn from a strictly increasing clock, so the order is total.
    std::vector<std::pair<uint64_t, uint64_t>> lines; // stamp, addr
    for (uint32_t w = 0; w < real.numWays(); ++w)
        if (real.lineValid(set, w))
            lines.emplace_back(real.lineStamp(set, w),
                               real.lineAddress(set, w));
    std::sort(lines.begin(), lines.end(),
              [](const auto &a, const auto &b) {
                  return a.first > b.first;
              });
    const std::vector<uint64_t> &want = ref.setLines(set);
    bool same = lines.size() == want.size();
    for (size_t i = 0; same && i < want.size(); ++i)
        same = lines[i].second == want[i];
    if (!same)
        recordDivergence(addr, what);
}

void
ShadowedCache::reset()
{
    inner->reset();
    reseed();
    syncStats();
}

void
ShadowedCache::serialize(CheckpointWriter &w) const
{
    // Forward wholesale: a checkpoint written through a shadow is
    // byte-identical to one written without the oracle.
    inner->serialize(w);
}

void
ShadowedCache::unserialize(CheckpointReader &r)
{
    inner->unserialize(r);
    reseed();
    syncStats();
}

std::unique_ptr<TextureCache>
ShadowedCache::releaseInner()
{
    innerFlat = nullptr;
    innerTwoLevel = nullptr;
    twinFlat = nullptr;
    twinTwoLevel = nullptr;
    twin.reset();
    return std::move(inner);
}

std::vector<std::string>
ShadowedCache::drainViolations()
{
    if (_divergences > violations.size())
        violations.push_back(
            "shadow divergence on " + owner + ": " +
            std::to_string(_divergences) + " total divergences");
    std::vector<std::string> out = std::move(violations);
    violations.clear();
    return out;
}

void
ShadowedCache::reseed()
{
    if (innerTwoLevel) {
        auto copy = std::make_unique<TwoLevelCache>(*innerTwoLevel);
        copy->debugPlantLruSkip(0);
        twinTwoLevel = copy.get();
        twin = std::move(copy);
        refL1.seedFrom(twinTwoLevel->l1());
        refL2->seedFrom(twinTwoLevel->l2());
    } else {
        auto copy = std::make_unique<SetAssocCache>(*innerFlat);
        copy->debugPlantLruSkip(0);
        twinFlat = copy.get();
        twin = std::move(copy);
        refL1.seedFrom(*twinFlat);
    }
}

} // namespace texdist
