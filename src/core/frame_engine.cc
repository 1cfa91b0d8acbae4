#include "core/frame_engine.hh"

#include <algorithm>
#include <sstream>

#include "raster/raster.hh"
#include "sim/logging.hh"

namespace texdist
{

TwoPhaseFrameEngine::TwoPhaseFrameEngine(
    const MachineConfig &config, const Distribution &dist_,
    std::vector<std::unique_ptr<TextureNode>> &nodes_, uint32_t jobs,
    FrameEntry entry, const SortLastConfig *sort_last,
    const SceneRaster *raster_)
    : cfg(config), dist(dist_), nodes(nodes_), frameEntry(entry),
      sortLast(sort_last), raster(raster_), pool(std::max(1u, jobs)),
      workers(pool.threads()), lanes(nodes_.size()),
      occupancy(nodes_.size(), Histogram{8.0, 64})
{
    for (WorkerCtx &w : workers) {
        if (raster)
            w.idxBuckets.resize(dist.numProcs());
        else
            w.buckets.resize(dist.numProcs());
    }
}

// texlint: phase(serial) per-frame reset and phase 0
void
TwoPhaseFrameEngine::beginFrame(const Scene &scene, Tick frame_start,
                                FrameEngineResult &res)
{
    const size_t ntris = scene.triangles.size();
    if (raster && &raster->scene() != &scene)
        texdist_panic("frame ", scene.name, " is not the scene the "
                      "engine's shared raster was built from");
    slots.assign(ntris, TriSlot{});
    for (WorkerCtx &w : workers) {
        w.arena.reset();
        w.idxArena.reset();
        w.entries.clear();
    }
    for (size_t p = 0; p < lanes.size(); ++p) {
        Lane &lane = lanes[p];
        lane.stream.clear();
        lane.starts.clear();
        lane.sched.clear();
        lane.next = 0;
        lane.cut = SIZE_MAX;
        lane.actions.clear();
        lane.nextAction = 0;
        lane.frozen = nodes[p]->frozen();
    }
    foldArena.reset();
    // Burst 0 holds a kill's migrations, which precede all pops.
    bursts.assign(1, Burst{});

    feed = Feed{};
    feed.res = &res;
    feed.frameStart = frame_start;
    feed.lastRateTick = frame_start;
    for (const std::unique_ptr<TextureNode> &node : nodes) {
        feed.alive.push_back(!node->isDead());
        feed.aliveCount += node->isDead() ? 0 : 1;
    }
    feed.frozenSince.assign(nodes.size(), 0);
    newBurst(frame_start, frame_start, false);

    // --- Phase 0: rasterize and bucket every triangle (parallel).
    pool.parallelFor(ntris, [&](uint32_t worker, size_t t) {
        rasterizeOne(scene, worker, t);
    });
}

// texlint: phase(any) pure function of the immutable distribution
// and the worker's own scratch
bool
TwoPhaseFrameEngine::findTargets(WorkerCtx &ctx, size_t t,
                                 const Rect &bbox) const
{
    ctx.targets.clear();
    if (sortLast) {
        // Sort-last: the whole triangle goes to its owner node.
        if (!bbox.empty()) {
            const uint32_t procs = uint32_t(nodes.size());
            ctx.targets.push_back(
                sortLast->assign == SortLastAssign::RoundRobin
                    ? uint32_t(t % procs)
                    : uint32_t((t / sortLast->chunkSize) % procs));
        }
    } else {
        dist.overlappingProcs(bbox, ctx.scratch, ctx.targets);
    }
    return !ctx.targets.empty();
}

// texlint: phase(parallel) phase-0 task body: triangle t is this
// task's private slot; all scratch is indexed by this worker's id
void
TwoPhaseFrameEngine::rasterizeOne(const Scene &scene, uint32_t worker,
                                  size_t t)
{
    WorkerCtx &ctx = workers[worker];
    TriSlot &slot = slots[t];
    slot.worker = worker;
    slot.entryBegin = uint32_t(ctx.entries.size());
    // Under sort-middle every fragment lies inside the clipped box,
    // so its owner is one of `targets` and only those buckets fill.
    const std::vector<uint16_t> &owners = dist.ownerMap();
    const uint32_t screen_w = dist.screenWidth();
    auto owner = [&](uint32_t x, uint32_t y) {
        return owners[size_t(y) * screen_w + size_t(x)];
    };

    if (raster) {
        // Bucket the shared rasterization by index. One target
        // takes the triangle's fragments whole.
        const SceneRaster::Tri &tri = raster->tri(t);
        if (tri.degenerate) {
            slot.kind = TriKind::Degenerate;
            return;
        }
        if (!findTargets(ctx, t, tri.bbox)) {
            slot.kind = TriKind::Culled;
            return;
        }
        if (ctx.targets.size() == 1) {
            ctx.entries.push_back(StreamEntry{
                ctx.targets.front(),
                FragmentView{tri.frags, nullptr, tri.count}});
        } else {
            for (uint32_t i = 0; i < tri.count; ++i)
                ctx.idxBuckets[owner(tri.frags[i].x, tri.frags[i].y)]
                    .push_back(i);
            for (uint32_t p : ctx.targets) {
                std::vector<uint32_t> &bucket = ctx.idxBuckets[p];
                ctx.entries.push_back(StreamEntry{
                    p, FragmentView{tri.frags,
                                    ctx.idxArena.store(bucket.data(),
                                                       bucket.size()),
                                    uint32_t(bucket.size())}});
                bucket.clear();
            }
        }
    } else {
        // Rasterize once and copy the fragments into their
        // destinations' buckets.
        const TexTriangle &tri = scene.triangles[t];
        const Texture &tex = scene.textures.get(tri.tex);
        TriangleRaster tri_raster(tri, tex.width(), tex.height());
        if (tri_raster.degenerate()) {
            slot.kind = TriKind::Degenerate;
            return;
        }
        const Rect screen = scene.screenRect();
        if (!findTargets(ctx, t, tri_raster.bbox().intersect(screen))) {
            slot.kind = TriKind::Culled;
            return;
        }
        auto node_fragment = [](const Fragment &frag) {
            return NodeFragment{uint16_t(frag.x), uint16_t(frag.y),
                                frag.u, frag.v, frag.lod};
        };
        if (sortLast) {
            std::vector<NodeFragment> &bucket =
                ctx.buckets[ctx.targets.front()];
            tri_raster.rasterize(screen, [&](const Fragment &frag) {
                bucket.push_back(node_fragment(frag));
            });
        } else {
            tri_raster.rasterize(screen, [&](const Fragment &frag) {
                ctx.buckets[owner(uint32_t(frag.x), uint32_t(frag.y))]
                    .push_back(node_fragment(frag));
            });
        }
        for (uint32_t p : ctx.targets) {
            std::vector<NodeFragment> &bucket = ctx.buckets[p];
            ctx.entries.push_back(StreamEntry{
                p, FragmentView{ctx.arena.store(bucket.data(),
                                                bucket.size()),
                                nullptr, uint32_t(bucket.size())}});
            bucket.clear();
        }
    }
    slot.kind = TriKind::Normal;
    slot.entryCount = uint32_t(ctx.entries.size()) - slot.entryBegin;
}

// texlint: phase(any) pure function of one task-owned lane and the
// burst table phase 1 finished writing
bool
TwoPhaseFrameEngine::popPrecedes(const Lane &lane, size_t q, Tick start,
                                 PopSched sched, Tick push,
                                 uint32_t burst) const
{
    if (start != push || frameEntry == FrameEntry::Sequence)
        return start <= push;
    // Same tick: whichever event was queued first runs first — the
    // pop's or the dispatch burst's.
    const Burst &b = bursts[burst];
    if (sched.at != b.sched)
        return sched.at < b.sched;
    if (b.parent < 0)
        return lane.stream[q].burst < burst;
    // Both were queued at that tick: the burst by its parent burst,
    // the pop by the burst that pushed it or by the previous pop.
    if (sched.byPush)
        return lane.stream[q].burst <= uint32_t(b.parent);
    return popPrecedes(lane, q - 1, lane.starts[q - 1],
                       lane.sched[q - 1], b.sched, uint32_t(b.parent));
}

// texlint: phase(any) pure function of one task-owned lane
TwoPhaseFrameEngine::PopSched
TwoPhaseFrameEngine::nextPopSched(const Lane &lane) const
{
    // A triangle pushed into an empty FIFO queues its own pop;
    // otherwise the pop is queued when its predecessor starts.
    const size_t q = lane.next;
    const LaneTri &tri = lane.stream[q];
    if (q == 0 || popPrecedes(lane, q - 1, lane.starts[q - 1],
                              lane.sched[q - 1], tri.push, tri.burst))
        return PopSched{tri.push, true};
    return PopSched{lane.starts[q - 1], false};
}

// texlint: phase(any) pure lane/node step; phase 1 calls it serially
// and each phase-2 drain task calls it on its own lane and node
Tick
TwoPhaseFrameEngine::consumeOne(Lane &lane, TextureNode &node)
{
    const LaneTri &tri = lane.stream[lane.next];
    Tick start = node.nextStart(tri.push);
    // Fault actions with tick <= start fire before this triangle
    // starts. None of them changes when the pop happens (a slowdown
    // only affects triangles that start after it), so computing
    // `start` first is safe.
    while (lane.nextAction < lane.actions.size() &&
           lane.actions[lane.nextAction]->at <= start) {
        applyAction(node, *lane.actions[lane.nextAction]);
        ++lane.nextAction;
    }
    lane.sched.push_back(nextPopSched(lane));
    start = node.consumeDirect(tri.push, tri.tex, tri.frags);
    lane.starts.push_back(start);
    ++lane.next;
    return start;
}

// texlint: phase(any) touches only the task-owned node it is given
void
TwoPhaseFrameEngine::applyAction(TextureNode &node,
                                 const EngineFaultAction &action)
{
    switch (action.kind) {
      case EngineFaultAction::Kind::Slowdown:
        node.setSlowdown(action.factor);
        break;
      case EngineFaultAction::Kind::BusStall:
        node.stallBus(action.stallFrom, action.stallUntil);
        break;
      default:
        texdist_panic("phase-1 fault action applied by a lane");
    }
}

// texlint: phase(any) touches one task-owned lane and histogram
size_t
TwoPhaseFrameEngine::replayFifo(const Lane &lane,
                                Histogram &at_dispatch) const
{
    // Replay the push and pop streams (both non-decreasing) and
    // track the occupancy after each push, which is when a FIFO
    // samples its high-water mark. Unconsumed triangles (a failed
    // frame, a killed node) never pop; a kill's migrations are not
    // dispatches.
    size_t pi = 0;
    size_t qi = 0;
    size_t hw = 0;
    const size_t n = lane.stream.size();
    const size_t popped = lane.starts.size();
    while (pi < n) {
        if (qi < pi && qi < popped &&
            popPrecedes(lane, qi, lane.starts[qi], lane.sched[qi],
                        lane.stream[pi].push, lane.stream[pi].burst)) {
            ++qi;
        } else {
            if (lane.stream[pi].burst != 0)
                at_dispatch.add(double(pi - qi));
            ++pi;
            hw = std::max(hw, pi - qi);
        }
    }
    return hw;
}

// texlint: phase(serial) merges the per-node histograms in node order
Histogram
TwoPhaseFrameEngine::dispatchOccupancy() const
{
    Histogram all{8.0, 64};
    for (const Histogram &h : occupancy)
        all.merge(h);
    return all;
}

// texlint: phase(serial) phase-1 burst bookkeeping
void
TwoPhaseFrameEngine::newBurst(Tick at, Tick sched, bool chained)
{
    advanceTo(at);
    bursts.push_back(Burst{sched, chained ? int32_t(feed.burst) : -1});
    feed.burst = uint32_t(bursts.size() - 1);
}

// texlint: phase(serial) phase-1 feeder clock
void
TwoPhaseFrameEngine::advanceTo(Tick to)
{
    if (cfg.geometryTrianglesPerCycle > 0.0) {
        const double rate = cfg.geometryTrianglesPerCycle;
        feed.credit += rate * double(to - feed.lastRateTick);
        feed.credit = std::min(feed.credit, std::max(1.0, rate));
        feed.lastRateTick = to;
    }
    feed.now = to;
}

// texlint: phase(serial) phase-1 lane advance, on the feeder's behalf
void
TwoPhaseFrameEngine::advanceLane(uint32_t p, Tick at)
{
    Lane &lane = lanes[p];
    TextureNode &node = *nodes[p];
    while (lane.consumable() &&
           node.nextStart(lane.stream[lane.next].push) <= at)
        consumeOne(lane, node);
}

// texlint: phase(serial) phase-1 fault event
bool
TwoPhaseFrameEngine::fireAction(const EngineFaultAction &action)
{
    TextureNode &node = *nodes[action.victim];
    switch (action.kind) {
      case EngineFaultAction::Kind::Freeze:
        if (!node.frozen())
            feed.frozenSince[action.victim] = action.at;
        node.freezeFifo();
        lanes[action.victim].frozen = true;
        return false;
      case EngineFaultAction::Kind::Thaw:
        node.unfreezeFifo();
        lanes[action.victim].frozen = false;
        return true;
      case EngineFaultAction::Kind::Kill:
        if (!feed.alive[action.victim])
            return false;
        kill(action.victim, action.at, "fault plan");
        return true;
      default:
        texdist_panic("lane fault action fired by phase 1");
    }
}

// texlint: phase(serial) phase-1 no-progress watchdog
bool
TwoPhaseFrameEngine::watchdogCheck(Tick at)
{
    FrameEngineResult &res = *feed.res;
    ++res.faultStats.watchdogChecks;
    // Progress since the previous check: a dispatch made after it,
    // or a node starting a triangle after its tick (the first window
    // also covers the frame's opening tick).
    const Tick window = cfg.watchdogTicks;
    const Tick since = at - window;
    const bool first = since == feed.frameStart;
    auto in_window = [&](Tick tick) {
        return tick > since || (first && tick == since);
    };
    bool progress = feed.dispatched != feed.checkedDispatches;
    feed.checkedDispatches = feed.dispatched;
    bool busy = false;
    if (!progress) {
        // No dispatch in the window: look for a pop in it, or a node
        // still burning committed cycles (one big triangle is
        // simulated atomically at its start, so a long one is
        // healthy, not stalled).
        for (uint32_t p = 0; p < nodes.size(); ++p) {
            if (!feed.alive[p])
                continue;
            advanceLane(p, at);
            const Lane &lane = lanes[p];
            progress = progress || (!lane.starts.empty() &&
                                    in_window(lane.starts.back()));
            busy = busy || nodes[p]->busyUntil() > at;
        }
    }
    if (progress || busy)
        return false;

    // The feeder last looked at its destinations on the last pop or
    // wake-up; a freeze since then has not been seen yet.
    if (feed.blockedOn >= 0) {
        Tick seen = feed.now;
        for (const Lane &lane : lanes)
            if (!lane.starts.empty())
                seen = std::max(seen, lane.starts.back());
        for (uint32_t d : feed.dests) {
            if ((lanes[d].frozen && feed.frozenSince[d] <= seen) ||
                lanes[d].pending() >= cfg.triangleBufferSize) {
                feed.blockedOn = int32_t(d);
                break;
            }
        }
    }
    if (res.faultStats.detectionTick == 0)
        res.faultStats.detectionTick = at - feed.frameStart;
    if (res.diagnostic.empty())
        res.diagnostic = dumpState(at);

    if (cfg.watchdogPolicy == WatchdogPolicy::Degrade) {
        int32_t culprit = feed.blockedOn;
        for (uint32_t p = 0; culprit < 0 && p < nodes.size(); ++p)
            if (feed.alive[p] && lanes[p].frozen)
                culprit = int32_t(p);
        if (culprit >= 0 && feed.aliveCount > 1) {
            kill(uint32_t(culprit), at, "watchdog");
            return true;
        }
    }
    fail(at, detail::concat("watchdog: no progress for ", window,
                            " ticks at tick ", at,
                            " with work remaining (", feed.dispatched,
                            " triangles dispatched)"));
    return false;
}

// texlint: phase(serial) phase-1 event loop
Tick
TwoPhaseFrameEngine::fireEvents(Tick upto, bool stop_at_notify)
{
    while (!feed.res->failed) {
        const EngineFaultAction *action =
            feed.nextEvent < feed.events.size()
                ? feed.events[feed.nextEvent]
                : nullptr;
        const Tick action_at = action ? action->at : maxTick;
        bool woke = false;
        Tick at = 0;
        if (action && action_at <= upto && action_at <= feed.nextCheck) {
            // Fault actions run before a watchdog check at their tick.
            ++feed.nextEvent;
            at = action_at;
            woke = fireAction(*action);
        } else if (feed.nextCheck < upto) {
            at = feed.nextCheck;
            feed.nextCheck += cfg.watchdogTicks;
            woke = watchdogCheck(at);
        } else {
            break;
        }
        if (woke && stop_at_notify)
            return at;
    }
    return maxTick;
}

// texlint: phase(serial) phase-1 degradation
void
TwoPhaseFrameEngine::kill(uint32_t victim, Tick at, const char *why)
{
    FrameEngineResult &res = *feed.res;
    // Triangles that started before the kill complete — their cycles
    // and pixels were committed when they started; the rest of the
    // queue moves to the survivors.
    Lane &lane = lanes[victim];
    TextureNode &node = *nodes[victim];
    while (lane.consumable() &&
           node.nextStart(lane.stream[lane.next].push) < at)
        consumeOne(lane, node);
    const size_t first = lane.next;
    lane.cut = lane.next;
    node.markDead();
    feed.alive[victim] = false;
    --feed.aliveCount;
    res.degraded = true;
    ++res.faultStats.nodesKilled;

    if (feed.aliveCount == 0) {
        fail(at, detail::concat("node ", victim, " died (", why,
                                ") and no nodes survive"));
        return;
    }

    // Round-robin over the survivors. Each migrated triangle pays
    // setup again on its new node and misses that node's cache —
    // the locality penalty of degradation, measured, not assumed.
    const size_t n = nodes.size();
    const size_t moved = lane.stream.size() - first;
    res.faultStats.trianglesRedistributed += moved;
    for (size_t i = first; i < lane.stream.size(); ++i) {
        size_t cand = feed.redistributeCursor;
        do
            cand = (cand + 1) % n;
        while (!feed.alive[cand]);
        feed.redistributeCursor = cand;
        LaneTri tri = lane.stream[i];
        tri.push = at;
        tri.burst = 0;
        lanes[cand].stream.push_back(tri);
    }
    warn("node ", victim, " declared dead (", why, "): ", moved,
         " queued triangles redistributed to ", feed.aliveCount,
         " survivors");
}

// texlint: phase(serial) phase-1 frame abandonment
void
TwoPhaseFrameEngine::fail(Tick at, const std::string &reason)
{
    FrameEngineResult &res = *feed.res;
    res.failed = true;
    res.failureReason = reason;
    feed.cutoff = at;
    // Triangles started by now complete; nothing else runs.
    for (uint32_t p = 0; p < nodes.size(); ++p)
        if (feed.alive[p])
            advanceLane(p, at);
    if (res.diagnostic.empty())
        res.diagnostic = dumpState(at);
    for (Lane &lane : lanes)
        lane.cut = std::min(lane.cut, lane.next);
    warn(reason);
}

// texlint: phase(serial) diagnostic dump from phase 1
std::string
TwoPhaseFrameEngine::dumpState(Tick at) const
{
    std::ostringstream os;
    os << "machine state at tick " << at << ":\n"
       << "  feeder: dispatched=" << feed.dispatched
       << " done=" << (feed.done ? 1 : 0)
       << " blocked_on=" << feed.blockedOn << "\n";
    for (uint32_t p = 0; p < nodes.size(); ++p) {
        const TextureNode &node = *nodes[p];
        os << "  " << node.name() << ": fifo=" << lanes[p].pending()
           << "/" << cfg.triangleBufferSize
           << " pixels=" << node.pixelsDrawn()
           << " busy_until=" << node.busyUntil()
           << " slowdown=" << node.slowdown()
           << " frozen=" << (node.frozen() ? 1 : 0)
           << " dead=" << (node.isDead() ? 1 : 0) << "\n";
    }
    return os.str();
}

// texlint: phase(serial) phase-1 rerouting around dead nodes
bool
TwoPhaseFrameEngine::routeTargets(size_t entry_begin, size_t entry_end,
                                  const std::vector<StreamEntry> &entries)
{
    // A dead target's buckets go to a survivor, round-robin, so no
    // single survivor absorbs the whole dead region.
    const size_t n = nodes.size();
    bool rerouted = false;
    feed.dests.clear();
    for (size_t e = entry_begin; e < entry_end; ++e) {
        uint32_t d = entries[e].dest;
        if (!feed.alive[d]) {
            size_t cand = feed.rerouteCursor;
            do
                cand = (cand + 1) % n;
            while (!feed.alive[cand]);
            feed.rerouteCursor = cand;
            d = uint32_t(cand);
            rerouted = true;
        }
        feed.dests.push_back(d);
    }
    return rerouted;
}

// texlint: phase(serial) phase-1 lane advance, on the feeder's behalf
Tick
TwoPhaseFrameEngine::nextPop()
{
    // Uncover every pop the current burst has already seen; the
    // earliest remaining one is the next to wake the feeder.
    Tick next = maxTick;
    for (uint32_t p = 0; p < nodes.size(); ++p) {
        if (!feed.alive[p])
            continue;
        Lane &lane = lanes[p];
        TextureNode &node = *nodes[p];
        while (lane.consumable()) {
            const Tick start = node.nextStart(lane.stream[lane.next].push);
            if (!popPrecedes(lane, lane.next, start, nextPopSched(lane),
                             feed.now, feed.burst)) {
                next = std::min(next, start);
                break;
            }
            consumeOne(lane, node);
        }
    }
    return next;
}

// texlint: phase(serial) phase-1 dispatch
void
TwoPhaseFrameEngine::push(const Scene &scene, size_t t,
                          size_t entry_begin, size_t entry_end,
                          const std::vector<StreamEntry> &entries,
                          bool rerouted)
{
    const TextureId tex = scene.triangles[t].tex;
    const size_t k = entry_end - entry_begin;
    if (!rerouted) {
        for (size_t e = entry_begin; e < entry_end; ++e)
            lanes[entries[e].dest].stream.push_back(
                LaneTri{feed.now, tex, entries[e].frags, feed.burst});
        return;
    }
    // When several targets map to one destination (a dead node and
    // its live replacement), their buckets fold in target order so
    // the node receives the triangle — and pays its setup — once.
    for (size_t i = 0; i < k; ++i) {
        const StreamEntry &entry = entries[entry_begin + i];
        const uint32_t d = feed.dests[i];
        if (d != entry.dest)
            feed.res->faultStats.fragmentsRerouted += entry.frags.count;
        bool first = true;
        bool shared = false;
        for (size_t j = 0; j < k; ++j) {
            if (j != i && feed.dests[j] == d) {
                first = first && j > i;
                shared = true;
            }
        }
        if (!first)
            continue;
        LaneTri tri{feed.now, tex, entry.frags, feed.burst};
        if (shared) {
            // Copy through the views, so contiguous runs and index
            // lists fold alike.
            feed.fold.clear();
            for (size_t j = i; j < k; ++j) {
                const FragmentView &part = entries[entry_begin + j].frags;
                if (feed.dests[j] == d)
                    for (uint32_t f = 0; f < part.count; ++f)
                        feed.fold.push_back(part[f]);
            }
            tri.frags = FragmentView{
                foldArena.store(feed.fold.data(), feed.fold.size()),
                nullptr, uint32_t(feed.fold.size())};
        }
        lanes[d].stream.push_back(tri);
    }
}

// texlint: phase(serial) uncoupled dispatch: every triangle's
// entries go out at once (sort-last streams, functional frames)
void
TwoPhaseFrameEngine::pushAll(const Scene &scene)
{
    FrameEngineResult &res = *feed.res;
    for (size_t t = 0; t < slots.size(); ++t) {
        const TriSlot &slot = slots[t];
        if (slot.kind != TriKind::Normal) {
            ++(slot.kind == TriKind::Degenerate ? res.degenerateTriangles
                                                : res.culledTriangles);
            continue;
        }
        const std::vector<StreamEntry> &entries =
            workers[slot.worker].entries;
        const size_t entry_end =
            size_t(slot.entryBegin) + slot.entryCount;
        push(scene, t, slot.entryBegin, entry_end, entries,
             routeTargets(slot.entryBegin, entry_end, entries));
        ++feed.dispatched;
    }
}

// texlint: phase(serial) phase 1: the feeder's timing replayed over
// the pre-rasterized buckets, with direct clock arithmetic in place
// of an event queue
void
TwoPhaseFrameEngine::replay(const Scene &scene)
{
    FrameEngineResult &res = *feed.res;
    const double rate = cfg.geometryTrianglesPerCycle;
    const uint32_t geom_procs = cfg.geometryProcs;
    const Tick geom_cycles = cfg.geometryCyclesPerTriangle;
    const size_t capacity = cfg.triangleBufferSize;

    std::vector<Tick> engine_free(geom_procs, feed.frameStart);
    size_t next_engine = 0;
    Tick next_arrival = 0;

    for (size_t t = 0; t < slots.size() && !res.failed; ++t) {
        // Geometry stage: round-robin engine occupancy with monotone
        // (sort-order-preserving) arrivals.
        if (geom_procs > 0) {
            Tick &engine = engine_free[next_engine];
            engine += geom_cycles;
            next_engine = (next_engine + 1) % geom_procs;
            next_arrival = std::max(next_arrival, engine);
            if (feed.now < next_arrival) {
                fireEvents(next_arrival, false);
                newBurst(next_arrival, feed.now, true);
            }
        }
        // Dispatch-rate credit, accrued cycle by cycle exactly as a
        // one-cycle polling reschedule does (the clamp makes bulk
        // accrual FP-inequivalent).
        while (rate > 0.0 && feed.credit < 1.0 && !res.failed) {
            fireEvents(feed.now + 1, false);
            newBurst(feed.now + 1, feed.now, true);
        }
        fireEvents(feed.now, false);
        if (res.failed)
            break;

        const TriSlot &slot = slots[t];
        if (slot.kind != TriKind::Normal) {
            if (slot.kind == TriKind::Degenerate)
                ++res.degenerateTriangles;
            else
                ++res.culledTriangles;
            if (rate > 0.0)
                feed.credit -= 1.0;
            continue;
        }

        const std::vector<StreamEntry> &entries =
            workers[slot.worker].entries;
        const size_t entry_begin = slot.entryBegin;
        const size_t entry_end = entry_begin + slot.entryCount;
        // All-or-none dispatch: every destination FIFO must have a
        // free slot before any push. A full destination's own
        // simulation is advanced just far enough to uncover the pop
        // that frees a slot (lazy coupling); a pop the current burst
        // already sees is uncovered first. Every attempt routes the
        // targets afresh: a dead target's replacement advances per
        // attempt, and while one is involved every pop anywhere
        // wakes the feeder for another attempt.
        bool was_blocked = false;
        Tick blocked_since = 0;
        bool rerouting = false;
        for (;;) {
            rerouting = routeTargets(entry_begin, entry_end, entries);
            feed.blockedOn = -1;
            Tick resume = maxTick;
            for (uint32_t d : feed.dests) {
                Lane &lane = lanes[d];
                if (lane.frozen) {
                    feed.blockedOn = int32_t(d);
                    break;
                }
                if (lane.pending() < capacity)
                    continue;
                TextureNode &node = *nodes[d];
                while (lane.pending() >= capacity && lane.consumable()) {
                    const Tick start =
                        node.nextStart(lane.stream[lane.next].push);
                    // A pop at the burst's own tick is seen only if
                    // it was queued first.
                    if (!popPrecedes(lane, lane.next, start,
                                     nextPopSched(lane), feed.now,
                                     feed.burst))
                        break;
                    consumeOne(lane, node);
                }
                if (lane.pending() >= capacity) {
                    feed.blockedOn = int32_t(d);
                    if (lane.consumable())
                        resume = node.nextStart(
                            lane.stream[lane.next].push);
                    break;
                }
            }
            if (feed.blockedOn < 0)
                break;

            if (!was_blocked) {
                was_blocked = true;
                blocked_since = feed.now;
            }
            // Wait for the freeing pop — unless a fault action, a
            // watchdog verdict or (when rerouting) any pop wakes the
            // feeder first.
            const Tick freeing = resume;
            if (rerouting)
                resume = std::min(resume, nextPop());
            const Tick woke = fireEvents(resume, true);
            if (res.failed)
                return;
            if (woke != maxTick) {
                newBurst(std::max(feed.now, woke), woke, false);
                continue;
            }
            if (resume == maxTick)
                texdist_panic("feeder blocked forever with triangles "
                              "pending (enable --watchdog-ticks for a "
                              "diagnosed failure)");
            if (resume == freeing)
                consumeOne(lanes[uint32_t(feed.blockedOn)],
                           *nodes[uint32_t(feed.blockedOn)]);
            newBurst(resume, resume, false);
        }
        if (was_blocked)
            res.feederBlockedCycles += feed.now - blocked_since;

        push(scene, t, entry_begin, entry_end, entries, rerouting);
        ++feed.dispatched;
        if (rate > 0.0)
            feed.credit -= 1.0;
    }
}

// texlint: phase(serial) reads the drained lanes after phase 2
uint64_t
TwoPhaseFrameEngine::trailingChecks(Tick next_check) const
{
    // The watchdog keeps checking while any live FIFO holds work. A
    // last pop at a check's own tick still counts as queued work
    // when it was scheduled after that check was (one window back).
    const Tick w = cfg.watchdogTicks;
    Tick busy_until = 0;
    for (const Lane &lane : lanes) {
        const size_t q = lane.starts.size();
        if (q == 0)
            continue;
        Tick last = lane.starts[q - 1];
        if (last >= next_check && (last - feed.frameStart) % w == 0 &&
            lane.sched[q - 1].at + w > last)
            ++last;
        busy_until = std::max(busy_until, last);
    }
    return busy_until > next_check
               ? (busy_until - next_check - 1) / w + 1
               : 0;
}

// texlint: phase(serial) the phase orchestrator itself: it may write
// anything, and must never be re-entered from inside a task
FrameEngineResult
TwoPhaseFrameEngine::runFrame(
    const Scene &scene, Tick frame_start,
    const std::vector<EngineFaultAction> &actions)
{
    const uint32_t nprocs = uint32_t(nodes.size());
    FrameEngineResult res;
    beginFrame(scene, frame_start, res);
    // A node lost in an earlier frame keeps this one degraded too.
    res.degraded = feed.aliveCount < nprocs;
    if (cfg.watchdogTicks > 0 && !sortLast)
        feed.nextCheck = frame_start + cfg.watchdogTicks;

    for (const EngineFaultAction &action : actions) {
        if (action.victim >= nprocs)
            texdist_panic("fault action victim ", action.victim,
                          " out of range");
        if (action.kind == EngineFaultAction::Kind::Slowdown ||
            action.kind == EngineFaultAction::Kind::BusStall)
            lanes[action.victim].actions.push_back(&action);
        else
            feed.events.push_back(&action);
    }
    auto by_tick = [](const EngineFaultAction *a,
                      const EngineFaultAction *b) { return a->at < b->at; };
    for (Lane &lane : lanes)
        std::stable_sort(lane.actions.begin(), lane.actions.end(),
                         by_tick);
    std::stable_sort(feed.events.begin(), feed.events.end(), by_tick);

    // --- Phase 1: serial replay of the feeder and the coupling
    // fault actions; the plan's actions past the last dispatch still
    // fire (a late kill still migrates its victim's queue).
    if (feed.aliveCount == 0)
        fail(frame_start, "no live node to render the frame");
    else if (sortLast)
        pushAll(scene);
    else
        replay(scene);
    feed.done = true;
    // With every triangle dispatched the watchdog can no longer find
    // a stall; its remaining checks are counted after phase 2.
    const Tick next_check = feed.nextCheck;
    feed.nextCheck = maxTick;
    if (!res.failed)
        fireEvents(maxTick, false);
    res.trianglesDispatched = feed.dispatched;

    // --- Phase 2: drain every node's remaining stream (parallel,
    // one node per index — nodes share no mutable state).
    const Tick cutoff = feed.cutoff;
    pool.parallelFor(nprocs, [&](uint32_t, size_t p) {
        Lane &lane = lanes[p];
        TextureNode &node = *nodes[p];
        while (lane.consumable())
            consumeOne(lane, node);
        // Actions beyond the last pop (fault ticks after the node
        // went idle) still fire: slowdown and bus-stall state
        // persists into the next frame.
        while (lane.nextAction < lane.actions.size() &&
               lane.actions[lane.nextAction]->at <= cutoff) {
            applyAction(node, *lane.actions[lane.nextAction]);
            ++lane.nextAction;
        }
        node.noteFifoHighWater(replayFifo(lane, occupancy[p]));
    });

    if (!res.failed && next_check != maxTick)
        res.faultStats.watchdogChecks += trailingChecks(next_check);

    for (const EngineFaultAction &action : actions)
        if (action.strike && action.at <= cutoff)
            ++res.faultStats.injected;
    for (const std::unique_ptr<TextureNode> &node : nodes)
        res.frameEnd = std::max(res.frameEnd, node->finishTime());
    return res;
}

// texlint: phase(serial) benchmark entry point for phase 0 alone
uint64_t
TwoPhaseFrameEngine::bucketOnly(const Scene &scene)
{
    FrameEngineResult res;
    beginFrame(scene, 0, res);
    uint64_t frags = 0;
    for (const WorkerCtx &w : workers)
        for (const StreamEntry &entry : w.entries)
            frags += entry.frags.count;
    return frags;
}

// texlint: phase(serial) sampled-mode orchestrator, serial-only
FrameEngineResult
TwoPhaseFrameEngine::runFrameFunctional(const Scene &scene)
{
    // Phase 0 is identical to the detailed frame: rasterization has
    // no timing inputs. Each node's stream comes out in triangle
    // order — the order phase 1 would produce, minus the push ticks,
    // which the functional drain never reads.
    FrameEngineResult res;
    beginFrame(scene, 0, res);
    pushAll(scene);
    res.trianglesDispatched = feed.dispatched;

    // Functional drain: one node per task, caches update in detailed
    // order, clocks stand still.
    pool.parallelFor(nodes.size(), [&](uint32_t, size_t p) {
        TextureNode &node = *nodes[p];
        for (const LaneTri &tri : lanes[p].stream)
            node.functionalScan(tri.tex, tri.frags);
    });
    return res;
}

} // namespace texdist
