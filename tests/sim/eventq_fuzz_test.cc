/** @file
 * Randomized cross-validation of the event queue against a
 * trivially correct std::multimap reference: random interleavings of
 * schedule / deschedule / reschedule / step must produce identical
 * processing orders.
 */

#include <map>
#include <memory>
#include <vector>

#include <gtest/gtest.h>

#include "geom/rng.hh"
#include "callback_event.hh"

namespace texdist
{
namespace
{

/**
 * Reference queue: multimap keyed by (tick, global sequence). The
 * sequence number implements the same-tick FIFO rule.
 */
class RefQueue
{
  public:
    void
    schedule(int id, Tick when)
    {
        entries.emplace(std::make_pair(when, seq++), id);
    }

    void
    deschedule(int id)
    {
        for (auto it = entries.begin(); it != entries.end(); ++it) {
            if (it->second == id) {
                entries.erase(it);
                return;
            }
        }
    }

    bool
    step(int &id_out, Tick &when_out)
    {
        if (entries.empty())
            return false;
        auto it = entries.begin();
        id_out = it->second;
        when_out = it->first.first;
        entries.erase(it);
        return true;
    }

    bool
    scheduled(int id) const
    {
        for (const auto &kv : entries)
            if (kv.second == id)
                return true;
        return false;
    }

  private:
    std::map<std::pair<Tick, uint64_t>, int> entries;
    uint64_t seq = 0;
};

class FuzzSuite : public ::testing::TestWithParam<uint64_t>
{
};

TEST_P(FuzzSuite, MatchesMultimapReference)
{
    Rng rng(GetParam());
    constexpr int numEvents = 24;

    EventQueue eq;
    RefQueue ref;
    std::vector<int> fired;
    std::vector<std::unique_ptr<CallbackEvent>> events;
    for (int i = 0; i < numEvents; ++i)
        events.push_back(std::make_unique<CallbackEvent>(
            [&fired, i] { fired.push_back(i); }));

    for (int op = 0; op < 3000; ++op) {
        double roll = rng.uniform();
        int id = int(rng.uniformInt(0, numEvents - 1));
        if (roll < 0.4) {
            if (!events[id]->scheduled()) {
                Tick when =
                    eq.curTick() + Tick(rng.uniformInt(0, 50));
                eq.schedule(events[id].get(), when);
                ref.schedule(id, when);
            }
        } else if (roll < 0.55) {
            if (events[id]->scheduled()) {
                eq.deschedule(events[id].get());
                ref.deschedule(id);
            }
        } else if (roll < 0.7) {
            Tick when = eq.curTick() + Tick(rng.uniformInt(0, 50));
            if (events[id]->scheduled()) {
                eq.reschedule(events[id].get(), when);
                ref.deschedule(id);
                ref.schedule(id, when);
            }
        } else {
            fired.clear();
            bool stepped = eq.step();
            int ref_id = -1;
            Tick ref_when = 0;
            bool ref_stepped = ref.step(ref_id, ref_when);
            ASSERT_EQ(stepped, ref_stepped) << "op " << op;
            if (stepped) {
                ASSERT_EQ(fired.size(), 1u) << "op " << op;
                ASSERT_EQ(fired[0], ref_id) << "op " << op;
                ASSERT_EQ(eq.curTick(), ref_when) << "op " << op;
            }
        }
        ASSERT_EQ(events[id]->scheduled(), ref.scheduled(id))
            << "op " << op;
    }

    // Drain both and compare the tail order.
    std::vector<int> tail_eq, tail_ref;
    fired.clear();
    while (eq.step()) {
    }
    tail_eq = fired;
    int id;
    Tick when;
    while (ref.step(id, when))
        tail_ref.push_back(id);
    EXPECT_EQ(tail_eq, tail_ref);
}

INSTANTIATE_TEST_SUITE_P(Seeds, FuzzSuite,
                         ::testing::Values(101, 202, 303, 404, 505,
                                           606));

} // namespace
} // namespace texdist
