/** @file Unit tests for the event queue kernel. */

#include <vector>

#include <gtest/gtest.h>

#include "callback_event.hh"

namespace texdist
{
namespace
{

TEST(EventQueue, EmptyInitially)
{
    EventQueue eq;
    EXPECT_TRUE(eq.empty());
    EXPECT_EQ(eq.curTick(), 0u);
    EXPECT_EQ(eq.nextTick(), maxTick);
    EXPECT_FALSE(eq.step());
}

TEST(EventQueue, ProcessesInTimeOrder)
{
    EventQueue eq;
    std::vector<int> order;
    CallbackEvent a([&] { order.push_back(1); });
    CallbackEvent b([&] { order.push_back(2); });
    CallbackEvent c([&] { order.push_back(3); });
    eq.schedule(&b, 20);
    eq.schedule(&c, 30);
    eq.schedule(&a, 10);
    eq.run();
    EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
    EXPECT_EQ(eq.curTick(), 30u);
}

TEST(EventQueue, SameTickFifoOrder)
{
    EventQueue eq;
    std::vector<int> order;
    CallbackEvent a([&] { order.push_back(1); });
    CallbackEvent b([&] { order.push_back(2); });
    CallbackEvent c([&] { order.push_back(3); });
    eq.schedule(&a, 5);
    eq.schedule(&b, 5);
    eq.schedule(&c, 5);
    eq.run();
    EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
}

TEST(EventQueue, CurTickAdvancesDuringProcessing)
{
    EventQueue eq;
    Tick seen = 0;
    CallbackEvent e([&] { seen = eq.curTick(); });
    eq.schedule(&e, 42);
    eq.run();
    EXPECT_EQ(seen, 42u);
}

TEST(EventQueue, EventsCanScheduleEvents)
{
    EventQueue eq;
    int count = 0;
    CallbackEvent *ping = nullptr;
    CallbackEvent event([&] {
        if (++count < 5)
            eq.schedule(ping, eq.curTick() + 10);
    });
    ping = &event;
    eq.schedule(&event, 0);
    eq.run();
    EXPECT_EQ(count, 5);
    EXPECT_EQ(eq.curTick(), 40u);
}

TEST(EventQueue, DescheduleRemovesEvent)
{
    EventQueue eq;
    bool ran = false;
    CallbackEvent e([&] { ran = true; });
    eq.schedule(&e, 10);
    EXPECT_TRUE(e.scheduled());
    eq.deschedule(&e);
    EXPECT_FALSE(e.scheduled());
    eq.run();
    EXPECT_FALSE(ran);
    EXPECT_TRUE(eq.empty());
}

TEST(EventQueue, RescheduleMovesEvent)
{
    EventQueue eq;
    Tick when = 0;
    CallbackEvent e([&] { when = eq.curTick(); });
    eq.schedule(&e, 10);
    eq.reschedule(&e, 25);
    eq.run();
    EXPECT_EQ(when, 25u);
    EXPECT_EQ(eq.eventsProcessed(), 1u);
}

TEST(EventQueue, RescheduleUnscheduledActsAsSchedule)
{
    EventQueue eq;
    bool ran = false;
    CallbackEvent e([&] { ran = true; });
    eq.reschedule(&e, 7);
    eq.run();
    EXPECT_TRUE(ran);
}

TEST(EventQueue, RunUntilStopsAtBoundary)
{
    EventQueue eq;
    int count = 0;
    CallbackEvent a([&] { ++count; });
    CallbackEvent b([&] { ++count; });
    eq.schedule(&a, 10);
    eq.schedule(&b, 100);
    eq.runUntil(50);
    EXPECT_EQ(count, 1);
    EXPECT_EQ(eq.curTick(), 50u);
    EXPECT_FALSE(eq.empty());
    eq.run();
    EXPECT_EQ(count, 2);
}

TEST(EventQueue, RunUntilInclusive)
{
    EventQueue eq;
    int count = 0;
    CallbackEvent a([&] { ++count; });
    eq.schedule(&a, 50);
    eq.runUntil(50);
    EXPECT_EQ(count, 1);
}

TEST(EventQueue, EventReusableAfterProcessing)
{
    EventQueue eq;
    int count = 0;
    CallbackEvent e([&] { ++count; });
    eq.schedule(&e, 1);
    eq.run();
    EXPECT_FALSE(e.scheduled());
    eq.schedule(&e, 2);
    eq.run();
    EXPECT_EQ(count, 2);
}

TEST(EventQueue, SizeTracksPending)
{
    EventQueue eq;
    CallbackEvent a([] {});
    CallbackEvent b([] {});
    eq.schedule(&a, 1);
    eq.schedule(&b, 2);
    EXPECT_EQ(eq.size(), 2u);
    eq.deschedule(&a);
    EXPECT_EQ(eq.size(), 1u);
    eq.run();
    EXPECT_EQ(eq.size(), 0u);
}

TEST(EventQueue, SameTickOrderSurvivesInterleavedArrival)
{
    // Tie-breaking must follow scheduling order even when same-tick
    // events arrive interleaved with events at other ticks — the
    // foundation of deterministic replay.
    EventQueue eq;
    std::vector<int> order;
    CallbackEvent a([&] { order.push_back(1); });
    CallbackEvent b([&] { order.push_back(2); });
    CallbackEvent c([&] { order.push_back(3); });
    CallbackEvent early([&] { order.push_back(0); });
    CallbackEvent late([&] { order.push_back(4); });
    eq.schedule(&a, 50);
    eq.schedule(&late, 90);
    eq.schedule(&b, 50);
    eq.schedule(&early, 10);
    eq.schedule(&c, 50);
    eq.run();
    EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3, 4}));
}

TEST(EventQueue, EventScheduledAtCurrentTickRunsAfterPending)
{
    // An event scheduled *during* processing at the current tick
    // must run after everything already queued for that tick.
    EventQueue eq;
    std::vector<int> order;
    CallbackEvent tail([&] { order.push_back(3); });
    CallbackEvent head([&] {
        order.push_back(1);
        eq.schedule(&tail, eq.curTick());
    });
    CallbackEvent mid([&] { order.push_back(2); });
    eq.schedule(&head, 7);
    eq.schedule(&mid, 7);
    eq.run();
    EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
}

TEST(EventQueue, RescheduleMovesToBackOfSameTick)
{
    // Rescheduling refreshes the stamp: the moved event goes behind
    // events already waiting at the target tick.
    EventQueue eq;
    std::vector<int> order;
    CallbackEvent a([&] { order.push_back(1); });
    CallbackEvent b([&] { order.push_back(2); });
    eq.schedule(&a, 5);
    eq.schedule(&b, 5);
    eq.reschedule(&a, 5);
    eq.run();
    EXPECT_EQ(order, (std::vector<int>{2, 1}));
}

TEST(EventQueue, RestoreClockJumpsIdleQueueForward)
{
    EventQueue eq;
    eq.restoreClock(1234);
    EXPECT_EQ(eq.curTick(), 1234u);
    Tick seen = 0;
    CallbackEvent e([&] { seen = eq.curTick(); });
    eq.schedule(&e, 2000);
    eq.run();
    EXPECT_EQ(seen, 2000u);
}

TEST(EventQueueDeath, RestoreClockWithPendingEventsPanics)
{
    EventQueue eq;
    CallbackEvent e([] {});
    eq.schedule(&e, 10);
    EXPECT_DEATH(eq.restoreClock(100), "already in use");
    // The death assertion ran in a forked child; unschedule here so
    // the parent's event is not destroyed while still queued.
    eq.deschedule(&e);
}

TEST(EventQueueDeath, RestoreClockAfterProcessingPanics)
{
    EventQueue eq;
    CallbackEvent e([] {});
    eq.schedule(&e, 10);
    eq.run();
    EXPECT_DEATH(eq.restoreClock(100), "already in use");
}

TEST(EventQueueDeath, RestoreClockBackwardsPanics)
{
    EventQueue eq;
    eq.restoreClock(100);
    EXPECT_DEATH(eq.restoreClock(50), "backwards");
}

TEST(EventQueue, StressInterleavedScheduleDeschedule)
{
    EventQueue eq;
    constexpr int n = 200;
    std::vector<std::unique_ptr<CallbackEvent>> events;
    std::vector<int> fired;
    for (int i = 0; i < n; ++i)
        events.push_back(std::make_unique<CallbackEvent>(
            [&fired, i] { fired.push_back(i); }));
    // Schedule all, deschedule every third.
    for (int i = 0; i < n; ++i)
        eq.schedule(events[i].get(), Tick(1000 - i));
    for (int i = 0; i < n; i += 3)
        eq.deschedule(events[i].get());
    eq.run();
    // Fired events come out in reverse index order (later index =
    // earlier tick), with multiples of 3 missing.
    size_t expected = 0;
    for (int i = 0; i < n; ++i)
        expected += i % 3 != 0;
    EXPECT_EQ(fired.size(), expected);
    for (size_t k = 1; k < fired.size(); ++k)
        EXPECT_GT(fired[k - 1], fired[k]);
}

} // namespace
} // namespace texdist
