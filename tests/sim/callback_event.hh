/** @file An Event that runs a callable, for the event-queue tests. */

#ifndef TEXDIST_TESTS_SIM_CALLBACK_EVENT_HH
#define TEXDIST_TESTS_SIM_CALLBACK_EVENT_HH

#include <functional>
#include <utility>

#include "sim/eventq.hh"

namespace texdist
{

class CallbackEvent : public Event
{
  public:
    explicit CallbackEvent(std::function<void()> callable)
        : fn(std::move(callable))
    {}

    void process() override { fn(); }

  private:
    std::function<void()> fn;
};

} // namespace texdist

#endif // TEXDIST_TESTS_SIM_CALLBACK_EVENT_HH
