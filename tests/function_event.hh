/**
 * @file
 * The kernel tests' event: it runs a callable under a fixed name. Model
 * code binds a member function with sim::MemberEvent; a test that only
 * needs "do this at tick T" schedules one of these instead.
 */

#ifndef ULP_TESTS_FUNCTION_EVENT_HH
#define ULP_TESTS_FUNCTION_EVENT_HH

#include <functional>
#include <string>
#include <utility>

#include "sim/event_queue.hh"

namespace ulp::test {

class FunctionEvent : public sim::Event
{
  public:
    FunctionEvent(std::function<void()> callback, std::string name,
                  Priority priority = defaultPriority)
        : Event(priority), callback(std::move(callback)),
          name(std::move(name))
    {}

    void process() override { callback(); }
    std::string description() const override { return name; }

  private:
    std::function<void()> callback;
    std::string name;
};

} // namespace ulp::test

#endif // ULP_TESTS_FUNCTION_EVENT_HH
