/**
 * @file
 * The per-node sleep-policy engine. One self-rescheduling event per
 * sleeping node, on that node's own shard queue, drives the periodic
 * sense-and-send schedule declared in the scenario's [sleep] section:
 * awake for the first onSeconds of every periodSeconds, asleep for the
 * rest.
 *
 * Light sleep additionally wires RadioDevice::setRxWakeHook so an
 * incoming frame wakes the node *before* the RX interrupt is serviced;
 * the node then stays awake until the end of the next on-window (the
 * controller reschedules its event to the next boundary strictly after
 * the wake).
 *
 * Determinism: every scheduled tick is k*period or k*period+on — pure
 * functions of scenario constants — and all transitions run on the
 * owning shard, so the schedule is K-invariant by construction and the
 * K=1 stats oracle holds for any thread count.
 */

#ifndef ULP_SLEEP_CONTROLLER_HH
#define ULP_SLEEP_CONTROLLER_HH

#include <atomic>
#include <cstdint>
#include <memory>
#include <vector>

#include "core/network.hh"
#include "sleep/policy.hh"

namespace ulp::sleep {

class SleepController
{
  public:
    /** Reads each node's NodeSpec::sleep from the network's spec; nodes
     *  with Policy::None (or a degenerate schedule) are left alone. */
    explicit SleepController(core::Network &network);

    SleepController(const SleepController &) = delete;
    SleepController &operator=(const SleepController &) = delete;

    /** Nodes this controller actually drives. */
    unsigned managedNodes() const
    {
        return static_cast<unsigned>(states.size());
    }

    std::uint64_t lightSleeps() const { return lightSleeps_; }
    std::uint64_t deepSleeps() const { return deepSleeps_; }
    std::uint64_t frameWakes() const { return frameWakes_; }

  private:
    /** One driven node: its schedule and the event that walks it. */
    struct NodeState
    {
        /** The node's name, so the event reads "node3.sleep". */
        const std::string &
        name() const
        {
            return controller->network.node(index).name();
        }
        void tick() { controller->tick(*this); }

        SleepController *controller;
        unsigned index;
        Policy policy;
        sim::Tick periodTicks;
        sim::Tick onTicks;
        sim::MemberEvent<&NodeState::tick> event{this, "sleep"};
    };

    void tick(NodeState &st);
    void frameWake(NodeState &st);
    sim::EventQueue &queueOf(const NodeState &st);
    sim::Tick nowOf(const NodeState &st);

    core::Network &network;
    std::vector<std::unique_ptr<NodeState>> states;
    // Bumped from every shard's worker thread.
    std::atomic<std::uint64_t> lightSleeps_{0};
    std::atomic<std::uint64_t> deepSleeps_{0};
    std::atomic<std::uint64_t> frameWakes_{0};
};

} // namespace ulp::sleep

#endif // ULP_SLEEP_CONTROLLER_HH
