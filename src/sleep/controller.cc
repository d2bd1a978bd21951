#include "sleep/controller.hh"

#include <string>

#include "sim/logging.hh"

namespace ulp::sleep {

SleepController::SleepController(core::Network &net) : network(net)
{
    const scenario::NetworkSpec &spec = network.spec();
    for (unsigned i = 0; i < network.numNodes(); ++i) {
        const NodeSleep &cfg = spec.nodes[i].sleep;
        if (cfg.policy == Policy::None)
            continue;
        const sim::Tick period =
            sim::secondsToTicks(cfg.schedule.periodSeconds);
        const sim::Tick on = sim::secondsToTicks(cfg.schedule.onSeconds);
        if (period == 0 || on == 0 || on >= period) {
            // Degenerate schedule (always awake / never awake): the
            // scenario validator rejects these; specs built by hand just
            // get the always-awake behaviour.
            continue;
        }
        states.push_back(
            std::make_unique<NodeState>(this, i, cfg.policy, period, on));
        NodeState *state = states.back().get();
        if (cfg.policy == Policy::Light) {
            network.node(i).radio().setRxWakeHook(
                [this, state] { frameWake(*state); });
        }
        // First transition: the schedule starts awake, so the first
        // boundary is the end of on-window zero.
        queueOf(*state).schedule(&state->event, on);
    }
}

sim::EventQueue &
SleepController::queueOf(const NodeState &st)
{
    return network.shardSimulation(network.shardOf(st.index)).eventq();
}

sim::Tick
SleepController::nowOf(const NodeState &st)
{
    return network.shardSimulation(network.shardOf(st.index)).curTick();
}

void
SleepController::tick(NodeState &st)
{
    // Where in the schedule are we? Purely a function of time, so a
    // frame-wake that moved the event cannot desynchronise the grid.
    const sim::Tick now = nowOf(st);
    const std::uint64_t k = now / st.periodTicks;
    const sim::Tick phase = now - k * st.periodTicks;
    core::SensorNode &node = network.node(st.index);

    sim::Tick next;
    if (phase < st.onTicks) {
        // Inside an on-window: make sure the node is awake, sleep at its
        // end.
        if (st.policy == Policy::Deep)
            network.wakeNodeFromDeepSleep(st.index);
        else
            node.lightSleepExit();
        next = k * st.periodTicks + st.onTicks;
    } else {
        // On-window over: sleep until the next period starts.
        if (node.alive() && !node.inDeepSleep()) {
            if (st.policy == Policy::Deep) {
                node.deepSleepEnter();
                ++deepSleeps_;
            } else if (!node.inLightSleep()) {
                node.lightSleepEnter();
                ++lightSleeps_;
            }
        }
        next = (k + 1) * st.periodTicks;
    }
    queueOf(st).reschedule(&st.event, next);
}

void
SleepController::frameWake(NodeState &st)
{
    core::SensorNode &node = network.node(st.index);
    if (!node.inLightSleep())
        return;
    node.lightSleepExit();
    ++frameWakes_;
    // Stay awake through the end of the *next* on-window: the next
    // boundary strictly after now at which tick() decides to sleep.
    const sim::Tick now = nowOf(st);
    const std::uint64_t k = now / st.periodTicks;
    const sim::Tick phase = now - k * st.periodTicks;
    const sim::Tick next = phase < st.onTicks
                               ? k * st.periodTicks + st.onTicks
                               : (k + 1) * st.periodTicks + st.onTicks;
    queueOf(st).reschedule(&st.event, next);
}

} // namespace ulp::sleep
