/**
 * @file
 * Host-memory cost gate: heap allocations and live bytes per node for
 * building a 256-node spatial grid.
 *
 * The paper's node has 2 KiB of SRAM; what a simulated node costs on the
 * host is set by the objects its devices hold. This binary replaces the
 * global operator new and delete with counting versions that keep each
 * block's requested size in a header, so the counts do not depend on the
 * allocator's size classes and stay exact under AddressSanitizer. After a
 * warm-up build the same scenario is lowered and built twice more; both
 * builds must cost exactly the same, free everything they allocated, and
 * stay within 2% of the budget below, so a change that adds a per-node
 * heap block to every statistic or event fails here.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <new>
#include <string>

#include "core/network.hh"
#include "scenario/lower.hh"
#include "scenario/scenario.hh"

namespace {

std::atomic<std::uint64_t> heapAllocs{0};
std::atomic<std::int64_t> heapLiveBytes{0};

/** Keeps operator new's alignment guarantee for the block after it. */
constexpr std::size_t headerBytes = alignof(std::max_align_t);

} // namespace

// Not inlined: GCC would otherwise pair the inlined malloc and free with
// the new- and delete-expressions of this file and warn of mismatches
// that do not exist.
[[gnu::noinline]] void *
operator new(std::size_t n)
{
    void *block = std::malloc(headerBytes + n);
    if (!block)
        throw std::bad_alloc();
    *static_cast<std::size_t *>(block) = n;
    heapAllocs.fetch_add(1, std::memory_order_relaxed);
    heapLiveBytes.fetch_add(static_cast<std::int64_t>(n),
                            std::memory_order_relaxed);
    return static_cast<char *>(block) + headerBytes;
}

[[gnu::noinline]] void
operator delete(void *p) noexcept
{
    if (!p)
        return;
    void *block = static_cast<char *>(p) - headerBytes;
    heapLiveBytes.fetch_sub(
        static_cast<std::int64_t>(*static_cast<std::size_t *>(block)),
        std::memory_order_relaxed);
    std::free(block);
}

void
operator delete(void *p, std::size_t) noexcept
{
    ::operator delete(p);
}

namespace {

using namespace ulp;

constexpr unsigned gridNodes = 256;

/**
 * Budget per node: the cost measured on this grid once statistics and
 * events shared their static names and the random engines became lazy
 * (before, a node cost 190 allocations and about 33 KB), once a node's
 * spec no longer held an optional prebuilt application (296 B), and,
 * for bytes, once the event queue stopped reserving a slot per expected
 * event (47 B), once the radio sent every frame through one air-end
 * event and the probe recorder dropped its last-tick array (792 B),
 * once a statistic became only its value, named by its owner when
 * visited, with no stats tree linking the components (4,993 B), and
 * once every event became a member event bound at compile time, with
 * the timer unit's fire events inline (792 B, 4 allocations), and once
 * the calibrated timings and Table 5 power models became constants of
 * the device classes, not per-node settings, and the timer unit held
 * its energy trackers inline (1,104 B, 4 allocations), and once the
 * data bus held one slave pointer per memory-map window instead of a
 * vector of slaves (8 B, 4 allocations). It includes each node's share
 * of the network-wide state: the spatial model, the event queue and
 * the shared application images.
 */
constexpr double allocsPerNodeBudget = 30.60;
constexpr double liveBytesPerNodeBudget = 11'723;
constexpr double budgetSlack = 1.02;

const char *const gridScenario = R"([scenario]
name = footprint-grid
seconds = 0.001
seed = 42
threads = 1

[nodes]
count = 256
app = app3
period = 2000
signal = sine:60,5
placement = grid
spacing = 40

[radio]
model = spatial
path-loss-exponent = 2.8
sensitivity-dbm = -90

[routes]
sink = 0
)";

struct BuildCost
{
    std::uint64_t allocs = 0;
    std::int64_t liveBytes = 0;
    /** Live bytes left over after the network is destroyed. */
    std::int64_t leakedBytes = 0;
};

BuildCost
buildOnce()
{
    const scenario::Lowered lowered =
        scenario::lower(scenario::parseScenario(gridScenario, "grid.ini"));

    BuildCost cost;
    const std::uint64_t allocs0 = heapAllocs.load();
    const std::int64_t live0 = heapLiveBytes.load();
    auto network = std::make_unique<core::Network>(lowered.spec);
    cost.allocs = heapAllocs.load() - allocs0;
    cost.liveBytes = heapLiveBytes.load() - live0;
    EXPECT_EQ(network->numNodes(), gridNodes);
    network.reset();
    cost.leakedBytes = heapLiveBytes.load() - live0;
    return cost;
}

TEST(Footprint, GridBuildStaysWithinPerNodeBudget)
{
    // The first build in a process also fills process-wide tables (the EP
    // assembler's predefined symbols, the uC parameter names), which
    // later builds reuse.
    buildOnce();
    const BuildCost first = buildOnce();
    const BuildCost second = buildOnce();

    // Same scenario, same process: nothing may be cached or leaked from
    // one build to the next.
    EXPECT_EQ(first.allocs, second.allocs);
    EXPECT_EQ(first.liveBytes, second.liveBytes);
    EXPECT_EQ(first.leakedBytes, 0);
    EXPECT_EQ(second.leakedBytes, 0);

    const double allocsPerNode =
        static_cast<double>(second.allocs) / gridNodes;
    const double liveBytesPerNode =
        static_cast<double>(second.liveBytes) / gridNodes;
    std::printf("footprint: %u-node grid build: %.2f allocations/node, "
                "%.0f live bytes/node\n",
                gridNodes, allocsPerNode, liveBytesPerNode);
    EXPECT_LE(allocsPerNode, allocsPerNodeBudget * budgetSlack);
    EXPECT_LE(liveBytesPerNode, liveBytesPerNodeBudget * budgetSlack);
}

} // namespace
