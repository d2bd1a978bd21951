#include "sim/parallel.hh"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <exception>
#include <thread>
#include <vector>

#include "sim/logging.hh"

namespace ulp::sim {

ParallelScheduler::ParallelScheduler(Tick lookahead)
    : _lookahead(lookahead)
{
    if (lookahead == 0)
        panic("ParallelScheduler: lookahead must be positive");
}

void
ParallelScheduler::addShard(EventQueue &queue, ShardCoupling *coupling)
{
    Shard &shard = shards.emplace_back();
    shard.queue = &queue;
    shard.coupling = coupling;
}

void
ParallelScheduler::setPairLookahead(std::size_t from, std::size_t to,
                                    Tick ticks)
{
    if (from >= shards.size() || to >= shards.size())
        panic("ParallelScheduler: pair lookahead for unknown shard");
    if (from == to)
        panic("ParallelScheduler: pair lookahead must name two shards");
    if (ticks == 0)
        panic("ParallelScheduler: pair lookahead must be positive");
    pairOverrides.push_back({from, to, ticks});
}

void
ParallelScheduler::resolveTopology()
{
    const std::size_t k = shards.size();
    std::vector<Tick> look(k * k, _lookahead);
    for (const PairOverride &o : pairOverrides)
        look[o.from * k + o.to] = o.ticks;

    for (std::size_t i = 0; i < k; ++i) {
        Shard &shard = shards[i];
        shard.waitPeers.clear();
        shard.epochLen = maxTick;
        for (std::size_t j = 0; j < k; ++j) {
            if (j == i)
                continue;
            // Wait only on peers whose actions can reach us at all.
            if (look[j * k + i] != maxTick)
                shard.waitPeers.push_back(j);
            // The epoch must be short enough that (a) peers publish
            // before their records can affect us (inbound bound) and
            // (b) we publish before our records can affect them, so a
            // one-way coupling still gets periodic publication.
            shard.epochLen = std::min(
                shard.epochLen,
                std::min(look[i * k + j], look[j * k + i]));
        }
    }
}

namespace {

/**
 * Print the lines the shard workers held, in (tick, shard) order: the
 * order of simulated time, whatever order the threads ran in. A shard's
 * lines keep the order it raised them in.
 */
void
printHeld(const std::vector<std::vector<HeldMessage>> &held)
{
    std::vector<const HeldMessage *> order;
    for (const std::vector<HeldMessage> &shard : held) {
        for (const HeldMessage &msg : shard)
            order.push_back(&msg);
    }
    std::stable_sort(order.begin(), order.end(),
                     [](const HeldMessage *a, const HeldMessage *b) {
                         return a->tick < b->tick;
                     });
    for (const HeldMessage *msg : order)
        std::fputs(msg->line.c_str(), stderr);
}

/**
 * How long a waiter yields before it parks. On the 2-shard beacon
 * benchmark workload half of the ~150k rendezvous of a run find the
 * peer behind, and all but a few dozen of those are released within
 * 100 us, while waking a parked thread took about 5 us median, and
 * past 100 us at the 99th percentile, on a 4-vCPU host. Budgets of 20
 * to 1000 us ran equally fast on free cores; at 4 shards on 2 CPUs
 * 50 us lost the gain and 100 us kept it. A longer budget only burns
 * more of a core when the peer really is descheduled or stalled, so it
 * is 100 us.
 */
constexpr std::chrono::microseconds yieldBudget{100};

/**
 * Block until a peer's @p safe tick reaches @p target: yield for up to
 * yieldBudget, then park. Counted in @p counters.
 */
void
waitForShard(std::atomic<Tick> &safe, std::atomic<int> &waiters, Tick target,
             ShardCounters &counters)
{
    if (safe.load(std::memory_order_acquire) >= target)
        return;
    using Clock = std::chrono::steady_clock;
    const Clock::time_point start = Clock::now();
    ++counters.waits;
    // Yield rather than spin: a waiter that shares its core with the
    // peer hands the peer that core instead of burning it.
    bool released = false;
    while (!released && Clock::now() - start < yieldBudget) {
        std::this_thread::yield();
        released = safe.load(std::memory_order_acquire) >= target;
    }
    if (!released) {
        ++counters.parks;
        // Register before the final check: publishers load `waiters`
        // after their seq_cst safe store, so either they see us (and
        // notify) or our load below sees their store — no lost wakeup
        // either way.
        waiters.fetch_add(1, std::memory_order_seq_cst);
        for (;;) {
            const Tick seen = safe.load(std::memory_order_seq_cst);
            if (seen >= target)
                break;
            safe.wait(seen, std::memory_order_seq_cst);
        }
        waiters.fetch_sub(1, std::memory_order_relaxed);
    }
    counters.waitSeconds +=
        std::chrono::duration<double>(Clock::now() - start).count();
}

} // namespace

void
ParallelScheduler::publish(Shard &self, Tick target)
{
    // Flush first: the queue has run to target-1, so every buffered
    // record has start < target — exactly what `safe = target` promises.
    if (self.coupling)
        self.coupling->publishOutbound();
    self.safe.store(target, std::memory_order_seq_cst);
    if (self.waiters.load(std::memory_order_seq_cst) > 0)
        self.safe.notify_all();
}

void
ParallelScheduler::syncTo(std::size_t idx, Tick target)
{
    Shard &self = shards[idx];
    // Publish before waiting: the shard holding the minimum outstanding
    // target then always finds every peer at or above it, so the wait
    // graph cannot cycle.
    publish(self, target);
    for (std::size_t peer : self.waitPeers) {
        waitForShard(shards[peer].safe, shards[peer].waiters, target,
                     self.counters);
    }
    if (self.coupling)
        self.coupling->applyInbound(target);
}

void
ParallelScheduler::runShard(std::size_t idx, Tick end)
{
    Shard &self = shards[idx];
    EventQueue &queue = *self.queue;
    const Tick epoch_len = self.epochLen;

    Tick epoch_start = 0;
    for (;;) {
        // Inclusive last tick of this epoch, clipped to the horizon.
        // Phrased via the remaining span so nothing overflows when the
        // horizon is near the Tick max or the epoch is maxTick long.
        const Tick remaining = end - epoch_start;
        const Tick epoch_end =
            remaining < epoch_len ? end : epoch_start + (epoch_len - 1);

        // Run the epoch, stopping at every pending delivery tick to
        // resolve it against the peers' published transmissions.
        for (;;) {
            const Tick sync =
                self.coupling ? self.coupling->nextSyncTick() : maxTick;
            if (sync > epoch_end) {
                queue.runUntil(epoch_end);
                break;
            }
            queue.runUntil(sync - 1);
            ++self.counters.syncs;
            syncTo(idx, sync);
            self.coupling->syncDone(sync);
        }

        if (epoch_end >= end)
            break;
        // remaining >= epoch_len here, so this cannot overflow.
        epoch_start += epoch_len;
        ++self.counters.epochs;
        syncTo(idx, epoch_start);
    }

    // Done: everything this shard will ever publish is published.
    publish(self, maxTick);
}

void
ParallelScheduler::run(Tick end)
{
    if (shards.empty())
        return;
    resolveTopology();
    if (shards.size() == 1) {
        shards[0].queue->runUntil(end);
        if (shards[0].coupling) {
            shards[0].coupling->publishOutbound();
            shards[0].coupling->finalize(end);
        }
        return;
    }

    // A worker that dies (uncaught exception) would leave its safe tick
    // frozen and hang every peer; release the others first, then rethrow
    // on the caller's thread. Each worker holds its warnings until all
    // have joined, so stderr does not depend on thread timing.
    std::vector<std::exception_ptr> errors(shards.size());
    std::vector<std::vector<HeldMessage>> held(shards.size());
    auto body = [&](std::size_t idx) {
        MessageHold hold(*shards[idx].queue, held[idx]);
        try {
            runShard(idx, end);
        } catch (...) {
            errors[idx] = std::current_exception();
            shards[idx].safe.store(maxTick, std::memory_order_seq_cst);
            shards[idx].safe.notify_all();
        }
    };

    std::vector<std::thread> workers;
    workers.reserve(shards.size() - 1);
    for (std::size_t i = 1; i < shards.size(); ++i)
        workers.emplace_back(body, i);
    body(0);
    for (std::thread &w : workers)
        w.join();
    printHeld(held);

    for (std::exception_ptr &err : errors) {
        if (err)
            std::rethrow_exception(err);
    }

    // All records are published; settle cross-shard state that straddles
    // the horizon (single-threaded: the workers are gone).
    for (Shard &shard : shards) {
        if (shard.coupling)
            shard.coupling->finalize(end);
    }
}

} // namespace ulp::sim
