/**
 * @file
 * Tests for the planner's concurrent emulator-feedback search: the
 * util::ThreadPool primitive, the SearchDriver (parallel trial
 * evaluation equals serial evaluation, fixed-tie-break winner), the
 * trial cache and its job/trial keys, the trial arena reuse
 * (steady-state re-evaluation must not allocate more than the
 * previous warm run, and a warm trial's transient heap stays small)
 * and the grant-budget helpers, including the
 * regression for the gate that admitted flips by stash size while
 * debiting their full savings.
 */

#include <malloc.h>
#include <pthread.h>
#include <sched.h>

#include <atomic>
#include <cstdlib>
#include <mutex>
#include <new>
#include <ostream>
#include <set>
#include <stdexcept>
#include <string>
#include <thread>

#include <gtest/gtest.h>

// ---------------------------------------------------------------
// Global allocation counters (this binary only): the arena-reuse
// assertions below count operator-new calls across driver
// evaluations, and the live heap bytes with their high-water mark
// (each block counted at its malloc_usable_size).  Counting is exact,
// not sampled — replacement of the global operators is per-binary,
// which is why these tests live in their own test executable.  The
// replacements are out of line: inlined, GCC 12 reports their
// malloc/free pairs as -Wmismatched-new-delete.
// ---------------------------------------------------------------

namespace {
std::atomic<std::uint64_t> g_alloc_calls{0};
std::atomic<std::int64_t> g_live_bytes{0};
std::atomic<std::int64_t> g_peak_bytes{0};

void *
countedAlloc(std::size_t n)
{
    void *p = std::malloc(n ? n : 1);
    if (p == nullptr)
        return nullptr;
    g_alloc_calls.fetch_add(1, std::memory_order_relaxed);
    auto size = static_cast<std::int64_t>(malloc_usable_size(p));
    std::int64_t live =
        g_live_bytes.fetch_add(size, std::memory_order_relaxed) + size;
    std::int64_t peak = g_peak_bytes.load(std::memory_order_relaxed);
    while (live > peak &&
           !g_peak_bytes.compare_exchange_weak(
               peak, live, std::memory_order_relaxed)) {
    }
    return p;
}

void
countedFree(void *p)
{
    g_live_bytes.fetch_sub(
        static_cast<std::int64_t>(malloc_usable_size(p)),
        std::memory_order_relaxed);
    std::free(p);
}
} // namespace

[[gnu::noinline]] void *
operator new(std::size_t n)
{
    if (void *p = countedAlloc(n))
        return p;
    throw std::bad_alloc();
}

[[gnu::noinline]] void *
operator new[](std::size_t n)
{
    return ::operator new(n);
}

[[gnu::noinline]] void
operator delete(void *p) noexcept
{
    countedFree(p);
}

[[gnu::noinline]] void
operator delete[](void *p) noexcept
{
    countedFree(p);
}

[[gnu::noinline]] void
operator delete(void *p, std::size_t) noexcept
{
    countedFree(p);
}

[[gnu::noinline]] void
operator delete[](void *p, std::size_t) noexcept
{
    countedFree(p);
}

// The nothrow variants must be replaced too: libstdc++'s
// stable_sort temporary buffer allocates through
// `operator new(n, nothrow)`, and a default nothrow-new paired with
// the malloc-backed plain delete above is an alloc-dealloc mismatch
// under ASan.

[[gnu::noinline]] void *
operator new(std::size_t n, const std::nothrow_t &) noexcept
{
    return countedAlloc(n);
}

[[gnu::noinline]] void *
operator new[](std::size_t n, const std::nothrow_t &tag) noexcept
{
    return ::operator new(n, tag);
}

[[gnu::noinline]] void
operator delete(void *p, const std::nothrow_t &) noexcept
{
    countedFree(p);
}

[[gnu::noinline]] void
operator delete[](void *p, const std::nothrow_t &) noexcept
{
    countedFree(p);
}

#include "bench/common.hh"
#include "cluster/cluster.hh"
#include "compaction/serialize.hh"
#include "fault/scenario.hh"
#include "hw/topology.hh"
#include "model/model.hh"
#include "partition/partition.hh"
#include "pipeline/schedule.hh"
#include "planner/mapper.hh"
#include "planner/planner.hh"
#include "planner/search.hh"
#include "report_bytes.hh"
#include "util/pool.hh"

namespace cl = mpress::cluster;
namespace cp = mpress::compaction;
namespace fl = mpress::fault;
namespace hw = mpress::hw;
namespace mm = mpress::model;
namespace mp = mpress::partition;
namespace pl = mpress::pipeline;
namespace pn = mpress::planner;
namespace rt = mpress::runtime;
namespace mu = mpress::util;

// ---------------------------------------------------------------
// ThreadPool
// ---------------------------------------------------------------

TEST(ThreadPool, ClampsThreadCountToOne)
{
    mu::ThreadPool pool(0);
    EXPECT_EQ(pool.threads(), 1);
    mu::ThreadPool neg(-3);
    EXPECT_EQ(neg.threads(), 1);
}

TEST(ThreadPool, SerialPoolRunsInlineInOrder)
{
    mu::ThreadPool pool(1);
    std::vector<std::size_t> order;
    auto caller = std::this_thread::get_id();
    pool.parallelFor(5, [&](std::size_t i) {
        EXPECT_EQ(std::this_thread::get_id(), caller);
        order.push_back(i);
    });
    EXPECT_EQ(order, (std::vector<std::size_t>{0, 1, 2, 3, 4}));
}

TEST(ThreadPool, CoversEveryIndexExactlyOnce)
{
    mu::ThreadPool pool(4);
    constexpr std::size_t kN = 200;
    std::vector<std::atomic<int>> hits(kN);
    pool.parallelFor(kN,
                     [&](std::size_t i) { hits[i].fetch_add(1); });
    for (std::size_t i = 0; i < kN; ++i)
        EXPECT_EQ(hits[i].load(), 1) << "index " << i;
}

TEST(ThreadPool, ReusableAcrossBatches)
{
    mu::ThreadPool pool(3);
    for (int round = 0; round < 10; ++round) {
        std::atomic<int> sum{0};
        pool.parallelFor(17, [&](std::size_t i) {
            sum.fetch_add(static_cast<int>(i));
        });
        EXPECT_EQ(sum.load(), 16 * 17 / 2);
    }
}

TEST(ThreadPool, PropagatesFirstErrorByIndex)
{
    mu::ThreadPool pool(4);
    for (int round = 0; round < 5; ++round) {
        try {
            pool.parallelFor(64, [&](std::size_t i) {
                if (i == 7 || i == 40)
                    throw std::runtime_error(
                        "trial " + std::to_string(i));
            });
            FAIL() << "expected an exception";
        } catch (const std::runtime_error &e) {
            // Smallest failing index wins regardless of which worker
            // hit its error first — the propagated error must be as
            // deterministic as the results.
            EXPECT_STREQ(e.what(), "trial 7");
        }
        // Pool stays usable after a failed batch.
        std::atomic<int> ran{0};
        pool.parallelFor(8, [&](std::size_t) { ran.fetch_add(1); });
        EXPECT_EQ(ran.load(), 8);
    }
}

TEST(ThreadPool, ZeroAndOneIndexBatches)
{
    mu::ThreadPool pool(4);
    int calls = 0;
    pool.parallelFor(0, [&](std::size_t) { ++calls; });
    EXPECT_EQ(calls, 0);
    pool.parallelFor(1, [&](std::size_t i) {
        EXPECT_EQ(i, 0u);
        ++calls;
    });
    EXPECT_EQ(calls, 1);
}

TEST(ThreadPool, NarrowBatchesRunOnTheFirstWorkers)
{
    // A batch of n indices runs on the caller and workers 1..n-1, so
    // the threads that make a trial wave's heap allocations do not
    // grow with the pool.  Every index waits until the batch's three
    // have started, so each batch runs on three threads at once.
    mu::ThreadPool pool(8);
    std::mutex mu;
    std::set<std::thread::id> ran;
    for (int round = 0; round < 50; ++round) {
        std::atomic<int> started{0};
        pool.parallelFor(3, [&](std::size_t) {
            {
                std::lock_guard<std::mutex> lock(mu);
                ran.insert(std::this_thread::get_id());
            }
            started.fetch_add(1);
            while (started.load() < 3)
                std::this_thread::yield();
        });
    }
    EXPECT_EQ(ran.size(), 3u);
}

TEST(ThreadPool, HardwareThreadsCountsTheAffinityMask)
{
    // `taskset -c 0` must plan serially: the count is the calling
    // thread's affinity mask, not the machine's CPUs.
    cpu_set_t saved;
    ASSERT_EQ(pthread_getaffinity_np(pthread_self(), sizeof saved,
                                     &saved),
              0);
    int first = 0;
    while (!CPU_ISSET(first, &saved))
        ++first;
    cpu_set_t one;
    CPU_ZERO(&one);
    CPU_SET(first, &one);
    ASSERT_EQ(pthread_setaffinity_np(pthread_self(), sizeof one, &one),
              0);
    const int under_one = mu::ThreadPool::hardwareThreads();
    const int planner_default = pn::PlannerConfig{}.threads;
    mu::PoolLease lease(planner_default);
    const bool leased = lease.shared();
    const int lease_threads = lease.pool().threads();
    ASSERT_EQ(pthread_setaffinity_np(pthread_self(), sizeof saved,
                                     &saved),
              0);
    EXPECT_EQ(under_one, 1);
    EXPECT_EQ(planner_default, 1);
    // A serial lease starts no worker and leaves the shared pool be.
    EXPECT_FALSE(leased);
    EXPECT_EQ(lease_threads, 1);
    EXPECT_EQ(mu::ThreadPool::hardwareThreads(), CPU_COUNT(&saved));
}

TEST(ThreadPool, DefaultLeasesShareOnePool)
{
    // Plans at the default thread count reuse one process-wide pool;
    // a plan that finds it held gets a pool of its own.
    const int cpus = mu::ThreadPool::hardwareThreads();
    if (cpus < 2)
        GTEST_SKIP() << "one usable CPU: every lease is serial";
    mu::ThreadPool *shared = nullptr;
    {
        mu::PoolLease a(cpus);
        ASSERT_TRUE(a.shared());
        shared = &a.pool();
        EXPECT_EQ(shared->threads(), cpus);
        mu::PoolLease b(cpus);
        EXPECT_FALSE(b.shared());
        EXPECT_NE(&b.pool(), shared);
        EXPECT_EQ(b.pool().threads(), cpus);
        // Another count never takes the shared pool.
        mu::PoolLease c(cpus + 1);
        EXPECT_FALSE(c.shared());
        EXPECT_EQ(c.pool().threads(), cpus + 1);
    }
    mu::PoolLease again(cpus);
    EXPECT_TRUE(again.shared());
    EXPECT_EQ(&again.pool(), shared);
    std::atomic<int> sum{0};
    again.pool().parallelFor(
        40, [&](std::size_t i) { sum.fetch_add(static_cast<int>(i)); });
    EXPECT_EQ(sum.load(), 39 * 40 / 2);
}

// ---------------------------------------------------------------
// Grant-budget ledger (regression: gate/debit mismatch)
// ---------------------------------------------------------------

TEST(BudgetGate, GateAndDebitUseTheSameQuantity)
{
    // Regression for the stash/savings mismatch: the old gate
    // admitted a flip when the budget covered one *stash* instance,
    // then deducted the full *savings* (stash x in-flight versions),
    // masked with std::min so the ledger silently pinned at the
    // budget floor.  With stash < budget < savings the flip was
    // admitted even though the grants could not absorb it.
    std::vector<pn::FlipCandidate> flippable = {
        {0, /*stash=*/1 * mu::kMB, /*savings=*/10 * mu::kMB}};
    std::map<int, mu::Bytes> budget = {{0, 5 * mu::kMB}};

    auto admitted = pn::admitFlipBatch(flippable, budget, 8);
    EXPECT_TRUE(admitted.empty());
    // A rejected flip must not touch the ledger.
    EXPECT_EQ(budget[0], 5 * mu::kMB);
}

TEST(BudgetGate, AdmitsAndDebitsFullSavings)
{
    std::vector<pn::FlipCandidate> flippable = {
        {0, 1 * mu::kMB, 4 * mu::kMB},
        {0, 1 * mu::kMB, 4 * mu::kMB},
        {0, 1 * mu::kMB, 4 * mu::kMB}};
    std::map<int, mu::Bytes> budget = {{0, 10 * mu::kMB}};

    auto admitted = pn::admitFlipBatch(flippable, budget, 8);
    // 10MB of budget absorbs two 4MB flips; the third is gated out
    // even though its 1MB stash would have fit the 2MB remainder.
    ASSERT_EQ(admitted.size(), 2u);
    EXPECT_EQ(admitted[0], 0u);
    EXPECT_EQ(admitted[1], 1u);
    EXPECT_EQ(budget[0], 2 * mu::kMB);
}

TEST(BudgetGate, RespectsBatchSizeAndPerGpuLedgers)
{
    std::vector<pn::FlipCandidate> flippable = {
        {0, mu::kMB, 2 * mu::kMB},
        {1, mu::kMB, 2 * mu::kMB},
        {0, mu::kMB, 2 * mu::kMB},
        {1, mu::kMB, 2 * mu::kMB},
        {2, mu::kMB, 2 * mu::kMB}};  // GPU2 has no grants at all
    std::map<int, mu::Bytes> budget = {{0, 10 * mu::kMB},
                                       {1, 2 * mu::kMB}};

    std::map<int, mu::Bytes> scratch = budget;
    auto admitted = pn::admitFlipBatch(flippable, scratch, 3);
    // GPU1's ledger covers one flip; GPU2 has none; the cap of 3
    // stops the scan after three admissions.
    ASSERT_EQ(admitted.size(), 3u);
    EXPECT_EQ(admitted, (std::vector<std::size_t>{0, 1, 2}));
    EXPECT_EQ(scratch[0], 6 * mu::kMB);
    EXPECT_EQ(scratch[1], 0);

    // Halving the batch admits a strict prefix — the ladder's nested
    // trials depend on this.
    std::map<int, mu::Bytes> scratch2 = budget;
    auto halved = pn::admitFlipBatch(flippable, scratch2, 1);
    ASSERT_EQ(halved.size(), 1u);
    EXPECT_EQ(halved[0], 0u);
}

TEST(BudgetLedger, SumsGrantsPerExporter)
{
    std::map<int, std::vector<cp::SpareGrant>> grants;
    grants[0] = {{1, 3 * mu::kMB}, {2, 4 * mu::kMB}};
    grants[5] = {{6, 8 * mu::kMB}};

    auto budget = pn::remainingGrantBudget(grants, {});
    EXPECT_EQ(budget.at(0), 7 * mu::kMB);
    EXPECT_EQ(budget.at(5), 8 * mu::kMB);

    auto debited = pn::remainingGrantBudget(
        grants, {{0, 2 * mu::kMB}, {0, 1 * mu::kMB}});
    EXPECT_EQ(debited.at(0), 4 * mu::kMB);
    EXPECT_EQ(debited.at(5), 8 * mu::kMB);
}

TEST(BudgetLedger, ClampsStaleDebitsAtZero)
{
    // Regression: when committed flips outweigh the grants (stale
    // debits after a re-map shrank the grant pool), the reconstructed
    // budget went negative and poisoned every later gate decision.
    std::map<int, std::vector<cp::SpareGrant>> grants;
    grants[0] = {{1, 5 * mu::kMB}};

    auto budget = pn::remainingGrantBudget(
        grants, {{0, 9 * mu::kMB}, {3, mu::kMB}});
    EXPECT_EQ(budget.at(0), 0);
    EXPECT_EQ(budget.count(3), 0u);  // debit w/o grants: ignored

    // A zeroed ledger must gate out every further flip instead of
    // "admitting" against negative room.
    std::vector<pn::FlipCandidate> flippable = {{0, mu::kMB, mu::kMB}};
    auto admitted = pn::admitFlipBatch(flippable, budget, 8);
    EXPECT_TRUE(admitted.empty());
}

// ---------------------------------------------------------------
// SearchDriver
// ---------------------------------------------------------------

namespace {

struct Job
{
    hw::Topology topo = hw::Topology::dgx1V100();
    mm::TransformerModel mdl;
    mp::Partition part;
    pl::Schedule sched;

    explicit Job(const std::string &preset, int minibatches = 2)
        : mdl(mm::presetByName(preset), 12),
          part(mp::partitionModel(mdl, 8,
                                  mp::Strategy::ComputeBalanced)),
          sched(pl::buildSchedule(pl::SystemKind::PipeDream, 8, 1,
                                  minibatches))
    {}
};

cp::CompactionPlan
recomputeAll(const mp::Partition &part)
{
    cp::CompactionPlan plan;
    for (const auto &stage : part.stages) {
        for (std::size_t l = stage.firstLayer; l <= stage.lastLayer;
             ++l)
            plan.activations[{stage.index, static_cast<int>(l)}] =
                cp::Kind::Recompute;
    }
    return plan;
}

cp::CompactionPlan
swapAll(const mp::Partition &part)
{
    cp::CompactionPlan plan;
    for (const auto &stage : part.stages) {
        for (std::size_t l = stage.firstLayer; l <= stage.lastLayer;
             ++l)
            plan.activations[{stage.index, static_cast<int>(l)}] =
                cp::Kind::GpuCpuSwap;
    }
    return plan;
}

} // namespace

TEST(SearchDriver, ParallelEvaluationMatchesSerial)
{
    // 24 in-flight minibatches: PipeDream weight stashing pushes the
    // uncompacted plan over capacity, so trial 0 exercises the OOM
    // path while the compacted trials survive.
    Job job("bert-1.67b", 24);
    std::vector<cp::CompactionPlan> trials = {
        {}, recomputeAll(job.part), swapAll(job.part)};

    mu::ThreadPool serial(1);
    pn::SearchDriver sdrv(job.topo, job.mdl, job.part, job.sched, {},
                          serial);
    auto a = sdrv.evaluate(trials);

    mu::ThreadPool pool(4);
    pn::SearchDriver pdrv(job.topo, job.mdl, job.part, job.sched, {},
                          pool);
    auto b = pdrv.evaluate(trials);

    ASSERT_EQ(a.size(), trials.size());
    ASSERT_EQ(b.size(), trials.size());
    for (std::size_t i = 0; i < trials.size(); ++i) {
        EXPECT_EQ(a[i].report.oom, b[i].report.oom) << i;
        EXPECT_EQ(a[i].report.makespan, b[i].report.makespan) << i;
        EXPECT_EQ(a[i].report.samplesPerSec,
                  b[i].report.samplesPerSec)
            << i;
        EXPECT_EQ(a[i].verified, b[i].verified) << i;
    }
    // Outcomes are positional: trial 0 (no compaction) OOMs on this
    // model while the compacted trials survive.
    EXPECT_TRUE(a[0].report.oom);
    EXPECT_FALSE(a[1].report.oom);
    EXPECT_FALSE(a[2].report.oom);
}

TEST(SearchDriver, PickBestUsesFixedTieBreak)
{
    auto outcome = [](bool oom, bool verified, double sps) {
        pn::TrialOutcome o;
        o.report.oom = oom;
        o.report.samplesPerSec = sps;
        o.verified = verified;
        return o;
    };

    std::vector<pn::TrialOutcome> outcomes = {
        outcome(false, true, 10.0),   // accepted
        outcome(false, true, 12.0),   // accepted, best
        outcome(false, true, 12.0),   // exact tie -> lower index wins
        outcome(false, false, 99.0),  // fails verification
        outcome(true, true, 99.0),    // OOM
    };
    EXPECT_EQ(pn::SearchDriver::pickBest(outcomes, 5.0, 0.0), 1);

    // Baseline + margin filters the field.
    EXPECT_EQ(pn::SearchDriver::pickBest(outcomes, 11.0, 0.1), -1);
    EXPECT_EQ(pn::SearchDriver::pickBest(outcomes, 11.0, 0.05), 1);

    // Nothing accepted -> -1.
    EXPECT_EQ(pn::SearchDriver::pickBest({}, 1.0, 0.0), -1);
}

TEST(SearchDriver, EveryBatchTrialIsEmulatedThenVerified)
{
    // One trial path: every plan in a batch, even one whose OOM is
    // obvious, is emulated through the trial cache and then
    // verified, so its report is the DES's own (including the
    // time-ordered OOM GPU) and evaluateOne() is a batch of one.
    // The uncompacted plan needs ~70 GiB per GPU with 24 in-flight
    // minibatches against a 27 GiB usable capacity.
    Job job("bert-1.67b", 24);
    std::vector<cp::CompactionPlan> trials = {{},
                                              recomputeAll(job.part)};
    mu::ThreadPool pool(2);
    pn::SearchDriver driver(job.topo, job.mdl, job.part, job.sched,
                            {}, pool);
    auto batch = driver.evaluate(trials);
    ASSERT_EQ(batch.size(), 2u);
    EXPECT_EQ(driver.cacheStats().misses, 2u);
    EXPECT_TRUE(batch[0].report.oom);
    EXPECT_GE(batch[0].report.oomGpu, 0);
    EXPECT_FALSE(batch[1].report.oom);

    mu::ThreadPool serial(1);
    for (std::size_t i = 0; i < trials.size(); ++i) {
        pn::SearchDriver fresh(job.topo, job.mdl, job.part, job.sched,
                               {}, serial);
        fresh.setCacheEnabled(false);
        auto one = fresh.evaluateOne(trials[i]);
        EXPECT_EQ(one.report.oom, batch[i].report.oom) << i;
        EXPECT_EQ(one.report.oomGpu, batch[i].report.oomGpu) << i;
        EXPECT_EQ(one.report.oomTime, batch[i].report.oomTime) << i;
        EXPECT_EQ(one.report.makespan, batch[i].report.makespan) << i;
        EXPECT_EQ(one.report.samplesPerSec,
                  batch[i].report.samplesPerSec)
            << i;
        EXPECT_EQ(one.verified, batch[i].verified) << i;
    }
}

TEST(SearchDriver, TrialVerdictsMatchVerifyPlan)
{
    // The driver checks the job's schedule once and each trial's plan
    // rules on their own; every verdict must still be verifyPlan's.
    Job job("bert-1.67b");
    // Consecutive stages on NVLink neighbours of the DGX-1 mesh.
    cp::CompactionPlan clean = recomputeAll(job.part);
    clean.stageToGpu = {0, 1, 2, 3, 7, 6, 5, 4};
    // A layer outside its stage: swap-unknown-tensor, an error.
    cp::CompactionPlan broken = clean;
    broken.activations[{0, 999}] = cp::Kind::Recompute;
    // The identity mapping puts stages 3 and 4 on GPUs without an
    // NVLink (sched-fabric-path), and a grant no D2D class draws on
    // is d2d-orphan-grant: warnings only.
    cp::CompactionPlan warned = recomputeAll(job.part);
    warned.spareGrants[0] = {cp::SpareGrant{1, 1 << 20}};
    std::vector<cp::CompactionPlan> trials = {clean, broken, warned};

    auto verdict = [&](const pl::Schedule &sched,
                       const cp::CompactionPlan &plan) {
        return mpress::verify::verifyPlan(job.topo, job.mdl, job.part,
                                          sched, plan);
    };
    EXPECT_TRUE(verdict(job.sched, clean).clean())
        << verdict(job.sched, clean).render();
    EXPECT_FALSE(verdict(job.sched, broken).ok());
    EXPECT_TRUE(verdict(job.sched, warned).ok())
        << verdict(job.sched, warned).render();
    EXPECT_TRUE(verdict(job.sched, warned)
                    .hasRule(mpress::verify::Rule::SchedFabricPath));
    EXPECT_TRUE(verdict(job.sched, warned)
                    .hasRule(mpress::verify::Rule::D2dOrphanGrant));

    mu::ThreadPool pool(3);
    pn::SearchDriver driver(job.topo, job.mdl, job.part, job.sched,
                            {}, pool);
    auto outcomes = driver.evaluate(trials);
    ASSERT_EQ(outcomes.size(), trials.size());
    for (std::size_t i = 0; i < trials.size(); ++i) {
        EXPECT_EQ(outcomes[i].verified,
                  verdict(job.sched, trials[i]).ok())
            << i;
    }
    EXPECT_TRUE(outcomes[0].verified);
    EXPECT_FALSE(outcomes[1].verified);
    EXPECT_TRUE(outcomes[2].verified);

    // A schedule that breaks a schedule rule fails every trial: here
    // fwd(1, 0) lost its dependency on fwd(0, 0) (sched-missing-dep).
    pl::Schedule cut = job.sched;
    for (pl::Task &t : cut.tasks) {
        if (t.kind == pl::TaskKind::Forward && t.stage == 1 &&
            t.microbatch == 0)
            t.deps.clear();
    }
    ASSERT_FALSE(verdict(cut, clean).ok());
    pn::SearchDriver cut_driver(job.topo, job.mdl, job.part, cut, {},
                                pool);
    for (const pn::TrialOutcome &o : cut_driver.evaluate(trials))
        EXPECT_FALSE(o.verified);
}

TEST(SearchDriver, TrialsNeverRecord)
{
    // A recording caller (mpress_cli --timeline) hands its config to
    // the driver; its trials must not pay for a trace, and must score
    // exactly like unrecorded ones.
    Job job("bert-1.67b");
    rt::ExecutorConfig recorded;
    recorded.record = true;
    mu::ThreadPool serial(1);
    pn::SearchDriver driver(job.topo, job.mdl, job.part, job.sched,
                            recorded, serial);
    pn::SearchDriver plain(job.topo, job.mdl, job.part, job.sched, {},
                           serial);
    auto r = driver.evaluateOne(recomputeAll(job.part)).report;
    auto p = plain.evaluateOne(recomputeAll(job.part)).report;
    ASSERT_FALSE(r.oom);
    EXPECT_EQ(r.trace.size(), 0u);
    EXPECT_TRUE(r.trace.counters().empty());
    EXPECT_EQ(r.observability.memory.size(), 0u);
    EXPECT_TRUE(r.observability.metrics.series().empty());
    EXPECT_EQ(r.makespan, p.makespan);
}

TEST(SearchDriver, PlannerThreadCountDoesNotChangeThePlan)
{
    // The tentpole's determinism contract, at the planner level: the
    // serialized plan is byte-identical at any thread count.
    Job job("bert-1.67b");
    auto plan_text = [&](int threads) {
        pn::PlannerConfig cfg;
        cfg.threads = threads;
        auto result = pn::planMPress(job.topo, job.mdl, job.part,
                                     job.sched, cfg);
        EXPECT_TRUE(result.feasible);
        return cp::planToText(result.plan);
    };
    auto serial = plan_text(1);
    EXPECT_EQ(serial, plan_text(4));
    EXPECT_EQ(serial, plan_text(3));
}

TEST(SearchDriver, BatchDuplicatesRunOnceAtAnyPoolSize)
{
    // A batch emulates each distinct trial key once; later duplicates
    // hit the cache after the first one's report is stored, exactly
    // as in the serial loop.  Same counts, same reports.
    Job job("bert-1.67b", 24);
    auto a = recomputeAll(job.part);
    auto b = swapAll(job.part);
    std::vector<cp::CompactionPlan> trials = {a, b, a, a, b};
    for (int threads : {1, 4}) {
        mu::ThreadPool pool(threads);
        pn::SearchDriver driver(job.topo, job.mdl, job.part, job.sched,
                                {}, pool);
        auto out = driver.evaluate(trials);
        EXPECT_EQ(driver.cacheStats().misses, 2u) << threads;
        EXPECT_EQ(driver.cacheStats().hits, 3u) << threads;
        for (std::size_t i : {2u, 3u}) {
            EXPECT_EQ(out[i].report.makespan, out[0].report.makespan);
            EXPECT_EQ(out[i].report.samplesPerSec,
                      out[0].report.samplesPerSec);
        }
        EXPECT_EQ(out[4].report.makespan, out[1].report.makespan);
        EXPECT_NE(out[0].report.makespan, out[1].report.makespan);
    }
}

TEST(SearchDriver, PlannerCacheCountsDoNotDependOnThreads)
{
    // The parallel default must not buy extra DES trials: a plan's
    // cache hits and misses are those of the serial search.
    // Fig. 7's bert-1.67b job on DGX-1: 4 hits and 9 misses.
    auto run = [](int threads) {
        auto cfg = mpress::bench::bertJob(
            "bert-1.67b", mpress::api::Strategy::MPressFull);
        cfg.planner.threads = threads;
        return mpress::api::runSession(hw::Topology::dgx1V100(), cfg);
    };
    auto serial = run(1);
    auto pooled = run(4);
    EXPECT_GT(serial.planResult.trialCacheHits, 0u);
    EXPECT_EQ(serial.planResult.trialCacheHits,
              pooled.planResult.trialCacheHits);
    EXPECT_EQ(serial.planResult.trialCacheMisses,
              pooled.planResult.trialCacheMisses);
    EXPECT_EQ(cp::planToText(serial.plan), cp::planToText(pooled.plan));
}

TEST(SearchDriver, PlannerThreadsAndCacheDoNotChangeThePlan)
{
    // Every (threads, trial cache) cell must plan the same bytes as
    // the serial cached run.
    Job job("bert-1.67b");
    job.sched = pl::buildSchedule(pl::SystemKind::PipeDream, 8, 8, 2);
    auto plan_text = [&](int threads, bool cache) {
        pn::PlannerConfig cfg;
        cfg.threads = threads;
        cfg.trialCache = cache;
        return cp::planToText(pn::planMPress(job.topo, job.mdl,
                                             job.part, job.sched, cfg)
                                  .plan);
    };
    const std::string expected = plan_text(1, true);
    for (int threads : {2, 4}) {
        for (bool cache : {true, false}) {
            EXPECT_EQ(expected, plan_text(threads, cache))
                << "threads=" << threads << " cache=" << cache;
        }
    }
}

// ---------------------------------------------------------------
// Trial cache
// ---------------------------------------------------------------

TEST(TrialCache, RepeatEvaluationHits)
{
    Job job("bert-1.67b", 24);
    mu::ThreadPool pool(1);
    pn::SearchDriver driver(job.topo, job.mdl, job.part, job.sched,
                            {}, pool);
    auto plan = recomputeAll(job.part);
    auto first = driver.evaluateOne(plan);
    auto second = driver.evaluateOne(plan);

    auto stats = driver.cacheStats();
    EXPECT_EQ(stats.misses, 1u);
    EXPECT_EQ(stats.hits, 1u);
    EXPECT_EQ(first.report.makespan, second.report.makespan);
    EXPECT_EQ(first.report.samplesPerSec,
              second.report.samplesPerSec);
    EXPECT_EQ(first.verified, second.verified);
}

TEST(TrialCache, DisabledCacheMatchesEnabled)
{
    Job job("bert-1.67b", 24);
    auto plan = swapAll(job.part);

    mu::ThreadPool pool(1);
    pn::SearchDriver cached(job.topo, job.mdl, job.part, job.sched,
                            {}, pool);
    pn::SearchDriver fresh(job.topo, job.mdl, job.part, job.sched,
                           {}, pool);
    fresh.setCacheEnabled(false);

    auto a = cached.evaluateOne(plan);
    cached.evaluateOne(plan);  // second call served from cache
    auto b = fresh.evaluateOne(plan);
    fresh.evaluateOne(plan);  // second call re-emulates

    auto off_stats = fresh.cacheStats();
    EXPECT_EQ(off_stats.hits, 0u);
    EXPECT_EQ(off_stats.misses, 0u);
    EXPECT_EQ(cached.cacheStats().hits, 1u);
    EXPECT_EQ(a.report.makespan, b.report.makespan);
    EXPECT_EQ(a.report.samplesPerSec, b.report.samplesPerSec);
}

TEST(TrialCache, SignatureDistinguishesConfigAndScenario)
{
    Job job("bert-1.67b");
    auto plan = recomputeAll(job.part);
    rt::ExecutorConfig cfg;
    auto key = [](const cp::CompactionPlan &p,
                  const rt::ExecutorConfig &c, std::string_view sc) {
        return pn::SearchDriver::trialKeyBinary(p, c, sc);
    };

    auto base = key(plan, cfg, "");
    EXPECT_EQ(key(plan, cfg, ""), base);

    rt::ExecutorConfig tweaked = cfg;
    tweaked.maxTransferRetries += 1;
    EXPECT_NE(key(plan, tweaked, ""), base);

    rt::ExecutorConfig unladdered = cfg;
    unladdered.faultLadder = false;
    EXPECT_NE(key(plan, unladdered, ""), base);

    EXPECT_NE(key(plan, cfg, "pcie-degrade-0"), base);

    auto other = swapAll(job.part);
    EXPECT_NE(key(other, cfg, ""), base);
}

TEST(TrialCache, DeadGrantsStayOutOfTheKey)
{
    // A GPU's grants are read only on a D2D instance's path, so those
    // of a GPU hosting no D2D-swapped class are dead: plans that
    // differ only in them share a key, and the keys differ once the
    // same grants are live.
    Job job("bert-1.67b");
    rt::ExecutorConfig cfg;
    auto key = [&](const cp::CompactionPlan &p) {
        return pn::SearchDriver::trialKeyBinary(p, cfg, "");
    };
    const cp::CompactionPlan bare = recomputeAll(job.part);
    cp::CompactionPlan a = bare, b = bare;
    a.spareGrants[0] = {{4, 2 * mu::kGB}};
    b.spareGrants[0] = {{5, 3 * mu::kGB}};
    b.spareGrants[1] = {{6, mu::kGB}};
    EXPECT_EQ(key(a), key(b));
    EXPECT_EQ(key(a), key(bare));

    // D2D-swapping one class of stage 0 makes GPU 0's grants live;
    // GPU 1's stay dead.
    const cp::TensorRef first{
        0, static_cast<int>(job.part.stages[0].firstLayer)};
    a.activations[first] = cp::Kind::D2dSwap;
    b.activations[first] = cp::Kind::D2dSwap;
    EXPECT_NE(key(a), key(b));
    cp::CompactionPlan b_live_only = b;
    b_live_only.spareGrants.erase(1);
    EXPECT_EQ(key(b), key(b_live_only));

    // Liveness follows the mapping: with stage 0 on GPU 3, GPU 3's
    // grants are live and GPU 0's are dead.
    cp::CompactionPlan m = a;
    m.stageToGpu = {3, 0, 1, 2, 4, 5, 6, 7};
    cp::CompactionPlan m2 = m;
    m2.spareGrants[0] = {{7, mu::kGB}};
    EXPECT_EQ(key(m), key(m2));
    m2.spareGrants[3] = {{7, mu::kGB}};
    EXPECT_NE(key(m), key(m2));
}

namespace {

/** Fig. 8's job: gpt-25.5b on DGX-2 under DAPPLE, microbatch 2,
 *  64-microbatch minibatches, 2 minibatches. */
struct GptJob
{
    hw::Topology topo = hw::Topology::dgx2A100();
    mm::TransformerModel mdl{mm::presetByName("gpt-25.5b"), 2};
    mp::Partition part = mp::partitionModel(
        mdl, topo.numGpus(), mp::Strategy::ComputeBalanced);
    pl::Schedule sched = pl::buildSchedule(pl::SystemKind::Dapple,
                                           topo.numGpus(), 64, 2);
};

} // namespace

TEST(TrialCache, DeadGrantsDoNotChangeTheReport)
{
    // The gpt seed plan swaps and recomputes but D2D-swaps nothing, so
    // the grants the planner's re-map adds to it are dead, and the
    // re-map trial replays the seed.  Fresh recorded runs of a
    // D2D-free plan with a re-map scan's grants (over its own peaks,
    // 2 GB desired per stage), with other grants and with none render
    // the same report bytes.
    GptJob job;
    cp::CompactionPlan none = pn::gpuCpuSwapAllPlan(job.part);
    auto seed =
        rt::runTraining(job.topo, job.mdl, job.part, job.sched, none);
    ASSERT_FALSE(seed.oom);
    std::vector<mu::Bytes> demand, desire;
    for (const auto &gpu : seed.gpus) {
        demand.push_back(gpu.peak);
        desire.push_back(2 * mu::kGB);
    }
    pn::MappingResult mapping = pn::searchDeviceMapping(
        job.topo, demand,
        pn::profileJob(job.topo, job.mdl, job.part, job.sched)
            .usableCapacity,
        {}, desire);
    ASSERT_FALSE(mapping.grants.empty());

    none.stageToGpu = mapping.stageToGpu;
    cp::CompactionPlan scanned = none;
    scanned.spareGrants = mapping.grants;
    cp::CompactionPlan other = none;
    other.spareGrants[7] = {{0, 4 * mu::kGB}, {1, 2 * mu::kGB}};

    rt::ExecutorConfig cfg;
    cfg.record = true;
    auto bytes = [&](const cp::CompactionPlan &plan) {
        return mpress::testing::renderReportBytes(rt::runTraining(
            job.topo, job.mdl, job.part, job.sched, plan, cfg));
    };
    const std::string want = bytes(none);
    EXPECT_EQ(bytes(scanned), want);
    EXPECT_EQ(bytes(other), want);
    rt::ExecutorConfig trial;
    EXPECT_EQ(pn::SearchDriver::trialKeyBinary(scanned, trial, ""),
              pn::SearchDriver::trialKeyBinary(none, trial, ""));
}

TEST(TrialCache, GptRemapTrialHitsTheSeedEntry)
{
    // On Fig. 8's job the re-map trial differs from the seed only in
    // dead grants, so it is a cache hit: 20 DES trials and 1 hit at
    // any thread count, with the same plan as without the cache.
    GptJob job;
    pn::PlannerConfig serial;
    serial.threads = 1;
    pn::PlannerConfig uncached = serial;
    uncached.trialCache = false;
    const pn::PlannerConfig configs[] = {serial, pn::PlannerConfig{}};
    auto reference = pn::planMPress(job.topo, job.mdl, job.part,
                                    job.sched, uncached);
    for (const pn::PlannerConfig &cfg : configs) {
        SCOPED_TRACE(cfg.threads);
        auto result =
            pn::planMPress(job.topo, job.mdl, job.part, job.sched, cfg);
        ASSERT_TRUE(result.feasible);
        EXPECT_EQ(result.trialCacheHits, 1u);
        EXPECT_EQ(result.trialCacheMisses, 20u);
        EXPECT_EQ(cp::planToText(result.plan),
                  cp::planToText(reference.plan));
        EXPECT_EQ(mpress::testing::renderReportBytes(result.finalReport),
                  mpress::testing::renderReportBytes(
                      reference.finalReport));
    }
}

TEST(TrialCache, ScenarioKeyCoversEventFields)
{
    fl::Scenario sc;
    sc.name = "link-loss";
    sc.seed = 11;
    fl::FaultEvent ev;
    ev.kind = fl::EventKind::LinkDegrade;
    ev.start = 100;
    ev.end = 900;
    ev.gpu = 2;
    ev.factor = 0.25;
    sc.events.push_back(ev);

    auto base = pn::SearchDriver::scenarioKey(sc);
    EXPECT_EQ(pn::SearchDriver::scenarioKey(sc), base);

    fl::Scenario seeded = sc;
    seeded.seed = 12;
    EXPECT_NE(pn::SearchDriver::scenarioKey(seeded), base);

    fl::Scenario shifted = sc;
    shifted.events[0].end = 901;
    EXPECT_NE(pn::SearchDriver::scenarioKey(shifted), base);

    fl::Scenario scaled = sc;
    scaled.events[0].factor = 0.250000001;
    EXPECT_NE(pn::SearchDriver::scenarioKey(scaled), base);
}

// ---------------------------------------------------------------
// Trial arena reuse
// ---------------------------------------------------------------

TEST(WorkerArena, SteadyStateReplayDoesNotGrowAllocations)
{
    // The driver's topology + executor trial arenas exist so repeated
    // trial evaluation replays into retained slabs.  Counted with
    // the global operator-new hook: the first (cold) evaluation
    // builds the arenas, after which a warm evaluation must never
    // allocate more than the previous warm one.
    Job job("bert-0.35b", 2);
    mu::ThreadPool pool(1);
    pn::SearchDriver driver(job.topo, job.mdl, job.part, job.sched,
                            {}, pool);
    driver.setCacheEnabled(false);  // count emulation, not memoization

    auto plan = recomputeAll(job.part);
    auto count_eval = [&] {
        std::uint64_t before =
            g_alloc_calls.load(std::memory_order_relaxed);
        driver.evaluateOne(plan);
        return g_alloc_calls.load(std::memory_order_relaxed) -
               before;
    };

    std::uint64_t cold = count_eval();
    std::uint64_t warm1 = count_eval();
    std::uint64_t warm2 = count_eval();
    std::uint64_t warm3 = count_eval();

    // Cold pays for the arena's topology clone + engine slabs.
    EXPECT_LT(warm1, cold);
    // Steady state: replaying the same trial into retained slabs has
    // a fixed allocation profile.
    EXPECT_LE(warm2, warm1);
    EXPECT_LE(warm3, warm2);
}

TEST(WorkerArena, SteadyStateHoldsOnTwoNodeCluster)
{
    // A cluster fabric multiplies the per-trial stream count (16
    // GPUs' worth of port pools plus the per-node NIC pools), so
    // rebuilding it per trial would dominate the allocation profile.
    // The arena retains the fabric keyed on its stable topology
    // copy: warm replays must not allocate more than the
    // previous warm one, same contract as the single-node test.
    hw::Topology topo = cl::buildCluster(cl::cluster2xDgx2());
    ASSERT_EQ(topo.numGpus(), 16);
    ASSERT_TRUE(topo.multiNodeFabric());
    mm::TransformerModel mdl(mm::presetByName("bert-0.35b"), 12);
    mp::Partition part =
        mp::partitionModel(mdl, 16, mp::Strategy::ComputeBalanced);
    pl::Schedule sched =
        pl::buildSchedule(pl::SystemKind::PipeDream, 16, 1, 2);
    mu::ThreadPool pool(1);
    pn::SearchDriver driver(topo, mdl, part, sched, {}, pool);
    driver.setCacheEnabled(false);

    auto plan = recomputeAll(part);
    auto count_eval = [&] {
        std::uint64_t before =
            g_alloc_calls.load(std::memory_order_relaxed);
        driver.evaluateOne(plan);
        return g_alloc_calls.load(std::memory_order_relaxed) -
               before;
    };

    std::uint64_t cold = count_eval();
    std::uint64_t warm1 = count_eval();
    std::uint64_t warm2 = count_eval();
    std::uint64_t warm3 = count_eval();

    EXPECT_LT(warm1, cold);
    EXPECT_LE(warm2, warm1);
    EXPECT_LE(warm3, warm2);
}

namespace {

/** Heap allocations of one warm trial of @p plan: the executor run
 *  an uncached SearchDriver trial makes on its trial arena.  The
 *  first run builds the arena's engine and fabric, the second is
 *  counted.  The driver's verifyPlan() call is left out: it walks
 *  every task, so its allocations grow with the window by design. */
std::uint64_t
warmTrialAllocations(const hw::Topology &topo,
                     const mm::TransformerModel &mdl,
                     const mp::Partition &part, const pl::Schedule &sched,
                     const cp::CompactionPlan &plan,
                     rt::TrainingReport *report)
{
    rt::ExecutorArena arena;
    rt::ExecutorConfig cfg;
    cfg.arena = &arena;
    rt::runTraining(topo, mdl, part, sched, plan, cfg);
    std::uint64_t before = g_alloc_calls.load(std::memory_order_relaxed);
    *report = rt::runTraining(topo, mdl, part, sched, plan, cfg);
    return g_alloc_calls.load(std::memory_order_relaxed) - before;
}

} // namespace

TEST(WorkerArena, WarmGptTrialHeapStaysSmall)
{
    // Concurrent trials multiply a trial's transient heap, so a warm
    // trial's peak live heap above its retained arena is pinned.
    // Fig. 8's job (gpt-25.5b on DGX-2 under DAPPLE, microbatch 2,
    // 64-microbatch minibatches, 2 minibatches) tracks 10,496 (layer,
    // microbatch) instances; at 32 bytes each that table alone was
    // 335,872 bytes.  The bound is recorded from a 3-byte instance.
    hw::Topology topo = hw::Topology::dgx2A100();
    mm::TransformerModel mdl(mm::presetByName("gpt-25.5b"), 2);
    mp::Partition part = mp::partitionModel(
        mdl, topo.numGpus(), mp::Strategy::ComputeBalanced);
    pl::Schedule sched = pl::buildSchedule(pl::SystemKind::Dapple,
                                           topo.numGpus(), 64, 2);
    ASSERT_EQ(mdl.numLayers() *
                  static_cast<std::size_t>(sched.totalMicrobatches()),
              10496u);
    cp::CompactionPlan plan = pn::gpuCpuSwapAllPlan(part);
    rt::ExecutorArena arena;
    rt::ExecutorConfig cfg;
    cfg.failFastOnOom = true;
    cfg.arena = &arena;
    rt::runTraining(topo, mdl, part, sched, plan, cfg);

    const std::int64_t base =
        g_live_bytes.load(std::memory_order_relaxed);
    g_peak_bytes.store(base, std::memory_order_relaxed);
    rt::TrainingReport report =
        rt::runTraining(topo, mdl, part, sched, plan, cfg);
    const std::int64_t transient =
        g_peak_bytes.load(std::memory_order_relaxed) - base;
    ASSERT_FALSE(report.oom);
    // 52,936 bytes with GCC 12 / glibc, 31,488 of them the table.
    EXPECT_LT(transient, 80000);
}

TEST(WorkerArena, SwapPlanAllocationsDoNotGrowWithWindow)
{
    // Every planner trial runs the executor's swap path, so a warm
    // trial must allocate for its set-up only, never per swap, stripe
    // or backward task: replaying twice the minibatches of the same
    // plan makes exactly as many heap allocations.
    {
        // The DGX-2 switch-fabric plan: D2D swap-out from stages 0-1
        // over 12-lane stripes, GPU-CPU swap on stages 2-3.
        mpress::bench::SwitchFabricJob job;
        rt::TrainingReport two, four;
        std::uint64_t at2 = warmTrialAllocations(
            job.topo, job.mdl, job.part, job.sched, job.plan, &two);
        pl::Schedule longer =
            pl::buildSchedule(pl::SystemKind::Dapple, 8, 16, 4);
        std::uint64_t at4 = warmTrialAllocations(
            job.topo, job.mdl, job.part, longer, job.plan, &four);
        ASSERT_FALSE(two.oom);
        ASSERT_FALSE(four.oom);
        EXPECT_GT(two.savings.d2dSwap, 0);
        EXPECT_GT(two.savings.gpuCpuSwap, 0);
        EXPECT_EQ(at4, at2) << "switch-fabric plan";
    }
    {
        // A DGX-1 PipeDream plan that GPU-CPU-swaps every layer and
        // offloads every stage's weight stash: the stage-to-stage
        // hand-offs pick from the pair-lane pools and every backward
        // task fetches its weight version from the host.
        hw::Topology topo = hw::Topology::dgx1V100();
        mm::TransformerModel mdl(mm::presetByName("bert-0.35b"), 12);
        mp::Partition part =
            mp::partitionModel(mdl, 8, mp::Strategy::ComputeBalanced);
        cp::CompactionPlan plan = swapAll(part);
        plan.offloadWeightStash.assign(8, true);
        rt::TrainingReport two, four;
        std::uint64_t at2 = warmTrialAllocations(
            topo, mdl, part,
            pl::buildSchedule(pl::SystemKind::PipeDream, 8, 8, 2), plan,
            &two);
        std::uint64_t at4 = warmTrialAllocations(
            topo, mdl, part,
            pl::buildSchedule(pl::SystemKind::PipeDream, 8, 8, 4), plan,
            &four);
        ASSERT_FALSE(two.oom);
        ASSERT_FALSE(four.oom);
        EXPECT_GT(two.savings.gpuCpuSwap, 0);
        EXPECT_EQ(at4, at2) << "PipeDream stash-offload plan";
    }
}

TEST(TrialCache, PlanResultReportsCacheCounters)
{
    // 24 in-flight minibatches force real compaction work, so the
    // refinement ladders repeat trials and the cache sees hits.
    Job job("bert-1.67b", 24);

    pn::PlannerConfig on;
    on.threads = 1;
    auto with_cache =
        pn::planMPress(job.topo, job.mdl, job.part, job.sched, on);

    pn::PlannerConfig off = on;
    off.trialCache = false;
    auto without =
        pn::planMPress(job.topo, job.mdl, job.part, job.sched, off);

    EXPECT_GT(with_cache.trialCacheMisses, 0u);
    EXPECT_EQ(without.trialCacheHits, 0u);
    EXPECT_EQ(without.trialCacheMisses, 0u);

    // The cache must never change the outcome, only the wall clock.
    EXPECT_EQ(cp::planToText(with_cache.plan),
              cp::planToText(without.plan));
    EXPECT_EQ(with_cache.feasible, without.feasible);
    EXPECT_EQ(with_cache.finalReport.makespan,
              without.finalReport.makespan);
    EXPECT_EQ(with_cache.iterations, without.iterations);
}

// ---------------------------------------------------------------
// Shared trial cache (the daemon's resident cross-request cache)
// ---------------------------------------------------------------

TEST(SharedTrialCache, SecondDriverOnTheSameJobHits)
{
    Job job("bert-1.67b", 24);
    auto plan = recomputeAll(job.part);
    pn::TrialCache shared;

    mu::ThreadPool pool(1);
    pn::SearchDriver first(job.topo, job.mdl, job.part, job.sched,
                           {}, pool);
    first.setSharedCache(&shared);
    auto a = first.evaluateOne(plan);
    EXPECT_EQ(first.cacheStats().misses, 1u);
    EXPECT_EQ(shared.size(), 1u);

    // A brand-new driver for the same job — the daemon's "second
    // request" — must be served from the shared cache.
    pn::SearchDriver second(job.topo, job.mdl, job.part, job.sched,
                            {}, pool);
    second.setSharedCache(&shared);
    auto b = second.evaluateOne(plan);
    EXPECT_EQ(second.cacheStats().hits, 1u);
    EXPECT_EQ(second.cacheStats().misses, 0u);
    EXPECT_EQ(a.report.makespan, b.report.makespan);
    EXPECT_EQ(a.report.samplesPerSec, b.report.samplesPerSec);
    EXPECT_EQ(a.verified, b.verified);

    // Aggregate counters cover both drivers.
    EXPECT_EQ(shared.stats().hits, 1u);
    EXPECT_EQ(shared.stats().misses, 1u);
}

TEST(SharedTrialCache, DistinctJobsDoNotCollide)
{
    // Identical model/partition/plan but a different schedule (24
    // vs 12 in-flight minibatches) — the job key must keep the
    // entries apart, or the second job would read the first job's
    // numbers.
    Job deep("bert-1.67b", 24);
    Job shallow("bert-1.67b", 12);
    auto plan = recomputeAll(deep.part);
    pn::TrialCache shared;

    mu::ThreadPool pool(1);
    pn::SearchDriver ddrv(deep.topo, deep.mdl, deep.part, deep.sched,
                          {}, pool);
    ddrv.setSharedCache(&shared);
    auto a = ddrv.evaluateOne(plan);

    pn::SearchDriver sdrv(shallow.topo, shallow.mdl, shallow.part,
                          shallow.sched, {}, pool);
    sdrv.setSharedCache(&shared);
    auto b = sdrv.evaluateOne(plan);

    EXPECT_EQ(sdrv.cacheStats().hits, 0u);
    EXPECT_EQ(sdrv.cacheStats().misses, 1u);
    EXPECT_EQ(shared.size(), 2u);
    // Fewer in-flight minibatches -> different emulated makespan.
    EXPECT_NE(a.report.makespan, b.report.makespan);

    // Identical cluster jobs that differ only in the NIC tier.  Both
    // topologies carry the same name, so only the fabric content in
    // the job key keeps the ib-ndr job from reading the roce100
    // job's report.
    auto with_nic = [](const char *nic) {
        cl::ClusterSpec spec = cl::cluster2xDgx2();
        spec.nicPreset = nic;
        return cl::buildCluster(spec);
    };
    hw::Topology roce = with_nic("roce100");
    hw::Topology ndr = with_nic("ib-ndr");
    ASSERT_EQ(roce.name(), ndr.name());
    mm::TransformerModel gpt(mm::presetByName("gpt-5.3b"), 2);
    mp::Partition gpart =
        mp::partitionModel(gpt, 16, mp::Strategy::ComputeBalanced);
    pl::Schedule dapple =
        pl::buildSchedule(pl::SystemKind::Dapple, 16, 16, 2);
    auto gplan = pn::recomputeAllPlan(gpart);
    pn::TrialCache nic_cache;

    pn::SearchDriver rdrv(roce, gpt, gpart, dapple, {}, pool);
    rdrv.setSharedCache(&nic_cache);
    auto on_roce = rdrv.evaluateOne(gplan);

    pn::SearchDriver ndrv(ndr, gpt, gpart, dapple, {}, pool);
    ndrv.setSharedCache(&nic_cache);
    auto on_ndr = ndrv.evaluateOne(gplan);

    pn::SearchDriver fresh(ndr, gpt, gpart, dapple, {}, pool);
    fresh.setCacheEnabled(false);
    auto ndr_alone = fresh.evaluateOne(gplan);

    EXPECT_EQ(ndrv.cacheStats().hits, 0u);
    EXPECT_EQ(nic_cache.size(), 2u);
    ASSERT_FALSE(on_ndr.report.oom);
    EXPECT_EQ(on_ndr.report.samplesPerSec,
              ndr_alone.report.samplesPerSec);
    EXPECT_NE(on_ndr.report.samplesPerSec,
              on_roce.report.samplesPerSec);
}

namespace {

/** One ClusterSpec NIC knob moved off the 2x-dgx2 preset. */
struct NicVariant
{
    const char *field;
    void (*apply)(cl::ClusterSpec &);
};

std::ostream &
operator<<(std::ostream &os, const NicVariant &v)
{
    return os << v.field;
}

class NicJobKey : public ::testing::TestWithParam<NicVariant>
{};

} // namespace

TEST_P(NicJobKey, ChangedFieldGetsItsOwnCacheEntries)
{
    // buildCluster names both topologies "2x<node>", so only the
    // fabric content in the job key can tell the two jobs apart.
    cl::ClusterSpec base_spec = cl::cluster2xDgx2();
    cl::ClusterSpec changed_spec = base_spec;
    GetParam().apply(changed_spec);
    hw::Topology base = cl::buildCluster(base_spec);
    hw::Topology changed = cl::buildCluster(changed_spec);
    ASSERT_EQ(base.name(), changed.name());

    mm::TransformerModel gpt(mm::presetByName("gpt-5.3b"), 2);
    mp::Partition part =
        mp::partitionModel(gpt, 16, mp::Strategy::ComputeBalanced);
    pl::Schedule sched =
        pl::buildSchedule(pl::SystemKind::Dapple, 16, 16, 2);
    auto plan = pn::recomputeAllPlan(part);
    mu::ThreadPool pool(1);
    pn::TrialCache shared;

    pn::SearchDriver bdrv(base, gpt, part, sched, {}, pool);
    bdrv.setSharedCache(&shared);
    bdrv.evaluateOne(plan);

    pn::SearchDriver cdrv(changed, gpt, part, sched, {}, pool);
    cdrv.setSharedCache(&shared);
    auto on_changed = cdrv.evaluateOne(plan);

    pn::SearchDriver fresh(changed, gpt, part, sched, {}, pool);
    fresh.setCacheEnabled(false);
    auto changed_alone = fresh.evaluateOne(plan);

    EXPECT_NE(cdrv.jobKey(), bdrv.jobKey());
    // Rebuilding the same spec keys the same job.
    pn::SearchDriver again(cl::buildCluster(changed_spec), gpt, part,
                           sched, {}, pool);
    EXPECT_EQ(again.jobKey(), cdrv.jobKey());

    EXPECT_EQ(cdrv.cacheStats().hits, 0u);
    EXPECT_EQ(shared.size(), 2u);
    EXPECT_EQ(on_changed.report.makespan,
              changed_alone.report.makespan);
    EXPECT_EQ(on_changed.report.samplesPerSec,
              changed_alone.report.samplesPerSec);
}

INSTANTIATE_TEST_SUITE_P(
    SharedTrialCache, NicJobKey,
    ::testing::Values(
        NicVariant{"nicPreset",
                   [](cl::ClusterSpec &s) { s.nicPreset = "roce100"; }},
        NicVariant{"nicGbps",
                   [](cl::ClusterSpec &s) { s.nicGbps = 25.0; }},
        NicVariant{"nicLatencyUs",
                   [](cl::ClusterSpec &s) { s.nicLatencyUs = 80.0; }},
        NicVariant{"nicsPerNode",
                   [](cl::ClusterSpec &s) { s.nicsPerNode = 2; }}),
    [](const ::testing::TestParamInfo<NicVariant> &info) {
        return std::string(info.param.field);
    });

TEST(SharedTrialCache, PrewarmedPlanMPressIsByteIdentical)
{
    // The daemon's acceptance contract at the library level: a
    // pre-warmed shared cache changes only the wall clock, never the
    // plan.  24 in-flight minibatches force the refine loop (the
    // trivial job plans in zero iterations and never touches the
    // cache).
    Job job("bert-1.67b", 24);
    pn::TrialCache shared;
    pn::PlannerConfig cfg;
    cfg.sharedCache = &shared;

    auto cold = pn::planMPress(job.topo, job.mdl, job.part,
                               job.sched, cfg);
    ASSERT_TRUE(cold.feasible);
    EXPECT_GT(cold.trialCacheMisses, 0u);
    EXPECT_GT(shared.size(), 0u);

    auto warm = pn::planMPress(job.topo, job.mdl, job.part,
                               job.sched, cfg);
    ASSERT_TRUE(warm.feasible);
    EXPECT_GT(warm.trialCacheHits, 0u);
    EXPECT_EQ(warm.trialCacheMisses, 0u);
    EXPECT_EQ(cp::planToText(warm.plan), cp::planToText(cold.plan));
    EXPECT_EQ(warm.finalReport.samplesPerSec,
              cold.finalReport.samplesPerSec);
    EXPECT_EQ(warm.iterations, cold.iterations);

    // And against a run with no shared cache at all.
    auto lone = pn::planMPress(job.topo, job.mdl, job.part,
                               job.sched, {});
    EXPECT_EQ(cp::planToText(lone.plan), cp::planToText(cold.plan));
}

TEST(SharedTrialCache, ClearDropsEntriesButKeepsCounters)
{
    Job job("bert-1.67b", 24);
    auto plan = swapAll(job.part);
    pn::TrialCache shared;

    mu::ThreadPool pool(1);
    pn::SearchDriver driver(job.topo, job.mdl, job.part, job.sched,
                            {}, pool);
    driver.setSharedCache(&shared);
    driver.evaluateOne(plan);
    ASSERT_EQ(shared.size(), 1u);

    shared.clear();
    EXPECT_EQ(shared.size(), 0u);
    EXPECT_EQ(shared.stats().misses, 1u);

    driver.evaluateOne(plan);  // re-emulates after the purge
    EXPECT_EQ(shared.stats().misses, 2u);
    EXPECT_EQ(shared.stats().hits, 0u);
}
