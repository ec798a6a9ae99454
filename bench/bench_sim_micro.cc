/**
 * @file
 * google-benchmark microbenchmarks for the engine primitives that
 * every experiment leans on: event queue throughput, stream
 * submission, stripe-plan construction, schedule generation,
 * partitioning, and full end-to-end simulated iterations.
 *
 * The event-queue benches cover the three shapes that matter:
 *  - BM_EventQueue: captureless closures (std::function's best case —
 *    a floor, not the representative workload)
 *  - BM_EventQueueCapture48: a 48-byte capture, the size of the
 *    executor's striped-swap closures, which the old queue
 *    heap-allocated on every schedule
 *  - BM_EventChainSteady: long-lived engine with self-rescheduling
 *    chains — the steady state of a training emulation, where pooled
 *    slots recycle through the freelist and allocs/event must be ~0
 *
 * Every run also tees its metrics into BENCH_sim.json (see
 * bench::BenchReport) so tools/check.sh can gate on regressions.
 *
 * This binary replaces the global operator new to count heap
 * allocations exactly (BM_FullIterationSwitchFabric's
 * allocs_per_run), nothrow variants included, as
 * tests/search_test.cc does.  The replacements stay out of line:
 * inlined, GCC would see their malloc and free at the call sites and
 * report them as mismatched with the operators.
 */

#include <benchmark/benchmark.h>

#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <new>

namespace {
std::atomic<std::uint64_t> g_alloc_calls{0};
} // namespace

[[gnu::noinline]] void *
operator new(std::size_t n)
{
    g_alloc_calls.fetch_add(1, std::memory_order_relaxed);
    if (void *p = std::malloc(n ? n : 1))
        return p;
    throw std::bad_alloc();
}

[[gnu::noinline]] void *
operator new[](std::size_t n)
{
    return ::operator new(n);
}

[[gnu::noinline]] void *
operator new(std::size_t n, const std::nothrow_t &) noexcept
{
    g_alloc_calls.fetch_add(1, std::memory_order_relaxed);
    return std::malloc(n ? n : 1);
}

[[gnu::noinline]] void *
operator new[](std::size_t n, const std::nothrow_t &tag) noexcept
{
    return ::operator new(n, tag);
}

[[gnu::noinline]] void
operator delete(void *p) noexcept
{
    std::free(p);
}

[[gnu::noinline]] void
operator delete[](void *p) noexcept
{
    std::free(p);
}

[[gnu::noinline]] void
operator delete(void *p, std::size_t) noexcept
{
    std::free(p);
}

[[gnu::noinline]] void
operator delete[](void *p, std::size_t) noexcept
{
    std::free(p);
}

[[gnu::noinline]] void
operator delete(void *p, const std::nothrow_t &) noexcept
{
    std::free(p);
}

[[gnu::noinline]] void
operator delete[](void *p, const std::nothrow_t &) noexcept
{
    std::free(p);
}

#include "bench/common.hh"
#include "compaction/striping.hh"
#include "hw/fabric.hh"
#include "model/model.hh"
#include "partition/partition.hh"
#include "pipeline/schedule.hh"
#include "planner/mapper.hh"
#include "runtime/executor.hh"
#include "sim/engine.hh"
#include "util/inline_function.hh"

namespace cp = mpress::compaction;
namespace hw = mpress::hw;
namespace mm = mpress::model;
namespace mp = mpress::partition;
namespace pl = mpress::pipeline;
namespace pn = mpress::planner;
namespace rt = mpress::runtime;
namespace mu = mpress::util;
using mpress::sim::Engine;
using mpress::sim::Stream;

namespace {

/** state.counters entry for heap spills per event since @p allocs0. */
void
recordAllocsPerEvent(benchmark::State &state, std::uint64_t allocs0,
                     double events_per_iteration)
{
    auto spills = static_cast<double>(mu::callableHeapAllocs() -
                                      allocs0);
    double events = static_cast<double>(state.iterations()) *
                    events_per_iteration;
    state.counters["allocs_per_event"] =
        benchmark::Counter(events > 0 ? spills / events : 0);
}

} // namespace

static void
BM_EventQueue(benchmark::State &state)
{
    const int n = static_cast<int>(state.range(0));
    std::uint64_t allocs0 = mu::callableHeapAllocs();
    for (auto _ : state) {
        Engine engine;
        for (int i = 0; i < n; ++i)
            engine.schedule(i, [] {});
        engine.run();
        benchmark::DoNotOptimize(engine.eventsExecuted());
    }
    state.SetItemsProcessed(state.iterations() * n);
    recordAllocsPerEvent(state, allocs0, n);
}
BENCHMARK(BM_EventQueue)->Arg(1000)->Arg(100000);

static void
BM_EventQueueCapture48(benchmark::State &state)
{
    const int n = static_cast<int>(state.range(0));
    std::uint64_t a = 1, b = 2, c = 3, d = 4, e = 5;
    std::uint64_t sink = 0;
    std::uint64_t *s = &sink;
    std::uint64_t allocs0 = mu::callableHeapAllocs();
    for (auto _ : state) {
        Engine engine;
        for (int i = 0; i < n; ++i)
            engine.schedule(i, [=] { *s += a + b + c + d + e; });
        engine.run();
        benchmark::DoNotOptimize(sink);
    }
    state.SetItemsProcessed(state.iterations() * n);
    recordAllocsPerEvent(state, allocs0, n);
}
BENCHMARK(BM_EventQueueCapture48)->Arg(1000)->Arg(100000);

namespace {

/** Self-rescheduling 40-byte closure: one hop per event, like the
 *  executor's retry/continuation chains. */
struct Hopper
{
    Engine *eng;
    std::uint64_t *sink;
    std::uint64_t salt1, salt2;
    int left;
    void
    operator()()
    {
        *sink += salt1 + salt2;
        if (--left > 0)
            eng->scheduleIn(1, *this);
    }
};

} // namespace

static void
BM_EventChainSteady(benchmark::State &state)
{
    const int chains = static_cast<int>(state.range(0));
    const int hops = 256;
    Engine engine;  // long-lived across iterations: the steady state
    std::uint64_t sink = 0;
    std::uint64_t allocs0 = mu::callableHeapAllocs();
    for (auto _ : state) {
        for (int c = 0; c < chains; ++c) {
            engine.scheduleIn(
                1, Hopper{&engine, &sink, std::uint64_t(c), 3, hops});
        }
        engine.run();
    }
    benchmark::DoNotOptimize(sink);
    state.SetItemsProcessed(state.iterations() * chains * hops);
    recordAllocsPerEvent(state, allocs0,
                         static_cast<double>(chains) * hops);
    // Steady state must plateau: ~2 slots per live chain (a hop's
    // slot recycles right after it reschedules into a fresh one).
    state.counters["pool_slots"] =
        benchmark::Counter(static_cast<double>(engine.poolSlots()));
}
BENCHMARK(BM_EventChainSteady)->Arg(4)->Arg(64);

static void
BM_StreamChain(benchmark::State &state)
{
    const int n = static_cast<int>(state.range(0));
    std::uint64_t allocs0 = mu::callableHeapAllocs();
    for (auto _ : state) {
        Engine engine;
        Stream stream(engine, "bench");
        engine.schedule(0, [&] {
            for (int i = 0; i < n; ++i)
                stream.submit(10, {});
        });
        engine.run();
        benchmark::DoNotOptimize(stream.busyTime());
    }
    state.SetItemsProcessed(state.iterations() * n);
    recordAllocsPerEvent(state, allocs0, n);
}
BENCHMARK(BM_StreamChain)->Arg(10000);

static void
BM_StripePlan(benchmark::State &state)
{
    auto topo = hw::Topology::dgx1V100();
    std::vector<cp::SpareGrant> grants = {
        {1, 4 * mu::kGB}, {3, 8 * mu::kGB}, {4, 8 * mu::kGB}};
    for (auto _ : state) {
        auto plan = cp::makeStripePlan(topo, 0, grants,
                                       216 * mu::kMB);
        benchmark::DoNotOptimize(plan.totalBytes());
    }
}
BENCHMARK(BM_StripePlan);

static void
BM_NodeWindows(benchmark::State &state)
{
    // Window bookkeeping of a node-partitioned engine: a ring of
    // nodes passing one message per lookahead, so every window holds
    // a single trivial event — the per-window cost at its worst.
    // windows_per_run is exact on any host.
    const int nodes = static_cast<int>(state.range(0));
    const int hops = 2000;
    Engine eng;
    eng.partition(nodes, 1000);
    std::uint64_t windows = 0;
    for (auto _ : state) {
        struct Hopper
        {
            Engine &e;
            int nodes;
            int remaining;
            void hop(int src)
            {
                if (remaining-- <= 0)
                    return;
                int dst = (src + 1) % nodes;
                e.post(dst, [this, dst] { hop(dst); });
            }
        } hopper{eng, nodes, hops};
        eng.scheduleOn(0, 0, [&hopper] { hopper.hop(0); });
        eng.run();
        windows += eng.windows();
        eng.reset();
    }
    state.counters["windows_per_run"] = benchmark::Counter(
        state.iterations() > 0
            ? static_cast<double>(windows) /
                  static_cast<double>(state.iterations())
            : 0);
}
BENCHMARK(BM_NodeWindows)->Arg(2)->Arg(8);

static void
BM_ScheduleGeneration(benchmark::State &state)
{
    for (auto _ : state) {
        auto sched = pl::buildPipeDream(8, 8, 4);
        benchmark::DoNotOptimize(sched.tasks.size());
    }
}
BENCHMARK(BM_ScheduleGeneration);

static void
BM_Partitioning(benchmark::State &state)
{
    auto cfg = mm::presetByName("gpt-25.5b");
    mm::TransformerModel mdl(cfg, 2);
    for (auto _ : state) {
        auto part = mp::partitionModel(
            mdl, 8, mp::Strategy::ComputeBalanced);
        benchmark::DoNotOptimize(part.numStages());
    }
}
BENCHMARK(BM_Partitioning);

static void
BM_MappingSearch(benchmark::State &state)
{
    // The typical DGX-1 demand profile of bench_mapper_micro.  The
    // placement counts are exact on any host, so tools/check.sh gates
    // placements_evaluated against the committed count: more means a
    // bound of the scan got weaker.
    auto topo = hw::Topology::dgx1V100();
    std::vector<mu::Bytes> demand = {
        45 * mu::kGB, 38 * mu::kGB, 31 * mu::kGB, 25 * mu::kGB,
        19 * mu::kGB, 14 * mu::kGB, 9 * mu::kGB, 4 * mu::kGB};
    pn::MappingResult result;
    for (auto _ : state) {
        result = pn::searchDeviceMapping(topo, demand, 28 * mu::kGB);
        benchmark::DoNotOptimize(result.score);
    }
    state.counters["placements_evaluated"] =
        benchmark::Counter(static_cast<double>(result.evaluated));
    state.counters["placements_pruned"] =
        benchmark::Counter(static_cast<double>(result.pruned));
}
BENCHMARK(BM_MappingSearch);

static void
BM_FullIteration(benchmark::State &state)
{
    auto topo = hw::Topology::dgx1V100();
    auto cfg = mm::presetByName("bert-0.35b");
    mm::TransformerModel mdl(cfg, 4);
    auto part = mp::partitionModel(mdl, 8,
                                   mp::Strategy::ComputeBalanced);
    auto sched = pl::buildPipeDream(8, 4, 2);
    for (auto _ : state) {
        auto report = rt::runTraining(topo, mdl, part, sched, {});
        benchmark::DoNotOptimize(report.makespan);
    }
}
BENCHMARK(BM_FullIteration);

static void
BM_FullIterationObserved(benchmark::State &state)
{
    // Same workload with the observability layer fully on; the gap
    // to BM_FullIteration is the recording overhead.
    auto topo = hw::Topology::dgx1V100();
    auto cfg = mm::presetByName("bert-0.35b");
    mm::TransformerModel mdl(cfg, 4);
    auto part = mp::partitionModel(mdl, 8,
                                   mp::Strategy::ComputeBalanced);
    auto sched = pl::buildPipeDream(8, 4, 2);
    rt::ExecutorConfig ec;
    ec.record = true;
    for (auto _ : state) {
        auto report = rt::runTraining(topo, mdl, part, sched, {}, ec);
        benchmark::DoNotOptimize(
            report.observability.utilization.channels().size());
    }
}
BENCHMARK(BM_FullIterationObserved);

static void
BM_FullIterationSwitchFabric(benchmark::State &state)
{
    // The fixed D2D-plus-swap plan on the DGX-2 switch fabric (the
    // run tests/golden_test.cc pins), replayed on a reused arena the
    // way planner trials run.  Unlike BM_FullIteration's empty DGX-1
    // plan it exercises 12-lane striped transfers and per-instance
    // swap state.  events_per_run and allocs_per_run (heap
    // allocations of one warm replay, counted after the timed loop)
    // are exact and host-independent, so tools/check.sh gates both
    // against the committed counts.
    mpress::bench::SwitchFabricJob job;
    rt::ExecutorArena arena;
    rt::ExecutorConfig ec;
    ec.arena = &arena;
    std::uint64_t events = 0;
    for (auto _ : state) {
        auto report = rt::runTraining(job.topo, job.mdl, job.part,
                                      job.sched, job.plan, ec);
        events = report.shardStats[0].events;
        benchmark::DoNotOptimize(report.makespan);
    }
    const std::uint64_t allocs0 =
        g_alloc_calls.load(std::memory_order_relaxed);
    {
        auto report = rt::runTraining(job.topo, job.mdl, job.part,
                                      job.sched, job.plan, ec);
        benchmark::DoNotOptimize(report.makespan);
    }
    const std::uint64_t allocs =
        g_alloc_calls.load(std::memory_order_relaxed) - allocs0;
    state.counters["events_per_run"] =
        benchmark::Counter(static_cast<double>(events));
    state.counters["allocs_per_run"] =
        benchmark::Counter(static_cast<double>(allocs));
}
BENCHMARK(BM_FullIterationSwitchFabric);

namespace {

/** Console output as usual, plus a tee of every run's real time and
 *  counters into the machine-readable BENCH_sim.json. */
class TeeReporter : public benchmark::ConsoleReporter
{
  public:
    explicit TeeReporter(mpress::bench::BenchReport &report)
        : _report(report)
    {}

    void
    ReportRuns(const std::vector<Run> &runs) override
    {
        for (const Run &run : runs) {
            std::string name = run.benchmark_name();
            _report.set(name, "real_time_ns",
                        run.GetAdjustedRealTime());
            for (const auto &[counter, value] : run.counters)
                _report.set(name, counter, value);
        }
        ConsoleReporter::ReportRuns(runs);
    }

  private:
    mpress::bench::BenchReport &_report;
};

} // namespace

int
main(int argc, char **argv)
{
    benchmark::Initialize(&argc, argv);
    if (benchmark::ReportUnrecognizedArguments(argc, argv))
        return 1;
    mpress::bench::BenchReport report("sim");
    TeeReporter reporter(report);
    benchmark::RunSpecifiedBenchmarks(&reporter);
    if (!report.write()) {
        std::fprintf(stderr, "failed to write BENCH_sim.json\n");
        return 1;
    }
    return 0;
}
