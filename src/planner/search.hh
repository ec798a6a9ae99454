/**
 * @file
 * Concurrent emulator-feedback search for the planner (the hot path
 * of Fig. 5's refine loop).
 *
 * Every refinement step of planMPress() and every coarse variant of
 * its joint-flip stage costs one full emulated training iteration.
 * The trials of one step are independent — each is a pure function of
 * (topology, job, candidate plan) — so SearchDriver evaluates them
 * concurrently on a util::ThreadPool.  A running trial holds one of
 * the driver's trial arenas (a hw::Topology copy plus the executor's
 * retained engine and fabric), taken from an idle list and given back
 * when the trial ends, whichever thread runs it.  So no simulator
 * state is ever shared between threads, and the driver builds only as
 * many arenas as it runs trials at once: a wave of four trials holds
 * four arenas on any number of CPUs.
 *
 * Because trials are pure, their reports memoize: the driver keeps a
 * cache keyed by a 64-bit FNV-1a signature of (job, plan, executor
 * config, scenario id), with the full key bytes stored to make hash
 * collisions harmless.  Repeated plan variants across
 * flip-batch ladders, coarse-variant batches and robustness replays
 * return the cached TrainingReport instead of re-emulating.  The cache
 * is invisible in the output by construction — a hit returns exactly
 * what the skipped run would have produced.  A batch probes the cache
 * in trial order and emulates each distinct key once, so its hits,
 * misses and DES work equal the serial loop's at every pool size.
 *
 * Static verification runs on every trial, hit or miss, after the
 * batch, through one verify::PlanVerifier per driver: the job's
 * schedule is checked once, when the driver is built, and a trial
 * pays only for its plan rules (a few microseconds), so its verified
 * flag equals verifyPlan(...).ok().
 *
 * Determinism contract: evaluate() returns outcomes in trial order
 * regardless of scheduling, and pickBest() breaks ties by the fixed
 * rule (higher measured throughput wins; equal throughput goes to the
 * lower trial index).  A search at any thread count therefore selects
 * the same trial as the serial threads=1 search, and the planner
 * emits a byte-identical serialized plan.
 *
 * Beyond trial scoring, the driver exposes a robustness-evaluation
 * mode: evaluateRobustness() replays one finished plan across a
 * matrix of fault scenarios (one emulator run per scenario, fanned
 * out on the same pool) and reduces the degraded throughputs to
 * deterministic nearest-rank percentiles.  Planning trials themselves
 * always run fault-free and unrecorded — the ctor strips
 * ExecutorConfig::faults and ExecutorConfig::record — so fault
 * injection never perturbs plan selection and no trial pays for a
 * trace.
 *
 * The grant-budget helpers live here too so the refinement gate and
 * its ledger arithmetic are unit-testable: admitFlipBatch() gates and
 * debits by the same quantity (a flip's full projected savings),
 * which keeps the remaining budget non-negative by construction.
 */

#ifndef MPRESS_PLANNER_SEARCH_HH
#define MPRESS_PLANNER_SEARCH_HH

#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "fault/scenario.hh"
#include "planner/mapper.hh"
#include "runtime/executor.hh"
#include "util/pool.hh"
#include "verify/verify.hh"

namespace mpress {
namespace planner {

/** Hit/miss counters of the driver's trial-report cache. */
struct TrialCacheStats
{
    std::uint64_t hits = 0;
    std::uint64_t misses = 0;
};

/**
 * Thread-safe memoization store for trial TrainingReports, keyed by a
 * 64-bit signature with the full key bytes kept as a collision guard
 * (equal hash + different key counts as a miss, so memoization can
 * never change a result).
 *
 * Historically this map lived inside one SearchDriver and died with
 * it.  As a standalone object it can be shared across drivers — and
 * therefore across planning *sessions*: mpress-serve keeps one
 * resident TrialCache so a request's trial emulations hit on the
 * work of every earlier request.  Sharing across different jobs is
 * safe because every driver prefixes its keys with a job content key
 * (see SearchDriver::jobKey()): two jobs that disagree on topology,
 * model, partition or schedule can never exchange entries.
 */
class TrialCache
{
  public:
    /** Copy the report for (@p sig, @p key) into @p out; false on
     *  miss (including a signature collision). */
    bool lookup(std::uint64_t sig, const std::string &key,
                runtime::TrainingReport *out) const;

    /** Store @p report under (@p sig, @p key).  The first entry for
     *  a signature wins; a concurrent duplicate (or a colliding
     *  signature) is dropped and its key simply keeps missing. */
    void insert(std::uint64_t sig, std::string key,
                const runtime::TrainingReport &report);

    /** Aggregate hit/miss counters across every sharing driver. */
    TrialCacheStats stats() const;

    /** Number of resident entries. */
    std::size_t size() const;

    /** Drop every entry (counters are kept). */
    void clear();

  private:
    struct Entry
    {
        std::string key;  ///< full key bytes (collision guard)
        runtime::TrainingReport report;
    };

    mutable std::mutex _mu;
    std::unordered_map<std::uint64_t, Entry> _map;
    mutable TrialCacheStats _stats;
};

/** Result of emulating + statically verifying one trial plan. */
struct TrialOutcome
{
    runtime::TrainingReport report;
    bool verified = false;

    /** Acceptance test shared by every refinement stage: the trial
     *  survived emulation, passed static verification and beat the
     *  baseline throughput by the configured margin. */
    bool
    accepted(double baseline_samples_per_sec,
             double accept_gain) const
    {
        return !report.oom && verified &&
               report.samplesPerSec >
                   baseline_samples_per_sec * (1.0 + accept_gain);
    }
};

/** Outcome of replaying one plan under one fault scenario. */
struct RobustnessRow
{
    std::string scenario;            ///< Scenario::name
    runtime::TrainingReport report;  ///< degraded run's report

    /** Degraded throughput over the healthy baseline's; 0 when the
     *  degraded run ends in OOM (an unsurvivable scenario scores as a
     *  total loss, not as "no data"). */
    double throughputRatio = 0.0;
};

/**
 * Robustness profile of one plan across a scenario matrix: the
 * fault-free baseline, one row per scenario (row i corresponds to
 * scenarios[i]), and deterministic nearest-rank percentiles of the
 * throughput ratio.  worst <= p10 <= p50 by construction.
 */
struct RobustnessResult
{
    runtime::TrainingReport baseline;
    std::vector<RobustnessRow> rows;
    double worst = 0.0;  ///< minimum throughput ratio
    double p10 = 0.0;    ///< 10th-percentile ratio (nearest rank)
    double p50 = 0.0;    ///< median ratio (nearest rank)
};

/**
 * Evaluates batches of candidate plans as concurrent emulator runs.
 *
 * The driver borrows the job description (model, partition, schedule)
 * and the pool; all are owned by the caller and must outlive it.  The
 * topology is copied once per trial arena (and reused across that
 * arena's trials) so concurrent engines never share a hardware
 * description object.
 */
class SearchDriver
{
  public:
    SearchDriver(const hw::Topology &topo,
                 const model::TransformerModel &mdl,
                 const partition::Partition &part,
                 const pipeline::Schedule &sched,
                 runtime::ExecutorConfig exec_cfg,
                 util::ThreadPool &pool);

    /** Emulate (through the trial cache) + verify every plan in
     *  @p trials concurrently.  Outcome i corresponds to trials[i]. */
    std::vector<TrialOutcome>
    evaluate(const std::vector<compaction::CompactionPlan> &trials);

    /** Convenience wrapper for a single plan (runs inline). */
    TrialOutcome evaluateOne(const compaction::CompactionPlan &plan);

    /**
     * Robustness-evaluation mode: replay @p plan once fault-free
     * (the baseline) and then once per scenario in @p scenarios,
     * concurrently on the pool, each run on its own topology copy
     * with the scenario injected via ExecutorConfig::faults.  The
     * degradation ladder stays enabled so a scenario's score reflects
     * the runtime's best recovery, not its first failure.
     *
     * Deterministic: rows are keyed by scenario index and the
     * percentiles are nearest-rank over the sorted ratios, so the
     * result is identical at any thread count.
     */
    RobustnessResult
    evaluateRobustness(const compaction::CompactionPlan &plan,
                       const std::vector<fault::Scenario> &scenarios);

    /**
     * Index of the best accepted trial, or -1 when none is accepted.
     * Fixed tie-break: highest samplesPerSec wins; exact ties go to
     * the lowest index.  Order-independent, hence thread-count
     * independent.
     */
    static int pickBest(const std::vector<TrialOutcome> &outcomes,
                        double baseline_samples_per_sec,
                        double accept_gain);

    /** Enable/disable trial-report memoization (default: enabled). */
    void setCacheEnabled(bool on) { _cacheEnabled = on; }

    /**
     * Memoize through @p cache (non-owning; must outlive the driver)
     * instead of this driver's private store.  Entries this driver
     * wrote earlier stay in the private store — switch before the
     * first trial.  A shared cache may serve many concurrent drivers
     * for different jobs: the jobKey() prefix keeps their entries
     * disjoint.  Null restores the private store.
     */
    void setSharedCache(TrialCache *cache);

    /** Cache hit/miss counters of THIS driver's probes (a shared
     *  cache's own stats() aggregate every driver), which keep
     *  PlanResult's attribution local to this search.  Call between
     *  batches. */
    TrialCacheStats cacheStats() const { return _stats; }

    /** Total executor-arena high-water releases across the trial
     *  arenas.  Call between batches. */
    std::uint64_t arenaShrinks() const;

    /**
     * Content key of this driver's job, prefixed to every
     * memoization key: topology (name, GPU count and spec capacity,
     * host/NVMe provisioning, fabric class, inter-node NIC tier),
     * model configuration + microbatch, partition stage boundaries,
     * and schedule shape.  Captures the whole preset- and
     * ClusterSpec-reachable configuration surface; a hand-built
     * topology that keeps a preset's name but disagrees only in its
     * NVLink lane matrix, or in a link's ramp or latency, should not
     * share a TrialCache across jobs.
     */
    const std::string &jobKey() const { return _jobKey; }

    /**
     * Memoization key of one trial within a job: the plan, the
     * executor-config fields that shape an emulation and the
     * scenario id ("" for fault-free trials), as tagged,
     * length-prefixed binary sections.  The plan's dead grants (those
     * of a GPU hosting no D2D-swapped class) are left out: no
     * emulation reads them.  Injective on everything else, so two
     * runs with equal keys emulate alike and the cached
     * TrainingReport is byte-identical to a re-run.  The cache keys
     * on jobKey() + this; the portfolio's best-first frontier uses it
     * to deduplicate candidate plans.
     */
    static std::string
    trialKeyBinary(const compaction::CompactionPlan &plan,
                   const runtime::ExecutorConfig &cfg,
                   std::string_view scenario_id);

    /** The executor config trials run under (scoring-pinned: no
     *  liveness, fail-fast, fault-free).  Key material for external
     *  deduplication via trialKeyBinary(). */
    const runtime::ExecutorConfig &trialConfig() const
    {
        return _execCfg;
    }

    /** The verifier every trial goes through; its check() equals
     *  verifyPlan() with default options. */
    const verify::PlanVerifier &verifier() const { return _verifier; }

    /** Content key of a fault scenario (name, seed, every event
     *  field) for robustness-replay memoization. */
    static std::string scenarioKey(const fault::Scenario &scenario);

  private:
    /** Reusable trial state: the topology copy plus the executor
     *  arena (DES engine slabs and the fabric, whose per-lane stream
     *  rings scale with the square of the GPU count — the dominant
     *  per-trial allocation on cluster topologies), kept across every
     *  trial that takes it.  The arena's retained fabric is keyed on
     *  the address of the stable topology copy, so it is built once
     *  and only reset thereafter.  One running trial owns an arena at
     *  a time. */
    struct TrialArena
    {
        explicit TrialArena(const hw::Topology &t) : topo(t) {}
        hw::Topology topo;
        runtime::ExecutorArena exec;
    };

    /** One emulation of a batch.  @p cfg carries any scenario
     *  pointer; @p scenarioId stands in for it in the cache key. */
    struct Run
    {
        const compaction::CompactionPlan *plan = nullptr;
        runtime::ExecutorConfig cfg;
        std::string scenarioId;
    };

    /** Emulate @p run on an idle trial arena (built when none is). */
    runtime::TrainingReport emulate(const Run &run);

    /** Reports of @p runs through the memo cache, the misses
     *  emulated concurrently on the pool.  Collisions fall back to a
     *  real run (full key bytes are compared), so memoization can
     *  never change a result. */
    std::vector<runtime::TrainingReport>
    emulateBatch(const std::vector<Run> &runs);

    const hw::Topology &_topo;
    const model::TransformerModel &_mdl;
    const partition::Partition &_part;
    const pipeline::Schedule &_sched;
    runtime::ExecutorConfig _execCfg;
    util::ThreadPool &_pool;

    /** The trial arenas not running a trial (all of them between
     *  batches).  Replaces the per-trial hw::Topology copy and the
     *  per-trial engine slabs. */
    mutable std::mutex _arenaMu;
    std::vector<std::unique_ptr<TrialArena>> _idleArenas;

    /** Checked the job's schedule at construction; shared by every
     *  trial (check() is const). */
    verify::PlanVerifier _verifier;

    std::string _jobKey;

    bool _cacheEnabled = true;
    TrialCache _ownCache;
    TrialCache *_cache = &_ownCache;
    /** This driver's probes, counted on the calling thread. */
    TrialCacheStats _stats;
};

/** One refinement flip candidate as seen by the budget gate. */
struct FlipCandidate
{
    int gpu = 0;        ///< exporter GPU of the candidate's stage
    util::Bytes stash = 0;    ///< bytes per instance
    util::Bytes savings = 0;  ///< stash x in-flight instances
};

/**
 * Remaining per-exporter D2D grant budget: each exporter's total
 * granted bytes minus the savings of flips already committed against
 * it.  Debits are clamped at zero — the gate admits a flip only when
 * its full savings fit, so a negative remainder indicates stale
 * debits (e.g. grants shrunk by a re-map) rather than real
 * overcommitment, and must not poison later gate decisions.
 *
 * @param grants  exporter GPU -> its spare-memory grants
 * @param debits  (exporter GPU, savings) pairs already committed
 */
std::map<int, util::Bytes>
remainingGrantBudget(
    const std::map<int, std::vector<compaction::SpareGrant>> &grants,
    const std::vector<std::pair<int, util::Bytes>> &debits);

/**
 * Budget gate of the refinement loop: scan @p flippable in order and
 * admit up to @p max_flips candidates whose full savings fit the
 * exporter's remaining @p budget, debiting exactly what was gated on.
 * Returns the indices of admitted candidates; @p budget is left with
 * the post-batch remainder (non-negative by construction).
 */
std::vector<std::size_t>
admitFlipBatch(const std::vector<FlipCandidate> &flippable,
               std::map<int, util::Bytes> &budget, int max_flips);

} // namespace planner
} // namespace mpress

#endif // MPRESS_PLANNER_SEARCH_HH
