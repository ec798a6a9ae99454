#include "planner/search.hh"

#include <algorithm>
#include <cmath>
#include <cstring>

#include "util/logging.hh"
#include "util/random.hh"
#include "util/strings.hh"

namespace mpress {
namespace planner {

using util::Bytes;

namespace {

/** Append the raw bytes of @p v to @p key.  Scalars are appended one
 *  by one (never whole structs), so no padding bytes leak in. */
template <typename T>
void
putScalar(std::string &key, T v)
{
    char raw[sizeof(T)];
    std::memcpy(raw, &v, sizeof(T));
    key.append(raw, sizeof(T));
}

/**
 * Content digest of a (topology, model, partition, schedule) job,
 * prefixed to every memoization key so drivers for different jobs can
 * share one TrialCache without ever exchanging entries.  Scalars go
 * in raw (tagged + length-prefixed like trialKeyBinary), strings are
 * length-prefixed, so the encoding is injective.
 */
std::string
jobKeyFor(const hw::Topology &topo,
          const model::TransformerModel &mdl,
          const partition::Partition &part,
          const pipeline::Schedule &sched)
{
    std::string key;
    key.reserve(192 + topo.name().size() +
                mdl.config().name.size() +
                part.stages.size() * 16);
    key.push_back('T');
    putScalar<std::uint32_t>(
        key, static_cast<std::uint32_t>(topo.name().size()));
    key += topo.name();
    putScalar<std::int32_t>(key, topo.numGpus());
    key.push_back(topo.symmetric() ? 1 : 0);
    putScalar<std::int64_t>(key, topo.gpu().memCapacity);
    putScalar<double>(key, topo.gpu().fp32Tflops);
    putScalar<double>(key, topo.gpu().fp16Tflops);
    putScalar<double>(key, topo.gpu().mfu);
    putScalar<std::int32_t>(key, topo.gpu().nvlinkPorts);
    putScalar<double>(key, topo.gpu().hbm.bytesPerSec());
    putScalar<double>(key, topo.nvlinkSpec().peak.bytesPerSec());
    putScalar<double>(key, topo.pcieSpec().peak.bytesPerSec());
    putScalar<double>(key, topo.nvmeSpec().peak.bytesPerSec());
    putScalar<std::int64_t>(key, topo.hostMemory());
    putScalar<std::int64_t>(key, topo.nvmeCapacity());
    // Inter-node fabric: buildCluster names a spec "<N>x<node>"
    // whatever its NIC, so the NIC tier must be keyed by content.
    key.push_back('N');
    putScalar<std::int32_t>(key, topo.gpusPerNode());
    putScalar<std::int32_t>(key, topo.nicsPerNode());
    putScalar<double>(key, topo.nicSpec().peak.bytesPerSec());
    putScalar<std::int64_t>(key, topo.nicSpec().rampBytes);
    putScalar<std::int64_t>(key, topo.nicSpec().latency);
    key.push_back('m');
    const model::ModelConfig &mc = mdl.config();
    putScalar<std::uint32_t>(
        key, static_cast<std::uint32_t>(mc.name.size()));
    key += mc.name;
    putScalar<std::int32_t>(key, mc.numBlocks);
    putScalar<std::int32_t>(key, mc.hidden);
    putScalar<std::int32_t>(key, mc.heads);
    putScalar<std::int32_t>(key, mc.seqLen);
    putScalar<std::int32_t>(key, mc.vocab);
    key.push_back(static_cast<char>(mc.precision));
    key.push_back(static_cast<char>(mc.optimizer));
    putScalar<std::int32_t>(key, mdl.microbatchSize());
    key.push_back('p');
    putScalar<std::uint32_t>(
        key, static_cast<std::uint32_t>(part.stages.size()));
    for (const auto &stage : part.stages) {
        putScalar<std::uint32_t>(
            key, static_cast<std::uint32_t>(stage.firstLayer));
        putScalar<std::uint32_t>(
            key, static_cast<std::uint32_t>(stage.lastLayer));
    }
    key.push_back('s');
    key.push_back(static_cast<char>(sched.system));
    putScalar<std::int32_t>(key, sched.numStages);
    putScalar<std::int32_t>(key, sched.microbatchesPerMinibatch);
    putScalar<std::int32_t>(key, sched.numMinibatches);
    return key;
}

} // namespace

bool
TrialCache::lookup(std::uint64_t sig, const std::string &key,
                   runtime::TrainingReport *out) const
{
    std::lock_guard<std::mutex> lock(_mu);
    auto it = _map.find(sig);
    // A signature collision (equal hash, different key) counts as a
    // miss, so memoization can never change a result.
    if (it != _map.end() && it->second.key == key) {
        ++_stats.hits;
        *out = it->second.report;
        return true;
    }
    ++_stats.misses;
    return false;
}

void
TrialCache::insert(std::uint64_t sig, std::string key,
                   const runtime::TrainingReport &report)
{
    std::lock_guard<std::mutex> lock(_mu);
    // emplace keeps the first entry on a concurrent duplicate (or a
    // colliding signature): later lookups of the losing key simply
    // keep missing.
    _map.emplace(sig, Entry{std::move(key), report});
}

TrialCacheStats
TrialCache::stats() const
{
    std::lock_guard<std::mutex> lock(_mu);
    return _stats;
}

std::size_t
TrialCache::size() const
{
    std::lock_guard<std::mutex> lock(_mu);
    return _map.size();
}

void
TrialCache::clear()
{
    std::lock_guard<std::mutex> lock(_mu);
    _map.clear();
}

/**
 * Raw scalars rather than rendered text: rendering the plan through
 * planToText() on every cache probe made the cache a net loss on the
 * plain plan path.  Every section is tagged and length-prefixed, so
 * the encoding is injective (two different inputs can never serialize
 * to the same byte string) and the collision guard in emulateBatch()
 * stays sound.
 */
std::string
SearchDriver::trialKeyBinary(const compaction::CompactionPlan &plan,
                             const runtime::ExecutorConfig &cfg,
                             std::string_view scenario_id)
{
    std::string key;
    key.reserve(64 + plan.activations.size() * 9 +
                plan.stageToGpu.size() * 4 +
                plan.offloadOptState.size() +
                plan.offloadWeightStash.size() +
                plan.spareGrants.size() * 24 + scenario_id.size());
    key.push_back('A');
    putScalar<std::uint32_t>(
        key, static_cast<std::uint32_t>(plan.activations.size()));
    for (const auto &[ref, kind] : plan.activations) {
        putScalar<std::int32_t>(key, ref.stage);
        putScalar<std::int32_t>(key, ref.layer);
        key.push_back(static_cast<char>(kind));
    }
    key.push_back('O');
    putScalar<std::uint32_t>(
        key, static_cast<std::uint32_t>(plan.offloadOptState.size()));
    for (bool b : plan.offloadOptState)
        key.push_back(b ? 1 : 0);
    key.push_back('W');
    putScalar<std::uint32_t>(
        key,
        static_cast<std::uint32_t>(plan.offloadWeightStash.size()));
    for (bool b : plan.offloadWeightStash)
        key.push_back(b ? 1 : 0);
    key.push_back('M');
    putScalar<std::uint32_t>(
        key, static_cast<std::uint32_t>(plan.stageToGpu.size()));
    for (int g : plan.stageToGpu)
        putScalar<std::int32_t>(key, g);
    // Only live grants: the executor never reads the grants of a GPU
    // outside plan.d2dGpus(), so two plans that differ only in such
    // dead grants emulate alike and share an entry.
    const std::vector<int> live = plan.d2dGpus();
    auto is_live = [&](int gpu) {
        return std::binary_search(live.begin(), live.end(), gpu);
    };
    std::uint32_t live_lists = 0;
    for (const auto &entry : plan.spareGrants)
        live_lists += is_live(entry.first) ? 1 : 0;
    key.push_back('G');
    putScalar<std::uint32_t>(key, live_lists);
    for (const auto &[gpu, grants] : plan.spareGrants) {
        if (!is_live(gpu))
            continue;
        putScalar<std::int32_t>(key, gpu);
        putScalar<std::uint32_t>(
            key, static_cast<std::uint32_t>(grants.size()));
        for (const auto &g : grants) {
            putScalar<std::int32_t>(key, g.importerGpu);
            putScalar<std::int64_t>(key, g.budget);
        }
    }
    key.push_back(plan.d2dStriping ? 1 : 0);
    key.push_back('C');
    key.push_back(static_cast<char>(
        (cfg.recordLiveness ? 1 : 0) | (cfg.record ? 2 : 0) |
        (cfg.failFastOnOom ? 8 : 0) | (cfg.faultLadder ? 16 : 0)));
    putScalar<std::int32_t>(key, cfg.maxTransferRetries);
    key.push_back('S');
    putScalar<std::uint32_t>(
        key, static_cast<std::uint32_t>(scenario_id.size()));
    key.append(scenario_id.data(), scenario_id.size());
    return key;
}

SearchDriver::SearchDriver(const hw::Topology &topo,
                           const model::TransformerModel &mdl,
                           const partition::Partition &part,
                           const pipeline::Schedule &sched,
                           runtime::ExecutorConfig exec_cfg,
                           util::ThreadPool &pool)
    : _topo(topo), _mdl(mdl), _part(part), _sched(sched),
      _execCfg(exec_cfg), _pool(pool),
      _verifier(topo, mdl, part, sched),
      _jobKey(jobKeyFor(topo, mdl, part, sched))
{
    // Every trial is a scoring run, never a profiling or recorded
    // run, and plan selection must not depend on injected faults —
    // robustness is evaluated separately, on the finished plan, and
    // the session replays that plan when the caller records.
    _execCfg.recordLiveness = false;
    _execCfg.record = false;
    _execCfg.failFastOnOom = true;
    _execCfg.faults = nullptr;
    // The arena pointer is per-trial state, never part of the
    // driver-wide config (and deliberately not part of the cache
    // key: it cannot change a result).
    _execCfg.arena = nullptr;
}

void
SearchDriver::setSharedCache(TrialCache *cache)
{
    _cache = cache != nullptr ? cache : &_ownCache;
}

std::string
SearchDriver::scenarioKey(const fault::Scenario &scenario)
{
    std::string key = util::strformat(
        "%s seed=%llu", scenario.name.c_str(),
        static_cast<unsigned long long>(scenario.seed));
    for (const auto &e : scenario.events) {
        key += util::strformat(
            " [k=%d %lld..%lld gpu=%d src=%d dst=%d f=%a p=%a"
            " b=%lld]",
            static_cast<int>(e.kind), static_cast<long long>(e.start),
            static_cast<long long>(e.end), e.gpu, e.src, e.dst,
            e.factor, e.probability, static_cast<long long>(e.bytes));
    }
    return key;
}

std::uint64_t
SearchDriver::arenaShrinks() const
{
    std::lock_guard<std::mutex> lock(_arenaMu);
    std::uint64_t total = 0;
    for (const auto &arena : _idleArenas)
        total += arena->exec.shrinks;
    return total;
}

runtime::TrainingReport
SearchDriver::emulate(const Run &run)
{
    // Take an idle arena, or build one when every arena is running a
    // trial: the driver holds as many arenas as it ever runs trials
    // at once, however many threads its pool has.
    std::unique_ptr<TrialArena> arena;
    {
        std::lock_guard<std::mutex> lock(_arenaMu);
        if (!_idleArenas.empty()) {
            arena = std::move(_idleArenas.back());
            _idleArenas.pop_back();
        }
    }
    if (!arena)
        arena = std::make_unique<TrialArena>(_topo);
    runtime::ExecutorConfig cfg = run.cfg;
    cfg.arena = &arena->exec;
    runtime::TrainingReport report = runtime::runTraining(
        arena->topo, _mdl, _part, _sched, *run.plan, cfg);
    std::lock_guard<std::mutex> lock(_arenaMu);
    _idleArenas.push_back(std::move(arena));
    return report;
}

std::vector<runtime::TrainingReport>
SearchDriver::emulateBatch(const std::vector<Run> &runs)
{
    const std::size_t n = runs.size();
    std::vector<runtime::TrainingReport> reports(n);
    // Probe the cache in batch order, as a serial loop would.  A run
    // whose key an earlier miss of the batch shares is not emulated
    // again: it probes the cache after that miss's report is stored,
    // exactly when the serial loop would, so the hit and miss counts
    // and the DES work are the same at every pool size.
    std::vector<char> miss(n, 1);
    std::vector<std::size_t> twin(n, n);  // earlier miss, same key
    std::vector<std::string> keys;
    std::vector<std::uint64_t> sigs;
    if (_cacheEnabled) {
        keys.resize(n);
        sigs.resize(n);
        for (std::size_t i = 0; i < n; ++i) {
            // The job key prefix scopes the entry to this driver's
            // (topology, model, partition, schedule), so a shared
            // cache can serve many jobs without ever exchanging
            // entries between them.
            keys[i] = _jobKey;
            keys[i] += trialKeyBinary(*runs[i].plan, runs[i].cfg,
                                      runs[i].scenarioId);
            sigs[i] = util::fnv1a64(keys[i]);
            for (std::size_t j = 0; j < i && twin[i] == n; ++j) {
                if (miss[j] && twin[j] == n && sigs[j] == sigs[i] &&
                    keys[j] == keys[i])
                    twin[i] = j;
            }
            if (twin[i] != n) {
                miss[i] = 0;
            } else if (_cache->lookup(sigs[i], keys[i], &reports[i])) {
                // The emulator is a pure function of (topology, job,
                // plan, cfg): the stored report is byte-identical to
                // what a fresh run would produce.
                miss[i] = 0;
                ++_stats.hits;
            } else {
                ++_stats.misses;
            }
        }
    }
    _pool.parallelFor(n, [&](std::size_t i) {
        if (miss[i])
            reports[i] = emulate(runs[i]);
    });
    if (!_cacheEnabled)
        return reports;
    for (std::size_t i = 0; i < n; ++i) {
        if (miss[i]) {
            _cache->insert(sigs[i], std::move(keys[i]), reports[i]);
        } else if (twin[i] != n) {
            if (_cache->lookup(sigs[i], keys[i], &reports[i])) {
                ++_stats.hits;
            } else {
                // A signature collision kept the twin's report out of
                // the cache; the serial loop would re-emulate, with
                // the twin's result.
                ++_stats.misses;
                reports[i] = reports[twin[i]];
            }
        }
    }
    return reports;
}

std::vector<TrialOutcome>
SearchDriver::evaluate(
    const std::vector<compaction::CompactionPlan> &trials)
{
    std::vector<Run> runs(trials.size());
    for (std::size_t i = 0; i < trials.size(); ++i)
        runs[i] = Run{&trials[i], _execCfg, {}};
    std::vector<runtime::TrainingReport> reports = emulateBatch(runs);
    std::vector<TrialOutcome> out(trials.size());
    for (std::size_t i = 0; i < trials.size(); ++i) {
        out[i].report = std::move(reports[i]);
        out[i].verified = _verifier.check(trials[i]).ok();
    }
    return out;
}

TrialOutcome
SearchDriver::evaluateOne(const compaction::CompactionPlan &plan)
{
    std::vector<compaction::CompactionPlan> one(1, plan);
    return evaluate(one).front();
}

namespace {

/** Nearest-rank percentile of ascending @p sorted (non-empty). */
double
nearestRank(const std::vector<double> &sorted, double p)
{
    auto n = static_cast<double>(sorted.size());
    auto rank = static_cast<std::size_t>(std::ceil(p * n));
    if (rank > 0)
        --rank;
    return sorted[std::min(rank, sorted.size() - 1)];
}

} // namespace

RobustnessResult
SearchDriver::evaluateRobustness(
    const compaction::CompactionPlan &plan,
    const std::vector<fault::Scenario> &scenarios)
{
    // One batch: the fault-free baseline, then one run per scenario.
    std::vector<Run> runs;
    runs.reserve(scenarios.size() + 1);
    runs.push_back(Run{&plan, _execCfg, {}});
    for (const fault::Scenario &scenario : scenarios) {
        Run run{&plan, _execCfg, scenarioKey(scenario)};
        run.cfg.faults = &scenario;
        // Score the runtime's best recovery: let the ladder absorb
        // failures instead of failing fast on the first one.
        run.cfg.faultLadder = true;
        run.cfg.failFastOnOom = true;
        runs.push_back(std::move(run));
    }
    // The scenario pointer cannot key the cache; its content does, so
    // duplicate scenarios across replays memoize.
    std::vector<runtime::TrainingReport> reports = emulateBatch(runs);

    RobustnessResult res;
    res.baseline = std::move(reports[0]);
    const double base = res.baseline.samplesPerSec;
    res.rows.resize(scenarios.size());
    for (std::size_t i = 0; i < scenarios.size(); ++i) {
        RobustnessRow &row = res.rows[i];
        row.scenario = scenarios[i].name;
        row.report = std::move(reports[i + 1]);
        row.throughputRatio =
            (row.report.oom || base <= 0.0)
                ? 0.0
                : row.report.samplesPerSec / base;
    }
    if (!res.rows.empty()) {
        std::vector<double> ratios;
        ratios.reserve(res.rows.size());
        for (const auto &row : res.rows)
            ratios.push_back(row.throughputRatio);
        std::sort(ratios.begin(), ratios.end());
        res.worst = ratios.front();
        res.p10 = nearestRank(ratios, 0.10);
        res.p50 = nearestRank(ratios, 0.50);
    }
    return res;
}

int
SearchDriver::pickBest(const std::vector<TrialOutcome> &outcomes,
                       double baseline_samples_per_sec,
                       double accept_gain)
{
    int best = -1;
    for (std::size_t i = 0; i < outcomes.size(); ++i) {
        if (!outcomes[i].accepted(baseline_samples_per_sec,
                                  accept_gain))
            continue;
        if (best < 0 ||
            outcomes[i].report.samplesPerSec >
                outcomes[static_cast<std::size_t>(best)]
                    .report.samplesPerSec) {
            best = static_cast<int>(i);
        }
    }
    return best;
}

std::map<int, Bytes>
remainingGrantBudget(
    const std::map<int, std::vector<compaction::SpareGrant>> &grants,
    const std::vector<std::pair<int, Bytes>> &debits)
{
    std::map<int, Bytes> budget;
    for (const auto &[gpu, gs] : grants) {
        Bytes total = 0;
        for (const auto &g : gs)
            total += g.budget;
        budget[gpu] = total;
    }
    for (const auto &[gpu, savings] : debits) {
        auto it = budget.find(gpu);
        if (it == budget.end()) {
            // A committed flip against a GPU with no grants: stale
            // state from a re-map.  Nothing to debit.
            continue;
        }
        // A debit larger than the ledger is stale state from a
        // re-map too: clamp at zero.
        it->second = savings > it->second ? 0 : it->second - savings;
    }
    return budget;
}

std::vector<std::size_t>
admitFlipBatch(const std::vector<FlipCandidate> &flippable,
               std::map<int, Bytes> &budget, int max_flips)
{
    std::vector<std::size_t> admitted;
    for (std::size_t i = 0; i < flippable.size(); ++i) {
        if (static_cast<int>(admitted.size()) >= max_flips)
            break;
        const FlipCandidate &c = flippable[i];
        auto it = budget.find(c.gpu);
        // Gate and ledger agree: a flip is admitted only when the
        // grants can absorb its full savings (every in-flight
        // instance), and exactly that amount is debited.  Partial
        // admission would let the runtime silently keep instances
        // resident (d2dOverflow) while the ledger pretended the
        // bytes were exported.
        if (it == budget.end() || it->second < c.savings)
            continue;
        it->second -= c.savings;
        if (it->second < 0) {
            util::panic("grant ledger went negative on GPU %d",
                        c.gpu);
        }
        admitted.push_back(i);
    }
    return admitted;
}

} // namespace planner
} // namespace mpress
