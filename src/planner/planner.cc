#include "planner/planner.hh"

#include <algorithm>

#include "planner/portfolio.hh"
#include "util/logging.hh"

namespace mpress {
namespace planner {

using compaction::CompactionPlan;
using compaction::Kind;
using memory::TensorRef;

ProfileResult
profileJob(const hw::Topology &topo,
           const model::TransformerModel &mdl,
           const partition::Partition &part,
           const pipeline::Schedule &sched,
           runtime::ExecutorConfig exec_cfg)
{
    exec_cfg.recordLiveness = true;
    exec_cfg.record = false;
    exec_cfg.failFastOnOom = false;  // measure true demand
    ProfileResult out;
    out.report = runtime::runTraining(topo, mdl, part, sched, {},
                                      exec_cfg);
    out.usableCapacity = topo.gpu().usableCapacity();
    // With the identity mapping, stage s ran on GPU s.
    out.stagePeak.resize(static_cast<std::size_t>(part.numStages()));
    for (int s = 0; s < part.numStages(); ++s) {
        out.stagePeak[static_cast<std::size_t>(s)] =
            out.report.gpus[static_cast<std::size_t>(s)].peak;
    }
    return out;
}

CompactionPlan
recomputeAllPlan(const partition::Partition &part)
{
    CompactionPlan plan;
    for (const auto &stage : part.stages) {
        for (std::size_t l = stage.firstLayer; l <= stage.lastLayer;
             ++l) {
            plan.activations[{stage.index, static_cast<int>(l)}] =
                Kind::Recompute;
        }
    }
    return plan;
}

CompactionPlan
gpuCpuSwapAllPlan(const partition::Partition &part)
{
    CompactionPlan plan;
    plan.offloadOptState.assign(
        static_cast<std::size_t>(part.numStages()), true);
    plan.offloadWeightStash.assign(
        static_cast<std::size_t>(part.numStages()), true);
    for (const auto &stage : part.stages) {
        for (std::size_t l = stage.firstLayer; l <= stage.lastLayer;
             ++l) {
            plan.activations[{stage.index, static_cast<int>(l)}] =
                Kind::GpuCpuSwap;
        }
    }
    return plan;
}

namespace {

/** Collect per-stage candidates (portfolio.hh's Candidate — the
 *  state the refinement strategies evolve) from a profile. */
std::vector<std::vector<Candidate>>
collectCandidates(const model::TransformerModel &mdl,
                  const partition::Partition &part,
                  const pipeline::Schedule &sched,
                  const ProfileResult &profile,
                  const CostModel &cost)
{
    std::vector<std::vector<Candidate>> per_stage(
        static_cast<std::size_t>(part.numStages()));
    for (const auto &stage : part.stages) {
        int inflight = sched.maxInFlight(stage.index);
        for (std::size_t l = stage.firstLayer; l <= stage.lastLayer;
             ++l) {
            const auto &layer = mdl.layer(l);
            if (layer.activationStash <= 0)
                continue;
            Candidate c;
            c.ref = {stage.index, static_cast<int>(l)};
            c.stash = layer.activationStash;
            c.savings = layer.activationStash * inflight;
            const auto *li = profile.report.liveness.find(c.ref);
            c.interval = li ? li->minInterval() : 0;
            c.recomputeExtra = cost.recomputeExtra(layer);
            c.gpuCpuExtra = cost.gpuCpuSwapExtra(
                layer.activationStash, c.interval);
            per_stage[static_cast<std::size_t>(stage.index)]
                .push_back(c);
        }
    }
    return per_stage;
}

runtime::TrainingReport
emulate(const hw::Topology &topo, const model::TransformerModel &mdl,
        const partition::Partition &part,
        const pipeline::Schedule &sched, const CompactionPlan &plan,
        runtime::ExecutorConfig exec_cfg)
{
    exec_cfg.recordLiveness = false;
    exec_cfg.record = false;
    exec_cfg.failFastOnOom = true;
    return runtime::runTraining(topo, mdl, part, sched, plan,
                                exec_cfg);
}

/** Drop spare grants whose exporter GPU has no D2D-swapped
 *  activation class left in the final plan.  The refine ladders
 *  un-swap classes freely, which can strand the mapper's eager
 *  grants (Sec III-C grants everything up-front); dead grants pin
 *  importer spare memory and trip the verifier's orphan/cycle rules
 *  in strict mode.  Pruning is a pure function of the plan, so it
 *  preserves byte-determinism across the search matrix. */
void
pruneDeadGrants(CompactionPlan &plan)
{
    const std::vector<int> live = plan.d2dGpus();
    std::erase_if(plan.spareGrants, [&](const auto &entry) {
        return !std::binary_search(live.begin(), live.end(), entry.first);
    });
}

} // namespace

PlanResult
planMPress(const hw::Topology &topo,
           const model::TransformerModel &mdl,
           const partition::Partition &part,
           const pipeline::Schedule &sched, PlannerConfig cfg,
           runtime::ExecutorConfig exec_cfg)
{
    PlanResult result;

    // (1) Profile.
    ProfileResult profile =
        profileJob(topo, mdl, part, sched, exec_cfg);
    const Bytes capacity = profile.usableCapacity;

    // No memory pressure: train as-is.
    bool any_overflow = false;
    for (Bytes peak : profile.stagePeak)
        any_overflow |= peak > capacity;
    if (!any_overflow) {
        result.finalReport = std::move(profile.report);
        result.feasible = !result.finalReport.oom;
        result.verification =
            verify::verifyPlan(topo, mdl, part, sched, result.plan);
        result.certificate =
            analysis::analyzePlan(topo, mdl, part, sched, result.plan);
        return result;
    }

    // The worker pool serves both the mapping scan and the trial
    // batches of the refinement race.  cfg.threads is clamped to the
    // CPUs this process may run on: oversubscribed workers only add
    // context switches to the CPU-bound scan/emulation bodies (the
    // measured cause of the former threads:4 regression).  At the
    // default the plan leases the process-wide pool.  The mapper and
    // driver are thread-count-deterministic, so neither the clamp nor
    // the pool can change the plan.
    util::PoolLease lease(
        std::min(cfg.threads, util::ThreadPool::hardwareThreads()));
    util::ThreadPool &pool = lease.pool();

    // (2) Device mapping + spare-memory grants.
    result.mapping = searchDeviceMapping(topo, profile.stagePeak,
                                         capacity, cfg.mapper, {},
                                         &pool);

    CostModel cost(topo, mdl.config().precision);
    auto candidates =
        collectCandidates(mdl, part, sched, profile, cost);

    // The refinement race evaluates batches of independent trial
    // plans; the driver scores them as concurrent emulator runs
    // (trial arenas of topology + engine, per-trial executors) and
    // the fixed tie-break keeps the result identical for every thread
    // count.  It is built before the seed emulation so the
    // seed/escalation runs land in the trial cache and later
    // identical variants hit.
    SearchDriver driver(topo, mdl, part, sched, exec_cfg, pool);
    driver.setCacheEnabled(cfg.trialCache);
    if (cfg.sharedCache != nullptr)
        driver.setSharedCache(cfg.sharedCache);
    auto record_search_stats = [&result, &driver]() {
        TrialCacheStats stats = driver.cacheStats();
        result.trialCacheHits = stats.hits;
        result.trialCacheMisses = stats.misses;
        result.arenaShrinks = driver.arenaShrinks();
    };

    // (3) Seed assignment per overflowing stage.
    std::vector<bool> offload_opt(
        static_cast<std::size_t>(part.numStages()), false);
    std::vector<bool> offload_stash(
        static_cast<std::size_t>(part.numStages()), false);
    for (const auto &stage : part.stages) {
        auto s = static_cast<std::size_t>(stage.index);
        double over = static_cast<double>(profile.stagePeak[s]) *
                          (1.0 + kSeedHeadroom) -
                      static_cast<double>(capacity);
        if (over <= 0)
            continue;
        Bytes need = static_cast<Bytes>(over);

        // Activations first, cheapest critical-path cost first.  The
        // per-tensor swap cost is only hidden while the stage's PCIe
        // channel keeps up: each microbatch gives the stage roughly
        // its fwd+bwd compute time of channel budget, and swap
        // round-trips beyond that budget pay full price.  Without
        // this, a long live interval makes every tensor look free to
        // swap and the seed plan saturates PCIe.
        Tick pcie_budget = static_cast<Tick>(
            0.9 * static_cast<double>(cost.topology().gpu().computeTime(
                      3.0 * stage.fwdFlops,
                      mdl.config().precision)));
        auto &cands = candidates[s];
        std::stable_sort(cands.begin(), cands.end(),
                         [](const Candidate &a, const Candidate &b) {
                             return std::min(a.recomputeExtra,
                                             a.gpuCpuExtra) <
                                    std::min(b.recomputeExtra,
                                             b.gpuCpuExtra);
                         });
        for (auto &c : cands) {
            if (need <= 0)
                break;
            Tick round_trip = 2 * cost.gpuCpuSwapTime(c.stash);
            Tick gcs_extra = pcie_budget >= round_trip
                                 ? c.gpuCpuExtra
                                 : std::max(c.gpuCpuExtra, round_trip);
            if (c.recomputeExtra <= gcs_extra) {
                c.chosen = Kind::Recompute;
            } else {
                c.chosen = Kind::GpuCpuSwap;
                pcie_budget -= round_trip;
            }
            // Record the contended cost so refinement can target it.
            c.gpuCpuExtra = gcs_extra;
            need -= c.savings;
        }

        // Optimizer state goes to the host only when activation
        // savings cannot cover the overflow (Table IV: small jobs
        // keep the optimizer resident, huge jobs must offload).
        if (need > 0) {
            offload_opt[s] = true;
            need -= stage.optStateBytes;
        }
        // Last resort within GPU-CPU swap: park stashed weight
        // versions (PipeDream) in host memory.
        int versions = sched.weightVersions(stage.index);
        if (need > 0 && versions > 2) {
            offload_stash[s] = true;
            need -= stage.paramBytes * (versions - 2);
        }
    }

    // (4) Emulate the seed; escalate if it still OOMs.  Seed and
    // escalation runs go through the driver so they are memoized like
    // any other trial (the driver pins the same scoring config the
    // old emulate() helper forced, and planning stays fault-free).
    CompactionPlan plan =
        materializePlan(candidates, offload_opt, offload_stash,
                    result.mapping, cfg.d2dStriping);
    runtime::TrainingReport current =
        driver.evaluateOne(plan).report;
    int escalations = 0;
    while (current.oom && escalations < part.numStages() + 2) {
        // Escalate only on the stages mapped to the OOM GPU (or
        // everywhere once targeted escalation is exhausted): first
        // assign their remaining activation classes, then offload
        // their optimizer state.
        bool assigned_more = false;
        for (auto &stage_cands : candidates) {
            auto stage_idx = static_cast<std::size_t>(
                &stage_cands - candidates.data());
            bool target_stage =
                current.oomGpu < 0 ||
                plan.gpuForStage(static_cast<int>(stage_idx)) ==
                    current.oomGpu ||
                escalations >= part.numStages();
            if (!target_stage)
                continue;
            bool stage_assigned = false;
            for (auto &c : stage_cands) {
                if (c.chosen == Kind::None) {
                    // The seed's PCIe budget is already spent, so
                    // escalation prioritizes recomputation (the
                    // paper's Sec. III-D observation).
                    c.chosen = Kind::Recompute;
                    stage_assigned = true;
                }
            }
            if (!stage_assigned && !offload_opt[stage_idx]) {
                offload_opt[stage_idx] = true;
                stage_assigned = true;
            }
            if (!stage_assigned && !offload_stash[stage_idx] &&
                sched.weightVersions(static_cast<int>(stage_idx)) >
                    2) {
                offload_stash[stage_idx] = true;
                stage_assigned = true;
            }
            assigned_more |= stage_assigned;
        }
        if (!assigned_more)
            break;
        ++escalations;
        plan = materializePlan(candidates, offload_opt, offload_stash,
                    result.mapping, cfg.d2dStriping);
        current = driver.evaluateOne(plan).report;
    }
    if (current.oom) {
        result.plan = std::move(plan);
        result.finalReport = std::move(current);
        result.feasible = false;
        result.verification = driver.verifier().check(result.plan);
        result.certificate =
            analysis::analyzePlan(topo, mdl, part, sched, result.plan);
        record_search_stats();
        return result;
    }

    // (4a) Re-map with post-compaction demand.  The profile-based
    // mapping saw every stage overflowing, so importers had nothing
    // to lend; once the seed plan compacts the heavy stages, the
    // emulator-measured peaks reveal the real spare memory, and a
    // second mapping pass turns it into D2D grants (the emulator
    // feedback loop of Fig. 5).
    {
        std::vector<Bytes> demand2(
            static_cast<std::size_t>(part.numStages()), 0);
        std::vector<Bytes> desire2(
            static_cast<std::size_t>(part.numStages()), 0);
        Bytes total_spare = 0;
        for (int s = 0; s < part.numStages(); ++s) {
            Bytes peak =
                current.gpus[static_cast<std::size_t>(
                                 plan.gpuForStage(s))]
                    .peak;
            demand2[static_cast<std::size_t>(s)] = peak;
            if (peak < capacity) {
                total_spare += static_cast<Bytes>(
                    static_cast<double>(capacity - peak) *
                    kSpareSafety);
            }
            for (const auto &c :
                 candidates[static_cast<std::size_t>(s)]) {
                if (c.chosen == Kind::Recompute ||
                    c.chosen == Kind::GpuCpuSwap)
                    desire2[static_cast<std::size_t>(s)] += c.savings;
            }
        }
        // Throughput follows the slowest stage, so spare must be
        // spread fairly: capping each stage's desire near the fair
        // share relieves compaction pressure everywhere instead of
        // fully draining a few stages while the rest stay
        // recompute-bound.
        Bytes fair = static_cast<Bytes>(
            1.2 * static_cast<double>(total_spare) /
            part.numStages());
        for (auto &d : desire2)
            d = std::min(d, fair);
        MappingResult mapping2 = searchDeviceMapping(
            topo, demand2, capacity, cfg.mapper, desire2, &pool);
        CompactionPlan plan2 =
            materializePlan(candidates, offload_opt, offload_stash,
                        mapping2, cfg.d2dStriping);
        // Unlike refinement trials the re-map may accept a slight
        // measured regression: better grants unlock D2D flips later.
        TrialOutcome out2 = driver.evaluateOne(plan2);
        if (!out2.report.oom && out2.verified &&
            out2.report.samplesPerSec >=
                current.samplesPerSec * (1.0 - kAcceptGain)) {
            result.mapping = std::move(mapping2);
            plan = std::move(plan2);
            current = std::move(out2.report);
        }
    }

    // (5) Refinement race (portfolio.cc): the greedy wavefront — the
    // D2D flip ladder, the three coarse variants, then the fine-tune
    // un-swap ladder — plus, when cfg.portfolio is set, a
    // simulated-annealing walker and an analysis-guided best-first
    // explorer, all racing on this driver until exhaustion or the
    // anytime deadline.  The winner is deterministic and never worse
    // than the seed plan.
    PlanState seed_state;
    seed_state.candidates = std::move(candidates);
    seed_state.offloadOpt = std::move(offload_opt);
    seed_state.offloadStash = std::move(offload_stash);
    RaceResult race =
        racePortfolio(driver, topo, mdl, part, sched, result.mapping,
                      cfg, seed_state, plan, current);

    pruneDeadGrants(race.plan);
    result.plan = std::move(race.plan);
    result.finalReport = std::move(race.report);
    result.iterations = race.iterations;
    result.winnerStrategy = race.winner;
    result.strategyStats = std::move(race.stats);
    result.feasible = true;
    result.verification = driver.verifier().check(result.plan);
    result.certificate =
        analysis::analyzePlan(topo, mdl, part, sched, result.plan);
    record_search_stats();
    return result;
}

PlanResult
planD2dOnly(const hw::Topology &topo,
            const model::TransformerModel &mdl,
            const partition::Partition &part,
            const pipeline::Schedule &sched, PlannerConfig cfg,
            runtime::ExecutorConfig exec_cfg)
{
    PlanResult result;
    ProfileResult profile =
        profileJob(topo, mdl, part, sched, exec_cfg);
    const Bytes capacity = profile.usableCapacity;

    bool any_overflow = false;
    for (Bytes peak : profile.stagePeak)
        any_overflow |= peak > capacity;
    if (!any_overflow) {
        result.finalReport = std::move(profile.report);
        result.feasible = !result.finalReport.oom;
        result.verification =
            verify::verifyPlan(topo, mdl, part, sched, result.plan);
        result.certificate =
            analysis::analyzePlan(topo, mdl, part, sched, result.plan);
        return result;
    }

    // Same clamp and pool as planMPress (the mapper is
    // thread-count-deterministic, so neither can change it).
    util::PoolLease lease(
        std::min(cfg.threads, util::ThreadPool::hardwareThreads()));
    util::ThreadPool &pool = lease.pool();
    result.mapping = searchDeviceMapping(topo, profile.stagePeak,
                                         capacity, cfg.mapper, {},
                                         &pool);
    CostModel cost(topo, mdl.config().precision);
    auto candidates =
        collectCandidates(mdl, part, sched, profile, cost);

    std::map<int, Bytes> budget;
    for (const auto &[gpu, grants] : result.mapping.grants) {
        Bytes total = 0;
        for (const auto &g : grants)
            total += g.budget;
        budget[gpu] = total;
    }

    std::vector<bool> offload_opt(
        static_cast<std::size_t>(part.numStages()), false);
    std::vector<bool> offload_stash(
        static_cast<std::size_t>(part.numStages()), false);
    for (const auto &stage : part.stages) {
        auto s = static_cast<std::size_t>(stage.index);
        double over = static_cast<double>(profile.stagePeak[s]) *
                          (1.0 + kSeedHeadroom) -
                      static_cast<double>(capacity);
        if (over <= 0)
            continue;
        Bytes need = static_cast<Bytes>(over);
        int gpu = result.mapping.stageToGpu.empty()
                      ? stage.index
                      : result.mapping.stageToGpu[s];
        for (auto &c : candidates[s]) {
            if (need <= 0)
                break;
            auto it = budget.find(gpu);
            // A class may be partially covered (per-instance
            // fallback at runtime); require room for at least one
            // instance so the assignment is not a pure no-op.
            if (it == budget.end() || it->second < c.stash)
                continue;
            Bytes debit = std::min(it->second, c.savings);
            it->second -= debit;
            c.chosen = Kind::D2dSwap;
            need -= debit;
        }
        // D2D-only cannot fall back: leftover need means OOM, which
        // the emulation below will surface.
    }

    CompactionPlan plan =
        materializePlan(candidates, offload_opt, offload_stash,
                    result.mapping, cfg.d2dStriping);
    pruneDeadGrants(plan);
    result.finalReport =
        emulate(topo, mdl, part, sched, plan, exec_cfg);
    result.feasible = !result.finalReport.oom;
    result.plan = std::move(plan);
    result.verification =
        verify::verifyPlan(topo, mdl, part, sched, result.plan);
    result.certificate =
        analysis::analyzePlan(topo, mdl, part, sched, result.plan);
    return result;
}

} // namespace planner
} // namespace mpress
