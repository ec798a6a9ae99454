#include "planner/portfolio.hh"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <limits>
#include <map>
#include <memory>
#include <queue>
#include <string>
#include <unordered_set>
#include <utility>

#include "analysis/analyzer.hh"
#include "util/random.hh"

namespace mpress {
namespace planner {

using compaction::CompactionPlan;
using compaction::Kind;

compaction::CompactionPlan
materializePlan(const std::vector<std::vector<Candidate>> &per_stage,
                const std::vector<bool> &offload_opt,
                const std::vector<bool> &offload_stash,
                const MappingResult &mapping, bool d2d_striping)
{
    CompactionPlan plan;
    plan.d2dStriping = d2d_striping;
    plan.offloadOptState.assign(offload_opt.begin(),
                                offload_opt.end());
    plan.offloadWeightStash.assign(offload_stash.begin(),
                                   offload_stash.end());
    plan.stageToGpu = mapping.stageToGpu;
    plan.spareGrants = mapping.grants;
    for (const auto &stage : per_stage) {
        for (const auto &c : stage) {
            if (c.chosen != Kind::None)
                plan.activations[c.ref] = c.chosen;
        }
    }
    return plan;
}

compaction::CompactionPlan
materializePlan(const PlanState &state, const MappingResult &mapping,
                bool d2d_striping)
{
    return materializePlan(state.candidates, state.offloadOpt,
                           state.offloadStash, mapping, d2d_striping);
}

namespace {

/** Best verified throughput any strategy has reached, published
 *  between wavefront rounds.  Atomic so a strategy (or a future
 *  in-evaluation callback) can read it without a lock; the value is
 *  monotone non-decreasing and independent of cache/thread settings,
 *  so reads stay deterministic. */
struct SharedBest
{
    std::atomic<double> best{0.0};

    void
    publish(double score)
    {
        double cur = best.load(std::memory_order_relaxed);
        while (score > cur &&
               !best.compare_exchange_weak(
                   cur, score, std::memory_order_relaxed)) {
        }
    }

    double
    score() const
    {
        return best.load(std::memory_order_relaxed);
    }
};

/** Everything a strategy borrows for the duration of the race. */
struct RaceCtx
{
    SearchDriver &driver;
    const hw::Topology &topo;
    const model::TransformerModel &mdl;
    const partition::Partition &part;
    const pipeline::Schedule &sched;
    const MappingResult &mapping;
    const PlannerConfig &cfg;
    SharedBest &shared;

    int
    gpuOf(int stage) const
    {
        return mapping.stageToGpu.empty()
                   ? stage
                   : mapping.stageToGpu[static_cast<std::size_t>(
                         stage)];
    }
};

/**
 * One racing strategy.  The race loop calls propose() then observe()
 * once per round; an empty propose() retires the strategy.  Each
 * strategy tracks its own best verified plan, seeded with the race's
 * seed plan so a strategy that never improves still offers a valid
 * entry.
 */
class Strategy
{
  public:
    Strategy(std::string name, const RaceCtx &ctx,
             const PlanState &seed, const CompactionPlan &seed_plan,
             const runtime::TrainingReport &seed_report)
        : _ctx(ctx), _name(std::move(name)), _st(seed),
          _bestPlan(seed_plan), _bestReport(seed_report),
          _bestScore(seed_report.samplesPerSec)
    {
    }
    virtual ~Strategy() = default;
    Strategy(const Strategy &) = delete;
    Strategy &operator=(const Strategy &) = delete;

    /** Next wavefront slice; empty retires the strategy. */
    virtual std::vector<CompactionPlan> propose() = 0;

    /** Outcomes of this strategy's last slice, in propose() order. */
    virtual void observe(const std::vector<TrialOutcome> &outcomes)
        = 0;

    const std::string &name() const { return _name; }
    double bestScore() const { return _bestScore; }
    const CompactionPlan &bestPlan() const { return _bestPlan; }
    const runtime::TrainingReport &bestReport() const
    {
        return _bestReport;
    }
    std::uint64_t proposed() const { return _proposed; }
    std::uint64_t committed() const { return _committed; }

  protected:
    /** Record @p outcome's plan as the strategy's new best. */
    void
    commitBest(CompactionPlan plan, const TrialOutcome &outcome)
    {
        _bestPlan = std::move(plan);
        _bestReport = outcome.report;
        _bestScore = outcome.report.samplesPerSec;
        ++_committed;
    }

    const RaceCtx &_ctx;
    std::string _name;
    PlanState _st;
    CompactionPlan _bestPlan;
    runtime::TrainingReport _bestReport;
    double _bestScore;
    std::uint64_t _proposed = 0;
    std::uint64_t _committed = 0;
};

/**
 * The classic greedy refinement, restructured into wavefronts: the
 * D2D flip ladder (stage 5 of planMPress), then the three coarse
 * variants (stage 6), then the fine-tune un-swap ladder (stage 7).
 * Each round proposes exactly the trial batch the sequential loop
 * would have evaluated next, so running this strategy alone yields
 * the sequential planner's plan.
 */
class GreedyWavefront final : public Strategy
{
    enum class Phase { Flip, Coarse, Fine, Done };

  public:
    GreedyWavefront(const RaceCtx &ctx, const PlanState &seed,
                    const CompactionPlan &seed_plan,
                    const runtime::TrainingReport &seed_report)
        : Strategy("greedy-wavefront", ctx, seed, seed_plan,
                   seed_report),
          _cur(seed_report)
    {
    }

    std::vector<CompactionPlan>
    propose() override
    {
        std::vector<CompactionPlan> trials;
        while (trials.empty() && _phase != Phase::Done) {
            switch (_phase) {
              case Phase::Flip:
                trials = proposeFlip();
                break;
              case Phase::Coarse:
                trials = proposeCoarse();
                break;
              case Phase::Fine:
                trials = proposeFine();
                break;
              case Phase::Done:
                break;
            }
        }
        _proposed += trials.size();
        return trials;
    }

    void
    observe(const std::vector<TrialOutcome> &outcomes) override
    {
        switch (_phase) {
          case Phase::Flip:
            observeFlip(outcomes);
            break;
          case Phase::Coarse:
            observeCoarse(outcomes);
            break;
          case Phase::Fine:
            observeFine(outcomes);
            break;
          case Phase::Done:
            break;
        }
    }

  private:
    /** Flip ladder: the costliest surviving assignments become D2D
     *  swap candidates, drawn round-robin across stages; trials are
     *  the admitted batch and its halvings. */
    std::vector<CompactionPlan>
    proposeFlip()
    {
        if (_iter >= _ctx.cfg.maxIterations) {
            _phase = Phase::Coarse;
            return {};
        }
        // Remaining grant budget per exporter GPU: total grants minus
        // the savings of flips committed in earlier rounds — the same
        // quantity the admission gate checks and debits.
        std::vector<std::pair<int, Bytes>> debits;
        for (const auto &stage_cands : _st.candidates) {
            for (const auto &c : stage_cands) {
                if (c.chosen == Kind::D2dSwap) {
                    debits.emplace_back(_ctx.gpuOf(c.ref.stage),
                                        c.savings);
                }
            }
        }
        std::map<int, Bytes> budget =
            remainingGrantBudget(_ctx.mapping.grants, debits);

        // Throughput follows the slowest stage, so the batch is drawn
        // round-robin across stages, costliest first within each.
        std::vector<std::vector<Candidate *>> per_stage_flips(
            _st.candidates.size());
        for (std::size_t s = 0; s < _st.candidates.size(); ++s) {
            for (auto &c : _st.candidates[s]) {
                if (c.chosen == Kind::Recompute ||
                    c.chosen == Kind::GpuCpuSwap)
                    per_stage_flips[s].push_back(&c);
            }
            std::stable_sort(
                per_stage_flips[s].begin(), per_stage_flips[s].end(),
                [](const Candidate *a, const Candidate *b) {
                    if (a->chosenExtra() != b->chosenExtra())
                        return a->chosenExtra() > b->chosenExtra();
                    return a->savings > b->savings;
                });
        }
        std::vector<Candidate *> flippable;
        for (std::size_t round = 0;; ++round) {
            bool any = false;
            for (const auto &stage_flips : per_stage_flips) {
                if (round < stage_flips.size()) {
                    flippable.push_back(stage_flips[round]);
                    any = true;
                }
            }
            if (!any)
                break;
        }

        std::vector<FlipCandidate> gate_view;
        gate_view.reserve(flippable.size());
        for (const Candidate *c : flippable) {
            gate_view.push_back({_ctx.gpuOf(c->ref.stage), c->stash,
                                 c->savings});
        }

        // Trial ladder: the full batch and its halvings.  Larger
        // batches come first so the fixed tie-break prefers more D2D
        // coverage on equal measured throughput.
        _pendingFlips.clear();
        std::vector<CompactionPlan> trials;
        for (int batch = kD2dBatchPerStep; batch >= 1; batch /= 2) {
            std::map<int, Bytes> scratch = budget;
            auto admitted = admitFlipBatch(gate_view, scratch, batch);
            if (admitted.empty())
                break;
            std::vector<Candidate *> flips;
            std::vector<Kind> prior;
            for (std::size_t idx : admitted) {
                flips.push_back(flippable[idx]);
                prior.push_back(flippable[idx]->chosen);
                flippable[idx]->chosen = Kind::D2dSwap;
            }
            trials.push_back(materializePlan(
                _st, _ctx.mapping, _ctx.cfg.d2dStriping));
            for (std::size_t k = 0; k < flips.size(); ++k)
                flips[k]->chosen = prior[k];
            _pendingFlips.push_back(std::move(flips));
        }
        if (trials.empty())
            _phase = Phase::Coarse;
        return trials;
    }

    void
    observeFlip(const std::vector<TrialOutcome> &outcomes)
    {
        int best = SearchDriver::pickBest(
            outcomes, _cur.samplesPerSec, kAcceptGain);
        if (best < 0) {
            _phase = Phase::Coarse;
            return;
        }
        auto b = static_cast<std::size_t>(best);
        for (Candidate *c : _pendingFlips[b])
            c->chosen = Kind::D2dSwap;
        _cur = outcomes[b].report;
        commitBest(materializePlan(_st, _ctx.mapping,
                                   _ctx.cfg.d2dStriping),
                   outcomes[b]);
        if (++_iter >= _ctx.cfg.maxIterations)
            _phase = Phase::Coarse;
    }

    /** The three coarse variants (joint flips), scored as one batch:
     *  (a) all swap classes recomputed, (b) optimizer offload
     *  retired, (c) both. */
    std::vector<CompactionPlan>
    proposeCoarse()
    {
        auto apply_variant = [&](bool rc_max, bool keep_offload)
            -> CompactionPlan {
            for (auto &stage_cands : _st.candidates) {
                for (auto &c : stage_cands) {
                    if (rc_max && c.chosen == Kind::GpuCpuSwap)
                        c.chosen = Kind::Recompute;
                }
            }
            std::vector<bool> opt =
                keep_offload
                    ? _st.offloadOpt
                    : std::vector<bool>(_st.offloadOpt.size(),
                                        false);
            return materializePlan(_st.candidates, opt,
                                   _st.offloadStash, _ctx.mapping,
                                   _ctx.cfg.d2dStriping);
        };
        const auto seed_kinds = snapshot();
        _coarseKinds.clear();
        std::vector<CompactionPlan> trials;
        for (const auto &v : kCoarseVariants) {
            restore(seed_kinds);
            trials.push_back(apply_variant(v.rcMax, v.keepOffload));
            _coarseKinds.push_back(snapshot());
        }
        restore(seed_kinds);
        return trials;
    }

    void
    observeCoarse(const std::vector<TrialOutcome> &outcomes)
    {
        int best = SearchDriver::pickBest(
            outcomes, _cur.samplesPerSec, kAcceptGain);
        if (best >= 0) {
            auto b = static_cast<std::size_t>(best);
            restore(_coarseKinds[b]);
            if (!kCoarseVariants[b].keepOffload)
                _st.offloadOpt.assign(_st.offloadOpt.size(), false);
            _cur = outcomes[b].report;
            commitBest(materializePlan(_st, _ctx.mapping,
                                       _ctx.cfg.d2dStriping),
                       outcomes[b]);
        }
        _phase = Phase::Fine;
        _iter = 0;
    }

    /** Fine-tune ladder: un-swap the biggest GPU-CPU classes back to
     *  recomputation, prefix by prefix. */
    std::vector<CompactionPlan>
    proposeFine()
    {
        if (_iter >= _ctx.cfg.maxIterations) {
            _phase = Phase::Done;
            return {};
        }
        std::vector<Candidate *> swaps;
        for (auto &stage_cands : _st.candidates) {
            for (auto &c : stage_cands) {
                if (c.chosen == Kind::GpuCpuSwap)
                    swaps.push_back(&c);
            }
        }
        if (swaps.empty()) {
            _phase = Phase::Done;
            return {};
        }
        std::stable_sort(swaps.begin(), swaps.end(),
                         [](const Candidate *a, const Candidate *b) {
                             return a->savings > b->savings;
                         });
        _pendingFlips.clear();
        std::vector<CompactionPlan> trials;
        for (int batch = kD2dBatchPerStep; batch >= 1; batch /= 2) {
            std::size_t take = std::min(
                static_cast<std::size_t>(batch), swaps.size());
            std::vector<Candidate *> flips(
                swaps.begin(),
                swaps.begin() + static_cast<long>(take));
            for (Candidate *c : flips)
                c->chosen = Kind::Recompute;
            trials.push_back(materializePlan(
                _st, _ctx.mapping, _ctx.cfg.d2dStriping));
            for (Candidate *c : flips)
                c->chosen = Kind::GpuCpuSwap;
            _pendingFlips.push_back(std::move(flips));
        }
        return trials;
    }

    void
    observeFine(const std::vector<TrialOutcome> &outcomes)
    {
        int best = SearchDriver::pickBest(
            outcomes, _cur.samplesPerSec, kAcceptGain);
        if (best < 0) {
            _phase = Phase::Done;
            return;
        }
        auto b = static_cast<std::size_t>(best);
        for (Candidate *c : _pendingFlips[b])
            c->chosen = Kind::Recompute;
        _cur = outcomes[b].report;
        commitBest(materializePlan(_st, _ctx.mapping,
                                   _ctx.cfg.d2dStriping),
                   outcomes[b]);
        ++_iter;
    }

    std::vector<Kind>
    snapshot() const
    {
        std::vector<Kind> kinds;
        for (const auto &stage_cands : _st.candidates)
            for (const auto &c : stage_cands)
                kinds.push_back(c.chosen);
        return kinds;
    }

    void
    restore(const std::vector<Kind> &kinds)
    {
        std::size_t i = 0;
        for (auto &stage_cands : _st.candidates)
            for (auto &c : stage_cands)
                c.chosen = kinds[i++];
    }

    struct Variant
    {
        bool rcMax;
        bool keepOffload;
    };
    static constexpr Variant kCoarseVariants[3] = {
        {true, true}, {false, false}, {true, false}};

    Phase _phase = Phase::Flip;
    int _iter = 0;
    runtime::TrainingReport _cur;
    std::vector<std::vector<Candidate *>> _pendingFlips;
    std::vector<std::vector<Kind>> _coarseKinds;
};

/**
 * Fixed-seed simulated annealing over budget-legal plan mutations.
 * Where the greedy ladder only moves along its cost ordering, the
 * walker can un-offload an optimizer, trade a D2D grant between
 * stages, or compact a class the seed left resident — moves the
 * ladder structurally cannot reach — and may accept a measured
 * regression (Metropolis) to get there.
 */
class SimulatedAnneal final : public Strategy
{
  public:
    SimulatedAnneal(const RaceCtx &ctx, const PlanState &seed,
                    const CompactionPlan &seed_plan,
                    const runtime::TrainingReport &seed_report)
        : Strategy("simulated-anneal", ctx, seed, seed_plan,
                   seed_report),
          _rng(util::fnv1a64("mpress.portfolio.anneal")),
          _walkerScore(seed_report.samplesPerSec),
          _temp(seed_report.samplesPerSec * 0.05),
          _maxRounds(2 * ctx.cfg.maxIterations)
    {
    }

    std::vector<CompactionPlan>
    propose() override
    {
        if (_round >= _maxRounds)
            return {};
        ++_round;
        _pending.clear();
        std::vector<CompactionPlan> trials;
        for (int k = 0; k < kWidth; ++k) {
            PlanState s = _st;
            auto muts =
                1 + static_cast<int>(_rng.nextBounded(2));
            bool changed = false;
            for (int m = 0; m < muts; ++m)
                changed |= mutate(s);
            if (!changed)
                continue;
            trials.push_back(materializePlan(
                s, _ctx.mapping, _ctx.cfg.d2dStriping));
            _pending.push_back(std::move(s));
        }
        _proposed += trials.size();
        return trials;
    }

    void
    observe(const std::vector<TrialOutcome> &outcomes) override
    {
        int adopt = -1;
        double adopt_score = 0.0;
        for (std::size_t i = 0; i < outcomes.size(); ++i) {
            const TrialOutcome &o = outcomes[i];
            if (o.report.oom || !o.verified)
                continue;
            double sc = o.report.samplesPerSec;
            bool accept = sc > _walkerScore;
            if (!accept) {
                double t = std::max(_temp, 1e-9);
                accept = _rng.nextDouble() <
                         std::exp((sc - _walkerScore) / t);
            }
            if (accept && (adopt < 0 || sc > adopt_score)) {
                adopt = static_cast<int>(i);
                adopt_score = sc;
            }
            if (o.accepted(_bestScore, kAcceptGain)) {
                commitBest(materializePlan(_pending[i], _ctx.mapping,
                                           _ctx.cfg.d2dStriping),
                           o);
            }
        }
        if (adopt >= 0) {
            _st = std::move(_pending[static_cast<std::size_t>(adopt)]);
            _walkerScore = adopt_score;
        }
        _temp *= 0.85;
    }

  private:
    /** Apply one random legal mutation to @p s; false if none of the
     *  bounded draws produced a change. */
    bool
    mutate(PlanState &s)
    {
        for (int attempt = 0; attempt < 8; ++attempt) {
            switch (_rng.nextBounded(5)) {
              case 0:
                if (tryFlipToD2d(s))
                    return true;
                break;
              case 1:
                if (tryRetireD2d(s))
                    return true;
                break;
              case 2:
                if (tryToggleClass(s))
                    return true;
                break;
              case 3: {
                auto st = _rng.nextBounded(s.offloadOpt.size());
                s.offloadOpt[st] = !s.offloadOpt[st];
                return true;
              }
              default: {
                auto st = _rng.nextBounded(s.offloadStash.size());
                if (s.offloadStash[st]) {
                    s.offloadStash[st] = false;
                    return true;
                }
                if (_ctx.sched.weightVersions(
                        static_cast<int>(st)) > 2) {
                    s.offloadStash[st] = true;
                    return true;
                }
                break;
              }
            }
        }
        return false;
    }

    bool
    tryFlipToD2d(PlanState &s)
    {
        std::vector<std::pair<int, Bytes>> debits;
        for (const auto &stage_cands : s.candidates) {
            for (const auto &c : stage_cands) {
                if (c.chosen == Kind::D2dSwap) {
                    debits.emplace_back(_ctx.gpuOf(c.ref.stage),
                                        c.savings);
                }
            }
        }
        std::map<int, Bytes> budget =
            remainingGrantBudget(_ctx.mapping.grants, debits);
        for (int attempt = 0; attempt < 8; ++attempt) {
            auto &sc =
                s.candidates[_rng.nextBounded(s.candidates.size())];
            if (sc.empty())
                continue;
            Candidate &c = sc[_rng.nextBounded(sc.size())];
            if (c.chosen == Kind::D2dSwap)
                continue;
            auto it = budget.find(_ctx.gpuOf(c.ref.stage));
            if (it == budget.end() || it->second < c.savings)
                continue;
            c.chosen = Kind::D2dSwap;
            return true;
        }
        return false;
    }

    bool
    tryRetireD2d(PlanState &s)
    {
        std::vector<Candidate *> d2d;
        for (auto &stage_cands : s.candidates)
            for (auto &c : stage_cands)
                if (c.chosen == Kind::D2dSwap)
                    d2d.push_back(&c);
        if (d2d.empty())
            return false;
        d2d[_rng.nextBounded(d2d.size())]->chosen = Kind::Recompute;
        return true;
    }

    bool
    tryToggleClass(PlanState &s)
    {
        for (int attempt = 0; attempt < 8; ++attempt) {
            auto &sc =
                s.candidates[_rng.nextBounded(s.candidates.size())];
            if (sc.empty())
                continue;
            Candidate &c = sc[_rng.nextBounded(sc.size())];
            switch (c.chosen) {
              case Kind::Recompute:
                c.chosen = Kind::GpuCpuSwap;
                return true;
              case Kind::GpuCpuSwap:
                c.chosen = Kind::Recompute;
                return true;
              case Kind::None:
                c.chosen = Kind::Recompute;
                return true;
              default:
                continue;
            }
        }
        return false;
    }

    static constexpr int kWidth = 4;

    util::SplitMix64 _rng;
    double _walkerScore;
    double _temp;
    int _round = 0;
    const int _maxRounds;
    std::vector<PlanState> _pending;
};

/**
 * Analysis-guided best-first search: neighbor states are priced by
 * the static analyzer's certificate (microseconds per plan) and only
 * the frontier's highest throughput-upper-bound nodes spend an
 * emulated iteration.  Certificates also prune for free: a neighbor
 * the analyzer proves OOM is never pushed, and when the frontier's
 * best bound cannot beat the race's shared best-so-far score, the
 * whole frontier is provably beaten and the strategy retires.
 */
class BestFirst final : public Strategy
{
  public:
    BestFirst(const RaceCtx &ctx, const PlanState &seed,
              const CompactionPlan &seed_plan,
              const runtime::TrainingReport &seed_report)
        : Strategy("best-first", ctx, seed, seed_plan, seed_report),
          _maxRounds(2 * ctx.cfg.maxIterations)
    {
        expandFrom(_st);
    }

    std::vector<CompactionPlan>
    propose() override
    {
        if (_round >= _maxRounds)
            return {};
        ++_round;
        _pending.clear();
        std::vector<CompactionPlan> trials;
        const double floor =
            _ctx.shared.score() * (1.0 + kAcceptGain);
        while (static_cast<int>(trials.size()) < kWidth &&
               !_frontier.empty()) {
            if (_frontier.top().ub <= floor) {
                // Max-heap: every remaining node is bounded below
                // the shared best too — the certificate tier has
                // disproved the entire frontier.
                _frontier = {};
                break;
            }
            Node n = _frontier.top();
            _frontier.pop();
            trials.push_back(materializePlan(
                n.state, _ctx.mapping, _ctx.cfg.d2dStriping));
            _pending.push_back(std::move(n.state));
        }
        _proposed += trials.size();
        return trials;
    }

    void
    observe(const std::vector<TrialOutcome> &outcomes) override
    {
        for (std::size_t i = 0; i < outcomes.size(); ++i) {
            const TrialOutcome &o = outcomes[i];
            if (!o.accepted(_bestScore, kAcceptGain))
                continue;
            commitBest(materializePlan(_pending[i], _ctx.mapping,
                                       _ctx.cfg.d2dStriping),
                       o);
            expandFrom(_pending[i]);
        }
    }

  private:
    struct Node
    {
        double ub = 0.0;
        std::uint64_t seq = 0;  ///< insertion order (tie-break)
        PlanState state;
    };
    struct NodeLess
    {
        bool
        operator()(const Node &a, const Node &b) const
        {
            if (a.ub != b.ub)
                return a.ub < b.ub;
            return a.seq > b.seq;  // earlier push wins ties
        }
    };

    /** Push @p state's unseen, not-provably-OOM neighbors, priced by
     *  their certificate's throughput upper bound.  Neighbor moves
     *  are per stage, in stage order: flip the costliest non-D2D
     *  class to D2D (budget permitting), retire the optimizer
     *  offload, recompute every GPU-CPU-swapped class. */
    void
    expandFrom(const PlanState &base)
    {
        std::vector<std::pair<int, Bytes>> debits;
        for (const auto &stage_cands : base.candidates) {
            for (const auto &c : stage_cands) {
                if (c.chosen == Kind::D2dSwap) {
                    debits.emplace_back(_ctx.gpuOf(c.ref.stage),
                                        c.savings);
                }
            }
        }
        std::map<int, Bytes> budget =
            remainingGrantBudget(_ctx.mapping.grants, debits);

        for (std::size_t s = 0; s < base.candidates.size(); ++s) {
            // Costliest surviving class -> D2D.
            const Candidate *pick = nullptr;
            for (const auto &c : base.candidates[s]) {
                if (c.chosen != Kind::Recompute &&
                    c.chosen != Kind::GpuCpuSwap)
                    continue;
                if (!pick ||
                    c.chosenExtra() > pick->chosenExtra() ||
                    (c.chosenExtra() == pick->chosenExtra() &&
                     c.savings > pick->savings))
                    pick = &c;
            }
            if (pick) {
                auto it = budget.find(
                    _ctx.gpuOf(static_cast<int>(s)));
                if (it != budget.end() &&
                    it->second >= pick->savings) {
                    PlanState next = base;
                    next.candidates[s][static_cast<std::size_t>(
                                           pick -
                                           base.candidates[s].data())]
                        .chosen = Kind::D2dSwap;
                    push(std::move(next));
                }
            }
            // Retire the optimizer offload.
            if (base.offloadOpt[s]) {
                PlanState next = base;
                next.offloadOpt[s] = false;
                push(std::move(next));
            }
            // Recompute every swapped class on the stage.
            bool any_swap = false;
            for (const auto &c : base.candidates[s])
                any_swap |= c.chosen == Kind::GpuCpuSwap;
            if (any_swap) {
                PlanState next = base;
                for (auto &c : next.candidates[s])
                    if (c.chosen == Kind::GpuCpuSwap)
                        c.chosen = Kind::Recompute;
                push(std::move(next));
            }
        }
    }

    void
    push(PlanState state)
    {
        CompactionPlan plan = materializePlan(
            state, _ctx.mapping, _ctx.cfg.d2dStriping);
        // The key leaves dead grants out, but every state here
        // materializes with the one mapping's grants, so two distinct
        // states never share a key through their grants alone.
        std::string key = SearchDriver::trialKeyBinary(
            plan, _ctx.driver.trialConfig(), "");
        if (!_seen.insert(std::move(key)).second)
            return;
        analysis::AnalysisCertificate cert = analysis::analyzePlan(
            _ctx.topo, _ctx.mdl, _ctx.part, _ctx.sched, plan);
        if (!cert.valid || cert.provableOom)
            return;
        _frontier.push(
            {cert.throughputUpperBound, _seq++, std::move(state)});
    }

    static constexpr int kWidth = 4;

    std::priority_queue<Node, std::vector<Node>, NodeLess> _frontier;
    std::unordered_set<std::string> _seen;
    std::uint64_t _seq = 0;
    int _round = 0;
    const int _maxRounds;
    std::vector<PlanState> _pending;
};

} // namespace

RaceResult
racePortfolio(SearchDriver &driver, const hw::Topology &topo,
              const model::TransformerModel &mdl,
              const partition::Partition &part,
              const pipeline::Schedule &sched,
              const MappingResult &mapping, const PlannerConfig &cfg,
              const PlanState &seed_state,
              const compaction::CompactionPlan &seed_plan,
              const runtime::TrainingReport &seed_report)
{
    SharedBest shared;
    shared.publish(seed_report.samplesPerSec);
    RaceCtx ctx{driver, topo,    mdl, part,
                sched,  mapping, cfg, shared};

    std::vector<std::unique_ptr<Strategy>> strategies;
    strategies.push_back(std::make_unique<GreedyWavefront>(
        ctx, seed_state, seed_plan, seed_report));
    if (cfg.portfolio) {
        strategies.push_back(std::make_unique<SimulatedAnneal>(
            ctx, seed_state, seed_plan, seed_report));
        strategies.push_back(std::make_unique<BestFirst>(
            ctx, seed_state, seed_plan, seed_report));
    }

    std::vector<bool> active(strategies.size(), true);
    const auto start = std::chrono::steady_clock::now();
    auto deadline_expired = [&]() {
        if (cfg.deadlineMs <= 0.0)
            return false;
        double ms = std::chrono::duration<double, std::milli>(
                        std::chrono::steady_clock::now() - start)
                        .count();
        return ms >= cfg.deadlineMs;
    };

    while (true) {
        // Assemble one wavefront from every active strategy.
        std::vector<CompactionPlan> wave;
        std::vector<std::pair<std::size_t, std::size_t>> slices;
        for (std::size_t i = 0; i < strategies.size(); ++i) {
            std::size_t begin = wave.size();
            if (active[i]) {
                auto trials = strategies[i]->propose();
                if (trials.empty()) {
                    active[i] = false;
                } else {
                    wave.insert(wave.end(),
                                std::make_move_iterator(
                                    trials.begin()),
                                std::make_move_iterator(trials.end()));
                }
            }
            slices.emplace_back(begin, wave.size() - begin);
        }
        if (wave.empty())
            break;  // every strategy retired

        auto outcomes = driver.evaluate(wave);

        for (std::size_t i = 0; i < strategies.size(); ++i) {
            auto [begin, count] = slices[i];
            if (count == 0)
                continue;
            std::vector<TrialOutcome> slice(
                std::make_move_iterator(
                    outcomes.begin() + static_cast<long>(begin)),
                std::make_move_iterator(
                    outcomes.begin() +
                    static_cast<long>(begin + count)));
            strategies[i]->observe(slice);
            shared.publish(strategies[i]->bestScore());
        }

        if (deadline_expired())
            break;  // anytime stop: the shared best stands
    }

    // Deterministic winner: best verified throughput, lowest
    // strategy index on ties (every best is at least the seed).
    std::size_t win = 0;
    for (std::size_t i = 1; i < strategies.size(); ++i) {
        if (strategies[i]->bestScore() >
            strategies[win]->bestScore())
            win = i;
    }

    RaceResult out;
    out.plan = strategies[win]->bestPlan();
    out.report = strategies[win]->bestReport();
    out.winner = static_cast<int>(win);
    out.iterations = static_cast<int>(strategies[win]->committed());
    for (std::size_t i = 0; i < strategies.size(); ++i) {
        StrategyStats row;
        row.name = strategies[i]->name();
        row.proposed = strategies[i]->proposed();
        row.committed = strategies[i]->committed();
        row.bestScore = strategies[i]->bestScore();
        row.exhausted = !active[i];
        out.stats.push_back(std::move(row));
    }
    return out;
}

} // namespace planner
} // namespace mpress
