#include "pipeline/schedule.hh"

#include <algorithm>

#include "util/logging.hh"
#include "util/strings.hh"

namespace mpress {
namespace pipeline {

const char *
systemKindName(SystemKind kind)
{
    switch (kind) {
      case SystemKind::PipeDream:
        return "PipeDream";
      case SystemKind::Dapple:
        return "DAPPLE";
      case SystemKind::Gpipe:
        return "GPipe";
    }
    return "?";
}

void
Schedule::buildIndex()
{
    const std::size_t slots =
        static_cast<std::size_t>(numStages) *
        static_cast<std::size_t>(totalMicrobatches());
    fwdIndex.assign(slots, -1);
    bwdIndex.assign(slots, -1);
    const int M = totalMicrobatches();
    for (const Task &t : tasks) {
        if (t.stage < 0 || t.stage >= numStages || t.microbatch < 0 ||
            t.microbatch >= M)
            continue;  // OptimStep rows carry microbatch -1
        auto slot = static_cast<std::size_t>(t.stage) *
                        static_cast<std::size_t>(M) +
                    static_cast<std::size_t>(t.microbatch);
        if (t.kind == TaskKind::Forward)
            fwdIndex[slot] = t.id;
        else if (t.kind == TaskKind::Backward)
            bwdIndex[slot] = t.id;
    }
}

int
Schedule::fwdId(int stage, int mb) const
{
    if (!fwdIndex.empty()) {
        const int M = totalMicrobatches();
        if (stage < 0 || stage >= numStages || mb < 0 || mb >= M)
            return -1;
        return fwdIndex[static_cast<std::size_t>(stage) *
                            static_cast<std::size_t>(M) +
                        static_cast<std::size_t>(mb)];
    }
    for (int id : perStageOrder.at(stage)) {
        const Task &t = tasks[id];
        if (t.kind == TaskKind::Forward && t.microbatch == mb)
            return id;
    }
    return -1;
}

int
Schedule::bwdId(int stage, int mb) const
{
    if (!bwdIndex.empty()) {
        const int M = totalMicrobatches();
        if (stage < 0 || stage >= numStages || mb < 0 || mb >= M)
            return -1;
        return bwdIndex[static_cast<std::size_t>(stage) *
                            static_cast<std::size_t>(M) +
                        static_cast<std::size_t>(mb)];
    }
    for (int id : perStageOrder.at(stage)) {
        const Task &t = tasks[id];
        if (t.kind == TaskKind::Backward && t.microbatch == mb)
            return id;
    }
    return -1;
}

int
Schedule::maxInFlight(int stage) const
{
    int live = 0, peak = 0;
    for (int id : perStageOrder.at(stage)) {
        const Task &t = tasks[id];
        if (t.kind == TaskKind::Forward) {
            ++live;
            peak = std::max(peak, live);
        } else if (t.kind == TaskKind::Backward) {
            --live;
        }
    }
    return peak;
}

int
Schedule::weightVersions(int stage) const
{
    if (!weightStashing)
        return 1;
    // A minibatch is open from its stage's first forward until its
    // optimizer step.  One flag per minibatch, so the scan allocates
    // once however long the window is.
    const auto &order = perStageOrder.at(stage);
    int lo = 0;
    int hi = -1;
    for (int id : order) {
        lo = std::min(lo, tasks[id].minibatch);
        hi = std::max(hi, tasks[id].minibatch);
    }
    std::vector<char> open(static_cast<std::size_t>(hi - lo + 1), 0);
    int live = 0;
    int peak = 1;
    for (int id : order) {
        const Task &t = tasks[id];
        char &is_open = open[static_cast<std::size_t>(t.minibatch - lo)];
        if (t.kind == TaskKind::Forward && !is_open) {
            is_open = 1;
            peak = std::max(peak, ++live);
        } else if (t.kind == TaskKind::OptimStep && is_open) {
            is_open = 0;
            --live;
        }
    }
    return peak;
}

void
Schedule::validate() const
{
    if (static_cast<int>(perStageOrder.size()) != numStages)
        util::panic("schedule has %zu stage orders for %d stages",
                    perStageOrder.size(), numStages);

    std::vector<int> seen(tasks.size(), 0);
    for (int s = 0; s < numStages; ++s) {
        for (int id : perStageOrder[s]) {
            if (id < 0 || id >= static_cast<int>(tasks.size()))
                util::panic("stage %d order references bad task %d",
                            s, id);
            if (tasks[id].stage != s)
                util::panic("task %d (stage %d) listed on stage %d",
                            id, tasks[id].stage, s);
            ++seen[id];
        }
    }
    for (std::size_t id = 0; id < tasks.size(); ++id) {
        if (seen[id] != 1)
            util::panic("task %zu appears %d times in stage orders",
                        id, seen[id]);
        if (tasks[id].id != static_cast<int>(id))
            util::panic("task %zu has mismatched id %d", id,
                        tasks[id].id);
        for (int dep : tasks[id].deps) {
            if (dep < 0 || dep >= static_cast<int>(tasks.size()))
                util::panic("task %zu has bad dep %d", id, dep);
        }
    }

    const int M = totalMicrobatches();
    for (int s = 0; s < numStages; ++s) {
        for (int m = 0; m < M; ++m) {
            if (fwdId(s, m) < 0)
                util::panic("missing fwd(%d, %d)", s, m);
            if (bwdId(s, m) < 0)
                util::panic("missing bwd(%d, %d)", s, m);
        }
    }
}

namespace {

/** Incremental schedule builder shared by the three generators. */
class Builder
{
  public:
    Builder(SystemKind system, int num_stages, int mb_per_mini,
            int minibatches, bool stashing)
    {
        if (num_stages <= 0 || mb_per_mini <= 0 || minibatches <= 0)
            util::fatal("invalid schedule shape (%d stages, %d mb/mini,"
                        " %d minibatches)",
                        num_stages, mb_per_mini, minibatches);
        _sched.system = system;
        _sched.name = util::strformat("%s-s%d-m%d-n%d",
                                      systemKindName(system), num_stages,
                                      mb_per_mini, minibatches);
        _sched.numStages = num_stages;
        _sched.microbatchesPerMinibatch = mb_per_mini;
        _sched.numMinibatches = minibatches;
        _sched.weightStashing = stashing;
        _sched.perStageOrder.resize(num_stages);
        const int total = num_stages * mb_per_mini * minibatches;
        _fwd.assign(static_cast<std::size_t>(total), -1);
        _bwd.assign(static_cast<std::size_t>(total), -1);
    }

    int
    addForward(int stage, int mb)
    {
        Task t;
        t.kind = TaskKind::Forward;
        t.stage = stage;
        t.microbatch = mb;
        t.minibatch = mb / _sched.microbatchesPerMinibatch;
        if (stage > 0)
            t.deps.push_back(fwd(stage - 1, mb));
        return push(std::move(t), _fwd, stage, mb);
    }

    int
    addBackward(int stage, int mb)
    {
        Task t;
        t.kind = TaskKind::Backward;
        t.stage = stage;
        t.microbatch = mb;
        t.minibatch = mb / _sched.microbatchesPerMinibatch;
        if (stage < _sched.numStages - 1)
            t.deps.push_back(bwd(stage + 1, mb));
        else
            t.deps.push_back(fwd(stage, mb));
        return push(std::move(t), _bwd, stage, mb);
    }

    int
    addOptim(int stage, int minibatch)
    {
        Task t;
        t.kind = TaskKind::OptimStep;
        t.stage = stage;
        t.microbatch = -1;
        t.minibatch = minibatch;
        t.id = static_cast<int>(_sched.tasks.size());
        int id = t.id;
        _sched.tasks.push_back(std::move(t));
        _sched.perStageOrder[stage].push_back(id);
        return id;
    }

    int
    fwd(int stage, int mb) const
    {
        int id = _fwd[idx(stage, mb)];
        if (id < 0)
            util::panic("fwd(%d,%d) referenced before creation",
                        stage, mb);
        return id;
    }

    int
    bwd(int stage, int mb) const
    {
        int id = _bwd[idx(stage, mb)];
        if (id < 0)
            util::panic("bwd(%d,%d) referenced before creation",
                        stage, mb);
        return id;
    }

    Schedule
    take()
    {
        _sched.buildIndex();
        _sched.validate();
        return std::move(_sched);
    }

  private:
    std::size_t
    idx(int stage, int mb) const
    {
        return static_cast<std::size_t>(stage) *
               _sched.totalMicrobatches() + static_cast<std::size_t>(mb);
    }

    int
    push(Task t, std::vector<int> &table, int stage, int mb)
    {
        t.id = static_cast<int>(_sched.tasks.size());
        int id = t.id;
        table[idx(stage, mb)] = id;
        _sched.tasks.push_back(std::move(t));
        _sched.perStageOrder[stage].push_back(id);
        return id;
    }

    Schedule _sched;
    std::vector<int> _fwd;
    std::vector<int> _bwd;
};

} // namespace

Schedule
buildPipeDream(int num_stages, int mb_per_mini, int minibatches)
{
    Builder b(SystemKind::PipeDream, num_stages, mb_per_mini,
              minibatches, /*stashing=*/true);
    const int M = mb_per_mini * minibatches;

    // Asynchronous 1F1B: microbatches stream across minibatch
    // boundaries.  Backward creation must follow pipeline order
    // (stage S-1 first), so generate stage orders but register
    // cross-stage deps by creating tasks stage-by-stage from the
    // last stage backwards for backward tasks.  Easiest correct
    // construction: build per-stage orders as (kind, mb) streams,
    // then materialize forwards stage 0..S-1 and backwards stage
    // S-1..0, then stitch the per-stage order.
    struct Slot { TaskKind kind; int mb; int minibatch; };
    std::vector<std::vector<Slot>> plan(num_stages);
    for (int s = 0; s < num_stages; ++s) {
        int depth = std::min(num_stages - s, M);
        for (int m = 0; m < depth; ++m)
            plan[s].push_back({TaskKind::Forward, m, 0});
        for (int m = 0; m < M; ++m) {
            plan[s].push_back({TaskKind::Backward, m, 0});
            if ((m + 1) % mb_per_mini == 0) {
                plan[s].push_back({TaskKind::OptimStep, -1,
                                   m / mb_per_mini});
            }
            if (m + depth < M)
                plan[s].push_back({TaskKind::Forward, m + depth, 0});
        }
    }

    // Creation pass: tasks must exist before they can be referenced
    // as deps, so walk the per-stage plans round-robin, creating a
    // stage's next slot only once its cross-stage dependency exists.
    // Forwards depend on the previous stage, backwards on the next;
    // the round-robin sweep makes progress every pass until all
    // cursors reach the end (the plans are deadlock-free by
    // construction of 1F1B).
    std::vector<std::size_t> cursor(num_stages, 0);
    bool progress = true;

    // Track created task ids per (kind, stage, mb).
    std::vector<std::vector<int>> fwd_created(
        num_stages, std::vector<int>(M, -1));
    std::vector<std::vector<int>> bwd_created(
        num_stages, std::vector<int>(M, -1));

    while (progress) {
        progress = false;
        for (int s = 0; s < num_stages; ++s) {
            while (cursor[s] < plan[s].size()) {
                const Slot &slot = plan[s][cursor[s]];
                if (slot.kind == TaskKind::Forward) {
                    if (s > 0 && fwd_created[s - 1][slot.mb] < 0)
                        break;
                    fwd_created[s][slot.mb] = b.addForward(s, slot.mb);
                } else if (slot.kind == TaskKind::Backward) {
                    if (s < num_stages - 1 &&
                        bwd_created[s + 1][slot.mb] < 0)
                        break;
                    if (s == num_stages - 1 &&
                        fwd_created[s][slot.mb] < 0)
                        break;
                    bwd_created[s][slot.mb] = b.addBackward(s, slot.mb);
                } else {
                    b.addOptim(s, slot.minibatch);
                }
                ++cursor[s];
                progress = true;
            }
        }
    }
    for (int s = 0; s < num_stages; ++s) {
        if (cursor[s] != plan[s].size())
            util::panic("PipeDream schedule generation deadlocked at"
                        " stage %d", s);
    }
    return b.take();
}

namespace {

Schedule
buildSynchronous(SystemKind system, int num_stages, int mb_per_mini,
                 int minibatches, bool one_f_one_b)
{
    Builder b(system, num_stages, mb_per_mini, minibatches,
              /*stashing=*/false);
    const int M = mb_per_mini;

    for (int k = 0; k < minibatches; ++k) {
        const int base = k * M;
        struct Slot { TaskKind kind; int mb; };
        std::vector<std::vector<Slot>> plan(num_stages);
        for (int s = 0; s < num_stages; ++s) {
            if (one_f_one_b) {
                // DAPPLE early-backward: warmup then 1F1B then drain.
                int depth = std::min(num_stages - s, M);
                for (int m = 0; m < depth; ++m)
                    plan[s].push_back({TaskKind::Forward, base + m});
                for (int m = 0; m < M; ++m) {
                    plan[s].push_back({TaskKind::Backward, base + m});
                    if (m + depth < M) {
                        plan[s].push_back(
                            {TaskKind::Forward, base + m + depth});
                    }
                }
            } else {
                // GPipe fill-drain: all forwards, then backwards in
                // reverse microbatch order.
                for (int m = 0; m < M; ++m)
                    plan[s].push_back({TaskKind::Forward, base + m});
                for (int m = M - 1; m >= 0; --m)
                    plan[s].push_back({TaskKind::Backward, base + m});
            }
        }

        std::vector<std::size_t> cursor(num_stages, 0);
        std::vector<std::vector<int>> fwd_created(
            num_stages, std::vector<int>(M, -1));
        std::vector<std::vector<int>> bwd_created(
            num_stages, std::vector<int>(M, -1));
        bool progress = true;
        while (progress) {
            progress = false;
            for (int s = 0; s < num_stages; ++s) {
                while (cursor[s] < plan[s].size()) {
                    const Slot &slot = plan[s][cursor[s]];
                    int local = slot.mb - base;
                    if (slot.kind == TaskKind::Forward) {
                        if (s > 0 && fwd_created[s - 1][local] < 0)
                            break;
                        fwd_created[s][local] =
                            b.addForward(s, slot.mb);
                    } else {
                        if (s < num_stages - 1 &&
                            bwd_created[s + 1][local] < 0)
                            break;
                        if (s == num_stages - 1 &&
                            fwd_created[s][local] < 0)
                            break;
                        bwd_created[s][local] =
                            b.addBackward(s, slot.mb);
                    }
                    ++cursor[s];
                    progress = true;
                }
            }
        }
        for (int s = 0; s < num_stages; ++s) {
            if (cursor[s] != plan[s].size())
                util::panic("%s schedule generation deadlocked",
                            systemKindName(system));
            b.addOptim(s, k);
        }
    }
    return b.take();
}

} // namespace

Schedule
buildDapple(int num_stages, int mb_per_mini, int minibatches)
{
    return buildSynchronous(SystemKind::Dapple, num_stages, mb_per_mini,
                            minibatches, /*one_f_one_b=*/true);
}

Schedule
buildGpipe(int num_stages, int mb_per_mini, int minibatches)
{
    return buildSynchronous(SystemKind::Gpipe, num_stages, mb_per_mini,
                            minibatches, /*one_f_one_b=*/false);
}

Schedule
buildSchedule(SystemKind kind, int num_stages, int mb_per_mini,
              int minibatches)
{
    switch (kind) {
      case SystemKind::PipeDream:
        return buildPipeDream(num_stages, mb_per_mini, minibatches);
      case SystemKind::Dapple:
        return buildDapple(num_stages, mb_per_mini, minibatches);
      case SystemKind::Gpipe:
        return buildGpipe(num_stages, mb_per_mini, minibatches);
    }
    util::panic("unknown system kind");
}

} // namespace pipeline
} // namespace mpress
