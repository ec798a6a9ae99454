#include "api/session.hh"

#include "cluster/cluster.hh"
#include "planner/search.hh"
#include "util/logging.hh"
#include "util/strings.hh"

namespace mpress {
namespace api {

const char *
strategyName(Strategy s)
{
    switch (s) {
      case Strategy::None:
        return "none";
      case Strategy::Recompute:
        return "recompute";
      case Strategy::GpuCpuSwap:
        return "gpu-cpu-swap";
      case Strategy::D2dOnly:
        return "mpress-d2d-only";
      case Strategy::MPressFull:
        return "mpress";
      case Strategy::ZeroOffload:
        return "zero-offload";
      case Strategy::ZeroInfinity:
        return "zero-infinity";
    }
    return "?";
}

bool
strategyFromName(const std::string &name, Strategy *out)
{
    // "d2d-only" is the CLI spelling; strategyName() renders the
    // longer display form, so accept both.
    if (name == "none")
        *out = Strategy::None;
    else if (name == "recompute")
        *out = Strategy::Recompute;
    else if (name == "gpu-cpu-swap")
        *out = Strategy::GpuCpuSwap;
    else if (name == "d2d-only" || name == "mpress-d2d-only")
        *out = Strategy::D2dOnly;
    else if (name == "mpress")
        *out = Strategy::MPressFull;
    else if (name == "zero-offload")
        *out = Strategy::ZeroOffload;
    else if (name == "zero-infinity")
        *out = Strategy::ZeroInfinity;
    else
        return false;
    return true;
}

bool
verifyModeFromName(const std::string &name, VerifyMode *out)
{
    if (name == "off")
        *out = VerifyMode::Off;
    else if (name == "permissive")
        *out = VerifyMode::Permissive;
    else if (name == "strict")
        *out = VerifyMode::Strict;
    else
        return false;
    return true;
}

bool
systemKindFromName(const std::string &name,
                   pipeline::SystemKind *out)
{
    if (name == "pipedream")
        *out = pipeline::SystemKind::PipeDream;
    else if (name == "dapple")
        *out = pipeline::SystemKind::Dapple;
    else if (name == "gpipe")
        *out = pipeline::SystemKind::Gpipe;
    else
        return false;
    return true;
}

std::optional<hw::Topology>
topologyFromName(const std::string &name)
{
    if (name == "dgx1")
        return hw::Topology::dgx1V100();
    if (name == "dgx2")
        return hw::Topology::dgx2A100();
    // Cluster presets: "2x-dgx2", "8x-hgx-h100" and the generic
    // "<N>x-<node>" family resolve through the cluster registry.
    if (std::optional<cluster::ClusterSpec> spec =
            cluster::clusterByName(name))
        return cluster::buildCluster(*spec);
    return std::nullopt;
}

MPressSession::MPressSession(hw::Topology topo, SessionConfig cfg)
    : _topo(std::move(topo)), _cfg(std::move(cfg)),
      _mdl(_cfg.model, _cfg.microbatch),
      _part(partition::partitionModel(_mdl, _cfg.numStages,
                                      _cfg.partition)),
      _sched(pipeline::buildSchedule(_cfg.system, _cfg.numStages,
                                     _cfg.microbatchesPerMinibatch,
                                     _cfg.minibatches))
{}

SessionResult
MPressSession::run() const
{
    SessionResult result;
    result.strategy = _cfg.strategy;
    result.name = util::strformat(
        "%s/%s/%s", _cfg.model.name.c_str(),
        pipeline::systemKindName(_cfg.system),
        strategyName(_cfg.strategy));

    // ZeRO baselines bypass the pipeline machinery entirely.
    if (_cfg.strategy == Strategy::ZeroOffload ||
        _cfg.strategy == Strategy::ZeroInfinity) {
        baselines::ZeroConfig zc = _cfg.zero;
        zc.variant = _cfg.strategy == Strategy::ZeroOffload
                         ? baselines::ZeroVariant::Offload
                         : baselines::ZeroVariant::Infinity;
        zc.microbatch = _cfg.microbatch;
        result.zeroReport = baselines::runZero(_topo, _cfg.model, zc);
        result.oom = result.zeroReport.oom;
        result.samplesPerSec = result.zeroReport.samplesPerSec;
        result.tflops = result.zeroReport.tflops;
        result.maxGpuPeak = result.zeroReport.gpuPeak;
        return result;
    }

    // Build the strategy's plan first so static verification can
    // gate execution.  The planner strategies emulate while planning,
    // so their training report arrives with the plan.
    switch (_cfg.strategy) {
      case Strategy::None:
        break;
      case Strategy::Recompute:
        result.plan = planner::recomputeAllPlan(_part);
        break;
      case Strategy::GpuCpuSwap:
        result.plan = planner::gpuCpuSwapAllPlan(_part);
        break;
      case Strategy::D2dOnly:
        result.planResult = planner::planD2dOnly(
            _topo, _mdl, _part, _sched, _cfg.planner, _cfg.executor);
        result.plan = result.planResult.plan;
        break;
      case Strategy::MPressFull:
        result.planResult = planner::planMPress(
            _topo, _mdl, _part, _sched, _cfg.planner, _cfg.executor);
        result.plan = result.planResult.plan;
        break;
      default:
        util::panic("unhandled strategy");
    }

    if (_cfg.verifyMode != VerifyMode::Off) {
        // The planner strategies verify their plan as they return it;
        // under the same options that report is reused, not redone.
        const bool planned = _cfg.strategy == Strategy::D2dOnly ||
                             _cfg.strategy == Strategy::MPressFull;
        if (planned && verifyOptions() == verify::Options{})
            result.verification = result.planResult.verification;
        else
            result.verification = verifyPlan(result.plan);
        if (_cfg.verifyMode == VerifyMode::Strict &&
            !result.verification.ok()) {
            result.rejected = true;
            util::warn("session %s: plan rejected by strict"
                       " verification (%s)",
                       result.name.c_str(),
                       result.verification.summary().c_str());
            return result;
        }
    }

    switch (_cfg.strategy) {
      case Strategy::D2dOnly:
      case Strategy::MPressFull:
        if (_cfg.executor.faults != nullptr || _cfg.executor.record) {
            // Planning always emulates fault-free and unrecorded, so
            // the planner's final report never saw the scenario and
            // holds no trace.  Replay the finished plan once to get
            // the degraded or recorded report.
            result.report = runtime::runTraining(_topo, _mdl, _part,
                                                 _sched, result.plan,
                                                 _cfg.executor);
        } else {
            result.report = result.planResult.finalReport;
        }
        break;
      default:
        result.report = runtime::runTraining(_topo, _mdl, _part,
                                             _sched, result.plan,
                                             _cfg.executor);
        break;
    }

    result.oom = result.report.oom;
    result.samplesPerSec = result.report.samplesPerSec;
    result.tflops = result.report.tflops;
    result.maxGpuPeak = result.report.maxGpuPeak();
    return result;
}

analysis::AnalysisCertificate
MPressSession::analyzePlan(
    const compaction::CompactionPlan &plan) const
{
    return analysis::analyzePlan(_topo, _mdl, _part, _sched, plan);
}

verify::Options
MPressSession::verifyOptions() const
{
    verify::Options opts = _cfg.verifyOptions;
    opts.strict =
        opts.strict || _cfg.verifyMode == VerifyMode::Strict;
    return opts;
}

verify::Report
MPressSession::verifyPlan(const compaction::CompactionPlan &plan) const
{
    return verify::verifyPlan(_topo, _mdl, _part, _sched, plan,
                              verifyOptions());
}

SessionResult
runSession(const hw::Topology &topo, const SessionConfig &cfg)
{
    MPressSession session(topo, cfg);
    return session.run();
}

} // namespace api
} // namespace mpress
