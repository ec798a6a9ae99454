/**
 * @file
 * MPressSession — the top-level public API of the library.
 *
 * A session describes one training job: which server, which model at
 * which microbatch size, which inter-operator system (PipeDream /
 * DAPPLE / GPipe) and which memory strategy.  run() simulates the job
 * and returns a uniform result whatever the strategy, so examples and
 * benchmark harnesses compare systems with identical code.
 *
 * Strategies mirror the paper's evaluated configurations:
 *   None        — the stock inter-operator system (Fig. 7 "PipeDream")
 *   Recompute   — recompute-everything baseline
 *   GpuCpuSwap  — swap-everything baseline (activations + optimizer)
 *   D2dOnly     — MPress with only D2D swap enabled
 *   MPressFull  — the full planner (D2D + GPU-CPU swap + recompute)
 *   ZeroOffload / ZeroInfinity — DeepSpeed data-parallel baselines
 */

#ifndef MPRESS_API_SESSION_HH
#define MPRESS_API_SESSION_HH

#include <optional>
#include <string>

#include "analysis/analyzer.hh"
#include "baselines/zero.hh"
#include "hw/topology.hh"
#include "model/model.hh"
#include "partition/partition.hh"
#include "pipeline/schedule.hh"
#include "planner/planner.hh"
#include "runtime/executor.hh"
#include "verify/verify.hh"

namespace mpress {
namespace api {

/** Memory strategy of a session. */
enum class Strategy
{
    None,
    Recompute,
    GpuCpuSwap,
    D2dOnly,
    MPressFull,
    ZeroOffload,
    ZeroInfinity,
};

/** Returns a display name for @p s. */
const char *strategyName(Strategy s);

/** How a session treats static plan verification. */
enum class VerifyMode
{
    Off,         ///< skip verification entirely
    Permissive,  ///< verify and record findings, run regardless
    Strict,      ///< warnings promote to errors; errors reject the run
};

/**
 * Checked name parsers for untrusted configuration fields.  The CLI
 * flags and the mpress-serve request fields both go through these, so
 * a served request and the equivalent command line can never drift
 * apart (the byte-identical-plan contract depends on that).  Each
 * returns false on an unknown name, leaving @p out untouched.
 */
bool strategyFromName(const std::string &name, Strategy *out);
bool verifyModeFromName(const std::string &name, VerifyMode *out);
bool systemKindFromName(const std::string &name,
                        pipeline::SystemKind *out);

/** Named topology presets served by the daemon: single nodes ("dgx1"
 *  / "dgx2") and cluster presets ("2x-dgx2", "8x-hgx-h100", or any
 *  "<N>x-<node>" with a known node preset and N in [1, 64]); nullopt
 *  on an unknown name. */
std::optional<hw::Topology> topologyFromName(const std::string &name);

/** Full description of one training job. */
struct SessionConfig
{
    model::ModelConfig model;
    int microbatch = 2;
    pipeline::SystemKind system = pipeline::SystemKind::PipeDream;
    int numStages = 8;
    int microbatchesPerMinibatch = 8;
    int minibatches = 2;
    partition::Strategy partition =
        partition::Strategy::ComputeBalanced;
    Strategy strategy = Strategy::None;

    /** Executor tunables.  The planner strategies always plan
     *  fault-free and unrecorded; when executor.faults names a
     *  scenario or executor.record is set, the finished plan is
     *  replayed once with these tunables for the reported run. */
    runtime::ExecutorConfig executor;

    /** Planner tunables, forwarded verbatim to planMPress /
     *  planD2dOnly — including the portfolio race
     *  (planner.portfolio) and the anytime deadline
     *  (planner.deadlineMs); per-strategy race accounting comes
     *  back in SessionResult::planResult.strategyStats. */
    planner::PlannerConfig planner;
    baselines::ZeroConfig zero;  ///< variant field is overridden

    /** Static plan verification before execution (pipeline
     *  strategies only; ZeRO baselines carry no plan). */
    VerifyMode verifyMode = VerifyMode::Permissive;
    verify::Options verifyOptions;
};

/** Uniform result across pipeline and ZeRO strategies. */
struct SessionResult
{
    std::string name;
    Strategy strategy = Strategy::None;
    bool oom = false;
    double samplesPerSec = 0.0;
    double tflops = 0.0;
    util::Bytes maxGpuPeak = 0;

    /** Set for pipeline strategies (None..MPressFull). */
    runtime::TrainingReport report;
    /** The plan that ran (empty for None / ZeRO). */
    compaction::CompactionPlan plan;
    /** Planner metadata for D2dOnly / MPressFull. */
    planner::PlanResult planResult;
    /** Set for ZeRO strategies. */
    baselines::ZeroReport zeroReport;

    /** Verification findings (empty when verifyMode is Off). */
    verify::Report verification;
    /** True when strict verification rejected the plan; the training
     *  run was skipped and throughput fields are zero. */
    bool rejected = false;
};

/**
 * A configured training job bound to a server topology.
 */
class MPressSession
{
  public:
    MPressSession(hw::Topology topo, SessionConfig cfg);

    /** Simulate the job and return the uniform result. */
    SessionResult run() const;

    /** Statically verify @p plan against this session's job (used by
     *  run() and by callers loading serialized plans). */
    verify::Report
    verifyPlan(const compaction::CompactionPlan &plan) const;

    /** Run the static plan analyzer on @p plan against this session's
     *  job: per-GPU peak-memory intervals, a critical-path latency
     *  lower bound, and a throughput upper bound. */
    analysis::AnalysisCertificate
    analyzePlan(const compaction::CompactionPlan &plan) const;

    const hw::Topology &topology() const { return _topo; }
    const SessionConfig &config() const { return _cfg; }
    const model::TransformerModel &model() const { return _mdl; }
    const partition::Partition &partition() const { return _part; }
    const pipeline::Schedule &schedule() const { return _sched; }

  private:
    /** The options verifyPlan() checks under: verifyOptions, strict
     *  in a strict session. */
    verify::Options verifyOptions() const;

    hw::Topology _topo;
    SessionConfig _cfg;
    model::TransformerModel _mdl;
    partition::Partition _part;
    pipeline::Schedule _sched;
};

/** One-call convenience wrapper. */
SessionResult runSession(const hw::Topology &topo,
                         const SessionConfig &cfg);

} // namespace api
} // namespace mpress

#endif // MPRESS_API_SESSION_HH
