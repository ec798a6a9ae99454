/**
 * @file
 * Fault injector: answers "is this resource degraded right now?"
 * against a Scenario, with a seeded PRNG for probabilistic stripe
 * failures.  The injector is passive policy — the runtime drives it
 * at the points where faults take effect (compute submission, fabric
 * transfer shaping, D2D stripe issue), which keeps every draw on the
 * deterministic discrete-event order.
 */

#ifndef MPRESS_FAULT_INJECTOR_HH
#define MPRESS_FAULT_INJECTOR_HH

#include "fault/scenario.hh"
#include "hw/fabric.hh"
#include "sim/engine.hh"
#include "util/random.hh"

namespace mpress {
namespace fault {

class Injector
{
  public:
    /**
     * @param seed_salt  mixed into the PRNG seed so each node of a
     *  multi-node simulation draws an independent deterministic stream;
     *  node 0 uses salt 0, which reproduces the unsalted stream
     *  exactly (single-node runs are byte-identical).
     */
    Injector(const Scenario &scenario, sim::Engine &engine,
             std::uint64_t seed_salt = 0)
        : _scenario(scenario), _engine(engine),
          _rng(scenario.seed + seed_salt)
    {
    }

    Injector(const Injector &) = delete;
    Injector &operator=(const Injector &) = delete;

    const Scenario &scenario() const { return _scenario; }

    /**
     * Multiplicative duration stretch for a compute task on @p gpu
     * at the current sim time.  1.0 when healthy; a straggle window
     * with factor f contributes a stretch of 1/f.
     */
    double computeStretch(int gpu) const;

    /**
     * Duration stretch for a fabric transfer at the current sim
     * time.  For NVLink resources @p a / @p b are the (src, dst)
     * GPU pair; for PCIe @p a is the GPU; NVMe has no endpoints.
     */
    double transferStretch(hw::FabricResource res, int a, int b) const;

    /**
     * Deterministic failure draw for one D2D stripe from @p src to
     * @p dst issued now.  Consumes PRNG state only while a matching
     * transfer-fail window is active, so healthy phases of a run are
     * byte-identical with and without trailing fault windows.
     */
    bool failsD2dStripe(int src, int dst);

  private:
    bool windowActive(const FaultEvent &e) const;

    const Scenario &_scenario;
    sim::Engine &_engine;
    util::SplitMix64 _rng;
};

} // namespace fault
} // namespace mpress

#endif // MPRESS_FAULT_INJECTOR_HH
