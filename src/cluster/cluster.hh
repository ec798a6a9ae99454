/**
 * @file
 * Multi-node cluster topologies: N equal server nodes joined by an
 * inter-node NIC tier (ASTRA-sim-style hierarchical networks).  This
 * is the one model of more than one server: the cluster preset names
 * ("2x-dgx1", "8x-hgx-h100", ...), JSON specs and the benches all
 * build their topologies through buildCluster().
 *
 * A ClusterSpec is the user-facing description — node count, per-node
 * server preset, NIC preset/overrides — loadable from a JSON document
 * (mpress_cli --cluster, the mpress-serve "cluster" job field) and
 * round-trippable through renderClusterSpec().  buildCluster()
 * flattens the spec into one node-aware hw::Topology: GPU ids are
 * global (node n owns [n*g, (n+1)*g)), the intra-node fabric is the
 * preset's NVLink matrix replicated per node, and every cross-node
 * pair is reachable over the owning nodes' shared NICs
 * (hw::Topology::setInterNodeFabric).  Everything downstream — the
 * mapper's donor axis, the striping planner, the executor, the static
 * analyzer — prices cross-node paths through
 * hw::Topology::pathLanes() / linkSpecBetween(), so a cluster plan
 * needs no special cases.
 */

#ifndef MPRESS_CLUSTER_CLUSTER_HH
#define MPRESS_CLUSTER_CLUSTER_HH

#include <optional>
#include <string>
#include <vector>

#include "hw/topology.hh"
#include "util/json.hh"

namespace mpress {
namespace cluster {

using util::Tick;

/** User-facing description of a cluster. */
struct ClusterSpec
{
    std::string name = "cluster";

    /** Number of server nodes (1..64). */
    int nodes = 2;

    /** Per-node server preset: "dgx1", "dgx1-p100", "dgx2",
     *  "hgx-h100" or "dual-a100". */
    std::string nodePreset = "dgx2";

    /** NIC preset: "ib-hdr" (200 Gb/s InfiniBand), "ib-ndr"
     *  (400 Gb/s) or "roce100" (100 Gb/s Ethernet). */
    std::string nicPreset = "ib-hdr";

    /** NICs per node; all cross-node traffic of a node shares them. */
    int nicsPerNode = 1;

    /** Optional overrides of the NIC preset (0 = keep preset). */
    double nicGbps = 0.0;
    double nicLatencyUs = 0.0;

    /** Optional display ids, one per node (e.g. host names).  When
     *  non-empty the list must match @ref nodes and carry no
     *  duplicates (verify::verifyClusterSpec). */
    std::vector<std::string> nodeIds;
};

/** Result of parseClusterSpec(). */
struct ParsedClusterSpec
{
    bool ok = false;
    ClusterSpec spec;
    std::string error;  ///< set when !ok
};

/**
 * Parse a JSON cluster spec:
 *
 *   {"name":"lab", "nodes":2, "node":"dgx2", "nic":"ib-hdr",
 *    "nicsPerNode":2, "nicGbps":25.0, "nicLatencyUs":30.0,
 *    "nodeIds":["host-a","host-b"]}
 *
 * Every field is optional; defaults mirror ClusterSpec.  Unknown
 * members and type confusion are rejected with a message, never a
 * crash — this is the same hardening boundary the serve daemon uses.
 * Structural validity only; range checks (node count, NIC ranges,
 * duplicate ids) live in verify::verifyClusterSpec.
 */
ParsedClusterSpec
parseClusterSpec(const std::string &text,
                 const util::JsonLimits &limits = {});

/** Render @p spec as a JSON document that parses back to an equal
 *  spec (parse -> render -> parse round-trip, pinned by tests). */
std::string renderClusterSpec(const ClusterSpec &spec);

/** Single-node server preset by name; nullopt when unknown. */
std::optional<hw::Topology> nodeByName(const std::string &name);

/** NIC link preset by name; nullopt when unknown. */
std::optional<hw::LinkSpec> nicByName(const std::string &name);

/** The NIC spec of @p spec: preset plus overrides. */
hw::LinkSpec nicSpecOf(const ClusterSpec &spec);

/**
 * Flatten @p spec into one node-aware hw::Topology.  Panics on specs
 * verify::verifyClusterSpec would reject; gate untrusted input there
 * first.
 */
hw::Topology buildCluster(const ClusterSpec &spec);

/** Two DGX-2 class nodes over one InfiniBand HDR NIC each
 *  (16 GPUs) — the smallest cluster that exercises the NIC tier. */
ClusterSpec cluster2xDgx2();

/** Eight HGX-H100 nodes over dual InfiniBand NDR NICs (64 GPUs). */
ClusterSpec cluster8xHgxH100();

/**
 * Cluster preset by name: the fixed names "2x-dgx2" and
 * "8x-hgx-h100", plus the generic family "<N>x-<node>" for any node
 * preset and N in [1, 64] (e.g. "4x-dgx1", "64x-hgx-h100" = 512
 * GPUs).  nullopt when the name does not parse.
 */
std::optional<ClusterSpec> clusterByName(const std::string &name);

} // namespace cluster
} // namespace mpress

#endif // MPRESS_CLUSTER_CLUSTER_HH
