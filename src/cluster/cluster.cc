#include "cluster/cluster.hh"

#include <cmath>

#include "util/logging.hh"
#include "util/strings.hh"

namespace mpress {
namespace cluster {

std::optional<hw::Topology>
nodeByName(const std::string &name)
{
    if (name == "dgx1")
        return hw::Topology::dgx1V100();
    if (name == "dgx1-p100")
        return hw::Topology::dgx1P100();
    if (name == "dgx2")
        return hw::Topology::dgx2A100();
    if (name == "hgx-h100")
        return hw::Topology::hgxH100();
    if (name == "dual-a100")
        return hw::Topology::dualA100();
    return std::nullopt;
}

std::optional<hw::LinkSpec>
nicByName(const std::string &name)
{
    if (name == "ib-hdr")
        return hw::LinkSpec::infinibandHdr();
    if (name == "ib-ndr")
        return hw::LinkSpec::infinibandNdr();
    if (name == "roce100")
        return hw::LinkSpec::roce100();
    return std::nullopt;
}

hw::LinkSpec
nicSpecOf(const ClusterSpec &spec)
{
    auto nic = nicByName(spec.nicPreset);
    if (!nic)
        util::panic("unknown NIC preset '%s'",
                    spec.nicPreset.c_str());
    if (spec.nicGbps > 0.0)
        nic->peak = util::Bandwidth::fromGBps(spec.nicGbps / 8.0);
    if (spec.nicLatencyUs > 0.0)
        nic->latency = static_cast<Tick>(spec.nicLatencyUs *
                                         static_cast<double>(
                                             util::kUsec));
    return *nic;
}

ParsedClusterSpec
parseClusterSpec(const std::string &text,
                 const util::JsonLimits &limits)
{
    ParsedClusterSpec out;
    util::ParsedJson doc = util::jsonParse(text, limits);
    if (!doc.ok) {
        out.error = doc.error;
        return out;
    }
    if (!doc.value.isObject()) {
        out.error = "cluster spec must be a JSON object";
        return out;
    }

    ClusterSpec spec;
    for (const auto &[key, val] : doc.value.members()) {
        if (key == "name") {
            if (!val.isString()) {
                out.error = "\"name\" must be a string";
                return out;
            }
            spec.name = val.str();
        } else if (key == "nodes") {
            if (!val.isNumber() ||
                val.number() != std::floor(val.number())) {
                out.error = "\"nodes\" must be an integer";
                return out;
            }
            spec.nodes = static_cast<int>(val.number());
        } else if (key == "node") {
            if (!val.isString()) {
                out.error = "\"node\" must be a string";
                return out;
            }
            spec.nodePreset = val.str();
        } else if (key == "nic") {
            if (!val.isString()) {
                out.error = "\"nic\" must be a string";
                return out;
            }
            spec.nicPreset = val.str();
        } else if (key == "nicsPerNode") {
            if (!val.isNumber() ||
                val.number() != std::floor(val.number())) {
                out.error = "\"nicsPerNode\" must be an integer";
                return out;
            }
            spec.nicsPerNode = static_cast<int>(val.number());
        } else if (key == "nicGbps") {
            if (!val.isNumber()) {
                out.error = "\"nicGbps\" must be a number";
                return out;
            }
            spec.nicGbps = val.number();
        } else if (key == "nicLatencyUs") {
            if (!val.isNumber()) {
                out.error = "\"nicLatencyUs\" must be a number";
                return out;
            }
            spec.nicLatencyUs = val.number();
        } else if (key == "nodeIds") {
            if (!val.isArray()) {
                out.error = "\"nodeIds\" must be an array";
                return out;
            }
            for (const auto &item : val.items()) {
                if (!item.isString()) {
                    out.error =
                        "\"nodeIds\" entries must be strings";
                    return out;
                }
                spec.nodeIds.push_back(item.str());
            }
        } else {
            out.error =
                util::strformat("unknown cluster spec field \"%s\"",
                                key.c_str());
            return out;
        }
    }

    out.ok = true;
    out.spec = std::move(spec);
    return out;
}

std::string
renderClusterSpec(const ClusterSpec &spec)
{
    std::string out = "{";
    out += "\"name\":" + util::jsonQuote(spec.name);
    out += util::strformat(",\"nodes\":%d", spec.nodes);
    out += ",\"node\":" + util::jsonQuote(spec.nodePreset);
    out += ",\"nic\":" + util::jsonQuote(spec.nicPreset);
    out += util::strformat(",\"nicsPerNode\":%d", spec.nicsPerNode);
    out += util::strformat(",\"nicGbps\":%.17g", spec.nicGbps);
    out += util::strformat(",\"nicLatencyUs\":%.17g",
                           spec.nicLatencyUs);
    if (!spec.nodeIds.empty()) {
        out += ",\"nodeIds\":[";
        for (std::size_t i = 0; i < spec.nodeIds.size(); ++i) {
            if (i > 0)
                out += ",";
            out += util::jsonQuote(spec.nodeIds[i]);
        }
        out += "]";
    }
    out += "}";
    return out;
}

hw::Topology
buildCluster(const ClusterSpec &spec)
{
    auto node = nodeByName(spec.nodePreset);
    if (!node)
        util::panic("unknown node preset '%s'",
                    spec.nodePreset.c_str());
    if (spec.nodes < 1)
        util::panic("cluster needs at least one node");

    const int g = node->numGpus();
    std::string name =
        spec.name.empty() || spec.name == "cluster"
            ? util::strformat("%dx%s", spec.nodes,
                              node->name().c_str())
            : spec.name;
    hw::Topology t(std::move(name), node->gpu(), g * spec.nodes);

    if (node->symmetric()) {
        // Fill the symmetric per-pair lane cap everywhere; the
        // inter-node declaration below clears cross-node entries.
        t.setSymmetric(node->nvlinkLanes(0, 1));
    } else {
        for (int n = 0; n < spec.nodes; ++n) {
            for (int a = 0; a < g; ++a) {
                for (int b = a + 1; b < g; ++b) {
                    int lanes = node->nvlinkLanes(a, b);
                    if (lanes > 0)
                        t.setNvlinkLanes(n * g + a, n * g + b,
                                         lanes);
                }
            }
        }
    }
    t.setNvlinkSpec(node->nvlinkSpec());
    t.setPcieSpec(node->pcieSpec());
    t.setNvmeSpec(node->nvmeSpec());
    t.setHostMemory(node->hostMemory() * spec.nodes);
    t.setNvmeCapacity(node->nvmeCapacity() * spec.nodes);
    t.setInterNodeFabric(g, spec.nicsPerNode, nicSpecOf(spec));
    return t;
}

ClusterSpec
cluster2xDgx2()
{
    ClusterSpec spec;
    spec.name = "2x-dgx2";
    spec.nodes = 2;
    spec.nodePreset = "dgx2";
    spec.nicPreset = "ib-hdr";
    spec.nicsPerNode = 1;
    return spec;
}

ClusterSpec
cluster8xHgxH100()
{
    ClusterSpec spec;
    spec.name = "8x-hgx-h100";
    spec.nodes = 8;
    spec.nodePreset = "hgx-h100";
    spec.nicPreset = "ib-ndr";
    spec.nicsPerNode = 2;
    return spec;
}

std::optional<ClusterSpec>
clusterByName(const std::string &name)
{
    if (name == "2x-dgx2")
        return cluster2xDgx2();
    if (name == "8x-hgx-h100")
        return cluster8xHgxH100();

    // Generic "<N>x-<node>" family.
    std::size_t i = 0;
    while (i < name.size() && name[i] >= '0' && name[i] <= '9')
        ++i;
    if (i == 0 || i + 2 > name.size() || name[i] != 'x' ||
        name[i + 1] != '-')
        return std::nullopt;
    int nodes = 0;
    for (std::size_t d = 0; d < i; ++d) {
        nodes = nodes * 10 + (name[d] - '0');
        if (nodes > 64)
            return std::nullopt;
    }
    if (nodes < 1)
        return std::nullopt;
    std::string node_name = name.substr(i + 2);
    if (!nodeByName(node_name))
        return std::nullopt;
    ClusterSpec spec;
    spec.name = name;
    spec.nodes = nodes;
    spec.nodePreset = node_name;
    return spec;
}

} // namespace cluster
} // namespace mpress
