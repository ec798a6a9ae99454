#include "obs/metrics.hh"

#include "util/logging.hh"

namespace mpress {
namespace obs {

const char *
metricKindName(MetricKind k)
{
    switch (k) {
      case MetricKind::Counter:
        return "counter";
      case MetricKind::Gauge:
        return "gauge";
    }
    return "?";
}

MetricsRegistry::Id
MetricsRegistry::intern(const std::string &name, MetricKind kind)
{
    auto it = _byName.find(name);
    if (it != _byName.end()) {
        if (_series[static_cast<std::size_t>(it->second)].kind !=
            kind) {
            util::panic("metric %s re-registered with a different"
                        " kind",
                        name.c_str());
        }
        return it->second;
    }
    Id id = static_cast<Id>(_series.size());
    _series.push_back({name, kind, 0.0, {}});
    _byName.emplace(name, id);
    return id;
}

MetricsRegistry::Id
MetricsRegistry::counter(const std::string &name)
{
    return intern(name, MetricKind::Counter);
}

MetricsRegistry::Id
MetricsRegistry::gauge(const std::string &name)
{
    return intern(name, MetricKind::Gauge);
}

void
MetricsRegistry::add(Id id, Tick now, double delta)
{
    if (id == kInvalid)
        return;
    auto &s = _series[static_cast<std::size_t>(id)];
    s.value += delta;
    s.samples.push_back({now, s.value});
}

void
MetricsRegistry::set(Id id, Tick now, double value)
{
    if (id == kInvalid)
        return;
    auto &s = _series[static_cast<std::size_t>(id)];
    s.value = value;
    s.samples.push_back({now, s.value});
}

double
MetricsRegistry::value(Id id) const
{
    if (id == kInvalid)
        return 0.0;
    return _series[static_cast<std::size_t>(id)].value;
}

void
MetricsRegistry::absorb(const MetricsRegistry &src,
                        const std::string &prefix)
{
    for (const MetricSeries &s : src.series()) {
        Id id = intern(prefix + s.name, s.kind);
        auto &d = _series[static_cast<std::size_t>(id)];
        d.value = s.value;
        d.samples.insert(d.samples.end(), s.samples.begin(),
                         s.samples.end());
    }
}

const MetricSeries *
MetricsRegistry::find(const std::string &name) const
{
    auto it = _byName.find(name);
    if (it == _byName.end())
        return nullptr;
    return &_series[static_cast<std::size_t>(it->second)];
}

} // namespace obs
} // namespace mpress
