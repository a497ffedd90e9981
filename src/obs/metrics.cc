#include "metrics.hh"

#include <algorithm>
#include <iomanip>

#include "common/flatjson.hh"
#include "common/stats.hh"

namespace hetsim::obs
{

namespace
{

/** Default decade bounds for histograms observed before definition. */
std::vector<double>
defaultBounds()
{
    std::vector<double> bounds;
    for (double b = 1.0; b <= 1e9; b *= 10.0)
        bounds.push_back(b);
    return bounds;
}

/** @return @p name's histogram, created with decade bounds on first
 *  use. */
Histogram &
histogramSlot(std::map<std::string, Histogram, std::less<>> &histograms,
              std::string_view name)
{
    auto it = histograms.find(name);
    if (it == histograms.end())
        it = histograms.emplace(name, makeHistogram(defaultBounds())).first;
    return it->second;
}

} // namespace

Histogram
makeHistogram(std::vector<double> bounds)
{
    Histogram hist;
    std::sort(bounds.begin(), bounds.end());
    hist.counts.assign(bounds.size() + 1, 0);
    hist.bounds = std::move(bounds);
    return hist;
}

void
histogramObserve(Histogram &hist, double value)
{
    if (hist.counts.size() != hist.bounds.size() + 1)
        hist.counts.assign(hist.bounds.size() + 1, 0);
    const size_t bucket = std::lower_bound(hist.bounds.begin(),
                                           hist.bounds.end(), value) -
                          hist.bounds.begin();
    hist.counts[bucket] += 1;
    if (hist.count == 0) {
        hist.min = value;
        hist.max = value;
    } else {
        hist.min = std::min(hist.min, value);
        hist.max = std::max(hist.max, value);
    }
    hist.count += 1;
    hist.sum += value;
}

Percentiles
histogramPercentiles(const Histogram &hist)
{
    return percentilesFromBuckets(hist.bounds, hist.counts, hist.min,
                                  hist.max, hist.sum);
}

void
Metrics::add(std::string_view name, double delta)
{
    if (!enabled())
        return;
    std::lock_guard<std::mutex> lock(mtx);
    namedSlot(counters, name) += delta;
}

void
Metrics::set(std::string_view name, double value)
{
    if (!enabled())
        return;
    std::lock_guard<std::mutex> lock(mtx);
    namedSlot(gauges, name) = value;
}

void
Metrics::defineHistogram(std::string_view name, std::vector<double> bounds)
{
    std::lock_guard<std::mutex> lock(mtx);
    if (histograms.find(name) != histograms.end())
        return; // first definition wins; observations keep buckets
    histograms.emplace(name, makeHistogram(std::move(bounds)));
}

void
Metrics::observe(std::string_view name, double value)
{
    if (!enabled())
        return;
    std::lock_guard<std::mutex> lock(mtx);
    histogramObserve(histogramSlot(histograms, name), value);
}

void
Metrics::observeMany(std::string_view name,
                     const std::vector<double> &values)
{
    if (!enabled() || values.empty())
        return;
    std::lock_guard<std::mutex> lock(mtx);
    Histogram &hist = histogramSlot(histograms, name);
    for (double value : values)
        histogramObserve(hist, value);
}

double
Metrics::counterValue(std::string_view name) const
{
    std::lock_guard<std::mutex> lock(mtx);
    auto it = counters.find(name);
    return it == counters.end() ? 0.0 : it->second;
}

double
Metrics::gaugeValue(std::string_view name) const
{
    std::lock_guard<std::mutex> lock(mtx);
    auto it = gauges.find(name);
    return it == gauges.end() ? 0.0 : it->second;
}

std::optional<Histogram>
Metrics::histogram(std::string_view name) const
{
    std::lock_guard<std::mutex> lock(mtx);
    auto it = histograms.find(name);
    if (it == histograms.end())
        return std::nullopt;
    return it->second;
}

void
Metrics::clear()
{
    std::lock_guard<std::mutex> lock(mtx);
    counters.clear();
    gauges.clear();
    histograms.clear();
}

void
Metrics::dumpJson(std::ostream &os) const
{
    std::lock_guard<std::mutex> lock(mtx);
    os << std::setprecision(15);
    os << "{\"counters\":{";
    bool first = true;
    for (const auto &[name, value] : counters) {
        if (!first)
            os << ',';
        first = false;
        json::writeString(os, name);
        os << ':' << value;
    }
    os << "},\"gauges\":{";
    first = true;
    for (const auto &[name, value] : gauges) {
        if (!first)
            os << ',';
        first = false;
        json::writeString(os, name);
        os << ':' << value;
    }
    os << "},\"histograms\":{";
    first = true;
    for (const auto &[name, hist] : histograms) {
        if (!first)
            os << ',';
        first = false;
        const Percentiles pct = histogramPercentiles(hist);
        json::writeString(os, name);
        os << ":{\"count\":" << hist.count
           << ",\"sum\":" << hist.sum << ",\"min\":" << hist.min
           << ",\"max\":" << hist.max << ",\"p50\":" << pct.p50
           << ",\"p90\":" << pct.p90 << ",\"p99\":" << pct.p99
           << ",\"buckets\":[";
        for (size_t b = 0; b < hist.counts.size(); ++b) {
            if (b)
                os << ',';
            os << "{\"le\":";
            if (b < hist.bounds.size())
                os << hist.bounds[b];
            else
                os << "\"+Inf\"";
            os << ",\"count\":" << hist.counts[b] << '}';
        }
        os << "]}";
    }
    os << "}}\n";
}

Metrics &
Metrics::global()
{
    static Metrics metrics;
    return metrics;
}

} // namespace hetsim::obs
