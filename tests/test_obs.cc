/**
 * @file
 * Tests for the observability subsystem (src/obs): tracer ring
 * buffer, concurrent emission, metrics registry, JSON validity of
 * both dumps, and the per-phase breakdown report.
 */

#include <gtest/gtest.h>

#include <cctype>
#include <cstring>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "cpu/threadpool.hh"
#include "obs/metrics.hh"
#include "obs/report.hh"
#include "obs/tracer.hh"

namespace hetsim::obs
{
namespace
{

/**
 * Minimal recursive-descent JSON validator - enough to prove the
 * trace and metrics dumps are syntactically well-formed without
 * pulling in a JSON library the image may not have.
 */
class JsonChecker
{
  public:
    explicit JsonChecker(std::string text) : text(std::move(text)) {}

    bool
    valid()
    {
        pos = 0;
        if (!value())
            return false;
        skipWs();
        return pos == text.size();
    }

  private:
    void
    skipWs()
    {
        while (pos < text.size() &&
               std::isspace(static_cast<unsigned char>(text[pos])))
            ++pos;
    }

    bool
    literal(const char *word)
    {
        size_t len = std::strlen(word);
        if (text.compare(pos, len, word) != 0)
            return false;
        pos += len;
        return true;
    }

    bool
    string()
    {
        if (text[pos] != '"')
            return false;
        ++pos;
        while (pos < text.size() && text[pos] != '"') {
            if (text[pos] == '\\') {
                ++pos;
                if (pos >= text.size())
                    return false;
                if (text[pos] == 'u') {
                    if (pos + 4 >= text.size())
                        return false;
                    pos += 4;
                }
            }
            ++pos;
        }
        if (pos >= text.size())
            return false;
        ++pos; // closing quote
        return true;
    }

    bool
    number()
    {
        size_t start = pos;
        if (pos < text.size() && text[pos] == '-')
            ++pos;
        while (pos < text.size() &&
               (std::isdigit(static_cast<unsigned char>(text[pos])) ||
                text[pos] == '.' || text[pos] == 'e' ||
                text[pos] == 'E' || text[pos] == '+' ||
                text[pos] == '-'))
            ++pos;
        return pos > start;
    }

    bool
    value()
    {
        skipWs();
        if (pos >= text.size())
            return false;
        char c = text[pos];
        if (c == '{')
            return object();
        if (c == '[')
            return array();
        if (c == '"')
            return string();
        if (c == 't')
            return literal("true");
        if (c == 'f')
            return literal("false");
        if (c == 'n')
            return literal("null");
        return number();
    }

    bool
    object()
    {
        ++pos; // '{'
        skipWs();
        if (pos < text.size() && text[pos] == '}') {
            ++pos;
            return true;
        }
        while (true) {
            skipWs();
            if (!string())
                return false;
            skipWs();
            if (pos >= text.size() || text[pos] != ':')
                return false;
            ++pos;
            if (!value())
                return false;
            skipWs();
            if (pos >= text.size())
                return false;
            if (text[pos] == ',') {
                ++pos;
                continue;
            }
            if (text[pos] == '}') {
                ++pos;
                return true;
            }
            return false;
        }
    }

    bool
    array()
    {
        ++pos; // '['
        skipWs();
        if (pos < text.size() && text[pos] == ']') {
            ++pos;
            return true;
        }
        while (true) {
            if (!value())
                return false;
            skipWs();
            if (pos >= text.size())
                return false;
            if (text[pos] == ',') {
                ++pos;
                continue;
            }
            if (text[pos] == ']') {
                ++pos;
                return true;
            }
            return false;
        }
    }

    const std::string text;
    size_t pos = 0;
};

TEST(Tracer, DisabledTracerRecordsNothing)
{
    Tracer tracer;
    ASSERT_FALSE(tracer.enabled());
    TrackId track = tracer.track("dev/compute");
    tracer.span(track, "k", "compute", 0.0, 1.0);
    tracer.instant(track, "marker", "sched", 0.5);
    tracer.counter(track, "depth", 0.5, 3.0);
    EXPECT_EQ(tracer.size(), 0u);
    EXPECT_EQ(tracer.dropped(), 0u);
    // Tracks are metadata, registered regardless.
    EXPECT_EQ(tracer.trackNames().size(), 1u);
}

TEST(Tracer, TracksAreDedupedByName)
{
    Tracer tracer;
    TrackId a = tracer.track("gpu/compute");
    TrackId b = tracer.track("gpu/dma-h2d");
    EXPECT_NE(a, b);
    EXPECT_EQ(tracer.track("gpu/compute"), a);
    EXPECT_EQ(tracer.trackNames().size(), 2u);
}

TEST(Tracer, RingBufferDropsOldestAndCounts)
{
    Tracer tracer(4);
    tracer.setEnabled(true);
    TrackId track = tracer.track("dev/compute");
    for (int i = 0; i < 10; ++i)
        tracer.span(track, std::string("k").append(std::to_string(i)),
                    "compute", double(i), 1.0);
    EXPECT_EQ(tracer.size(), 4u);
    EXPECT_EQ(tracer.dropped(), 6u);
    auto events = tracer.snapshot();
    ASSERT_EQ(events.size(), 4u);
    // Most recent window survives: k6..k9.
    EXPECT_EQ(events.front().name, "k6");
    EXPECT_EQ(events.back().name, "k9");
}

TEST(Tracer, SetCapacityShrinksFromTheFront)
{
    Tracer tracer(8);
    tracer.setEnabled(true);
    TrackId track = tracer.track("dev/compute");
    for (int i = 0; i < 8; ++i)
        tracer.span(track, std::string("k").append(std::to_string(i)),
                    "compute", double(i), 1.0);
    tracer.setCapacity(2);
    EXPECT_EQ(tracer.capacity(), 2u);
    auto events = tracer.snapshot();
    ASSERT_EQ(events.size(), 2u);
    EXPECT_EQ(events.front().name, "k6");
    EXPECT_EQ(events.back().name, "k7");
}

TEST(Tracer, ConcurrentSpansFromThreadPoolAllLand)
{
    Tracer tracer(1 << 14);
    tracer.setEnabled(true);
    TrackId track = tracer.track("host/workers");
    constexpr u64 kSpans = 2000;
    cpu::ThreadPool pool(4);
    pool.parallelFor(kSpans, [&](u64 begin, u64 end) {
        for (u64 i = begin; i < end; ++i) {
            ScopedSpan span(tracer, track,
                            "item" + std::to_string(i), "host");
        }
    });
    EXPECT_EQ(tracer.size(), kSpans);
    EXPECT_EQ(tracer.dropped(), 0u);
}

TEST(Tracer, ScopedSpanInactiveWhenDisabled)
{
    Tracer tracer;
    TrackId track = tracer.track("host/workers");
    {
        ScopedSpan span(tracer, track, "quiet", "host");
        // Enabling mid-flight must not retroactively record it.
        tracer.setEnabled(true);
    }
    EXPECT_EQ(tracer.size(), 0u);
}

TEST(Tracer, WriteJsonIsValidAndCarriesTrackNames)
{
    Tracer tracer;
    tracer.setEnabled(true);
    TrackId compute = tracer.track("R9 280X/compute");
    TrackId dma = tracer.track("R9 280X/dma-h2d");
    tracer.span(compute, "xs_lookup \"quoted\"\n", "compute", 0.001,
                0.002, 0.0001);
    tracer.span(dma, "h2d grid", "transfer", 0.0, 0.001, 0.0,
                1 << 20);
    tracer.instant(compute, "drained", "sched", 0.004);
    tracer.counter(compute, "queue\\depth", 0.002, 2.0);
    std::ostringstream oss;
    tracer.writeJson(oss);
    const std::string json = oss.str();

    JsonChecker checker(json);
    EXPECT_TRUE(checker.valid()) << json;
    EXPECT_NE(json.find("\"traceEvents\""), std::string::npos);
    EXPECT_NE(json.find("R9 280X/compute"), std::string::npos);
    EXPECT_NE(json.find("R9 280X/dma-h2d"), std::string::npos);
    EXPECT_NE(json.find("\"ph\":\"X\""), std::string::npos);
    EXPECT_NE(json.find("\"ph\":\"i\""), std::string::npos);
    EXPECT_NE(json.find("\"ph\":\"C\""), std::string::npos);
    // Transfer spans carry bandwidth attribution.
    EXPECT_NE(json.find("\"bw_gbps\""), std::string::npos);
}

TEST(Tracer, JsonEscapesControlCharacters)
{
    Tracer tracer;
    tracer.setEnabled(true);
    TrackId track = tracer.track("t");
    tracer.span(track, std::string("bad\x01name\ttab"), "c", 0.0, 1.0);
    std::ostringstream oss;
    tracer.writeJson(oss);
    JsonChecker checker(oss.str());
    EXPECT_TRUE(checker.valid()) << oss.str();
    EXPECT_NE(oss.str().find("\\u0001"), std::string::npos);
    EXPECT_NE(oss.str().find("\\t"), std::string::npos);
}

TEST(Metrics, DisabledRegistryRecordsNothing)
{
    Metrics metrics;
    metrics.add("a", 5.0);
    metrics.set("b", 7.0);
    metrics.observe("c", 1.0);
    EXPECT_EQ(metrics.counterValue("a"), 0.0);
    EXPECT_EQ(metrics.gaugeValue("b"), 0.0);
    EXPECT_FALSE(metrics.histogram("c").has_value());
}

TEST(Metrics, CountersAccumulateGaugesOverwrite)
{
    Metrics metrics;
    metrics.setEnabled(true);
    metrics.add("xfer.bytes", 100.0);
    metrics.add("xfer.bytes", 28.0);
    metrics.set("idle", 1.0);
    metrics.set("idle", 0.25);
    EXPECT_DOUBLE_EQ(metrics.counterValue("xfer.bytes"), 128.0);
    EXPECT_DOUBLE_EQ(metrics.gaugeValue("idle"), 0.25);
}

TEST(Metrics, ConcurrentAddsSumExactly)
{
    // Integer deltas sum exactly in a double, so any lost update shows.
    // The names straddle the 15-character small-string limit.
    Metrics metrics;
    metrics.setEnabled(true);
    constexpr int kThreads = 4;
    constexpr int kAdds = 20000;
    std::vector<std::thread> threads;
    for (int t = 0; t < kThreads; ++t) {
        threads.emplace_back([&metrics, t] {
            for (int i = 0; i < kAdds; ++i) {
                metrics.add("k.short", 1.0);
                metrics.add("kernel.launch_overhead_seconds", 2.0);
                metrics.add(t % 2 ? "odd.thread.counter.name" : "even",
                            static_cast<double>(t + 1));
            }
        });
    }
    for (std::thread &thread : threads)
        thread.join();
    EXPECT_EQ(metrics.counterValue("k.short"), kThreads * kAdds);
    EXPECT_EQ(metrics.counterValue("kernel.launch_overhead_seconds"),
              2.0 * kThreads * kAdds);
    EXPECT_EQ(metrics.counterValue("even"), (1 + 3) * kAdds);
    EXPECT_EQ(metrics.counterValue("odd.thread.counter.name"),
              (2 + 4) * kAdds);
}

TEST(Metrics, HistogramBucketsAndOverflow)
{
    Metrics metrics;
    metrics.setEnabled(true);
    metrics.defineHistogram("chunk", {10.0, 100.0, 1000.0});
    for (double v : {1.0, 5.0, 50.0, 500.0, 5000.0, 50000.0})
        metrics.observe("chunk", v);
    auto hist = metrics.histogram("chunk");
    ASSERT_TRUE(hist.has_value());
    EXPECT_EQ(hist->count, 6u);
    ASSERT_EQ(hist->counts.size(), 4u);
    EXPECT_EQ(hist->counts[0], 2u); // <= 10
    EXPECT_EQ(hist->counts[1], 1u); // <= 100
    EXPECT_EQ(hist->counts[2], 1u); // <= 1000
    EXPECT_EQ(hist->counts[3], 2u); // +Inf
    EXPECT_DOUBLE_EQ(hist->min, 1.0);
    EXPECT_DOUBLE_EQ(hist->max, 50000.0);
}

TEST(Metrics, DumpJsonIsValid)
{
    Metrics metrics;
    metrics.setEnabled(true);
    metrics.add("kernel.launches", 3.0);
    metrics.set("coexec.gpu.idle_seconds", 0.002);
    metrics.observe("chunk_items", 42.0);
    std::ostringstream oss;
    metrics.dumpJson(oss);
    JsonChecker checker(oss.str());
    EXPECT_TRUE(checker.valid()) << oss.str();
    EXPECT_NE(oss.str().find("\"counters\""), std::string::npos);
    EXPECT_NE(oss.str().find("\"+Inf\""), std::string::npos);
}

TEST(Metrics, DumpJsonEscapesNames)
{
    // Serve derives metric names from tenant labels, which are user
    // input.
    Metrics metrics;
    metrics.setEnabled(true);
    metrics.add("serve.tenant.a\"b\x01.completed", 1.0);
    metrics.set("serve.tenant.c\\d.mean_service_seq", 2.0);
    metrics.observe("h\ti", 3.0);
    std::ostringstream oss;
    metrics.dumpJson(oss);
    JsonChecker checker(oss.str());
    EXPECT_TRUE(checker.valid()) << oss.str();
    EXPECT_NE(oss.str().find("\"serve.tenant.a\\\"b\\u0001.completed\":1"),
              std::string::npos)
        << oss.str();
}

TEST(Breakdown, PhaseSumsEqualMakespanExactly)
{
    Tracer tracer;
    tracer.setEnabled(true);
    TrackId compute = tracer.track("gpu/compute");
    TrackId dma = tracer.track("gpu/dma-h2d");
    // Transfer 0..2ms; compute 1..4ms (1ms of the copy is hidden).
    tracer.span(dma, "h2d", "transfer", 0.0, 0.002, 0.0, 4096);
    tracer.span(compute, "k", "compute", 0.001, 0.003, 0.0002);
    // A second device, idle for most of the run.
    TrackId cpu = tracer.track("cpu/compute");
    tracer.span(cpu, "k", "compute", 0.0, 0.001);

    auto report = computeBreakdown(tracer);
    EXPECT_NEAR(report.makespanSeconds, 0.004, 1e-12);
    ASSERT_EQ(report.devices.size(), 2u);
    for (const auto &dev : report.devices) {
        EXPECT_NEAR(dev.phaseSum(), report.makespanSeconds, 1e-9)
            << dev.device;
    }
    const auto &gpu = report.devices[0].device == "gpu"
        ? report.devices[0] : report.devices[1];
    EXPECT_NEAR(gpu.transferSeconds, 0.001, 1e-9);           // exposed
    EXPECT_NEAR(gpu.overlappedTransferSeconds, 0.001, 1e-9); // hidden
    EXPECT_NEAR(gpu.overheadSeconds, 0.0002, 1e-9);
    EXPECT_NEAR(gpu.computeSeconds, 0.0028, 1e-9);
    EXPECT_EQ(gpu.transferBytes, 4096u);
}

TEST(Breakdown, RunEnvelopeSpansAreIgnored)
{
    Tracer tracer;
    tracer.setEnabled(true);
    TrackId run = tracer.track("run");
    TrackId compute = tracer.track("gpu/compute");
    tracer.span(run, "whole run", "run", 0.0, 10.0);
    tracer.span(compute, "k", "compute", 0.0, 1.0);
    auto report = computeBreakdown(tracer);
    EXPECT_NEAR(report.makespanSeconds, 1.0, 1e-12);
    ASSERT_EQ(report.devices.size(), 1u);
    EXPECT_EQ(report.devices[0].device, "gpu");
}

} // namespace
} // namespace hetsim::obs
