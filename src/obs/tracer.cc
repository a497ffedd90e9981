#include "tracer.hh"

#include <iomanip>

#include "common/flatjson.hh"
#include "common/logging.hh"

namespace hetsim::obs
{

Tracer::Tracer(size_t capacity)
    : cap(capacity ? capacity : 1),
      epoch(std::chrono::steady_clock::now())
{}

void
Tracer::setCapacity(size_t capacity)
{
    std::lock_guard<std::mutex> lock(mtx);
    cap = capacity ? capacity : 1;
    while (events.size() > cap) {
        events.pop_front();
        ++droppedCount;
    }
}

size_t
Tracer::capacity() const
{
    std::lock_guard<std::mutex> lock(mtx);
    return cap;
}

TrackId
Tracer::track(const std::string &name)
{
    std::lock_guard<std::mutex> lock(mtx);
    auto it = trackIndex.find(name);
    if (it != trackIndex.end())
        return it->second;
    TrackId id = static_cast<TrackId>(tracks.size());
    tracks.push_back(name);
    trackIndex.emplace(name, id);
    return id;
}

void
Tracer::push(TraceEvent &&event)
{
    std::lock_guard<std::mutex> lock(mtx);
    if (events.size() >= cap) {
        events.pop_front();
        ++droppedCount;
    }
    events.push_back(std::move(event));
}

void
Tracer::span(TrackId track, std::string_view name, std::string_view cat,
             double startSec, double durSec, double overheadSec,
             u64 bytes)
{
    if (!enabled())
        return;
    TraceEvent event;
    event.kind = TraceEvent::Kind::Span;
    event.track = track;
    event.tsUs = startSec * 1e6;
    event.durUs = durSec * 1e6;
    event.overheadUs = overheadSec * 1e6;
    event.bytes = bytes;
    event.name = name;
    event.cat = cat;
    push(std::move(event));
}

void
Tracer::instant(TrackId track, std::string_view name,
                std::string_view cat, double tsSec)
{
    if (!enabled())
        return;
    TraceEvent event;
    event.kind = TraceEvent::Kind::Instant;
    event.track = track;
    event.tsUs = tsSec * 1e6;
    event.name = name;
    event.cat = cat;
    push(std::move(event));
}

void
Tracer::counter(TrackId track, std::string_view name, double tsSec,
                double value)
{
    if (!enabled())
        return;
    TraceEvent event;
    event.kind = TraceEvent::Kind::Counter;
    event.track = track;
    event.tsUs = tsSec * 1e6;
    event.value = value;
    event.name = name;
    push(std::move(event));
}

size_t
Tracer::size() const
{
    std::lock_guard<std::mutex> lock(mtx);
    return events.size();
}

u64
Tracer::dropped() const
{
    std::lock_guard<std::mutex> lock(mtx);
    return droppedCount;
}

void
Tracer::clear()
{
    std::lock_guard<std::mutex> lock(mtx);
    events.clear();
    droppedCount = 0;
}

std::vector<TraceEvent>
Tracer::snapshot() const
{
    std::lock_guard<std::mutex> lock(mtx);
    return {events.begin(), events.end()};
}

std::vector<std::string>
Tracer::trackNames() const
{
    std::lock_guard<std::mutex> lock(mtx);
    return tracks;
}

double
Tracer::nowSeconds() const
{
    return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                         epoch)
        .count();
}

void
Tracer::writeJson(std::ostream &os) const
{
    // Copy under the lock; serialize outside it.
    std::vector<TraceEvent> copy;
    std::vector<std::string> names;
    u64 lost = 0;
    {
        std::lock_guard<std::mutex> lock(mtx);
        copy.assign(events.begin(), events.end());
        names = tracks;
        lost = droppedCount;
    }

    os << std::setprecision(15);
    os << "{\"traceEvents\":[\n";
    os << "{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":1,"
          "\"args\":{\"name\":\"hetsim\"}}";
    for (size_t t = 0; t < names.size(); ++t) {
        os << ",\n{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":1,"
              "\"tid\":"
           << t << ",\"args\":{\"name\":";
        json::writeString(os, names[t]);
        os << "}}";
    }
    for (const TraceEvent &event : copy) {
        os << ",\n{\"name\":";
        json::writeString(os, event.name);
        if (!event.cat.empty()) {
            os << ",\"cat\":";
            json::writeString(os, event.cat);
        }
        os << ",\"pid\":1,\"tid\":" << event.track
           << ",\"ts\":" << event.tsUs;
        switch (event.kind) {
          case TraceEvent::Kind::Span:
            os << ",\"ph\":\"X\",\"dur\":" << event.durUs;
            if (event.overheadUs > 0.0 || event.bytes > 0) {
                os << ",\"args\":{";
                bool first = true;
                if (event.overheadUs > 0.0) {
                    os << "\"overhead_us\":" << event.overheadUs;
                    first = false;
                }
                if (event.bytes > 0) {
                    if (!first)
                        os << ',';
                    os << "\"bytes\":" << event.bytes;
                    if (event.durUs > 0.0) {
                        // bytes / (dur us * 1e-6) / 1e9 GB/s
                        os << ",\"bw_gbps\":"
                           << static_cast<double>(event.bytes) /
                                  (event.durUs * 1e3);
                    }
                }
                os << '}';
            }
            break;
          case TraceEvent::Kind::Instant:
            os << ",\"ph\":\"i\",\"s\":\"t\"";
            break;
          case TraceEvent::Kind::Counter:
            os << ",\"ph\":\"C\",\"args\":{\"value\":" << event.value
               << '}';
            break;
        }
        os << '}';
    }
    os << "\n],\"displayTimeUnit\":\"ms\",\"otherData\":{"
          "\"droppedEvents\":"
       << lost << "}}\n";
}

Tracer &
Tracer::global()
{
    static Tracer tracer;
    return tracer;
}

ScopedSpan::ScopedSpan(Tracer &tracer_, TrackId track, std::string name_,
                       std::string cat_)
    : tracer(tracer_),
      trackId(track),
      name(std::move(name_)),
      cat(std::move(cat_))
{
    if (!tracer.enabled())
        return;
    active = true;
    startSec = tracer.nowSeconds();
}

ScopedSpan::~ScopedSpan()
{
    if (!active)
        return;
    tracer.span(trackId, name, cat, startSec,
                tracer.nowSeconds() - startSec);
}

} // namespace hetsim::obs
