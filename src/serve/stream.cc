#include "stream.hh"

#include <cctype>
#include <istream>
#include <ostream>
#include <set>

namespace hetsim::serve
{

namespace
{

/** @return @p line with surrounding ASCII whitespace removed. */
std::string
trimmed(const std::string &line)
{
    size_t first = 0;
    size_t last = line.size();
    while (first < last &&
           std::isspace(static_cast<unsigned char>(line[first])))
        ++first;
    while (last > first &&
           std::isspace(static_cast<unsigned char>(line[last - 1])))
        --last;
    return line.substr(first, last - first);
}

} // namespace

std::optional<StreamOutcome>
runStream(std::istream &in, std::ostream &out,
          const ServerConfig &config, std::string &error)
{
    ServerConfig cfg = config;
    // Live emission: one result line per terminal job, written under
    // the server mutex so lines never interleave.
    cfg.onResult = [&out](const JobResult &result) {
        writeResultLine(out, result);
        out.flush();
    };
    if (auto err = Server::validateConfig(cfg)) {
        error = *err;
        return std::nullopt;
    }

    Server server(cfg);
    if (auto err = server.start()) {
        error = *err;
        return std::nullopt;
    }

    StreamOutcome outcome;
    std::set<u64> ids;
    std::string line;
    size_t lineno = 0;
    while (std::getline(in, line)) {
        ++lineno;
        outcome.linesRead = lineno;
        const std::string text = trimmed(line);
        if (text.empty())
            continue;
        if (text == "end") {
            outcome.sawEnd = true;
            break;
        }
        auto spec = parseJobLine(line, lineno, error);
        if (!spec) {
            server.drain();
            server.shutdown();
            return std::nullopt;
        }
        if (!ids.insert(spec->id).second) {
            error = "line " + std::to_string(lineno) +
                    ": duplicate job id " + std::to_string(spec->id);
            server.drain();
            server.shutdown();
            return std::nullopt;
        }
        server.submit(std::move(*spec));
    }

    server.drain();
    outcome.report = server.report();
    outcome.results = server.takeResults();
    server.shutdown();
    // Deterministic virtual-cluster spans over the final result set
    // (the host-side live emission order is not attributable).
    applyVirtualSchedule(outcome.results, cfg.workers, true);
    return outcome;
}

} // namespace hetsim::serve
