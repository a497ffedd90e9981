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
        if (spec && !ids.insert(spec->id).second) {
            error = "line " + std::to_string(lineno) +
                    ": duplicate job id " + std::to_string(spec->id);
            spec.reset();
        }
        if (!spec) {
            server.drain(); // the destructor then stops the workers
            return std::nullopt;
        }
        server.submit(std::move(*spec));
    }

    static_cast<BatchOutcome &>(outcome) = server.finish();
    return outcome;
}

} // namespace hetsim::serve
