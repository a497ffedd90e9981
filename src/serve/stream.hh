/**
 * @file
 * hetsim::serve - the streaming (online) front-end.
 *
 * `hetsim serve --stream` turns the batch server into an online one:
 * JobSpec JSONL lines arrive incrementally on an input stream, each
 * job is submitted the moment its line is read (fair-share and
 * preemption apply live), and every terminal result is emitted to the
 * output stream as soon as it records - in completion order, which is
 * host-dependent.  The deterministic
 * artifact is the sorted result set (StreamOutcome / --results-out),
 * which is byte-identical at any worker count, like a batch.
 *
 * Protocol grammar (line-oriented, over stdin/stdout):
 *
 *   stream  := { job-line | blank-line } [ "end" ] EOF
 *   job-line := <flat JSON object, same keys as `hetsim batch`>
 *   result  := <result JSONL line, written as the job completes>
 *
 * The explicit `end` sentinel (the three bytes, surrounding
 * whitespace ignored) marks an orderly close; plain EOF behaves the
 * same so piped files work unchanged.  Input after `end` is not
 * read.  Malformed lines, unknown keys, and duplicate ids are fatal
 * with 1-based line numbers - a stream, unlike a closed batch, may
 * have already executed earlier jobs, so the error names exactly
 * where ingestion stopped.
 */

#ifndef HETSIM_SERVE_STREAM_HH
#define HETSIM_SERVE_STREAM_HH

#include <iosfwd>
#include <optional>
#include <string>
#include <vector>

#include "serve/server.hh"

namespace hetsim::serve
{

/** Results + report of one streamed serving session. */
struct StreamOutcome
{
    /** Terminal results, ascending id (the determinism artifact). */
    std::vector<JobResult> results;
    ServerReport report;
    /** Input lines consumed (incl. blanks and the sentinel). */
    u64 linesRead = 0;
    /** The stream closed with the explicit `end` sentinel. */
    bool sawEnd = false;
};

/**
 * Run one streaming session: read job lines from @p in, submit each
 * as it arrives, write result lines to @p out as jobs complete, and
 * drain after the `end` sentinel (or EOF).  @p config.onResult is
 * overridden by the live emitter.  @return nullopt and set @p error
 * (with the 1-based line number) on an invalid configuration or the
 * first malformed/duplicate job line; jobs already submitted still
 * drain and their results are lost with the session.
 */
std::optional<StreamOutcome> runStream(std::istream &in,
                                       std::ostream &out,
                                       const ServerConfig &config,
                                       std::string &error);

} // namespace hetsim::serve

#endif // HETSIM_SERVE_STREAM_HH
