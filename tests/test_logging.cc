/**
 * @file
 * Unit tests for common/logging.
 */

#include <gtest/gtest.h>

#include <fstream>
#include <sstream>

#include "common/logging.hh"
#include "obs/crashdump.hh"
#include "obs/metrics.hh"
#include "obs/tracer.hh"

#include "temp_file.hh"

namespace hetsim
{
namespace
{

TEST(Logging, CsprintfFormats)
{
    EXPECT_EQ(csprintf("x=%d", 42), "x=42");
    EXPECT_EQ(csprintf("%s-%s", "a", "b"), "a-b");
    EXPECT_EQ(csprintf("%.2f", 1.5), "1.50");
}

TEST(Logging, CsprintfLongString)
{
    std::string big(5000, 'x');
    EXPECT_EQ(csprintf("%s", big.c_str()).size(), 5000u);
}

TEST(Logging, InformToggle)
{
    EXPECT_TRUE(informEnabled());
    setInformEnabled(false);
    EXPECT_FALSE(informEnabled());
    setInformEnabled(true);
    EXPECT_TRUE(informEnabled());
}

TEST(LoggingDeath, PanicAborts)
{
    EXPECT_DEATH(panic("boom %d", 1), "panic: boom 1");
}

TEST(LoggingDeath, FatalExits)
{
    EXPECT_EXIT(fatal("bad config %s", "x"),
                testing::ExitedWithCode(1), "fatal: bad config x");
}

// Crash hooks run before the abort/exit, newest first; a removed hook
// no longer fires.  The hook side effects happen in the death-test
// child, so they are observed through the filesystem.
TEST(LoggingDeath, CrashHooksRunOnPanic)
{
    const test::TempFile file;
    const std::string &path = file.path();
    EXPECT_DEATH(
        {
            int removed = addCrashHook([&] {
                std::ofstream(path, std::ios::app) << "removed\n";
            });
            addCrashHook([&] {
                std::ofstream(path, std::ios::app) << "first\n";
            });
            addCrashHook([&] {
                std::ofstream(path, std::ios::app) << "second\n";
            });
            removeCrashHook(removed);
            panic("with hooks");
        },
        "panic: with hooks");
    std::ifstream in(path);
    std::stringstream content;
    content << in.rdbuf();
    // Newest-first order, removed hook absent.
    EXPECT_EQ(content.str(), "second\nfirst\n");
}

TEST(LoggingDeath, CrashHooksRunOnFatal)
{
    const test::TempFile file;
    const std::string &path = file.path();
    EXPECT_EXIT(
        {
            addCrashHook([&] {
                std::ofstream(path) << "flushed";
            });
            fatal("going down");
        },
        testing::ExitedWithCode(1), "fatal: going down");
    std::ifstream in(path);
    std::string content;
    std::getline(in, content);
    EXPECT_EQ(content, "flushed");
}

// Satellite 3: a panic() mid-run with observability enabled still
// leaves parseable --trace-out/--metrics-out files behind.
TEST(LoggingDeath, CrashDumpFlushesObservabilityOutputs)
{
    const test::TempFile traceFile, metricsFile;
    const std::string &trace = traceFile.path();
    const std::string &metrics = metricsFile.path();
    EXPECT_DEATH(
        {
            obs::Tracer::global().clear();
            obs::Tracer::global().setEnabled(true);
            obs::Metrics::global().clear();
            obs::Metrics::global().setEnabled(true);
            obs::installCrashDump(trace, metrics);
            obs::Tracer::global().span(
                obs::Tracer::global().track("dev"), "work", "compute",
                0.0, 1.0);
            obs::Metrics::global().add("fault.degradations", 1);
            panic("mid-run crash");
        },
        "panic: mid-run crash");

    // Both files exist and hold balanced JSON with the recorded data.
    std::ifstream tin(trace);
    ASSERT_TRUE(tin.is_open());
    std::stringstream tbuf;
    tbuf << tin.rdbuf();
    EXPECT_NE(tbuf.str().find("\"work\""), std::string::npos);
    std::ifstream min(metrics);
    ASSERT_TRUE(min.is_open());
    std::stringstream mbuf;
    mbuf << min.rdbuf();
    EXPECT_NE(mbuf.str().find("fault.degradations"),
              std::string::npos);
}

} // namespace
} // namespace hetsim
