/**
 * @file
 * Test entry point: gtest_main plus one process-wide setting.
 *
 * Death tests use the "threadsafe" style, which re-executes the test
 * binary for each death test instead of forking the current process.
 * A forked child of a process whose global thread pool is running
 * inherits the pool object but not its worker threads, and its
 * exit-time teardown crashes or hangs; the re-executed child starts
 * clean.
 */

#include <gtest/gtest.h>

int
main(int argc, char **argv)
{
    testing::InitGoogleTest(&argc, argv);
    testing::GTEST_FLAG(death_test_style) = "threadsafe";
    return RUN_ALL_TESTS();
}
