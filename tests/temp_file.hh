/**
 * @file
 * A per-test temp file: a unique path under testing::TempDir(), removed
 * when the object goes out of scope.
 *
 * ctest runs every test case in its own process, all in one working
 * directory, so a fixed name - or a counter that restarts in each
 * process - lets overlapping tests write, read and delete each other's
 * files.  The path here carries the test's full name, the process id
 * and a serial that restarts with each test.
 *
 * A threadsafe-style death-test child re-runs the test body in a new
 * process.  It names its files with its parent's id, so the files the
 * child writes are the ones the parent reads afterwards.
 */

#ifndef HETSIM_TESTS_TEMP_FILE_HH
#define HETSIM_TESTS_TEMP_FILE_HH

#include <gtest/gtest.h>
#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <string>

namespace hetsim::test
{

class TempFile
{
  public:
    /** Reserves a path; the file does not exist until written. */
    TempFile() : filePath(uniquePath()) { std::remove(filePath.c_str()); }
    /** Creates the file holding @p text. */
    explicit TempFile(const std::string &text) : filePath(uniquePath())
    {
        std::ofstream(filePath) << text;
    }
    ~TempFile() { std::remove(filePath.c_str()); }

    TempFile(const TempFile &) = delete;
    TempFile &operator=(const TempFile &) = delete;

    const std::string &path() const { return filePath; }

  private:
    static std::string
    uniquePath()
    {
        const testing::TestInfo *test =
            testing::UnitTest::GetInstance()->current_test_info();
        static const testing::TestInfo *owner = nullptr;
        static int serial = 0;
        if (test != owner) {
            owner = test;
            serial = 0;
        }
        std::string name =
            test != nullptr ? std::string(test->test_suite_name()) + "." +
                                  test->name()
                            : "global";
        std::replace(name.begin(), name.end(), '/', '_');
        const pid_t pid = testing::internal::InDeathTestChild()
                              ? getppid()
                              : getpid();
        return testing::TempDir() + "hetsim_" + name + "_" +
               std::to_string(pid) + "_" + std::to_string(serial++);
    }

    std::string filePath;
};

} // namespace hetsim::test

#endif // HETSIM_TESTS_TEMP_FILE_HH
