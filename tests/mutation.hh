/**
 * @file
 * The deterministic mutation harness the reader tests share: every
 * truncation of a valid input and every substitution of one of its
 * bytes by one byte of an alphabet chosen for the format. Each mutant
 * must load or be refused with a sim::FatalError that names the file;
 * anything else (another exception, a crash, a sanitizer report) fails.
 */

#ifndef ULP_TESTS_MUTATION_HH
#define ULP_TESTS_MUTATION_HH

#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <functional>
#include <string>
#include <string_view>
#include <vector>

#include "sim/logging.hh"

namespace ulp::test {

inline void
writeFile(const std::string &path, const std::string &text)
{
    std::ofstream(path, std::ios::binary | std::ios::trunc) << text;
}

/**
 * Feed @p load every truncation of @p valid and every substitution of
 * one byte by a byte of @p alphabet, written to @p path. Each mutant
 * must load or throw a FatalError that names @p path; the first mutant
 * that fails either way, or makes @p load report a failure, ends the
 * run.
 */
inline void
mutate(const std::string &path, const std::string &valid,
       std::string_view alphabet,
       const std::function<void(const std::string &)> &load)
{
    std::vector<std::string> mutants;
    for (std::size_t n = 0; n < valid.size(); ++n)
        mutants.push_back(valid.substr(0, n));
    for (std::size_t i = 0; i < valid.size(); ++i) {
        for (const char c : alphabet) {
            if (valid[i] == c)
                continue;
            std::string m = valid;
            m[i] = c;
            mutants.push_back(std::move(m));
        }
    }

    unsigned loaded = 0, refused = 0;
    for (const std::string &m : mutants) {
        writeFile(path, m);
        try {
            load(path);
            ++loaded;
        } catch (const sim::FatalError &e) {
            ++refused;
            if (std::string(e.what()).find(path) == std::string::npos) {
                ADD_FAILURE() << "error does not name the file: "
                              << e.what() << "\nmutant:\n"
                              << m;
                return;
            }
        }
        if (::testing::Test::HasFailure()) {
            ADD_FAILURE() << "mutant:\n" << m;
            return;
        }
    }
    // Neither side may be empty, or the test proves nothing.
    EXPECT_GT(loaded, 0u) << path;
    EXPECT_GT(refused, 0u) << path;
}

/** A temporary directory of the test's own: ctest runs tests in parallel. */
struct TestDir
{
    std::filesystem::path dir = [] {
        const auto *test =
            ::testing::UnitTest::GetInstance()->current_test_info();
        return std::filesystem::path(::testing::TempDir()) /
               (std::string(test->test_suite_name()) + "_" + test->name());
    }();

    TestDir()
    {
        std::filesystem::remove_all(dir);
        std::filesystem::create_directories(dir);
    }
    ~TestDir() { std::filesystem::remove_all(dir); }

    std::string
    file(const char *leaf) const
    {
        return (dir / leaf).string();
    }
};

} // namespace ulp::test

#endif // ULP_TESTS_MUTATION_HH
