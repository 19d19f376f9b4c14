/**
 * @file
 * Tests for the util substrate: aligned buffers, PRNG, tables, CLI,
 * content fingerprints.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include "util/aligned.hh"
#include "util/cli.hh"
#include "util/fingerprint.hh"
#include "util/random.hh"
#include "util/table.hh"
#include "util/timer.hh"

namespace spg {
namespace {

TEST(AlignedBuffer, AlignmentAndZeroInit)
{
    AlignedBuffer<float> buf(1000);
    EXPECT_EQ(reinterpret_cast<std::uintptr_t>(buf.data()) % 64, 0u);
    EXPECT_EQ(buf.size(), 1000u);
    for (auto v : buf)
        ASSERT_EQ(v, 0.0f);
}

TEST(AlignedBuffer, MoveTransfersOwnership)
{
    AlignedBuffer<int> a(10);
    a[3] = 7;
    int *p = a.data();
    AlignedBuffer<int> b = std::move(a);
    EXPECT_EQ(b.data(), p);
    EXPECT_EQ(b[3], 7);
    EXPECT_TRUE(a.empty());
    a = AlignedBuffer<int>(5);
    a[0] = 1;
    b = std::move(a);
    EXPECT_EQ(b.size(), 5u);
    EXPECT_EQ(b[0], 1);
}

TEST(AlignedBuffer, EmptyIsSafe)
{
    AlignedBuffer<double> buf;
    EXPECT_TRUE(buf.empty());
    EXPECT_EQ(buf.data(), nullptr);
    buf.zero();  // no-op, must not crash
}

TEST(Rng, Deterministic)
{
    Rng a(42), b(42), c(43);
    for (int i = 0; i < 100; ++i) {
        EXPECT_EQ(a.next(), b.next());
    }
    bool differs = false;
    Rng a2(42);
    for (int i = 0; i < 10; ++i)
        differs |= a2.next() != c.next();
    EXPECT_TRUE(differs);
}

TEST(Rng, UniformInRange)
{
    Rng rng(1);
    for (int i = 0; i < 10000; ++i) {
        float u = rng.uniform();
        ASSERT_GE(u, 0.0f);
        ASSERT_LT(u, 1.0f);
    }
    for (int i = 0; i < 1000; ++i) {
        float u = rng.uniform(-3.0f, 5.0f);
        ASSERT_GE(u, -3.0f);
        ASSERT_LT(u, 5.0f);
    }
}

TEST(Rng, BelowCoversRange)
{
    Rng rng(2);
    std::set<std::uint64_t> seen;
    for (int i = 0; i < 1000; ++i) {
        std::uint64_t v = rng.below(7);
        ASSERT_LT(v, 7u);
        seen.insert(v);
    }
    EXPECT_EQ(seen.size(), 7u);
}

TEST(Rng, BernoulliFrequency)
{
    Rng rng(3);
    int hits = 0;
    for (int i = 0; i < 10000; ++i)
        hits += rng.bernoulli(0.3);
    EXPECT_NEAR(hits / 10000.0, 0.3, 0.02);
}

TEST(Fingerprint, EveryByteFeedsTheHash)
{
    // Lengths 0-97 cover zero to three whole 32-byte blocks with every
    // byte-tail length. Flipping any single byte must change the hash,
    // and the same bytes at another (unaligned) address hash equal.
    Rng rng(4);
    for (std::size_t n = 0; n <= 97; ++n) {
        std::vector<unsigned char> bytes(n);
        for (auto &b : bytes)
            b = static_cast<unsigned char>(rng.below(256));
        const std::uint64_t h = fingerprintBytes(bytes.data(), n);

        std::vector<unsigned char> shifted(n + 1);
        if (n > 0)
            std::memcpy(shifted.data() + 1, bytes.data(), n);
        EXPECT_EQ(fingerprintBytes(shifted.data() + 1, n), h) << n;

        for (std::size_t i = 0; i < n; ++i) {
            bytes[i] ^= 0xff;
            EXPECT_NE(fingerprintBytes(bytes.data(), n), h)
                << "length " << n << ", byte " << i;
            bytes[i] ^= 0xff;
        }
    }
}

TEST(Table, RendersAllRows)
{
    TablePrinter table("demo", {"a", "b"});
    table.addRow({"1", "2"});
    table.addRow({"x", TablePrinter::fmt(3.14159, 3)});
    EXPECT_EQ(table.rowCount(), 2u);
    EXPECT_EQ(TablePrinter::fmt(3.14159, 2), "3.14");
    EXPECT_EQ(TablePrinter::fmt(static_cast<long long>(-7)), "-7");
}

TEST(Table, CsvEscaping)
{
    TablePrinter table("csv", {"v"});
    table.addRow({"has,comma"});
    table.addRow({"has\"quote"});
    std::FILE *f = std::tmpfile();
    ASSERT_NE(f, nullptr);
    table.printCsv(f);
    std::rewind(f);
    char buf[256];
    std::string content;
    while (std::fgets(buf, sizeof(buf), f))
        content += buf;
    std::fclose(f);
    EXPECT_NE(content.find("\"has,comma\""), std::string::npos);
    EXPECT_NE(content.find("\"has\"\"quote\""), std::string::npos);
}

TEST(Cli, ParsesTypedFlags)
{
    CliParser cli("test");
    cli.addInt("cores", 16, "core count");
    cli.addDouble("sparsity", 0.85, "sparsity");
    cli.addString("engine", "auto", "engine name");
    cli.addBool("csv", false, "emit csv");

    const char *argv[] = {"prog",       "--cores=8", "--sparsity", "0.5",
                          "--engine",   "stencil",   "--csv",      "pos1"};
    cli.parse(8, const_cast<char **>(argv));
    EXPECT_EQ(cli.getInt("cores"), 8);
    EXPECT_DOUBLE_EQ(cli.getDouble("sparsity"), 0.5);
    EXPECT_EQ(cli.getString("engine"), "stencil");
    EXPECT_TRUE(cli.getBool("csv"));
    ASSERT_EQ(cli.positional().size(), 1u);
    EXPECT_EQ(cli.positional()[0], "pos1");
}

TEST(Cli, DefaultsSurviveNoArgs)
{
    CliParser cli("test");
    cli.addInt("n", 5, "n");
    cli.addBool("flag", true, "f");
    const char *argv[] = {"prog"};
    cli.parse(1, const_cast<char **>(argv));
    EXPECT_EQ(cli.getInt("n"), 5);
    EXPECT_TRUE(cli.getBool("flag"));
}

TEST(Cli, GivenTellsSetFlagsFromDefaults)
{
    CliParser cli("test");
    cli.addDouble("lr", 0.05, "lr");
    cli.addInt("n", 5, "n");
    cli.addBool("flag", false, "f");
    const char *argv[] = {"prog", "--lr=0.05", "--flag"};
    cli.parse(3, const_cast<char **>(argv));
    EXPECT_TRUE(cli.given("lr"));  // even when equal to the default
    EXPECT_TRUE(cli.given("flag"));
    EXPECT_FALSE(cli.given("n"));
}

TEST(Cli, RangeGettersAcceptInRangeValues)
{
    CliParser cli("test");
    cli.addInt("batch", 16, "b");
    cli.addDouble("sparsity", 0.5, "s");
    cli.addDouble("rate", 10.0, "r");
    const char *argv[] = {"prog", "--batch=1", "--sparsity=1"};
    cli.parse(3, const_cast<char **>(argv));
    EXPECT_EQ(cli.getIntIn("batch", 1), 1);
    EXPECT_DOUBLE_EQ(cli.getDoubleIn("sparsity", 0.0, 1.0), 1.0);
    EXPECT_DOUBLE_EQ(cli.getPositiveDouble("rate"), 10.0);
}

TEST(CliDeath, RangeGettersNameTheFlag)
{
    auto parsed = [](std::vector<const char *> argv) {
        auto cli = std::make_unique<CliParser>("test");
        cli->addInt("batch", 16, "b");
        cli->addDouble("sparsity", 0.5, "s");
        cli->addDouble("lr", 0.05, "lr");
        argv.insert(argv.begin(), "prog");
        cli->parse(static_cast<int>(argv.size()),
                   const_cast<char **>(argv.data()));
        return cli;
    };
    EXPECT_EXIT(parsed({"--batch=0"})->getIntIn("batch", 1),
                ::testing::ExitedWithCode(1), "--batch must be >= 1");
    EXPECT_EXIT(parsed({"--batch=9"})->getIntIn("batch", 1, 8),
                ::testing::ExitedWithCode(1), "--batch must be in");
    EXPECT_EXIT(parsed({"--sparsity=-0.1"})
                    ->getDoubleIn("sparsity", 0.0, 1.0),
                ::testing::ExitedWithCode(1), "--sparsity must be in");
    EXPECT_EXIT(parsed({"--sparsity=nan"})
                    ->getDoubleIn("sparsity", 0.0, 1.0),
                ::testing::ExitedWithCode(1), "--sparsity must be in");
    EXPECT_EXIT(parsed({"--sparsity=-1"})->getDoubleIn("sparsity", 0.0),
                ::testing::ExitedWithCode(1),
                "--sparsity must be a finite number >= 0");
    EXPECT_EXIT(parsed({"--lr=0"})->getPositiveDouble("lr"),
                ::testing::ExitedWithCode(1), "--lr must be a finite");
    EXPECT_EXIT(parsed({"--lr=inf"})->getPositiveDouble("lr"),
                ::testing::ExitedWithCode(1), "--lr must be a finite");
}

TEST(Timer, MeasuresElapsed)
{
    Stopwatch sw;
    double sink = 0;
    for (int i = 0; i < 100000; ++i)
        sink += i;
    // Prevent the loop from being optimized away.
    asm volatile("" : : "g"(&sink) : "memory");
    EXPECT_GT(sw.seconds(), 0.0);
    EXPECT_GT(sw.microseconds(), sw.milliseconds());
}

TEST(Timer, BestAndMeanTime)
{
    int calls = 0;
    double best = bestTimeSeconds(3, [&] { ++calls; });
    EXPECT_EQ(calls, 4);  // 1 warm-up + 3 timed
    EXPECT_GE(best, 0.0);
    calls = 0;
    double mean = meanTimeSeconds(5, [&] { ++calls; });
    EXPECT_EQ(calls, 6);
    EXPECT_GE(mean, 0.0);
}

} // namespace
} // namespace spg
