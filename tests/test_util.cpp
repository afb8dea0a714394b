#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <sstream>

#include "util/error.hpp"
#include "util/flags.hpp"
#include "util/rng.hpp"
#include "util/stats.hpp"
#include "util/stopwatch.hpp"
#include "util/table.hpp"

namespace tomo {
namespace {

// ---------------------------------------------------------------- Rng ----

TEST(Rng, DeterministicForSameSeed) {
  Rng a(42), b(42);
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(a(), b());
  }
}

TEST(Rng, DifferentSeedsDiverge) {
  Rng a(1), b(2);
  int same = 0;
  for (int i = 0; i < 64; ++i) {
    same += (a() == b()) ? 1 : 0;
  }
  EXPECT_LT(same, 4);
}

TEST(Rng, UniformInUnitInterval) {
  Rng rng(7);
  for (int i = 0; i < 10000; ++i) {
    const double u = rng.uniform();
    EXPECT_GE(u, 0.0);
    EXPECT_LT(u, 1.0);
  }
}

TEST(Rng, UniformMeanIsHalf) {
  Rng rng(11);
  double sum = 0;
  const int n = 100000;
  for (int i = 0; i < n; ++i) sum += rng.uniform();
  EXPECT_NEAR(sum / n, 0.5, 0.01);
}

TEST(Rng, UniformRangeRespectsBounds) {
  Rng rng(3);
  for (int i = 0; i < 1000; ++i) {
    const double u = rng.uniform(0.25, 0.75);
    EXPECT_GE(u, 0.25);
    EXPECT_LT(u, 0.75);
  }
}

TEST(Rng, BelowCoversAllResidues) {
  Rng rng(5);
  std::set<std::uint64_t> seen;
  for (int i = 0; i < 1000; ++i) {
    const std::uint64_t v = rng.below(7);
    EXPECT_LT(v, 7u);
    seen.insert(v);
  }
  EXPECT_EQ(seen.size(), 7u);
}

TEST(Rng, BernoulliEdgeCases) {
  Rng rng(9);
  for (int i = 0; i < 50; ++i) {
    EXPECT_FALSE(rng.bernoulli(0.0));
    EXPECT_TRUE(rng.bernoulli(1.0));
  }
}

TEST(Rng, BernoulliFrequencyMatchesP) {
  Rng rng(13);
  int hits = 0;
  const int n = 100000;
  for (int i = 0; i < n; ++i) hits += rng.bernoulli(0.3) ? 1 : 0;
  EXPECT_NEAR(static_cast<double>(hits) / n, 0.3, 0.01);
}

TEST(Rng, BinomialMeanAndRange) {
  Rng rng(17);
  const std::uint64_t n = 1000;
  const double p = 0.2;
  double sum = 0;
  for (int i = 0; i < 2000; ++i) {
    const std::uint64_t v = rng.binomial(n, p);
    EXPECT_LE(v, n);
    sum += static_cast<double>(v);
  }
  EXPECT_NEAR(sum / 2000.0, n * p, 5.0);
}

TEST(Rng, BinomialSmallMeanBranch) {
  Rng rng(19);
  // n large, n*p small: exercises the geometric-gap branch.
  double sum = 0;
  for (int i = 0; i < 5000; ++i) {
    sum += static_cast<double>(rng.binomial(10000, 0.0005));
  }
  EXPECT_NEAR(sum / 5000.0, 5.0, 0.5);
}

TEST(Rng, BinomialDegenerateCases) {
  Rng rng(23);
  EXPECT_EQ(rng.binomial(0, 0.5), 0u);
  EXPECT_EQ(rng.binomial(10, 0.0), 0u);
  EXPECT_EQ(rng.binomial(10, 1.0), 10u);
}

TEST(Rng, SampleWithoutReplacementIsDistinct) {
  Rng rng(29);
  const auto sample = rng.sample_without_replacement(50, 20);
  EXPECT_EQ(sample.size(), 20u);
  std::set<std::size_t> unique(sample.begin(), sample.end());
  EXPECT_EQ(unique.size(), 20u);
  for (std::size_t v : sample) EXPECT_LT(v, 50u);
}

TEST(Rng, SampleAllElements) {
  Rng rng(31);
  auto sample = rng.sample_without_replacement(10, 10);
  std::sort(sample.begin(), sample.end());
  for (std::size_t i = 0; i < 10; ++i) EXPECT_EQ(sample[i], i);
}

TEST(Rng, ShufflePreservesElements) {
  Rng rng(37);
  std::vector<int> v{1, 2, 3, 4, 5, 6, 7};
  auto w = v;
  rng.shuffle(w);
  std::sort(w.begin(), w.end());
  EXPECT_EQ(v, w);
}

TEST(Rng, MixSeedSeparatesStreams) {
  EXPECT_NE(mix_seed(1, 0), mix_seed(1, 1));
  EXPECT_NE(mix_seed(1, 0), mix_seed(2, 0));
  EXPECT_EQ(mix_seed(5, 9), mix_seed(5, 9));
}

// -------------------------------------------------------------- stats ----

TEST(Stats, MeanAndVariance) {
  std::vector<double> v{1, 2, 3, 4, 5};
  EXPECT_DOUBLE_EQ(mean(v), 3.0);
  EXPECT_DOUBLE_EQ(variance(v), 2.5);
  EXPECT_DOUBLE_EQ(mean({}), 0.0);
  EXPECT_DOUBLE_EQ(variance({42.0}), 0.0);
}

TEST(Stats, PercentileInterpolates) {
  std::vector<double> v{0, 10};
  EXPECT_DOUBLE_EQ(percentile(v, 0), 0.0);
  EXPECT_DOUBLE_EQ(percentile(v, 50), 5.0);
  EXPECT_DOUBLE_EQ(percentile(v, 100), 10.0);
}

TEST(Stats, PercentileSingleElement) {
  EXPECT_DOUBLE_EQ(percentile({3.5}, 90), 3.5);
}

TEST(Stats, PercentileRejectsEmptyAndBadP) {
  EXPECT_THROW(percentile({}, 50), Error);
  EXPECT_THROW(percentile({1.0}, -1), Error);
  EXPECT_THROW(percentile({1.0}, 101), Error);
}

TEST(Stats, WilsonIntervalBracketsProportion) {
  const auto iv = wilson_interval(30, 100);
  EXPECT_LT(iv.lo, 0.3);
  EXPECT_GT(iv.hi, 0.3);
  EXPECT_GE(iv.lo, 0.0);
  EXPECT_LE(iv.hi, 1.0);
}

TEST(Stats, WilsonIntervalEmptySample) {
  const auto iv = wilson_interval(0, 0);
  EXPECT_DOUBLE_EQ(iv.lo, 0.0);
  EXPECT_DOUBLE_EQ(iv.hi, 1.0);
}

TEST(Stats, WilsonIntervalShrinksWithSamples) {
  const auto narrow = wilson_interval(500, 1000);
  const auto wide = wilson_interval(5, 10);
  EXPECT_LT(narrow.hi - narrow.lo, wide.hi - wide.lo);
}

// -------------------------------------------------------------- flags ----

TEST(Flags, ParsesAllValueForms) {
  Flags flags("prog", "test");
  flags.add_int("n", 5, "count")
      .add_double("x", 1.5, "ratio")
      .add_bool("verbose", false, "talk")
      .add_string("name", "default", "label");
  const char* argv[] = {"prog", "--n", "10", "--x=2.5", "--verbose",
                        "--name", "hello"};
  ASSERT_TRUE(flags.parse(7, argv));
  EXPECT_EQ(flags.get_int("n"), 10);
  EXPECT_DOUBLE_EQ(flags.get_double("x"), 2.5);
  EXPECT_TRUE(flags.get_bool("verbose"));
  EXPECT_EQ(flags.get_string("name"), "hello");
}

TEST(Flags, DefaultsSurviveParse) {
  Flags flags("prog", "test");
  flags.add_int("n", 5, "count");
  const char* argv[] = {"prog"};
  ASSERT_TRUE(flags.parse(1, argv));
  EXPECT_EQ(flags.get_int("n"), 5);
}

TEST(Flags, RejectsUnknownFlag) {
  Flags flags("prog", "test");
  const char* argv[] = {"prog", "--bogus", "1"};
  EXPECT_THROW(flags.parse(3, argv), Error);
}

TEST(Flags, RejectsMalformedValue) {
  Flags flags("prog", "test");
  flags.add_int("n", 5, "count");
  const char* argv[] = {"prog", "--n", "abc"};
  ASSERT_TRUE(flags.parse(3, argv));
  EXPECT_THROW(flags.get_int("n"), Error);
}

TEST(Flags, CountRejectsNegativeValueNamingTheFlag) {
  Flags flags("prog", "test");
  flags.add_int("window", 256, "size").add_int("trials", 1, "count");
  const char* argv[] = {"prog", "--window", "-5", "--trials", "0"};
  ASSERT_TRUE(flags.parse(5, argv));
  EXPECT_EQ(flags.get_count("trials"), 0u);
  try {
    flags.get_count("window");
    FAIL() << "a negative count must throw";
  } catch (const Error& e) {
    EXPECT_NE(e.message().find("--window"), std::string::npos) << e.message();
  }
  // get_int still hands the signed value through unchanged.
  EXPECT_EQ(flags.get_int("window"), -5);
}

TEST(Flags, HelpReturnsFalse) {
  Flags flags("prog", "test");
  const char* argv[] = {"prog", "--help"};
  EXPECT_FALSE(flags.parse(2, argv));
}

TEST(Flags, WrongTypeAccessThrows) {
  Flags flags("prog", "test");
  flags.add_int("n", 5, "count");
  const char* argv[] = {"prog"};
  ASSERT_TRUE(flags.parse(1, argv));
  EXPECT_THROW(flags.get_bool("n"), Error);
}

// -------------------------------------------------------------- table ----

TEST(Table, TextRenderingAligns) {
  Table t({"a", "long_header"});
  t.add_row({"1", "2"});
  std::ostringstream os;
  t.print_text(os);
  const std::string out = os.str();
  EXPECT_NE(out.find("long_header"), std::string::npos);
  EXPECT_NE(out.find("| 1"), std::string::npos);
}

TEST(Table, CsvQuotesSpecialCharacters) {
  Table t({"x"});
  t.add_row({"has,comma"});
  t.add_row({"has\"quote"});
  std::ostringstream os;
  t.print_csv(os);
  const std::string out = os.str();
  EXPECT_NE(out.find("\"has,comma\""), std::string::npos);
  EXPECT_NE(out.find("\"has\"\"quote\""), std::string::npos);
}

TEST(Table, RowWidthMismatchThrows) {
  Table t({"a", "b"});
  EXPECT_THROW(t.add_row({"only-one"}), Error);
}

TEST(Table, FmtPrecision) {
  EXPECT_EQ(Table::fmt(1.23456, 2), "1.23");
  EXPECT_EQ(Table::fmt(0.5, 4), "0.5000");
}

// -------------------------------------------------------------- error ----

TEST(ErrorTest, MessageRoundTrip) {
  Error e("something broke");
  EXPECT_EQ(e.message(), "something broke");
  EXPECT_NE(std::string(e.what()).find("something broke"),
            std::string::npos);
}

TEST(ErrorTest, RequireMacroThrows) {
  EXPECT_THROW(TOMO_REQUIRE(false, "boom"), Error);
  EXPECT_NO_THROW(TOMO_REQUIRE(true, "fine"));
}

// ---------------------------------------------------------- stopwatch ----

TEST(StopwatchTest, MeasuresNonNegativeTime) {
  Stopwatch sw;
  EXPECT_GE(sw.seconds(), 0.0);
  sw.reset();
  EXPECT_GE(sw.seconds(), 0.0);
  EXPECT_LT(sw.seconds(), 1.0);
}

}  // namespace
}  // namespace tomo
