// Tests for common utilities: RNG, statistics, CLI parsing, table printing.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <set>
#include <stdexcept>
#include <string>
#include <vector>

#include "common/cli.hpp"
#include "common/rng.hpp"
#include "common/stats.hpp"
#include "common/table.hpp"

namespace qec {
namespace {

TEST(Rng, DeterministicForSameSeed) {
  Xoshiro256ss a(42), b(42);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a(), b());
}

TEST(Rng, DifferentSeedsDiverge) {
  Xoshiro256ss a(1), b(2);
  int same = 0;
  for (int i = 0; i < 64; ++i) same += (a() == b());
  EXPECT_LT(same, 2);
}

TEST(Rng, UniformInUnitInterval) {
  Xoshiro256ss rng(7);
  double sum = 0.0;
  for (int i = 0; i < 100000; ++i) {
    const double u = rng.uniform();
    ASSERT_GE(u, 0.0);
    ASSERT_LT(u, 1.0);
    sum += u;
  }
  EXPECT_NEAR(sum / 100000.0, 0.5, 0.01);
}

TEST(Rng, BernoulliMatchesProbability) {
  Xoshiro256ss rng(11);
  for (double p : {0.0, 0.01, 0.3, 0.5, 1.0}) {
    int hits = 0;
    const int n = 200000;
    for (int i = 0; i < n; ++i) hits += rng.bernoulli(p);
    EXPECT_NEAR(static_cast<double>(hits) / n, p, 0.01) << "p=" << p;
  }
}

TEST(Rng, BelowStaysInRangeAndCoversAll) {
  Xoshiro256ss rng(5);
  std::set<std::uint64_t> seen;
  for (int i = 0; i < 1000; ++i) {
    const std::uint64_t v = rng.below(7);
    ASSERT_LT(v, 7u);
    seen.insert(v);
  }
  EXPECT_EQ(seen.size(), 7u);
}

TEST(Rng, JumpProducesDecorrelatedStream) {
  Xoshiro256ss a(99);
  Xoshiro256ss b(99);
  b.jump();
  int same = 0;
  for (int i = 0; i < 64; ++i) same += (a() == b());
  EXPECT_LT(same, 2);
}

TEST(Stats, MeanAndVariance) {
  RunningStats stats;
  for (double x : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0}) stats.add(x);
  EXPECT_EQ(stats.count(), 8u);
  EXPECT_DOUBLE_EQ(stats.mean(), 5.0);
  EXPECT_DOUBLE_EQ(stats.variance(), 4.0);  // classic population-variance set
  EXPECT_DOUBLE_EQ(stats.stddev(), 2.0);
  EXPECT_DOUBLE_EQ(stats.min(), 2.0);
  EXPECT_DOUBLE_EQ(stats.max(), 9.0);
}

TEST(Stats, EmptyIsZero) {
  RunningStats stats;
  EXPECT_EQ(stats.count(), 0u);
  EXPECT_EQ(stats.mean(), 0.0);
  EXPECT_EQ(stats.variance(), 0.0);
}

TEST(Stats, MergeEqualsSequential) {
  Xoshiro256ss rng(3);
  RunningStats whole, left, right;
  for (int i = 0; i < 1000; ++i) {
    const double x = rng.uniform() * 10.0;
    whole.add(x);
    (i % 2 ? left : right).add(x);
  }
  left.merge(right);
  EXPECT_EQ(left.count(), whole.count());
  EXPECT_NEAR(left.mean(), whole.mean(), 1e-9);
  EXPECT_NEAR(left.variance(), whole.variance(), 1e-9);
  EXPECT_DOUBLE_EQ(left.max(), whole.max());
  EXPECT_DOUBLE_EQ(left.min(), whole.min());
}

TEST(Stats, MergeWithEmpty) {
  RunningStats a, b;
  a.add(1.0);
  a.add(3.0);
  a.merge(b);
  EXPECT_EQ(a.count(), 2u);
  b.merge(a);
  EXPECT_EQ(b.count(), 2u);
  EXPECT_DOUBLE_EQ(b.mean(), 2.0);
}

constexpr double kQuantiles[] = {0.0, 0.1, 50.0, 95.0, 99.0, 100.0};

/// Every ValueCounts answer against the sort-based reference.
void expect_counts_match(const ValueCounts& counts,
                         const std::vector<std::uint64_t>& samples) {
  EXPECT_EQ(counts.total(), samples.size());
  EXPECT_EQ(counts.empty(), samples.empty());
  for (const double q : kQuantiles) {
    EXPECT_EQ(counts.percentile(q), percentile_nearest_rank(samples, q))
        << "q=" << q << " n=" << samples.size();
  }
  if (samples.empty()) {
    EXPECT_EQ(counts.min(), 0u);
    EXPECT_EQ(counts.max(), 0u);
    EXPECT_EQ(counts.mean(), 0.0);
    return;
  }
  EXPECT_EQ(counts.min(), *std::min_element(samples.begin(), samples.end()));
  EXPECT_EQ(counts.max(), *std::max_element(samples.begin(), samples.end()));
  std::uint64_t sum = 0;
  for (const std::uint64_t s : samples) sum += s;
  // Same integer sum, same division: bit-identical to a sample loop.
  EXPECT_EQ(counts.mean(),
            static_cast<double>(sum) / static_cast<double>(samples.size()));
}

/// n samples drawn as base + below(span): span controls the tie density.
std::vector<std::uint64_t> draw(Xoshiro256ss& rng, int n, std::uint64_t base,
                                std::uint64_t span) {
  std::vector<std::uint64_t> out(static_cast<std::size_t>(n));
  for (auto& v : out) v = base + rng.below(span);
  return out;
}

TEST(ValueCounts, EmptyAndSingleSample) {
  expect_counts_match(ValueCounts(), {});
  expect_counts_match(ValueCounts(std::vector<std::uint64_t>{}), {});
  for (const std::uint64_t v : {std::uint64_t{0}, std::uint64_t{7},
                                std::uint64_t{1} << 40}) {
    const ValueCounts one(std::vector<std::uint64_t>{v});
    expect_counts_match(one, {v});
    ASSERT_EQ(one.runs().size(), 1u);
    EXPECT_EQ(one.runs()[0], (ValueCounts::Run{v, 1}));
  }
}

TEST(ValueCounts, MatchesNearestRankOnRandomSamples) {
  Xoshiro256ss rng(2021);
  // Small cycle-like values, values straddling 2^32, full-width values up
  // to 2^40 (every run distinct), and a span that is counted densely or
  // sorted depending on the sample count.
  const std::uint64_t bases[] = {0, (std::uint64_t{1} << 32) - 50, 0, 7};
  const std::uint64_t spans[] = {400, 100, std::uint64_t{1} << 40, 1500};
  for (int trial = 0; trial < 80; ++trial) {
    const int n = 1 + static_cast<int>(rng.below(600));
    const auto samples = draw(rng, n, bases[trial % 4], spans[trial % 4]);
    expect_counts_match(ValueCounts(samples), samples);
  }
}

TEST(ValueCounts, HeavyTiesStoreOneRunPerDistinctValue) {
  Xoshiro256ss rng(7);
  const auto samples = draw(rng, 5000, 1, 3);  // values 1..3 only
  const ValueCounts counts(samples);
  expect_counts_match(counts, samples);
  ASSERT_EQ(counts.runs().size(), 3u);
  std::uint64_t total = 0;
  for (std::size_t i = 0; i < counts.runs().size(); ++i) {
    EXPECT_EQ(counts.runs()[i].value, i + 1);  // ascending
    total += counts.runs()[i].count;
  }
  EXPECT_EQ(total, 5000u);
  // All samples equal: every percentile is that value.
  expect_counts_match(ValueCounts(std::vector<std::uint64_t>(100, 9)),
                      std::vector<std::uint64_t>(100, 9));
  // Ties far apart (a span no counting pass should cover): still one run
  // per distinct value.
  std::vector<std::uint64_t> wide;
  for (int i = 0; i < 300; ++i) {
    wide.push_back(i % 3 == 0 ? std::uint64_t{1} << 40 : 5);
  }
  const ValueCounts wide_counts(wide);
  expect_counts_match(wide_counts, wide);
  EXPECT_EQ(wide_counts.runs(),
            (std::vector<ValueCounts::Run>{{5, 200}, {std::uint64_t{1} << 40, 100}}));
}

TEST(ValueCounts, MergeEqualsCountsOfConcatenation) {
  Xoshiro256ss rng(11);
  for (int trial = 0; trial < 40; ++trial) {
    const auto a = draw(rng, static_cast<int>(rng.below(200)), 0, 60);
    const auto b = draw(rng, static_cast<int>(rng.below(200)), 30, 90);
    std::vector<std::uint64_t> both = a;
    both.insert(both.end(), b.begin(), b.end());

    ValueCounts merged(a);
    merged.merge(ValueCounts(b));
    EXPECT_EQ(merged, ValueCounts(both));
    expect_counts_match(merged, both);

    // Merge is symmetric, and the empty table is its identity.
    ValueCounts reversed(b);
    reversed.merge(ValueCounts(a));
    EXPECT_EQ(reversed, merged);
    ValueCounts from_empty;
    from_empty.merge(merged);
    from_empty.merge(ValueCounts());
    EXPECT_EQ(from_empty, merged);

    // sum() over many tables, one of them wide enough to leave the dense
    // counting pass, equals the counts of everything concatenated.
    const auto wide = draw(rng, static_cast<int>(rng.below(50)), 0,
                           std::uint64_t{1} << 40);
    std::vector<std::uint64_t> all = both;
    all.insert(all.end(), wide.begin(), wide.end());
    const ValueCounts ca(a), cb(b), cw(wide), none;
    EXPECT_EQ(ValueCounts::sum({&ca, &none, &cb}), merged);
    const ValueCounts summed = ValueCounts::sum({&ca, &cw, &cb, &none});
    EXPECT_EQ(summed, ValueCounts(all));
    expect_counts_match(summed, all);
  }
  EXPECT_EQ(ValueCounts::sum({}), ValueCounts());
}

TEST(Wilson, BracketsPointEstimate) {
  const auto ci = wilson_interval(10, 100);
  EXPECT_LT(ci.lower, 0.1);
  EXPECT_GT(ci.upper, 0.1);
  EXPECT_GT(ci.lower, 0.0);
  EXPECT_LT(ci.upper, 1.0);
}

TEST(Wilson, ZeroSuccessesHasPositiveUpper) {
  const auto ci = wilson_interval(0, 1000);
  EXPECT_DOUBLE_EQ(ci.lower, 0.0);
  EXPECT_GT(ci.upper, 0.0);
  EXPECT_LT(ci.upper, 0.01);
}

TEST(Wilson, AllSuccesses) {
  const auto ci = wilson_interval(50, 50);
  EXPECT_LT(ci.lower, 1.0);
  EXPECT_DOUBLE_EQ(ci.upper, 1.0);
}

TEST(Wilson, NoTrials) {
  const auto ci = wilson_interval(0, 0);
  EXPECT_DOUBLE_EQ(ci.lower, 0.0);
  EXPECT_DOUBLE_EQ(ci.upper, 1.0);
}

TEST(Wilson, ShrinksWithTrials) {
  const auto narrow = wilson_interval(100, 10000);
  const auto wide = wilson_interval(1, 100);
  EXPECT_LT(narrow.upper - narrow.lower, wide.upper - wide.lower);
}

TEST(Cli, ParsesEqualsAndSpaceForms) {
  const char* argv[] = {"prog", "--d=7", "--p", "0.01", "--verbose", "file"};
  CliArgs args(6, argv);
  EXPECT_EQ(args.get_int_or("d", 0), 7);
  EXPECT_DOUBLE_EQ(args.get_double_or("p", 0.0), 0.01);
  EXPECT_TRUE(args.get_flag("verbose"));
  EXPECT_FALSE(args.get_flag("quiet"));
  ASSERT_EQ(args.positional().size(), 1u);
  EXPECT_EQ(args.positional()[0], "file");
}

TEST(Cli, MalformedNumbersReturnNullopt) {
  const char* argv[] = {"prog", "--d=abc"};
  CliArgs args(2, argv);
  EXPECT_FALSE(args.get_int("d").has_value());
  EXPECT_THROW(args.get_int_or("d", 5), std::invalid_argument);
}

TEST(Cli, MalformedNumbersNameTheFlagAndValue) {
  const char* argv[] = {"prog", "--lanes=4o96", "--mhz=fast", "--threads=2x",
                        "--trials=", "--d=7", "--p=1e-3"};
  CliArgs args(7, argv);
  const auto message = [&](auto&& query) {
    try {
      query();
    } catch (const std::invalid_argument& e) {
      return std::string(e.what());
    }
    return std::string("no throw");
  };
  EXPECT_EQ(message([&] { args.get_int_or("lanes", 64); }),
            "--lanes=4o96: not an integer");
  EXPECT_EQ(message([&] { args.get_double_or("mhz", 1.0); }),
            "--mhz=fast: not a number");
  EXPECT_EQ(message([&] { threads_override(args, 1); }),
            "--threads=2x: not an integer");
  EXPECT_EQ(message([&] { trials_override(args, 10); }),
            "--trials=: not an integer");
  EXPECT_FALSE(args.get_double("mhz").has_value());
  // Well-formed and absent flags are unchanged.
  EXPECT_EQ(args.get_int_or("d", 5), 7);
  EXPECT_DOUBLE_EQ(args.get_double_or("p", 0.5), 1e-3);
  EXPECT_EQ(args.get_int_or("rounds", 9), 9);
  EXPECT_DOUBLE_EQ(args.get_double_or("budget-w", 0.25), 0.25);
}

TEST(Cli, UnreadFlagsAreListed) {
  const char* argv[] = {"prog", "--d=7", "--json=x.json", "--jsn=y",
                        "--json=z", "file"};
  CliArgs args(6, argv);
  EXPECT_EQ(args.get_int_or("d", 0), 7);
  EXPECT_FALSE(args.get("rounds").has_value());
  EXPECT_EQ(args.unread(), (std::vector<std::string>{"--json", "--jsn"}));
  try {
    reject_unread(args);
    ADD_FAILURE() << "reject_unread accepted unread flags";
  } catch (const std::invalid_argument& e) {
    EXPECT_STREQ(e.what(), "unknown option --json, --jsn");
  }

  // Querying a flag marks every occurrence of it as read.
  EXPECT_EQ(args.get_or("json", ""), "x.json");
  EXPECT_EQ(args.unread(), std::vector<std::string>{"--jsn"});
  args.get_flag("jsn");
  EXPECT_TRUE(args.unread().empty());
  EXPECT_NO_THROW(reject_unread(args));
}

TEST(Cli, TrialsOverridePrefersFlag) {
  const char* argv[] = {"prog", "--trials=123"};
  CliArgs args(2, argv);
  EXPECT_EQ(trials_override(args, 999), 123);
}

// A trial count outside [1, INT_MAX] must fail, never run an all-zero
// table or a truncated count.
TEST(Cli, TrialsOverrideRejectsOutOfRange) {
  for (const char* raw : {"0", "-5", "4294967297", "2147483648"}) {
    const std::string flag = std::string("--trials=") + raw;
    const char* argv[] = {"prog", flag.c_str()};
    CliArgs args(2, argv);
    try {
      trials_override(args, 10);
      ADD_FAILURE() << flag << " was accepted";
    } catch (const std::invalid_argument& e) {
      EXPECT_EQ(std::string(e.what()), flag + ": not in [1, 2147483647]");
    }
  }
  const char* argv[] = {"prog", "--trials=2147483647"};
  EXPECT_EQ(trials_override(CliArgs(2, argv), 10), 2147483647);

  // An out-of-range environment value is ignored, like a malformed one.
  const char* none[] = {"prog"};
  setenv("QECOOL_TRIALS", "4294967297", 1);
  EXPECT_EQ(trials_override(CliArgs(1, none), 999), 999);
  setenv("QECOOL_TRIALS", "12", 1);
  EXPECT_EQ(trials_override(CliArgs(1, none), 999), 12);
  unsetenv("QECOOL_TRIALS");
}

// A range bound that leaves nothing to run (a distance range below the
// grid's first distance, zero grid points) fails naming the flag.
TEST(Cli, IntFlagInRejectsValuesOutsideTheRange) {
  const char* argv[] = {"prog", "--dmax=3", "--points=0", "--dmin=7"};
  CliArgs args(4, argv);
  try {
    int_flag_in(args, "dmax", 13, 5, 99);
    ADD_FAILURE() << "--dmax=3 was accepted";
  } catch (const std::invalid_argument& e) {
    EXPECT_EQ(std::string(e.what()), "--dmax=3: not in [5, 99]");
  }
  EXPECT_THROW(int_flag_in(args, "points", 7, 1, 99), std::invalid_argument);
  EXPECT_EQ(int_flag_in(args, "dmin", 5, 2, 7), 7);
  EXPECT_EQ(int_flag_in(args, "absent", 42, 50, 60), 42)
      << "an absent flag takes the fallback unchecked";
}

TEST(Cli, IntListFlagInRejectsMalformedOrOutOfRangeItems) {
  const char* argv[] = {"prog", "--a=5,9", "--b=5.5", "--c=1e10",
                        "--d=5,x", "--e=", "--f=1"};
  CliArgs args(7, argv);
  EXPECT_EQ(int_list_flag_in(args, "a", "7", 2, 1000),
            (std::vector<int>{5, 9}));
  EXPECT_EQ(int_list_flag_in(args, "absent", "3,5", 2, 1000),
            (std::vector<int>{3, 5}));
  try {
    int_list_flag_in(args, "b", "5", 2, 1000);
    ADD_FAILURE() << "--b=5.5 was accepted";
  } catch (const std::invalid_argument& e) {
    EXPECT_EQ(std::string(e.what()),
              "--b=5.5: not a list of integers in [2, 1000]");
  }
  for (const char* name : {"c", "d", "e", "f"}) {
    EXPECT_THROW(int_list_flag_in(args, name, "5", 2, 1000),
                 std::invalid_argument)
        << "--" << name;
  }
}

TEST(Cli, SecondsFlagTakesAnOptionalUnit) {
  const char* argv[] = {"prog", "--a=30s", "--b=2.5", "--c=0"};
  CliArgs args(4, argv);
  EXPECT_DOUBLE_EQ(seconds_flag(args, "a", 1.0), 30.0);
  EXPECT_DOUBLE_EQ(seconds_flag(args, "b", 1.0), 2.5);
  EXPECT_DOUBLE_EQ(seconds_flag(args, "c", 1.0), 0.0);
  EXPECT_DOUBLE_EQ(seconds_flag(args, "absent", 7.0), 7.0);
}

TEST(Cli, SecondsFlagRejectsMalformedValues) {
  for (const char* raw : {"5x", "abc", "", "s", "-1", "-1s", "inf", "nan",
                          "5ss", "1e999"}) {
    const std::string flag = std::string("--time-budget=") + raw;
    const char* argv[] = {"prog", flag.c_str()};
    CliArgs args(2, argv);
    try {
      seconds_flag(args, "time-budget", 0.0);
      ADD_FAILURE() << flag << " was accepted";
    } catch (const std::invalid_argument& e) {
      EXPECT_EQ(std::string(e.what()),
                flag + ": not a finite, non-negative number of seconds");
    }
  }
}

TEST(Cli, TrialsFallback) {
  const char* argv[] = {"prog"};
  CliArgs args(1, argv);
  unsetenv("QECOOL_TRIALS");
  EXPECT_EQ(trials_override(args, 999), 999);
}

TEST(Table, RendersAlignedColumns) {
  TextTable table({"a", "bbbb"});
  table.add_row({"1", "2"});
  table.add_row({"333", "4"});
  const std::string out = table.to_string();
  EXPECT_NE(out.find("a    bbbb"), std::string::npos);
  EXPECT_NE(out.find("333"), std::string::npos);
}

TEST(Table, FmtHelpers) {
  EXPECT_EQ(TextTable::fmt(1.23456, 2), "1.23");
  EXPECT_EQ(TextTable::sci(0.00123, 1), "1.2e-03");
}

}  // namespace
}  // namespace qec
