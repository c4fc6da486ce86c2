#include <gtest/gtest.h>

#include <cmath>
#include <sstream>
#include <string>
#include <vector>

#include "src/util/array2d.hpp"
#include "src/util/array3d.hpp"
#include "src/util/cli.hpp"
#include "src/util/error.hpp"
#include "src/util/rng.hpp"
#include "src/util/table.hpp"

namespace mu = minipop::util;

TEST(Array2D, IndexingIsRowMajorWithIFastest) {
  mu::Array2D<double> a(3, 2);
  a(0, 0) = 1;
  a(2, 0) = 3;
  a(0, 1) = 4;
  EXPECT_EQ(a.data()[0], 1);
  EXPECT_EQ(a.data()[2], 3);
  EXPECT_EQ(a.data()[3], 4);
  EXPECT_EQ(a.nx(), 3);
  EXPECT_EQ(a.ny(), 2);
  EXPECT_EQ(a.size(), 6u);
}

TEST(Array2D, FillAndAtOr) {
  mu::Array2D<double> a(4, 4, 7.5);
  for (double v : a) EXPECT_EQ(v, 7.5);
  EXPECT_EQ(a.at_or(-1, 0, -9.0), -9.0);
  EXPECT_EQ(a.at_or(0, 4, -9.0), -9.0);
  EXPECT_EQ(a.at_or(3, 3, -9.0), 7.5);
  a.fill(0.0);
  EXPECT_EQ(a(2, 2), 0.0);
}

TEST(Array2D, EqualityComparesShapeAndContents) {
  mu::Array2D<int> a(2, 2, 1);
  mu::Array2D<int> b(2, 2, 1);
  EXPECT_TRUE(a == b);
  b(1, 1) = 2;
  EXPECT_FALSE(a == b);
  mu::Array2D<int> c(4, 1, 1);
  EXPECT_FALSE(a == c);
}

TEST(Array3D, IndexingOrder) {
  mu::Array3D<double> a(2, 3, 4);
  a(1, 2, 3) = 42.0;
  // (k * ny + j) * nx + i = (3*3+2)*2+1 = 23
  EXPECT_EQ(a.data()[23], 42.0);
  EXPECT_EQ(a.size(), 24u);
}

TEST(Rng, DeterministicFromSeed) {
  mu::Xoshiro256 a(123), b(123), c(124);
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(a(), b());
  }
  bool differs = false;
  mu::Xoshiro256 a2(123);
  for (int i = 0; i < 100; ++i)
    if (a2() != c()) differs = true;
  EXPECT_TRUE(differs);
}

TEST(Rng, UniformInRangeAndRoughlyCentered) {
  mu::Xoshiro256 rng(7);
  double sum = 0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) {
    double u = rng.uniform();
    ASSERT_GE(u, 0.0);
    ASSERT_LT(u, 1.0);
    sum += u;
  }
  EXPECT_NEAR(sum / n, 0.5, 0.02);
}

TEST(Rng, NormalMomentsApproximatelyStandard) {
  mu::Xoshiro256 rng(99);
  double sum = 0, sum2 = 0;
  const int n = 50000;
  for (int i = 0; i < n; ++i) {
    double x = rng.normal();
    sum += x;
    sum2 += x * x;
  }
  EXPECT_NEAR(sum / n, 0.0, 0.03);
  EXPECT_NEAR(sum2 / n, 1.0, 0.05);
}

TEST(Cli, ParsesAllForms) {
  const char* argv[] = {"prog",      "--nx=100",   "--tol=1e-6",
                        "--verbose", "positional", "--name=abc"};
  mu::Cli cli(6, argv);
  EXPECT_EQ(cli.get_int("nx", 0), 100);
  EXPECT_DOUBLE_EQ(cli.get_double("tol", 0.0), 1e-6);
  EXPECT_TRUE(cli.get_bool("verbose"));
  EXPECT_FALSE(cli.get_bool("quiet"));
  EXPECT_EQ(cli.get("name", ""), "abc");
  ASSERT_EQ(cli.positional().size(), 1u);
  EXPECT_EQ(cli.positional()[0], "positional");
  EXPECT_EQ(cli.get_int("missing", -3), -3);
}

TEST(Cli, RejectsMalformedNumbers) {
  const char* argv[] = {"prog", "--nx=12abc"};
  mu::Cli cli(2, argv);
  EXPECT_THROW(cli.get_int("nx", 0), mu::Error);
}

TEST(Cli, RejectsMalformedValuesOfEveryType) {
  const char* argv[] = {"prog",    "--depth=x", "--tol=1e-3q",
                        "--on=maybe", "--big=99999999999", "--nx=",
                        "--ny",    "--rtol=",   "--days"};
  mu::Cli cli(9, argv);
  EXPECT_THROW(cli.get_int("depth", 1), mu::Error);
  EXPECT_THROW(cli.get_double("tol", 0.0), mu::Error);
  EXPECT_THROW(cli.get_bool("on"), mu::Error);
  EXPECT_THROW(cli.get_int("big", 0), mu::Error);
  // A present but empty value is malformed, not absent: it must not
  // silently take the fallback.
  EXPECT_THROW(cli.get_int("nx", 1), mu::Error);
  EXPECT_THROW(cli.get_int("ny", 1), mu::Error);
  EXPECT_THROW(cli.get_int("nx", 1, 0), mu::Error);
  EXPECT_THROW(cli.get_double("rtol", 1.0), mu::Error);
  EXPECT_THROW(cli.get_double("days", 1.0), mu::Error);
  EXPECT_THROW(cli.get_positive("days", 1.0), mu::Error);
  try {
    cli.get_int("nx", 1);
    FAIL() << "should have thrown";
  } catch (const mu::Error& e) {
    EXPECT_STREQ(e.what(), "--nx= is not an integer");
  }
  try {
    cli.get_double("days", 1.0);
    FAIL() << "should have thrown";
  } catch (const mu::Error& e) {
    EXPECT_STREQ(e.what(), "--days= is not a number");
  }
  EXPECT_EQ(mu::parse_int("--block-size", "16"), 16);
  EXPECT_EQ(mu::parse_int("--block-size", "-3"), -3);
  EXPECT_THROW(mu::parse_int("--block-size", ""), mu::Error);
  EXPECT_THROW(mu::parse_int("--block-size", "16x"), mu::Error);
  try {
    cli.get_int("depth", 1);
  } catch (const mu::Error& e) {
    EXPECT_STREQ(e.what(), "--depth=x is not an integer");
  }
}

TEST(Cli, ReportsOptionsPassedButNeverRead) {
  const char* argv[] = {"prog", "--halo-depht=4", "--days=3", "--solvr=pcg",
                        "--verbose", "--days=5"};
  mu::Cli cli(6, argv);
  // Nothing looked up yet: every option is unread, first-occurrence order.
  EXPECT_EQ(cli.unread(), (std::vector<std::string>{"halo-depht", "days",
                                                    "solvr", "verbose"}));
  EXPECT_EQ(cli.get_int("days", 90), 5);  // the last value wins
  EXPECT_TRUE(cli.has("verbose"));
  // Looking up an absent option marks nothing that was passed.
  EXPECT_EQ(cli.get("halo-depth", "1"), "1");
  EXPECT_EQ(cli.get("solver", "pcsi"), "pcsi");
  EXPECT_EQ(cli.unread(),
            (std::vector<std::string>{"halo-depht", "solvr"}));
  try {
    cli.reject_unread();
    FAIL() << "should have thrown";
  } catch (const mu::Error& e) {
    EXPECT_STREQ(e.what(), "unknown options --halo-depht, --solvr");
  }
  cli.get("halo-depht", "");
  cli.get("solvr", "");
  EXPECT_TRUE(cli.unread().empty());
  EXPECT_NO_THROW(cli.reject_unread());
}

TEST(Cli, RejectsPositionalArgumentsNeverRead) {
  const char* argv[] = {"prog", "--days=3", "stray.json", "extra"};
  mu::Cli cli(4, argv);
  EXPECT_EQ(cli.get_int("days", 90), 3);
  try {
    cli.reject_unread();
    FAIL() << "should have thrown";
  } catch (const mu::Error& e) {
    EXPECT_STREQ(e.what(), "unexpected arguments stray.json, extra");
  }
  // A program that reads its positionals accepts them.
  EXPECT_EQ(cli.positional().size(), 2u);
  EXPECT_NO_THROW(cli.reject_unread());
}

TEST(Cli, RangeCheckedLookups) {
  const char* argv[] = {"prog", "--nz=0", "--members=2", "--days=-1",
                        "--tol=nan", "--dt=inf", "--scale=0.5"};
  mu::Cli cli(7, argv);
  EXPECT_THROW(cli.get_int("nz", 4, 1), mu::Error);
  EXPECT_EQ(cli.get_int("members", 10, 2), 2);
  EXPECT_EQ(cli.get_int("months", 3, 1), 3);  // absent: the fallback
  EXPECT_THROW(cli.get_positive("days", 90.0), mu::Error);
  EXPECT_THROW(cli.get_positive("tol", 1e-13), mu::Error);
  EXPECT_THROW(cli.get_positive("dt", 1.0), mu::Error);
  EXPECT_EQ(cli.get_positive("scale", 0.1), 0.5);
  try {
    cli.get_int("nz", 4, 1);
  } catch (const mu::Error& e) {
    EXPECT_STREQ(e.what(), "--nz=0 is below 1");
  }
  try {
    cli.get_positive("days", 90.0);
  } catch (const mu::Error& e) {
    EXPECT_STREQ(e.what(), "--days=-1 is not a finite number > 0");
  }
}

TEST(Table, FormatsAlignedColumns) {
  mu::Table t({"cores", "time"});
  t.row().add_int(16).add(1.25, 2);
  t.row().add_int(16875).add(0.5, 2);
  std::string s = t.to_string();
  EXPECT_NE(s.find("cores"), std::string::npos);
  EXPECT_NE(s.find("16875"), std::string::npos);
  EXPECT_NE(s.find("1.25"), std::string::npos);
  // Header separator present.
  EXPECT_NE(s.find("---"), std::string::npos);
}

TEST(Table, PercentFormatting) {
  mu::Table t({"x"});
  t.row().add_pct(0.167);
  EXPECT_NE(t.to_string().find("16.7%"), std::string::npos);
}

TEST(Error, RequireThrowsWithMessage) {
  try {
    MINIPOP_REQUIRE(1 == 2, "context " << 42);
    FAIL() << "should have thrown";
  } catch (const mu::Error& e) {
    std::string w = e.what();
    EXPECT_NE(w.find("1 == 2"), std::string::npos);
    EXPECT_NE(w.find("context 42"), std::string::npos);
  }
}
