// Copyright 2026 The ccr Authors.
//
// Unit tests for the common layer: Status/StatusOr, the deterministic RNG,
// the Zipfian sampler, string/table formatting, and scratch directories.

#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <limits>
#include <set>

#include <gtest/gtest.h>

#include "common/random.h"
#include "common/status.h"
#include "common/string_util.h"
#include "common/temp_path.h"

namespace ccr {
namespace {

TEST(TempDirTest, CreatesUnderTmpdirAndRemovesItselfWithItsFiles) {
  const char* saved = std::getenv("TMPDIR");
  const std::string saved_tmpdir = saved != nullptr ? saved : "";
  const TempDir root("ccr_tmpdir_root_");  // the scratch TMPDIR
  ASSERT_EQ(::setenv("TMPDIR", root.path().c_str(), 1), 0);
  std::string path;
  {
    const TempDir dir("ccr_probe_");
    path = dir.path();
    EXPECT_EQ(path.rfind(root.path() + "/ccr_probe_", 0), 0u) << path;
    std::filesystem::create_directory(path + "/sub");
    std::ofstream(path + "/sub/file") << "bytes";
    std::ofstream(path + "/file") << "bytes";
    EXPECT_TRUE(std::filesystem::exists(path + "/sub/file"));
  }
  EXPECT_FALSE(std::filesystem::exists(path));
  if (saved != nullptr) {
    ::setenv("TMPDIR", saved_tmpdir.c_str(), 1);
  } else {
    ::unsetenv("TMPDIR");
  }
}

TEST(StatusTest, OkByDefault) {
  Status s;
  EXPECT_TRUE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kOk);
  EXPECT_EQ(s.ToString(), "OK");
}

TEST(StatusTest, ErrorCarriesCodeAndMessage) {
  Status s = Status::Conflict("blocked by B");
  EXPECT_FALSE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kConflict);
  EXPECT_EQ(s.message(), "blocked by B");
  EXPECT_EQ(s.ToString(), "Conflict: blocked by B");
}

TEST(StatusTest, RetryableClassification) {
  EXPECT_TRUE(Status::Conflict("").IsRetryable());
  EXPECT_TRUE(Status::Deadlock("").IsRetryable());
  EXPECT_TRUE(Status::TimedOut("").IsRetryable());
  EXPECT_FALSE(Status::Aborted("").IsRetryable());
  EXPECT_FALSE(Status::InvalidArgument("").IsRetryable());
  EXPECT_FALSE(Status::OK().IsRetryable());
}

TEST(StatusOrTest, HoldsValue) {
  StatusOr<int> v = 42;
  ASSERT_TRUE(v.ok());
  EXPECT_EQ(*v, 42);
}

TEST(StatusOrTest, HoldsError) {
  StatusOr<int> v = Status::NotFound("gone");
  EXPECT_FALSE(v.ok());
  EXPECT_EQ(v.status().code(), StatusCode::kNotFound);
}

TEST(RandomTest, DeterministicForSameSeed) {
  Random a(7), b(7);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.Next(), b.Next());
}

TEST(RandomTest, DifferentSeedsDiverge) {
  Random a(1), b(2);
  int same = 0;
  for (int i = 0; i < 64; ++i) {
    if (a.Next() == b.Next()) ++same;
  }
  EXPECT_LT(same, 4);
}

TEST(RandomTest, UniformInRange) {
  Random rng(11);
  for (int i = 0; i < 1000; ++i) {
    const uint64_t v = rng.Uniform(10);
    EXPECT_LT(v, 10u);
  }
  for (int i = 0; i < 1000; ++i) {
    const int64_t v = rng.UniformRange(-5, 5);
    EXPECT_GE(v, -5);
    EXPECT_LE(v, 5);
  }
}

TEST(RandomTest, UniformCoversAllValues) {
  Random rng(13);
  std::set<uint64_t> seen;
  for (int i = 0; i < 1000; ++i) seen.insert(rng.Uniform(8));
  EXPECT_EQ(seen.size(), 8u);
}

TEST(RandomTest, BernoulliEdgeCases) {
  Random rng(17);
  EXPECT_FALSE(rng.Bernoulli(0.0));
  EXPECT_TRUE(rng.Bernoulli(1.0));
  int hits = 0;
  for (int i = 0; i < 10000; ++i) hits += rng.Bernoulli(0.3) ? 1 : 0;
  EXPECT_NEAR(hits / 10000.0, 0.3, 0.03);
}

TEST(RandomTest, WeightedRespectsWeights) {
  Random rng(19);
  std::vector<int> counts(3, 0);
  for (int i = 0; i < 9000; ++i) {
    counts[rng.Weighted({1.0, 2.0, 0.0})]++;
  }
  EXPECT_EQ(counts[2], 0);
  EXPECT_NEAR(counts[1] / static_cast<double>(counts[0]), 2.0, 0.3);
}

TEST(ZipfianTest, UniformWhenThetaZero) {
  Random rng(23);
  Zipfian z(4, 0.0);
  std::vector<int> counts(4, 0);
  for (int i = 0; i < 8000; ++i) counts[z.Sample(&rng)]++;
  for (int c : counts) EXPECT_NEAR(c, 2000, 250);
}

TEST(ZipfianTest, SkewPrefersLowIndices) {
  Random rng(29);
  Zipfian z(16, 0.99);
  std::vector<int> counts(16, 0);
  for (int i = 0; i < 8000; ++i) counts[z.Sample(&rng)]++;
  EXPECT_GT(counts[0], counts[8] * 3);
}

TEST(StrFormatTest, FormatsLikePrintf) {
  EXPECT_EQ(StrFormat("%d-%s", 3, "x"), "3-x");
  EXPECT_EQ(StrFormat("empty"), "empty");
}

TEST(StrJoinTest, JoinsWithSeparator) {
  EXPECT_EQ(StrJoin({"a", "b", "c"}, ", "), "a, b, c");
  EXPECT_EQ(StrJoin({}, ","), "");
  EXPECT_EQ(StrJoin({"only"}, ","), "only");
}

// The sizing pass of the journal encoder must count exactly what the
// appenders write.
TEST(StringSizeTest, SizesMatchWhatIsAppended) {
  const auto decimal = [](auto v) {
    std::string out;
    AppendDecimal(&out, v);
    EXPECT_EQ(DecimalSize(v), out.size()) << out;
  };
  for (const int64_t v :
       {int64_t{0}, int64_t{9}, int64_t{10}, int64_t{-1}, int64_t{-10},
        int64_t{99999}, std::numeric_limits<int64_t>::max(),
        std::numeric_limits<int64_t>::min()}) {
    decimal(v);
  }
  decimal(std::numeric_limits<int>::min());
  decimal(std::numeric_limits<uint64_t>::max());
  decimal(uint64_t{0});
  for (const std::string& raw :
       {std::string(), std::string("plain"), std::string("a b%\n"),
        std::string("\x7f\x01"), std::string(3, '\0'),
        std::string("caf\xc3\xa9")}) {
    std::string out;
    AppendEscaped(&out, raw);
    EXPECT_EQ(EscapedSize(raw), out.size()) << out;
  }
}

TEST(TablePrinterTest, AlignsColumns) {
  TablePrinter printer({"op", "result"});
  printer.AddRow({"withdraw(3)", "ok"});
  printer.AddRow({"balance", "12"});
  const std::string out = printer.ToString();
  EXPECT_NE(out.find("op           result"), std::string::npos);
  EXPECT_NE(out.find("withdraw(3)  ok"), std::string::npos);
  EXPECT_NE(out.find("balance      12"), std::string::npos);
}

}  // namespace
}  // namespace ccr
