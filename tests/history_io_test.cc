// Copyright 2026 The ccr Authors.
//
// Tests for history serialization: value literals, event round-trips,
// comment/blank handling, and error reporting with line numbers.

#include <gtest/gtest.h>

#include <cerrno>
#include <cstdlib>
#include <optional>
#include <string>
#include <vector>

#include "adt/bank_account.h"
#include "adt/kv_store.h"
#include "common/random.h"
#include "core/history_io.h"
#include "core/ideal_object.h"
#include "core/script.h"
#include "sim/generator.h"

namespace ccr {
namespace {

TEST(ValueIoTest, RoundTripsAllTypes) {
  for (const Value& v :
       {Value::MakeUnit(), Value(int64_t{-42}), Value(int64_t{0}),
        Value(true), Value(false), Value("ok"), Value("no")}) {
    StatusOr<Value> parsed = ParseValue(SerializeValue(v));
    ASSERT_TRUE(parsed.ok()) << SerializeValue(v);
    EXPECT_EQ(*parsed, v);
  }
}

TEST(ValueIoTest, RejectsMalformedLiterals) {
  for (const char* bad : {"", "x", "q:1", "i:", "i:abc", "b:maybe", "u:x"}) {
    EXPECT_FALSE(ParseValue(bad).ok()) << bad;
  }
}

// The wire and history codecs share ParseValue, so its accepted int
// literals stay exactly those of strtoll over the body's C string: leading
// C-locale whitespace and one sign are accepted, the body ends at its
// first NUL, and overflow is refused.
TEST(ValueIoTest, IntLiteralsMatchStrtoll) {
  const auto reference = [](const std::string& body) -> std::optional<int64_t> {
    errno = 0;
    char* end = nullptr;
    const long long v = std::strtoll(body.c_str(), &end, 10);
    if (body.empty() || *end != '\0' || errno != 0) return std::nullopt;
    return static_cast<int64_t>(v);
  };
  std::vector<std::string> bodies = {
      "0", "-0", "+7", " 7", "\t-7", "\v\f\r\n 12", "7 ", "- 7", "+-7",
      "--7", "0x10", "007", "+", "-", " ", "9223372036854775807",
      "9223372036854775808", "-9223372036854775808", "-9223372036854775809",
      "99999999999999999999", std::string("5\0x", 3), std::string("\0", 1),
      std::string(" \0", 2), std::string("-\0" "5", 3)};
  Random rng(11);
  const char kAlphabet[] = " \t\v+-0123456789x\0";
  const std::string alphabet(kAlphabet, sizeof(kAlphabet) - 1);
  for (int i = 0; i < 20000; ++i) {
    std::string body;
    const size_t len = 1 + rng.Uniform(6);
    for (size_t k = 0; k < len; ++k) body += alphabet[rng.Uniform(alphabet.size())];
    bodies.push_back(body);
  }
  for (const std::string& body : bodies) {
    const StatusOr<Value> parsed = ParseValue("i:" + body);
    const std::optional<int64_t> expected = reference(body);
    ASSERT_EQ(parsed.ok(), expected.has_value()) << "body '" << body << "'";
    if (expected.has_value()) {
      EXPECT_EQ(parsed->AsInt(), *expected) << body;
    }
  }
}

TEST(HistoryIoTest, RoundTripsPaperExample) {
  auto ba = MakeBankAccount();
  HistoryScript script;
  script.Exec(1, ba->Deposit(3)).Commit(1, "BA");
  script.Exec(2, ba->WithdrawOk(2)).Abort(2, "BA");
  script.Exec(3, ba->Balance(3)).Commit(3, "BA");
  History h = script.Build().value();

  const std::string text = SerializeHistory(h);
  StatusOr<History> parsed = ParseHistory(text);
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  ASSERT_EQ(parsed->size(), h.size());
  for (size_t i = 0; i < h.size(); ++i) {
    EXPECT_TRUE(parsed->at(i) == h.at(i)) << "event " << i;
  }
}

TEST(HistoryIoTest, RoundTripsMultiArgOperations) {
  auto kv = MakeKvStore();
  HistoryScript script;
  script.Exec(1, kv->Put("key", 7)).Exec(1, kv->Get("key", 7));
  script.Exec(1, kv->GetNone("other")).Commit(1, "KV");
  History h = script.Build().value();
  StatusOr<History> parsed = ParseHistory(SerializeHistory(h));
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  EXPECT_EQ(SerializeHistory(*parsed), SerializeHistory(h));
}

TEST(HistoryIoTest, RoundTripsRandomSchedules) {
  auto ba = MakeBankAccount();
  for (uint64_t seed = 0; seed < 5; ++seed) {
    Random rng(seed);
    IdealObject obj("BA",
                    std::shared_ptr<const SpecAutomaton>(ba, &ba->spec()),
                    MakeUipView(), MakeNrbcConflict(ba));
    History h = GenerateSchedule(&obj, UniverseInvocations(*ba), &rng);
    StatusOr<History> parsed = ParseHistory(SerializeHistory(h));
    ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
    EXPECT_EQ(SerializeHistory(*parsed), SerializeHistory(h));
  }
}

TEST(HistoryIoTest, IgnoresCommentsAndBlankLines) {
  const std::string text =
      "# a recorded history\n"
      "\n"
      "invoke 1 BA 0 deposit i:5\n"
      "response 1 BA s:ok\n"
      "commit 1 BA\n";
  StatusOr<History> parsed = ParseHistory(text);
  ASSERT_TRUE(parsed.ok());
  EXPECT_EQ(parsed->size(), 3u);
  EXPECT_EQ(parsed->Opseq().size(), 1u);
}

TEST(HistoryIoTest, ReportsLineNumbers) {
  const std::string text =
      "invoke 1 BA 0 deposit i:5\n"
      "response 1 BA s:ok\n"
      "bogus 1 BA\n";
  StatusOr<History> parsed = ParseHistory(text);
  ASSERT_FALSE(parsed.ok());
  EXPECT_NE(parsed.status().message().find("line 3"), std::string::npos)
      << parsed.status().ToString();
}

TEST(HistoryIoTest, RejectsIllFormedHistories) {
  // A response with no pending invocation is a well-formedness violation.
  StatusOr<History> parsed = ParseHistory("response 1 BA s:ok\n");
  ASSERT_FALSE(parsed.ok());
  EXPECT_NE(parsed.status().message().find("line 1"), std::string::npos);
}

}  // namespace
}  // namespace ccr
