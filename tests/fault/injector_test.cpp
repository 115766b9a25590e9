#include "fault/injector.h"

#include <gtest/gtest.h>

#include <stdexcept>
#include <string>
#include <string_view>

namespace vdbench::fault {
namespace {

TEST(InjectorParseTest, ParsesFullGrammar) {
  const auto rules = Injector::parse(
      "cache.write=io_error@3; experiment.body=throw@e13:1 ;"
      "executor.task=timeout@17:2x3;cache.read=corrupt");
  ASSERT_EQ(rules.size(), 4u);
  EXPECT_EQ(rules[0].point, "cache.write");
  EXPECT_EQ(rules[0].action, Action::kIoError);
  EXPECT_EQ(rules[0].key, "");
  EXPECT_EQ(rules[0].trigger, 3u);
  EXPECT_EQ(rules[0].repeat, 1u);
  EXPECT_EQ(rules[1].point, "experiment.body");
  EXPECT_EQ(rules[1].action, Action::kThrow);
  EXPECT_EQ(rules[1].key, "e13");
  EXPECT_EQ(rules[1].trigger, 1u);
  EXPECT_EQ(rules[2].key, "17");
  EXPECT_EQ(rules[2].trigger, 2u);
  EXPECT_EQ(rules[2].repeat, 3u);
  EXPECT_EQ(rules[3].action, Action::kCorrupt);
  EXPECT_EQ(rules[3].trigger, 0u);  // fires on every hit
}

TEST(InjectorParseTest, RejectsMalformedSpecs) {
  EXPECT_THROW(Injector::parse("nonsense"), std::invalid_argument);
  EXPECT_THROW(Injector::parse("bogus.point=throw"), std::invalid_argument);
  EXPECT_THROW(Injector::parse("cache.read=explode"), std::invalid_argument);
  EXPECT_THROW(Injector::parse("cache.read=throw@"), std::invalid_argument);
  EXPECT_THROW(Injector::parse("cache.read=throw@0"), std::invalid_argument);
  EXPECT_THROW(Injector::parse("cache.read=throw@:3"), std::invalid_argument);
  EXPECT_THROW(Injector::parse("cache.read=throw@e1:x2"),
               std::invalid_argument);
  // Counts past 2^64-1 must not wrap: 2^64 used to read as 0 and 2^64+1
  // as 1, which fired on the first hit.
  EXPECT_THROW(Injector::parse("cache.read=throw@18446744073709551616"),
               std::invalid_argument);
  EXPECT_THROW(Injector::parse("cache.read=throw@1x18446744073709551616"),
               std::invalid_argument);
  EXPECT_THROW(Injector::parse("cache.read=throw@18446744073709551617"),
               std::invalid_argument);
  EXPECT_THROW(Injector::parse("cache.read=throw@1x18446744073709551617"),
               std::invalid_argument);
  EXPECT_TRUE(Injector::parse("").empty());
  EXPECT_TRUE(Injector::parse(" ; ; ").empty());
}

TEST(InjectorParseTest, ErrorsNameTheClauseAndItsOffset) {
  // A multi-clause grid is only debuggable when the error pinpoints the
  // offending clause: its text verbatim and its byte offset in the spec.
  const auto message_of = [](std::string_view spec) -> std::string {
    try {
      (void)Injector::parse(spec);
    } catch (const std::invalid_argument& error) {
      return error.what();
    }
    return "";
  };

  const std::string first = message_of("bogus.point=throw");
  EXPECT_NE(first.find("'bogus.point=throw'"), std::string::npos) << first;
  EXPECT_NE(first.find("at offset 0"), std::string::npos) << first;

  // The same bad clause in second position reports its real offset
  // (clause text starts after "cache.read=corrupt; " = 20 bytes).
  const std::string second =
      message_of("cache.read=corrupt; bogus.point=throw");
  EXPECT_NE(second.find("'bogus.point=throw'"), std::string::npos) << second;
  EXPECT_NE(second.find("at offset 20"), std::string::npos) << second;

  const std::string action = message_of("cache.read=explode;x=y");
  EXPECT_NE(action.find("'cache.read=explode'"), std::string::npos) << action;
  EXPECT_NE(action.find("unknown action 'explode'"), std::string::npos)
      << action;

  const std::string count =
      message_of("cache.write=io_error@1;cache.read=throw@e1:zz");
  EXPECT_NE(count.find("'cache.read=throw@e1:zz'"), std::string::npos)
      << count;
  EXPECT_NE(count.find("at offset 23"), std::string::npos) << count;
  EXPECT_NE(count.find("'zz'"), std::string::npos) << count;

  const std::string huge = message_of("cache.read=throw@18446744073709551616");
  EXPECT_NE(huge.find("trigger count '18446744073709551616' exceeds 2^64-1"),
            std::string::npos)
      << huge;
}

TEST(InjectorTest, DisarmedHitIsANoOp) {
  Injector injector;
  EXPECT_FALSE(injector.armed());
  EXPECT_EQ(injector.hit("cache.read", "e1"), Action::kNone);
  EXPECT_EQ(injector.total_fired(), 0u);
}

TEST(InjectorTest, CountBasedTriggerFiresOnceAtTheScheduledHit) {
  Injector injector;
  injector.arm("cache.write=io_error@3");
  EXPECT_TRUE(injector.armed());
  EXPECT_EQ(injector.hit("cache.write"), Action::kNone);
  EXPECT_EQ(injector.hit("cache.write"), Action::kNone);
  EXPECT_EQ(injector.hit("cache.write"), Action::kIoError);
  EXPECT_EQ(injector.hit("cache.write"), Action::kNone);
  EXPECT_EQ(injector.total_fired(), 1u);
  // Hits on other points never advance this rule's counter.
  EXPECT_EQ(injector.hit("cache.read"), Action::kNone);
}

TEST(InjectorTest, RepeatCountKeepsFiringForTheWholeWindow) {
  Injector injector;
  injector.arm("executor.task=throw@2x3");
  EXPECT_EQ(injector.hit("executor.task"), Action::kNone);
  EXPECT_EQ(injector.hit("executor.task"), Action::kThrow);
  EXPECT_EQ(injector.hit("executor.task"), Action::kThrow);
  EXPECT_EQ(injector.hit("executor.task"), Action::kThrow);
  EXPECT_EQ(injector.hit("executor.task"), Action::kNone);
  EXPECT_EQ(injector.total_fired(), 3u);
}

TEST(InjectorTest, KeyFilterMakesTheScheduleKeySpecific) {
  Injector injector;
  injector.arm("experiment.body=throw@e2:1");
  // Other keys pass through and do not advance the counter.
  EXPECT_EQ(injector.hit("experiment.body", "e1"), Action::kNone);
  EXPECT_EQ(injector.hit("experiment.body", "e3"), Action::kNone);
  EXPECT_EQ(injector.hit("experiment.body", "e2"), Action::kThrow);
  EXPECT_EQ(injector.hit("experiment.body", "e2"), Action::kNone);
}

TEST(InjectorTest, TriggerlessRuleFiresOnEveryHit) {
  Injector injector;
  injector.arm("cache.read=io_error");
  for (int i = 0; i < 5; ++i)
    EXPECT_EQ(injector.hit("cache.read", "any"), Action::kIoError);
  EXPECT_EQ(injector.total_fired(), 5u);
}

TEST(InjectorTest, RearmResetsCountersAndDisarmStops) {
  Injector injector;
  injector.arm("cache.write=io_error@1");
  EXPECT_EQ(injector.hit("cache.write"), Action::kIoError);
  injector.arm("cache.write=io_error@1");  // re-arm: schedule restarts
  EXPECT_EQ(injector.hit("cache.write"), Action::kIoError);
  injector.disarm();
  EXPECT_FALSE(injector.armed());
  EXPECT_EQ(injector.hit("cache.write"), Action::kNone);
}

TEST(InjectorTest, FirstMatchingRuleWinsButAllCountersAdvance) {
  Injector injector;
  injector.arm("cache.read=io_error@2;cache.read=corrupt@2");
  EXPECT_EQ(injector.hit("cache.read"), Action::kNone);
  // Both rules fire on hit 2; the first clause's action is reported, but
  // both counters advanced so the schedule stays deterministic.
  EXPECT_EQ(injector.hit("cache.read"), Action::kIoError);
  EXPECT_EQ(injector.hit("cache.read"), Action::kNone);
}

TEST(MutatorTest, FlipOneBitChangesExactlyOneBitDeterministically) {
  std::string a = "payload bytes payload bytes";
  std::string b = a;
  flip_one_bit(a, 7);
  flip_one_bit(b, 7);
  EXPECT_EQ(a, b);          // same salt, same flip
  EXPECT_NE(a, "payload bytes payload bytes");
  int bit_diffs = 0;
  for (std::size_t i = 0; i < a.size(); ++i) {
    unsigned char diff = static_cast<unsigned char>(
        a[i] ^ "payload bytes payload bytes"[i]);
    while (diff != 0) {
      bit_diffs += diff & 1;
      diff >>= 1;
    }
  }
  EXPECT_EQ(bit_diffs, 1);
  std::string empty;
  flip_one_bit(empty, 0);  // no-op, no crash
  EXPECT_TRUE(empty.empty());
}

TEST(MutatorTest, TruncateTailHalvesTheBuffer) {
  std::string bytes(10, 'x');
  truncate_tail(bytes);
  EXPECT_EQ(bytes.size(), 5u);
  std::string one(1, 'x');
  truncate_tail(one);
  EXPECT_TRUE(one.empty());
}

}  // namespace
}  // namespace vdbench::fault
