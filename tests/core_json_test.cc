#include "core/json.h"

#include <gtest/gtest.h>

#include <string>

namespace mntp::core {
namespace {

TEST(Json, ParsesScalars) {
  EXPECT_TRUE(Json::parse("null").value().is_null());
  EXPECT_TRUE(Json::parse("true").value().as_bool());
  EXPECT_FALSE(Json::parse("false").value().as_bool());
  EXPECT_EQ(Json::parse("42").value().as_int(), 42);
  EXPECT_EQ(Json::parse("-17").value().as_int(), -17);
  EXPECT_DOUBLE_EQ(Json::parse("3.5").value().as_double(), 3.5);
  EXPECT_DOUBLE_EQ(Json::parse("-2e3").value().as_double(), -2000.0);
  EXPECT_EQ(Json::parse("\"hi\"").value().as_string(), "hi");
}

TEST(Json, IntegersStayExact) {
  const Json j = Json::parse("9007199254740993").value();  // 2^53 + 1
  ASSERT_TRUE(j.is_int());
  EXPECT_EQ(j.as_int(), 9007199254740993LL);
}

TEST(Json, NumberTypePromotion) {
  // as_int/as_double convert across the int/double divide.
  EXPECT_EQ(Json::parse("2.0").value().as_int(), 2);
  EXPECT_DOUBLE_EQ(Json::parse("7").value().as_double(), 7.0);
}

TEST(Json, StringEscapes) {
  const Json j = Json::parse(R"("a\"b\\c\nd\tA")").value();
  EXPECT_EQ(j.as_string(), "a\"b\\c\nd\tA");
}

TEST(Json, NestedStructure) {
  const auto r = Json::parse(
      R"({"meta":{"n":3,"ok":true},"xs":[1,2.5,"three",null]})");
  ASSERT_TRUE(r.ok());
  const Json& j = r.value();
  EXPECT_TRUE(j.is_object());
  EXPECT_EQ(j["meta"]["n"].as_int(), 3);
  EXPECT_TRUE(j["meta"]["ok"].as_bool());
  ASSERT_EQ(j["xs"].size(), 4u);
  EXPECT_EQ(j["xs"].at(0).as_int(), 1);
  EXPECT_DOUBLE_EQ(j["xs"].at(1).as_double(), 2.5);
  EXPECT_EQ(j["xs"].at(2).as_string(), "three");
  EXPECT_TRUE(j["xs"].at(3).is_null());
}

TEST(Json, MissingLookupsChainToNull) {
  const Json j = Json::parse(R"({"a":{"b":1}})").value();
  EXPECT_TRUE(j["nope"].is_null());
  EXPECT_TRUE(j["nope"]["deeper"].is_null());
  EXPECT_EQ(j["nope"]["deeper"].as_int(), 0);
  EXPECT_FALSE(j.has("nope"));
  EXPECT_TRUE(j.has("a"));
  EXPECT_TRUE(j["a"].at(5).is_null());
}

TEST(Json, EmptyContainers) {
  EXPECT_EQ(Json::parse("[]").value().size(), 0u);
  EXPECT_EQ(Json::parse("{}").value().size(), 0u);
  EXPECT_EQ(Json::parse("[ ]").value().size(), 0u);
  EXPECT_EQ(Json::parse("{ }").value().size(), 0u);
}

TEST(Json, WhitespaceTolerated) {
  const auto r = Json::parse("  { \"a\" : [ 1 , 2 ] }\n");
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r.value()["a"].size(), 2u);
}

TEST(Json, RejectsMalformedInput) {
  EXPECT_FALSE(Json::parse("").ok());
  EXPECT_FALSE(Json::parse("{").ok());
  EXPECT_FALSE(Json::parse("[1,]").ok());
  EXPECT_FALSE(Json::parse("{\"a\":}").ok());
  EXPECT_FALSE(Json::parse("{\"a\" 1}").ok());
  EXPECT_FALSE(Json::parse("\"unterminated").ok());
  EXPECT_FALSE(Json::parse("tru").ok());
  EXPECT_FALSE(Json::parse("1 2").ok());
  EXPECT_FALSE(Json::parse("{'a':1}").ok());
  EXPECT_FALSE(Json::parse("1.2.3").ok());
}

TEST(Json, ErrorsCarryOffset) {
  const auto r = Json::parse("[1, oops]");
  ASSERT_FALSE(r.ok());
  EXPECT_NE(r.error().message.find("offset"), std::string::npos);
}

TEST(Json, NestingDepthIsBounded) {
  const auto nested = [](std::size_t depth, char open, char close) {
    return std::string(depth, open) + std::string(depth, close);
  };
  // At the bound: parses, for arrays and objects alike.
  EXPECT_TRUE(Json::parse(nested(Json::kMaxDepth, '[', ']')).ok());
  std::string objects;
  for (std::size_t i = 0; i < Json::kMaxDepth; ++i) objects += "{\"k\":";
  EXPECT_TRUE(Json::parse(objects + "1" + std::string(Json::kMaxDepth, '}')).ok());
  // One past the bound: an error naming the cause, not a deeper descent.
  const auto r = Json::parse(nested(Json::kMaxDepth + 1, '[', ']'));
  ASSERT_FALSE(r.ok());
  EXPECT_NE(r.error().message.find("nesting too deep"), std::string::npos);
  // Hostile input far past the bound fails fast instead of overflowing
  // the stack.
  EXPECT_FALSE(Json::parse(std::string(1 << 20, '[')).ok());
}

TEST(Json, CopiesShareStorageCheaply) {
  const Json a = Json::parse(R"({"k":[1,2,3]})").value();
  const Json b = a;  // shallow copy
  EXPECT_EQ(b["k"].size(), 3u);
  EXPECT_EQ(&a["k"].as_array(), &b["k"].as_array());
}

}  // namespace
}  // namespace mntp::core
