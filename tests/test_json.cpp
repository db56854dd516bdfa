#include "common/json.hpp"

#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <limits>

#include "common/json_parse.hpp"

namespace mt4g::json {
namespace {

TEST(Json, Scalars) {
  EXPECT_EQ(Value(nullptr).dump(), "null");
  EXPECT_EQ(Value(true).dump(), "true");
  EXPECT_EQ(Value(false).dump(), "false");
  EXPECT_EQ(Value(42).dump(), "42");
  EXPECT_EQ(Value(std::int64_t{-7}).dump(), "-7");
  EXPECT_EQ(Value("hi").dump(), "\"hi\"");
}

TEST(Json, DoublesKeepFloatShape) {
  EXPECT_EQ(Value(1.5).dump(), "1.5");
  EXPECT_EQ(Value(2.0).dump(), "2.0");  // stays recognisably a float
}

TEST(Json, DoublesRoundTripBitExactly) {
  // Each value needs more than 10 significant digits (or a sign bit) to
  // survive a dump/parse cycle — the cycle reports take through cache files,
  // journals and worker pipes.
  const double table[] = {
      0.1 + 0.2,
      4.0 / 7.0,
      1e-300,
      std::numeric_limits<double>::denorm_min(),
      static_cast<double>((std::int64_t{1} << 53) + 1),
      -0.0,
      56.720680170883114,
  };
  for (const double v : table) {
    for (const int indent : {2, -1}) {
      const std::string text = Value(v).dump(indent);
      const ParseResult parsed = parse(text);
      ASSERT_TRUE(parsed.ok()) << text;
      ASSERT_TRUE(parsed.value->is_double()) << text;
      EXPECT_EQ(std::bit_cast<std::uint64_t>(parsed.value->as_double()),
                std::bit_cast<std::uint64_t>(v))
          << "dumped as " << text;
    }
  }
}

TEST(Json, DoublesPrintShortestRoundTripText) {
  EXPECT_EQ(Value(0.1 + 0.2).dump(), "0.30000000000000004");
  EXPECT_EQ(Value(0.1).dump(), "0.1");
  EXPECT_EQ(Value(-0.0).dump(), "-0.0");
  EXPECT_EQ(Value(1e-300).dump(), "1e-300");
  EXPECT_EQ(Value(std::numeric_limits<double>::quiet_NaN()).dump(), "null");
  EXPECT_EQ(Value(std::numeric_limits<double>::infinity()).dump(), "1e999");
  EXPECT_EQ(Value(-std::numeric_limits<double>::infinity()).dump(), "-1e999");
}

TEST(Json, StringEscaping) {
  EXPECT_EQ(escape("a\"b"), "a\\\"b");
  EXPECT_EQ(escape("line\nbreak"), "line\\nbreak");
  EXPECT_EQ(escape("tab\there"), "tab\\there");
  EXPECT_EQ(escape(std::string(1, '\x01')), "\\u0001");
}

TEST(Json, ObjectPreservesInsertionOrder) {
  Object object;
  object.emplace_back("zebra", 1);
  object.emplace_back("alpha", 2);
  const std::string dumped = Value(std::move(object)).dump();
  EXPECT_LT(dumped.find("zebra"), dumped.find("alpha"));
}

TEST(Json, NestedStructure) {
  Object inner;
  inner.emplace_back("x", 1);
  Array arr;
  arr.emplace_back(Value(std::move(inner)));
  arr.emplace_back(2);
  Object root;
  root.emplace_back("items", Value(std::move(arr)));
  const std::string dumped = Value(std::move(root)).dump();
  EXPECT_NE(dumped.find("\"items\": ["), std::string::npos);
  EXPECT_NE(dumped.find("\"x\": 1"), std::string::npos);
}

TEST(Json, FindAndSet) {
  Value v{Object{}};
  v.set("a", 1);
  v.set("b", "two");
  v.set("a", 3);  // overwrite
  ASSERT_NE(v.find("a"), nullptr);
  EXPECT_EQ(v.find("a")->as_int(), 3);
  EXPECT_EQ(v.find("b")->as_string(), "two");
  EXPECT_EQ(v.find("missing"), nullptr);
  EXPECT_EQ(v.as_object().size(), 2u);
}

TEST(Json, EmptyContainers) {
  EXPECT_EQ(Value(Array{}).dump(), "[]");
  EXPECT_EQ(Value(Object{}).dump(), "{}");
}

TEST(Json, AsDoubleCoercesInts) {
  EXPECT_DOUBLE_EQ(Value(5).as_double(), 5.0);
  EXPECT_DOUBLE_EQ(Value(2.5).as_double(), 2.5);
}

}  // namespace
}  // namespace mt4g::json
