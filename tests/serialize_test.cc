// common/serialize.h: the wire format under every checkpoint. Round trips
// must be bit-exact (doubles travel as IEEE-754 bit patterns) and every read
// must fail with kOutOfRange instead of walking off a truncated buffer.

#include "common/serialize.h"

#include <bit>
#include <cstdint>
#include <limits>
#include <span>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/status.h"

namespace netmax {
namespace {

TEST(SerializeTest, PrimitivesRoundTrip) {
  Serializer out;
  out.WriteU32(0xDEADBEEFu);
  out.WriteU64(0x0123456789ABCDEFull);
  out.WriteI64(-42);
  out.WriteInt(-7);
  out.WriteBool(true);
  out.WriteBool(false);
  out.WriteDouble(3.141592653589793);
  out.WriteString("hello checkpoint");
  out.WriteString("");

  Deserializer in(out.bytes());
  EXPECT_EQ(in.ReadU32().value(), 0xDEADBEEFu);
  EXPECT_EQ(in.ReadU64().value(), 0x0123456789ABCDEFull);
  EXPECT_EQ(in.ReadI64().value(), -42);
  EXPECT_EQ(in.ReadInt().value(), -7);
  EXPECT_EQ(in.ReadBool().value(), true);
  EXPECT_EQ(in.ReadBool().value(), false);
  EXPECT_EQ(in.ReadDouble().value(), 3.141592653589793);
  EXPECT_EQ(in.ReadString().value(), "hello checkpoint");
  EXPECT_EQ(in.ReadString().value(), "");
  EXPECT_TRUE(in.AtEnd());
  EXPECT_EQ(in.remaining(), 0u);
}

TEST(SerializeTest, DoublesAreBitExact) {
  // The values a tolerance-based format would mangle: signed zero, denormals,
  // infinities, NaN, and a value with a full mantissa.
  const double values[] = {
      0.0,
      -0.0,
      std::numeric_limits<double>::denorm_min(),
      -std::numeric_limits<double>::denorm_min(),
      std::numeric_limits<double>::min(),
      std::numeric_limits<double>::max(),
      std::numeric_limits<double>::infinity(),
      -std::numeric_limits<double>::infinity(),
      std::numeric_limits<double>::quiet_NaN(),
      0.1 + 0.2,  // the canonical not-quite-0.3
  };
  Serializer out;
  for (const double v : values) out.WriteDouble(v);
  Deserializer in(out.bytes());
  for (const double v : values) {
    const StatusOr<double> read = in.ReadDouble();
    ASSERT_TRUE(read.ok());
    // Compare bit patterns: NaN != NaN and 0.0 == -0.0 under operator==.
    EXPECT_EQ(std::bit_cast<uint64_t>(read.value()),
              std::bit_cast<uint64_t>(v));
  }
  EXPECT_TRUE(in.AtEnd());
}

TEST(SerializeTest, VectorsRoundTrip) {
  Serializer out;
  out.WriteDoubleVec(std::vector<double>{1.5, -2.5, 0.0});
  out.WriteIntVec(std::vector<int>{3, -1, 4, 1, 5});
  out.WriteDoubleVec(std::vector<double>{});

  Deserializer in(out.bytes());
  std::vector<double> doubles;
  NETMAX_EXPECT_OK(in.ReadDoubleVec(&doubles));
  EXPECT_EQ(doubles, (std::vector<double>{1.5, -2.5, 0.0}));
  std::vector<int> ints;
  NETMAX_EXPECT_OK(in.ReadIntVec(&ints));
  EXPECT_EQ(ints, (std::vector<int>{3, -1, 4, 1, 5}));
  std::vector<double> empty{99.0};  // ReadDoubleVec replaces the contents
  NETMAX_EXPECT_OK(in.ReadDoubleVec(&empty));
  EXPECT_TRUE(empty.empty());
  EXPECT_TRUE(in.AtEnd());
}

TEST(SerializeTest, ReadDoubleSpanRequiresExactShape) {
  Serializer out;
  out.WriteDoubleVec(std::vector<double>{1.0, 2.0, 3.0});

  std::vector<double> exact(3, 0.0);
  Deserializer ok_in(out.bytes());
  NETMAX_EXPECT_OK(ok_in.ReadDoubleSpan(exact));
  EXPECT_EQ(exact, (std::vector<double>{1.0, 2.0, 3.0}));

  std::vector<double> wrong(4, 0.0);
  Deserializer bad_in(out.bytes());
  EXPECT_EQ(bad_in.ReadDoubleSpan(wrong).code(), StatusCode::kOutOfRange);
}

TEST(SerializeTest, TruncationIsOutOfRangeNotUb) {
  Serializer out;
  out.WriteU64(7);
  out.WriteString("truncate me");
  const std::vector<uint8_t>& bytes = out.bytes();
  // Every proper prefix must fail cleanly on some read.
  for (size_t cut = 0; cut < bytes.size(); ++cut) {
    Deserializer in(std::span<const uint8_t>(bytes.data(), cut));
    const StatusOr<uint64_t> first = in.ReadU64();
    if (!first.ok()) {
      EXPECT_EQ(first.status().code(), StatusCode::kOutOfRange);
      continue;
    }
    EXPECT_EQ(first.value(), 7u);
    const StatusOr<std::string> second = in.ReadString();
    ASSERT_FALSE(second.ok()) << "cut=" << cut;
    EXPECT_EQ(second.status().code(), StatusCode::kOutOfRange);
  }
}

TEST(SerializeTest, ReadIntRejectsValuesThatDoNotFit) {
  Serializer out;
  out.WriteI64(static_cast<int64_t>(std::numeric_limits<int>::max()) + 1);
  out.WriteI64(static_cast<int64_t>(std::numeric_limits<int>::min()) - 1);
  Deserializer in(out.bytes());
  EXPECT_EQ(in.ReadInt().status().code(), StatusCode::kOutOfRange);
  EXPECT_EQ(in.ReadInt().status().code(), StatusCode::kOutOfRange);
}

}  // namespace
}  // namespace netmax
