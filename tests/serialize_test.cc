// common/serialize.h: the wire format under every checkpoint. Round trips
// must be bit-exact (doubles travel as IEEE-754 bit patterns) and every read
// must fail with kOutOfRange instead of walking off a truncated buffer.
// StateIo runs one field list in both directions over the same encodings.

#include "common/serialize.h"

#include <bit>
#include <cmath>
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

// A checkpointed type with one field of every StateIo encoding, plus a
// nested type that transfers through its own TransferState.
struct Inner {
  int64_t count = 0;
  Status TransferState(StateIo& io) { return io(count); }
};

struct AllFields {
  double rate = 0.0;
  int64_t signed_wide = 0;
  uint64_t unsigned_wide = 0;
  int narrow = 0;
  bool flag = false;
  std::string name;
  std::vector<double> doubles;
  std::vector<int> ints;
  std::vector<double> fixed = std::vector<double>(2, 0.0);
  Inner inner;

  Status TransferState(StateIo& io) {
    return io(rate, signed_wide, unsigned_wide, narrow, flag, name, doubles,
              ints, std::span<double>(fixed), inner);
  }
};

TEST(StateIoTest, OneFieldListSavesAndRestoresTheSerializerBytes) {
  AllFields saved;
  saved.rate = 0.1;
  saved.signed_wide = -5;
  saved.unsigned_wide = 0xFEDCBA9876543210ull;
  saved.narrow = -3;
  saved.flag = true;
  saved.name = "netmax";
  saved.doubles = {1.5, -0.0};
  saved.ints = {4, -2, 7};
  saved.fixed = {8.0, 9.0};
  saved.inner.count = 11;
  Serializer out;
  StateIo save(out);
  NETMAX_EXPECT_OK(save(saved));

  // The same bytes the Serializer writes field by field.
  Serializer expected;
  expected.WriteDouble(0.1);
  expected.WriteI64(-5);
  expected.WriteU64(0xFEDCBA9876543210ull);
  expected.WriteInt(-3);
  expected.WriteBool(true);
  expected.WriteString("netmax");
  expected.WriteDoubleVec(saved.doubles);
  expected.WriteIntVec(saved.ints);
  expected.WriteDoubleVec(saved.fixed);
  expected.WriteI64(11);
  EXPECT_EQ(out.bytes(), expected.bytes());

  AllFields restored;
  restored.doubles = {99.0, 98.0, 97.0};  // replaced, not appended to
  Deserializer in(out.bytes());
  StateIo restore(in);
  EXPECT_TRUE(restore.restoring());
  NETMAX_EXPECT_OK(restore(restored));
  EXPECT_TRUE(in.AtEnd());
  EXPECT_EQ(restored.rate, saved.rate);
  EXPECT_EQ(restored.signed_wide, saved.signed_wide);
  EXPECT_EQ(restored.unsigned_wide, saved.unsigned_wide);
  EXPECT_EQ(restored.narrow, saved.narrow);
  EXPECT_EQ(restored.flag, saved.flag);
  EXPECT_EQ(restored.name, saved.name);
  ASSERT_EQ(restored.doubles.size(), 2u);
  EXPECT_EQ(restored.doubles[0], 1.5);
  EXPECT_TRUE(std::signbit(restored.doubles[1]));
  EXPECT_EQ(restored.ints, saved.ints);
  EXPECT_EQ(restored.fixed, saved.fixed);
  EXPECT_EQ(restored.inner.count, saved.inner.count);
}

TEST(StateIoTest, SameNamesTheFieldAndBothValues) {
  Serializer out;
  StateIo save(out);
  NETMAX_EXPECT_OK(save.Same("learning_rate", 0.1));
  NETMAX_EXPECT_OK(save.Same("hidden_layers", std::vector<int>{32, 16}));

  Deserializer same_in(out.bytes());
  StateIo same(same_in);
  NETMAX_EXPECT_OK(same.Same("learning_rate", 0.1));
  NETMAX_EXPECT_OK(same.Same("hidden_layers", std::vector<int>{32, 16}));

  Deserializer rate_in(out.bytes());
  StateIo rate(rate_in);
  const Status status = rate.Same("learning_rate", 0.2);
  EXPECT_EQ(status.code(), StatusCode::kFailedPrecondition);
  EXPECT_NE(status.message().find("learning_rate = 0.1"), std::string::npos)
      << status;
  EXPECT_NE(status.message().find("0.2"), std::string::npos) << status;

  Deserializer layers_in(out.bytes());
  StateIo layers(layers_in);
  NETMAX_EXPECT_OK(layers.Same("learning_rate", 0.1));
  const Status shape = layers.Same("hidden_layers", std::vector<int>{32});
  EXPECT_EQ(shape.code(), StatusCode::kFailedPrecondition);
  EXPECT_NE(shape.message().find("hidden_layers = [32, 16]"),
            std::string::npos)
      << shape;
}

TEST(StateIoTest, RestoreRejectsAWrongSpanLengthAndAnOverlongCount) {
  Serializer out;
  out.WriteDoubleVec(std::vector<double>{1.0, 2.0, 3.0});

  std::vector<double> wrong(4, 0.0);
  Deserializer span_in(out.bytes());
  StateIo span_io(span_in);
  EXPECT_EQ(span_io(std::span<double>(wrong)).code(), StatusCode::kOutOfRange);

  // A length prefix claiming more elements than the bytes left can hold
  // fails before anything is allocated.
  Serializer overlong;
  overlong.WriteU64(1u << 20);
  overlong.WriteDouble(1.0);
  std::vector<double> values;
  Deserializer count_in(overlong.bytes());
  StateIo count_io(count_in);
  EXPECT_EQ(count_io(values).code(), StatusCode::kOutOfRange);
  EXPECT_TRUE(values.empty());
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
