#ifndef NETMAX_COMMON_SERIALIZE_H_
#define NETMAX_COMMON_SERIALIZE_H_

// Bit-exact little-endian binary serialization for checkpoints
// (core/checkpoint.h). Doubles travel as their IEEE-754 bit patterns, so a
// serialize/restore round trip reproduces every value exactly — the property
// the checkpoint/restore bit-identity contract rests on. The write side
// cannot fail; the read side returns Status/StatusOr on truncated or
// malformed input (checkpoints come from disk and must not abort the
// process).

#include <bit>
#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "common/status.h"

namespace netmax {

// Appends fixed-width little-endian primitives to a growing byte buffer.
class Serializer {
 public:
  void WriteU32(uint32_t value);
  void WriteU64(uint64_t value);
  void WriteI64(int64_t value) { WriteU64(static_cast<uint64_t>(value)); }
  void WriteInt(int value) { WriteI64(value); }
  void WriteBool(bool value) { WriteU32(value ? 1 : 0); }
  void WriteDouble(double value) { WriteU64(std::bit_cast<uint64_t>(value)); }
  void WriteString(const std::string& value);

  // Length-prefixed vectors.
  void WriteDoubleVec(std::span<const double> values);
  void WriteIntVec(std::span<const int> values);

  const std::vector<uint8_t>& bytes() const { return bytes_; }

 private:
  std::vector<uint8_t> bytes_;
};

// Reads the Serializer wire format back; every read checks bounds and
// returns kOutOfRange on truncation instead of walking off the buffer.
class Deserializer {
 public:
  explicit Deserializer(std::span<const uint8_t> bytes) : bytes_(bytes) {}

  StatusOr<uint32_t> ReadU32();
  StatusOr<uint64_t> ReadU64();
  StatusOr<int64_t> ReadI64();
  // ReadI64 narrowed to int; kOutOfRange if the value does not fit.
  StatusOr<int> ReadInt();
  StatusOr<bool> ReadBool();
  StatusOr<double> ReadDouble();
  StatusOr<std::string> ReadString();

  Status ReadDoubleVec(std::vector<double>* values);
  Status ReadIntVec(std::vector<int>* values);

  // Fills an existing buffer; kOutOfRange if the stored length differs from
  // values.size() (checkpoints never change the shape of what they restore).
  Status ReadDoubleSpan(std::span<double> values);

  size_t remaining() const { return bytes_.size() - cursor_; }
  bool AtEnd() const { return cursor_ == bytes_.size(); }

 private:
  std::span<const uint8_t> bytes_;
  size_t cursor_ = 0;
};

}  // namespace netmax

#endif  // NETMAX_COMMON_SERIALIZE_H_
