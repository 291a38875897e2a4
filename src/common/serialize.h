#ifndef NETMAX_COMMON_SERIALIZE_H_
#define NETMAX_COMMON_SERIALIZE_H_

// Bit-exact little-endian binary serialization for checkpoints
// (core/checkpoint.h). Doubles travel as their IEEE-754 bit patterns, so a
// serialize/restore round trip reproduces every value exactly — the property
// the checkpoint/restore bit-identity contract rests on. The write side
// cannot fail; the read side returns Status/StatusOr on truncated or
// malformed input (checkpoints come from disk and must not abort the
// process). StateIo (below) runs one field list in either direction, so a
// checkpointed type states its layout once.

#include <bit>
#include <concepts>
#include <cstdint>
#include <span>
#include <string>
#include <string_view>
#include <type_traits>
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

class StateIo;

// A type that lists its own checkpoint fields.
template <typename T>
concept HasTransferState = requires(T& value, StateIo& io) {
  { value.TransferState(io) } -> std::same_as<Status>;
};

// The text a fingerprint mismatch shows for a value (StateIo::Same).
std::string FieldText(double value);
std::string FieldText(int64_t value);
std::string FieldText(uint64_t value);
std::string FieldText(int value);
std::string FieldText(bool value);
std::string FieldText(const std::string& value);
template <typename E>
  requires std::is_enum_v<E>
std::string FieldText(E value) {
  return FieldText(static_cast<int64_t>(value));
}
template <typename T>
std::string FieldText(const std::vector<T>& values) {
  std::string text = "[";
  for (size_t i = 0; i < values.size(); ++i) {
    if (i > 0) text += ", ";
    text += FieldText(values[i]);
  }
  return text + "]";
}

// Runs one field list in either direction: over a Serializer it writes each
// field, over a Deserializer it reads each back in place, in the same order
// and encoding. A checkpointed type therefore states its layout once:
//
//   Status Foo::TransferState(StateIo& io) { return io(count_, weights_); }
//
// Encodings: double, int64_t and uint64_t as 8 bytes; int and enums as an
// I64 (an int is narrowed on read, kOutOfRange if it does not fit); bool as a
// U32; std::string and std::vector<T> behind a u64 length; std::span<double>
// the same way, except that on restore the stored length must equal the span's
// (kOutOfRange otherwise, as Deserializer::ReadDoubleSpan). A type with a
// `Status TransferState(StateIo&)` member transfers through it. Checks that
// only a restore needs sit next to their field, under restoring().
class StateIo {
 public:
  explicit StateIo(Serializer& out) : out_(&out) {}
  explicit StateIo(Deserializer& in) : in_(&in) {}

  bool restoring() const { return in_ != nullptr; }

  // Transfers each field in order; stops at the first error.
  template <typename... Fields>
  Status operator()(Fields&&... fields) {
    Status status;
    (void)((status = Transfer(fields)).ok() && ...);
    return status;
  }

  // A config value the checkpoint must agree with. Save writes it; restore
  // reads it back and fails with kFailedPrecondition, naming `name` and both
  // values, when the two differ.
  template <typename T>
  Status Same(std::string_view name, const T& value) {
    T stored = value;
    NETMAX_RETURN_IF_ERROR(Transfer(stored));
    if (stored == value) return Status::Ok();
    return Mismatch(name, FieldText(stored), FieldText(value));
  }

  // A u64 element count. On restore, kOutOfRange when `count` elements of
  // at least `min_bytes` each would run past the bytes left, so a corrupted
  // count cannot allocate ahead of the bytes that back it.
  Status Count(uint64_t& count, uint64_t min_bytes);

 private:
  Status Transfer(double& value);
  Status Transfer(int64_t& value);
  Status Transfer(uint64_t& value);
  Status Transfer(int& value);
  Status Transfer(bool& value);
  Status Transfer(std::string& value);
  Status Transfer(std::span<double> values);
  template <typename E>
    requires std::is_enum_v<E>
  Status Transfer(E& value) {
    auto raw = static_cast<int64_t>(value);
    NETMAX_RETURN_IF_ERROR(Transfer(raw));
    value = static_cast<E>(raw);
    return Status::Ok();
  }
  // Every element type in use takes at least 8 bytes on the wire.
  template <typename T>
  Status Transfer(std::vector<T>& values) {
    uint64_t size = values.size();
    NETMAX_RETURN_IF_ERROR(Count(size, 8));
    if (restoring()) values.resize(size);
    for (T& value : values) NETMAX_RETURN_IF_ERROR(Transfer(value));
    return Status::Ok();
  }
  template <HasTransferState T>
  Status Transfer(T& value) {
    return value.TransferState(*this);
  }
  static Status Mismatch(std::string_view name, const std::string& stored,
                         const std::string& value);

  Serializer* out_ = nullptr;
  Deserializer* in_ = nullptr;
};

}  // namespace netmax

#endif  // NETMAX_COMMON_SERIALIZE_H_
