#include "common/serialize.h"

#include <charconv>
#include <limits>

namespace netmax {

void Serializer::WriteU32(uint32_t value) {
  for (int shift = 0; shift < 32; shift += 8) {
    bytes_.push_back(static_cast<uint8_t>(value >> shift));
  }
}

void Serializer::WriteU64(uint64_t value) {
  for (int shift = 0; shift < 64; shift += 8) {
    bytes_.push_back(static_cast<uint8_t>(value >> shift));
  }
}

void Serializer::WriteString(const std::string& value) {
  WriteU64(value.size());
  bytes_.insert(bytes_.end(), value.begin(), value.end());
}

void Serializer::WriteDoubleVec(std::span<const double> values) {
  WriteU64(values.size());
  for (const double v : values) WriteDouble(v);
}

void Serializer::WriteIntVec(std::span<const int> values) {
  WriteU64(values.size());
  for (const int v : values) WriteI64(v);
}

StatusOr<uint32_t> Deserializer::ReadU32() {
  if (remaining() < 4) return OutOfRangeError("truncated input: need 4 bytes");
  uint32_t value = 0;
  for (int shift = 0; shift < 32; shift += 8) {
    value |= static_cast<uint32_t>(bytes_[cursor_++]) << shift;
  }
  return value;
}

StatusOr<uint64_t> Deserializer::ReadU64() {
  if (remaining() < 8) return OutOfRangeError("truncated input: need 8 bytes");
  uint64_t value = 0;
  for (int shift = 0; shift < 64; shift += 8) {
    value |= static_cast<uint64_t>(bytes_[cursor_++]) << shift;
  }
  return value;
}

StatusOr<int64_t> Deserializer::ReadI64() {
  NETMAX_ASSIGN_OR_RETURN(const uint64_t raw, ReadU64());
  return static_cast<int64_t>(raw);
}

StatusOr<int> Deserializer::ReadInt() {
  NETMAX_ASSIGN_OR_RETURN(const int64_t wide, ReadI64());
  if (wide < std::numeric_limits<int>::min() ||
      wide > std::numeric_limits<int>::max()) {
    return OutOfRangeError("stored integer does not fit in int");
  }
  return static_cast<int>(wide);
}

StatusOr<bool> Deserializer::ReadBool() {
  NETMAX_ASSIGN_OR_RETURN(const uint32_t raw, ReadU32());
  if (raw > 1) return OutOfRangeError("malformed bool");
  return raw == 1;
}

StatusOr<double> Deserializer::ReadDouble() {
  NETMAX_ASSIGN_OR_RETURN(const uint64_t raw, ReadU64());
  return std::bit_cast<double>(raw);
}

StatusOr<std::string> Deserializer::ReadString() {
  NETMAX_ASSIGN_OR_RETURN(const uint64_t size, ReadU64());
  if (size > remaining()) return OutOfRangeError("truncated string");
  std::string value(bytes_.begin() + static_cast<ptrdiff_t>(cursor_),
                    bytes_.begin() + static_cast<ptrdiff_t>(cursor_ + size));
  cursor_ += size;
  return value;
}

Status Deserializer::ReadDoubleVec(std::vector<double>* values) {
  NETMAX_ASSIGN_OR_RETURN(const uint64_t size, ReadU64());
  if (size * 8 > remaining()) return OutOfRangeError("truncated double vec");
  values->clear();
  values->reserve(size);
  for (uint64_t i = 0; i < size; ++i) {
    NETMAX_ASSIGN_OR_RETURN(const double v, ReadDouble());
    values->push_back(v);
  }
  return Status::Ok();
}

Status Deserializer::ReadIntVec(std::vector<int>* values) {
  NETMAX_ASSIGN_OR_RETURN(const uint64_t size, ReadU64());
  if (size * 8 > remaining()) return OutOfRangeError("truncated int vec");
  values->clear();
  values->reserve(size);
  for (uint64_t i = 0; i < size; ++i) {
    NETMAX_ASSIGN_OR_RETURN(const int v, ReadInt());
    values->push_back(v);
  }
  return Status::Ok();
}

Status Deserializer::ReadDoubleSpan(std::span<double> values) {
  NETMAX_ASSIGN_OR_RETURN(const uint64_t size, ReadU64());
  if (size != values.size()) {
    return OutOfRangeError("stored vector size does not match destination");
  }
  for (double& v : values) {
    NETMAX_ASSIGN_OR_RETURN(v, ReadDouble());
  }
  return Status::Ok();
}

namespace {

// Stores a successful read in `value`.
template <typename T>
Status Assign(T& value, StatusOr<T> read) {
  if (!read.ok()) return read.status();
  value = std::move(read).value();
  return Status::Ok();
}

}  // namespace

std::string FieldText(double value) {
  // The shortest text that reads back as exactly `value`.
  char buffer[32];
  return std::string(
      buffer, std::to_chars(buffer, buffer + sizeof buffer, value).ptr);
}

std::string FieldText(int64_t value) { return std::to_string(value); }
std::string FieldText(uint64_t value) { return std::to_string(value); }
std::string FieldText(int value) { return std::to_string(value); }
std::string FieldText(bool value) { return value ? "true" : "false"; }
std::string FieldText(const std::string& value) { return '"' + value + '"'; }

Status StateIo::Count(uint64_t& count, uint64_t min_bytes) {
  NETMAX_RETURN_IF_ERROR(Transfer(count));
  if (restoring() && count > in_->remaining() / min_bytes) {
    return OutOfRangeError("checkpointed count " + std::to_string(count) +
                           " runs past the " +
                           std::to_string(in_->remaining()) + " bytes left");
  }
  return Status::Ok();
}

Status StateIo::Transfer(double& value) {
  if (restoring()) return Assign(value, in_->ReadDouble());
  out_->WriteDouble(value);
  return Status::Ok();
}

Status StateIo::Transfer(int64_t& value) {
  if (restoring()) return Assign(value, in_->ReadI64());
  out_->WriteI64(value);
  return Status::Ok();
}

Status StateIo::Transfer(uint64_t& value) {
  if (restoring()) return Assign(value, in_->ReadU64());
  out_->WriteU64(value);
  return Status::Ok();
}

Status StateIo::Transfer(int& value) {
  if (restoring()) return Assign(value, in_->ReadInt());
  out_->WriteInt(value);
  return Status::Ok();
}

Status StateIo::Transfer(bool& value) {
  if (restoring()) return Assign(value, in_->ReadBool());
  out_->WriteBool(value);
  return Status::Ok();
}

Status StateIo::Transfer(std::string& value) {
  if (restoring()) return Assign(value, in_->ReadString());
  out_->WriteString(value);
  return Status::Ok();
}

Status StateIo::Transfer(std::span<double> values) {
  if (restoring()) return in_->ReadDoubleSpan(values);
  out_->WriteDoubleVec(values);
  return Status::Ok();
}

Status StateIo::Mismatch(std::string_view name, const std::string& stored,
                         const std::string& value) {
  return FailedPreconditionError("checkpoint has " + std::string(name) +
                                 " = " + stored + ", this run has " + value);
}

}  // namespace netmax
