#include "common/bytes.h"

#include <bit>

namespace p2 {

std::uint64_t Fnv1a64(std::string_view bytes) {
  std::uint64_t h = 14695981039346656037ull;
  for (char c : bytes) {
    h ^= static_cast<unsigned char>(c);
    h *= 1099511628211ull;
  }
  return h;
}

void AppendU8(std::string* out, std::uint8_t v) {
  out->push_back(static_cast<char>(v));
}

void AppendU32(std::string* out, std::uint32_t v) {
  for (int i = 0; i < 4; ++i) {
    out->push_back(static_cast<char>((v >> (8 * i)) & 0xff));
  }
}

void AppendU64(std::string* out, std::uint64_t v) {
  for (int i = 0; i < 8; ++i) {
    out->push_back(static_cast<char>((v >> (8 * i)) & 0xff));
  }
}

void AppendI32(std::string* out, std::int32_t v) {
  AppendU32(out, static_cast<std::uint32_t>(v));
}

void AppendI64(std::string* out, std::int64_t v) {
  AppendU64(out, static_cast<std::uint64_t>(v));
}

void AppendF64(std::string* out, double v) {
  AppendU64(out, std::bit_cast<std::uint64_t>(v));
}

void AppendString(std::string* out, std::string_view s) {
  AppendU32(out, static_cast<std::uint32_t>(s.size()));
  out->append(s);
}

bool Reader::ReadU8(std::uint8_t* v) {
  if (remaining() < 1) return false;
  *v = static_cast<std::uint8_t>(bytes_[pos_++]);
  return true;
}

bool Reader::ReadU32(std::uint32_t* v) {
  if (remaining() < 4) return false;
  *v = 0;
  for (int i = 0; i < 4; ++i) {
    *v |= static_cast<std::uint32_t>(static_cast<unsigned char>(
              bytes_[pos_ + static_cast<std::size_t>(i)]))
          << (8 * i);
  }
  pos_ += 4;
  return true;
}

bool Reader::ReadU64(std::uint64_t* v) {
  if (remaining() < 8) return false;
  *v = 0;
  for (int i = 0; i < 8; ++i) {
    *v |= static_cast<std::uint64_t>(static_cast<unsigned char>(
              bytes_[pos_ + static_cast<std::size_t>(i)]))
          << (8 * i);
  }
  pos_ += 8;
  return true;
}

bool Reader::ReadI32(std::int32_t* v) {
  std::uint32_t u = 0;
  if (!ReadU32(&u)) return false;
  *v = static_cast<std::int32_t>(u);
  return true;
}

bool Reader::ReadI64(std::int64_t* v) {
  std::uint64_t u = 0;
  if (!ReadU64(&u)) return false;
  *v = static_cast<std::int64_t>(u);
  return true;
}

bool Reader::ReadF64(double* v) {
  std::uint64_t u = 0;
  if (!ReadU64(&u)) return false;
  *v = std::bit_cast<double>(u);
  return true;
}

bool Reader::ReadBytes(std::size_t n, std::string_view* v) {
  if (remaining() < n) return false;
  *v = bytes_.substr(pos_, n);
  pos_ += n;
  return true;
}

bool Reader::ReadString(std::string* v) {
  std::uint32_t len = 0;
  std::string_view bytes;
  if (!ReadU32(&len) || !ReadBytes(len, &bytes)) return false;
  v->assign(bytes);
  return true;
}

}  // namespace p2
