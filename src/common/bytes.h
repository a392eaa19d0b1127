// The little-endian byte codec shared by the persistent synthesis-cache file
// (engine/cache_store.cc) and the P2RF wire protocol
// (server/wire_protocol.cc): fixed-width integer and double writers, a
// length-prefixed string writer, a bounds-checked sequential Reader, and
// the FNV-1a digest both formats use for corruption detection.
#ifndef P2_COMMON_BYTES_H_
#define P2_COMMON_BYTES_H_

#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>

namespace p2 {

/// FNV-1a 64-bit: tiny, dependency-free, and any single flipped byte
/// changes the digest — corruption *detection*, not security.
std::uint64_t Fnv1a64(std::string_view bytes);

void AppendU8(std::string* out, std::uint8_t v);
void AppendU32(std::string* out, std::uint32_t v);
void AppendU64(std::string* out, std::uint64_t v);
void AppendI32(std::string* out, std::int32_t v);
void AppendI64(std::string* out, std::int64_t v);
void AppendF64(std::string* out, double v);
/// A u32 length followed by the bytes.
void AppendString(std::string* out, std::string_view s);

/// Bounds-checked sequential reader over a payload. Every Read* returns
/// false on exhaustion instead of reading past the end, so a truncated or
/// lying length field can never walk off the buffer.
class Reader {
 public:
  explicit Reader(std::string_view bytes) : bytes_(bytes) {}

  std::size_t remaining() const { return bytes_.size() - pos_; }
  bool AtEnd() const { return pos_ == bytes_.size(); }

  bool ReadU8(std::uint8_t* v);
  bool ReadU32(std::uint32_t* v);
  bool ReadU64(std::uint64_t* v);
  bool ReadI32(std::int32_t* v);
  bool ReadI64(std::int64_t* v);
  bool ReadF64(double* v);
  /// The next `n` bytes, as a view into the payload.
  bool ReadBytes(std::size_t n, std::string_view* v);
  /// A string written by AppendString.
  bool ReadString(std::string* v);

 private:
  std::string_view bytes_;
  std::size_t pos_ = 0;
};

}  // namespace p2

#endif  // P2_COMMON_BYTES_H_
