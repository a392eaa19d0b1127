// A minimal JSON writer for the benchmark's raw report: objects, arrays,
// strings and numbers printed with every significant digit.
#ifndef PERFBENCH_JSON_H_
#define PERFBENCH_JSON_H_

#include <cmath>
#include <cstdint>
#include <cstdio>
#include <map>
#include <string>
#include <string_view>
#include <vector>

namespace perfbench {

class JsonWriter {
 public:
  void BeginObject() { Separate(); out_ += '{'; first_ = true; }
  void EndObject() { out_ += '}'; first_ = false; }
  void BeginArray() { Separate(); out_ += '['; first_ = true; }
  void EndArray() { out_ += ']'; first_ = false; }

  void Key(std::string_view key) {
    Separate();
    String(key);
    out_ += ':';
    first_ = true;  // the value follows without a comma
  }

  void Value(double v) {
    Separate();
    if (!std::isfinite(v)) {
      out_ += "null";
      return;
    }
    char buf[32];
    std::snprintf(buf, sizeof(buf), "%.17g", v);
    out_ += buf;
  }
  void Value(std::int64_t v) {
    Separate();
    out_ += std::to_string(v);
  }
  void Value(int v) { Value(static_cast<std::int64_t>(v)); }
  void Value(bool v) {
    Separate();
    out_ += v ? "true" : "false";
  }
  void Value(std::string_view v) {
    Separate();
    String(v);
  }
  void Value(const char* v) { Value(std::string_view(v)); }
  void Value(const std::vector<double>& values) {
    BeginArray();
    for (double v : values) Value(v);
    EndArray();
  }
  void Value(const std::vector<std::string>& values) {
    BeginArray();
    for (const auto& v : values) Value(std::string_view(v));
    EndArray();
  }
  void Value(const std::map<std::string, double>& values) {
    BeginObject();
    for (const auto& [k, v] : values) Field(k, v);
    EndObject();
  }

  template <class T>
  void Field(std::string_view key, const T& value) {
    Key(key);
    Value(value);
  }

  const std::string& str() const { return out_; }

 private:
  void Separate() {
    if (!first_) out_ += ',';
    first_ = false;
  }
  void String(std::string_view s) {
    out_ += '"';
    for (const char c : s) {
      switch (c) {
        case '"': out_ += "\\\""; break;
        case '\\': out_ += "\\\\"; break;
        case '\n': out_ += "\\n"; break;
        case '\t': out_ += "\\t"; break;
        default:
          if (static_cast<unsigned char>(c) < 0x20) {
            char buf[8];
            std::snprintf(buf, sizeof(buf), "\\u%04x", c);
            out_ += buf;
          } else {
            out_ += c;
          }
      }
    }
    out_ += '"';
  }

  std::string out_;
  bool first_ = true;
};

}  // namespace perfbench

#endif  // PERFBENCH_JSON_H_
