// Minimal one-line JSON object writer for the binary's result records.
#pragma once

#include <cmath>
#include <cstdint>
#include <cstdio>
#include <string>
#include <string_view>
#include <vector>

namespace perfbench {

class JsonObject {
 public:
  JsonObject& Num(std::string_view key, double value) {
    Key(key);
    out_ += Format(value);
    return *this;
  }
  JsonObject& Int(std::string_view key, std::int64_t value) {
    Key(key);
    out_ += std::to_string(value);
    return *this;
  }
  JsonObject& Bool(std::string_view key, bool value) {
    Key(key);
    out_ += value ? "true" : "false";
    return *this;
  }
  JsonObject& Str(std::string_view key, std::string_view value) {
    Key(key);
    out_ += '"';
    for (const char ch : value) {
      if (ch == '"' || ch == '\\') out_ += '\\';
      if (static_cast<unsigned char>(ch) >= 0x20) out_ += ch;
    }
    out_ += '"';
    return *this;
  }
  JsonObject& Ints(std::string_view key,
                   const std::vector<std::int64_t>& values) {
    Key(key);
    out_ += '[';
    for (std::size_t i = 0; i < values.size(); ++i) {
      if (i > 0) out_ += ',';
      out_ += std::to_string(values[i]);
    }
    out_ += ']';
    return *this;
  }
  JsonObject& Matrix(std::string_view key,
                     const std::vector<std::vector<std::int64_t>>& rows) {
    Key(key);
    out_ += '[';
    for (std::size_t r = 0; r < rows.size(); ++r) {
      if (r > 0) out_ += ',';
      out_ += '[';
      for (std::size_t i = 0; i < rows[r].size(); ++i) {
        if (i > 0) out_ += ',';
        out_ += std::to_string(rows[r][i]);
      }
      out_ += ']';
    }
    out_ += ']';
    return *this;
  }
  JsonObject& Object(std::string_view key, const JsonObject& value) {
    Key(key);
    out_ += value.str();
    return *this;
  }

  [[nodiscard]] std::string str() const { return "{" + out_ + "}"; }

  void Print() const { std::printf("%s\n", str().c_str()); }

 private:
  static std::string Format(double value) {
    if (!std::isfinite(value)) return "null";
    char buf[32];
    std::snprintf(buf, sizeof(buf), "%.17g", value);
    return buf;
  }
  void Key(std::string_view key) {
    if (!out_.empty()) out_ += ',';
    out_ += '"';
    out_ += key;
    out_ += "\":";
  }

  std::string out_;
};

}  // namespace perfbench
