// Minimal streaming JSON writer shared by the trace exporter and the benches.
//
// The benches used to hand-roll fprintf JSON with per-site float formats (%.0f here,
// %.4f there), which made outputs inconsistent and easy to get syntactically wrong.
// JsonWriter centralises escaping, comma placement, and number formatting: doubles are
// emitted via std::to_chars shortest round-trip form, so the value parsed back is
// bit-identical to the one written, and non-finite doubles become null (JSON has no
// NaN/Inf). Structure errors (value without a key inside an object, unbalanced
// End*) are CHECK failures — emitting malformed JSON is a bug, not a runtime condition.

#pragma once

#include <charconv>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <ostream>
#include <string>
#include <string_view>
#include <vector>

#include "src/common/check.h"

namespace chronotier {

class JsonWriter {
 public:
  explicit JsonWriter(std::ostream& out) : out_(out) {}
  ~JsonWriter() { CHECK(stack_.empty()) << "JsonWriter destroyed with open containers"; }

  JsonWriter(const JsonWriter&) = delete;
  JsonWriter& operator=(const JsonWriter&) = delete;

  void BeginObject() {
    BeforeValue();
    out_ << '{';
    stack_.push_back(Frame{/*is_object=*/true});
  }
  void EndObject() {
    CHECK(!stack_.empty() && stack_.back().is_object) << "EndObject without BeginObject";
    MaybeNewlineIndent(stack_.size() - 1, stack_.back().count > 0);
    out_ << '}';
    stack_.pop_back();
  }
  void BeginArray() {
    BeforeValue();
    out_ << '[';
    stack_.push_back(Frame{/*is_object=*/false});
  }
  void EndArray() {
    CHECK(!stack_.empty() && !stack_.back().is_object) << "EndArray without BeginArray";
    MaybeNewlineIndent(stack_.size() - 1, stack_.back().count > 0);
    out_ << ']';
    stack_.pop_back();
  }

  // Object member key; the next value (or Begin*) attaches to it.
  void Key(std::string_view key) {
    CHECK(!stack_.empty() && stack_.back().is_object) << "Key outside of an object";
    CHECK(!stack_.back().key_pending) << "two keys in a row";
    Separate();
    WriteString(key);
    out_ << (pretty_ ? ": " : ":");
    stack_.back().key_pending = true;
  }

  void Value(std::string_view v) {
    BeforeValue();
    WriteString(v);
  }
  void Value(const char* v) { Value(std::string_view(v)); }
  void Value(const std::string& v) { Value(std::string_view(v)); }
  void Value(bool v) {
    BeforeValue();
    out_ << (v ? "true" : "false");
  }
  void Value(double v) {
    BeforeValue();
    WriteDouble(v);
  }
  void Value(int64_t v) {
    BeforeValue();
    out_ << v;
  }
  void Value(uint64_t v) {
    BeforeValue();
    out_ << v;
  }
  void Value(int v) { Value(static_cast<int64_t>(v)); }
  void Value(unsigned v) { Value(static_cast<uint64_t>(v)); }

  // Key + value in one call: writer.Field("speedup", 1.37).
  template <typename T>
  void Field(std::string_view key, T v) {
    Key(key);
    Value(v);
  }

  // Human-readable output: newlines + two-space indentation. Toggle before writing.
  void set_pretty(bool pretty) { pretty_ = pretty; }

 private:
  struct Frame {
    bool is_object = false;
    bool key_pending = false;
    uint64_t count = 0;
  };

  void Separate() {
    if (stack_.back().count > 0) out_ << ',';
    ++stack_.back().count;
    MaybeNewlineIndent(stack_.size(), /*needed=*/true);
  }

  void MaybeNewlineIndent(size_t depth, bool needed) {
    if (!pretty_ || !needed) return;
    out_ << '\n';
    for (size_t i = 0; i < depth; ++i) out_ << "  ";
  }

  // Accounts for the value we are about to write: top-level values write bare, object
  // members require a pending key, array elements get comma separation.
  void BeforeValue() {
    if (stack_.empty()) return;
    Frame& top = stack_.back();
    if (top.is_object) {
      CHECK(top.key_pending) << "object value without a key";
      top.key_pending = false;
    } else {
      Separate();
    }
  }

  void WriteString(std::string_view s) {
    out_ << '"';
    for (const char c : s) {
      switch (c) {
        case '"': out_ << "\\\""; break;
        case '\\': out_ << "\\\\"; break;
        case '\n': out_ << "\\n"; break;
        case '\r': out_ << "\\r"; break;
        case '\t': out_ << "\\t"; break;
        default:
          if (static_cast<unsigned char>(c) < 0x20) {
            char buf[8];
            std::snprintf(buf, sizeof(buf), "\\u%04x", c);
            out_ << buf;
          } else {
            out_ << c;
          }
      }
    }
    out_ << '"';
  }

  void WriteDouble(double v) {
    if (!std::isfinite(v)) {
      out_ << "null";
      return;
    }
    // Integral doubles print without an exponent or trailing ".0"; everything else uses
    // shortest round-trip form. One format, every call site.
    char buf[32];
    const auto [end, ec] = std::to_chars(buf, buf + sizeof(buf), v);
    CHECK(ec == std::errc()) << "double to_chars failed";
    out_.write(buf, end - buf);
  }

  std::ostream& out_;
  std::vector<Frame> stack_;
  bool pretty_ = false;
};

}  // namespace chronotier
