#include "sim/partial_codec.hpp"

#include <cmath>
#include <stdexcept>
#include <vector>

#include "util/framed_io.hpp"
#include "util/require.hpp"

namespace roleshare::sim {

namespace {

using util::json::Value;
namespace framed = util::framed;

constexpr std::uint32_t kBinaryMagic = framed::magic4('R', 'S', 'B', 'P');
constexpr std::uint16_t kBinaryVersion = 1;

// Structural tags of the "tree" section. A new tag is a format-version
// bump: old readers must reject frames they cannot decode exactly.
enum Tag : std::uint8_t {
  kNull = 0,
  kFalse = 1,
  kTrue = 2,
  kNumber = 3,
  kString = 4,
  kArray = 5,
  kObject = 6,
  kColumnRef = 7,  // u32 index into the "columns" section
};

/// Containers nested deeper than this are refused on decode — the same
/// stack-bounding guard util::json::parse applies to untrusted text.
constexpr std::size_t kMaxDepth = 96;

/// An array encodes as an f64 column iff it is non-empty and every
/// element is a finite number. (Non-finite numbers have no JSON literal
/// and dump as null, so they take the generic path as kNull — exactly
/// the dump()/parse() normalization.)
bool is_columnar(const Value& v) {
  if (!v.is_array() || v.as_array().empty()) return false;
  for (const Value& elem : v.as_array()) {
    if (!elem.is_number() || !std::isfinite(elem.as_number())) return false;
  }
  return true;
}

/// Pass 1 of encode: hoists every columnar array, in DFS order, into
/// `columns`. Pass 2 (encode_tree) re-walks in the same order, so the
/// k-th columnar array it meets references column k.
void collect_columns(const Value& v,
                     std::vector<std::vector<double>>& columns) {
  if (v.is_array()) {
    if (is_columnar(v)) {
      std::vector<double> column;
      column.reserve(v.as_array().size());
      for (const Value& elem : v.as_array())
        column.push_back(elem.as_number());
      columns.push_back(std::move(column));
      return;
    }
    for (const Value& elem : v.as_array()) collect_columns(elem, columns);
  } else if (v.is_object()) {
    for (const auto& [key, elem] : v.as_object())
      collect_columns(elem, columns);
  }
}

void encode_tree(const Value& v, framed::Writer& w,
                 std::size_t& column_cursor) {
  switch (v.kind()) {
    case Value::Kind::Null:
      w.put_u8(kNull);
      return;
    case Value::Kind::Bool:
      w.put_u8(v.as_bool() ? kTrue : kFalse);
      return;
    case Value::Kind::Number:
      // Mirror dump(): non-finite numbers become null on every path.
      if (!std::isfinite(v.as_number())) {
        w.put_u8(kNull);
      } else {
        w.put_u8(kNumber);
        w.put_f64(v.as_number());
      }
      return;
    case Value::Kind::String:
      w.put_u8(kString);
      w.put_string(v.as_string());
      return;
    case Value::Kind::Array: {
      if (is_columnar(v)) {
        w.put_u8(kColumnRef);
        w.put_u32(static_cast<std::uint32_t>(column_cursor++));
        return;
      }
      w.put_u8(kArray);
      w.put_u32(static_cast<std::uint32_t>(v.as_array().size()));
      for (const Value& elem : v.as_array())
        encode_tree(elem, w, column_cursor);
      return;
    }
    case Value::Kind::Object:
      w.put_u8(kObject);
      w.put_u32(static_cast<std::uint32_t>(v.as_object().size()));
      for (const auto& [key, elem] : v.as_object()) {
        w.put_string(key);
        encode_tree(elem, w, column_cursor);
      }
      return;
  }
  throw std::logic_error("partial_codec: unreachable value kind");
}

Value decode_tree(framed::Reader& r,
                  const std::vector<std::vector<double>>& columns,
                  std::size_t depth) {
  if (depth > kMaxDepth) {
    throw framed::Error(
        "binary partial document nests containers deeper than " +
        std::to_string(kMaxDepth) + " — refusing the frame");
  }
  const std::uint8_t tag = r.get_u8();
  switch (tag) {
    case kNull:
      return Value();
    case kFalse:
      return Value(false);
    case kTrue:
      return Value(true);
    case kNumber:
      return Value(r.get_f64());
    case kString:
      return Value(r.get_string());
    case kArray: {
      const std::uint32_t n = r.get_u32();
      Value out = Value::array();
      for (std::uint32_t i = 0; i < n; ++i)
        out.push_back(decode_tree(r, columns, depth + 1));
      return out;
    }
    case kObject: {
      const std::uint32_t n = r.get_u32();
      Value out = Value::object();
      for (std::uint32_t i = 0; i < n; ++i) {
        std::string key = r.get_string();
        out.set(std::move(key), decode_tree(r, columns, depth + 1));
      }
      return out;
    }
    case kColumnRef: {
      const std::uint32_t index = r.get_u32();
      if (index >= columns.size()) {
        throw framed::Error(
            "binary partial document references column " +
            std::to_string(index) + " but the frame carries only " +
            std::to_string(columns.size()) + " columns");
      }
      Value out = Value::array();
      for (const double x : columns[index]) out.push_back(x);
      return out;
    }
    default:
      throw framed::Error("binary partial document has unknown value tag " +
                          std::to_string(tag) +
                          " — produced by a newer build?");
  }
}

std::string encode_binary(const Value& doc) {
  // Columns go first so the reader resolves references in file order;
  // the second walk assigns indices in the same DFS order the first walk
  // hoisted them.
  std::vector<std::vector<double>> columns;
  collect_columns(doc, columns);

  framed::Writer w(kBinaryMagic, kBinaryVersion);
  w.begin_section("columns");
  w.put_u32(static_cast<std::uint32_t>(columns.size()));
  for (const std::vector<double>& column : columns) w.put_f64_column(column);
  w.end_section();
  w.begin_section("tree");
  std::size_t column_cursor = 0;
  encode_tree(doc, w, column_cursor);
  RS_REQUIRE(column_cursor == columns.size(),
             "partial_codec: column passes disagree — encoder bug");
  w.end_section();
  return w.finish();
}

Value decode_binary(std::string_view bytes, std::string_view origin) {
  framed::Reader r(bytes, kBinaryMagic, kBinaryVersion, std::string(origin));
  r.begin_section("columns");
  const std::uint32_t column_count = r.get_u32();
  std::vector<std::vector<double>> columns;
  columns.reserve(column_count);
  for (std::uint32_t i = 0; i < column_count; ++i)
    columns.push_back(r.get_f64_column());
  r.end_section();
  r.begin_section("tree");
  Value doc = decode_tree(r, columns, 0);
  r.end_section();
  r.finish();
  return doc;
}

Value decode_json(std::string_view bytes, std::string_view origin) {
  try {
    return util::json::parse(bytes);
  } catch (const std::invalid_argument& e) {
    throw std::invalid_argument(std::string(origin) + ": " + e.what());
  }
}

[[noreturn]] void unknown_format(PartialFormat format) {
  throw std::invalid_argument("unknown PartialFormat value " +
                              std::to_string(static_cast<int>(format)));
}

}  // namespace

const char* to_string(PartialFormat format) {
  switch (format) {
    case PartialFormat::Json:
      return "json";
    case PartialFormat::Binary:
      return "bin";
  }
  unknown_format(format);
}

PartialCodec::PartialCodec(PartialFormat format) : format_(format) {
  to_string(format);  // refuses a value outside the enum
}

std::string PartialCodec::encode(const Value& doc) const {
  switch (format_) {
    case PartialFormat::Json:
      return doc.dump() + "\n";
    case PartialFormat::Binary:
      return encode_binary(doc);
  }
  unknown_format(format_);
}

Value PartialCodec::decode(std::string_view bytes,
                           std::string_view origin) const {
  switch (format_) {
    case PartialFormat::Json:
      return decode_json(bytes, origin);
    case PartialFormat::Binary:
      return decode_binary(bytes, origin);
  }
  unknown_format(format_);
}

PartialFormat detect_partial_format(std::string_view bytes,
                                    std::string_view origin) {
  if (framed::starts_with_magic(bytes, kBinaryMagic))
    return PartialFormat::Binary;
  for (const char c : bytes) {
    if (c == ' ' || c == '\t' || c == '\n' || c == '\r') continue;
    if (c == '{' || c == '[') return PartialFormat::Json;
    break;
  }
  throw std::invalid_argument(
      std::string(origin) +
      ": neither a binary partial frame (magic \"RSBP\") nor a JSON "
      "document — unrecognized format");
}

util::json::Value decode_partial_document(std::string_view bytes,
                                          std::string_view origin) {
  return PartialCodec(detect_partial_format(bytes, origin))
      .decode(bytes, origin);
}

}  // namespace roleshare::sim
