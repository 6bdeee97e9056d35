// PartialCodec — the serialization seam of the shard-partial workflow
// (DESIGN.md §9).
//
// Everything the sharded figures persist — the PartialEnvelope, the
// ScalarBanks, all four experiment payloads (defection / reward /
// strategic / longhorizon) and the bench-level shard documents that
// wrap them — is built on the deterministic util::json value tree
// (insertion-ordered members, %.17g doubles). A PartialCodec turns one
// such document into bytes and back in one of two formats
// (PartialFormat):
//
//   Binary  the one encoding the shard workflow writes: a framed
//           columnar encoding (util/framed_io), magic "RSBP" + version,
//           a "columns" section holding every all-finite numeric array
//           as a raw f64 column, and a "tree" section with the tagged
//           structure referencing the columns by index. Every section is
//           checksummed, so a corrupted file is refused instead of read
//           as other numbers.
//   Json    doc.dump() + "\n", the text form earlier builds wrote. Still
//           read, so their files load; written only by tests and the
//           benchmark, which times both formats.
//
// The codec contract, enforced by tests/prop/prop_partial_codec.cpp:
// for every document D, decode(encode(D)) dumps byte-identically to
// parse(D.dump()) — i.e. the binary path is indistinguishable from the
// JSON path to every consumer (finalize, merge, byte-diff CI). Malformed
// binary input — truncation at any byte, trailing bytes, corrupt
// sections, unknown tags, out-of-range column references — throws
// util::framed::Error naming the origin and offset; it never yields a
// wrong document silently.
//
// Format detection (detect_partial_format) is by leading bytes: the
// binary magic wins, otherwise the first non-whitespace byte must open a
// JSON document. Every read (merge_partials, --partial-in, store hits,
// the orchestrator fold) detects, so JSON files from earlier builds
// still load.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>

#include "util/json.hpp"

namespace roleshare::sim {

enum class PartialFormat : std::uint8_t { Json, Binary };

/// "json" / "bin"; fails loudly on a value outside the enum.
const char* to_string(PartialFormat format);

/// The codec of one format: a plain value that switches on it.
class PartialCodec {
 public:
  /// Fails loudly on a value outside the enum.
  explicit PartialCodec(PartialFormat format);

  /// Serializes one shard-partial document.
  std::string encode(const util::json::Value& doc) const;

  /// Inverts encode. `origin` names the byte source (a file path) in
  /// every error. Throws util::framed::Error (binary) or
  /// std::invalid_argument (JSON) on malformed input.
  util::json::Value decode(std::string_view bytes,
                           std::string_view origin) const;

 private:
  PartialFormat format_;
};

/// PartialCodec(format), the spelling every writer uses.
inline PartialCodec partial_codec(PartialFormat format) {
  return PartialCodec(format);
}

/// Sniffs the format from the leading bytes; throws std::invalid_argument
/// naming `origin` when the bytes open neither a binary frame nor a JSON
/// document.
PartialFormat detect_partial_format(std::string_view bytes,
                                    std::string_view origin);

/// detect + decode — the universal read path (--partial-in, the
/// merge_partials shard arguments, result-store payloads).
util::json::Value decode_partial_document(std::string_view bytes,
                                          std::string_view origin);

}  // namespace roleshare::sim
