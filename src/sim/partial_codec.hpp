// PartialCodec — the serialization seam of the shard-partial workflow
// (DESIGN.md §9).
//
// Everything the sharded figures persist — the PartialEnvelope, the
// ScalarBanks, all three experiment payloads (defection / reward /
// strategic) and the bench-level shard documents that wrap them — is
// built on the deterministic util::json value tree (insertion-ordered
// members, %.17g doubles). A PartialCodec turns one such document into
// bytes and back:
//
//   BinaryCodec  the one encoding the shard workflow writes: a framed
//                columnar encoding (util/framed_io), magic "RSBP" +
//                version, a "columns" section holding every all-finite
//                numeric array as a raw f64 column, and a "tree" section
//                with the tagged structure referencing the columns by
//                index. Every section is checksummed, so a corrupted
//                file is refused instead of read as other numbers.
//   JsonCodec    doc.dump() + "\n", the text form earlier builds wrote.
//                Still read, so their files load; written only by tests
//                and the benchmark, which times both codecs.
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

class PartialCodec {
 public:
  virtual ~PartialCodec() = default;

  /// Serializes one shard-partial document.
  virtual std::string encode(const util::json::Value& doc) const = 0;

  /// Inverts encode. `origin` names the byte source (a file path) in
  /// every error. Throws util::framed::Error (binary) or
  /// std::invalid_argument (JSON) on malformed input.
  virtual util::json::Value decode(std::string_view bytes,
                                   std::string_view origin) const = 0;
};

/// The process-wide codec instances (stateless).
const PartialCodec& partial_codec(PartialFormat format);

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
