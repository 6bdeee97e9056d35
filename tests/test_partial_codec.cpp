// sim::PartialCodec — the serialization seam between the partial layer
// and its bytes on disk. The contract under test: the binary framed
// columnar format and the JSON text format are interchangeable down to
// the dump() byte level (decode(encode(D)).dump() == parse(D.dump())
// .dump() for every document), format detection picks the right codec
// from leading bytes alone, and malformed binary input is rejected with
// errors naming the origin — never decoded into a wrong document.
#include "sim/partial_codec.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <string>

#include "sim/defection_experiment.hpp"
#include "util/framed_io.hpp"
#include "util/json.hpp"

namespace roleshare::sim {
namespace {

using util::json::Value;

/// A document shaped like the real shard partials: header echo fields,
/// nested panels, large all-finite sample arrays (the columnar case),
/// plus the awkward corners — empty arrays, mixed arrays, non-finite
/// numbers, embedded NULs.
Value representative_document() {
  Value doc = Value::object();
  doc.set("kind", "defection");
  doc.set("bench", "fig3_defection");
  doc.set("runs", 50);
  doc.set("agg", "exact");
  doc.set("run_begin", 0);
  doc.set("run_end", 25);
  doc.set("window_end", 50);
  Value panels = Value::array();
  for (int p = 0; p < 3; ++p) {
    Value panel = Value::object();
    panel.set("rate_pct", 20.0 * p);
    Value samples = Value::array();
    for (int i = 0; i < 200; ++i)
      samples.push_back(0.1 * i + 1e-9 * p - 3.5);
    panel.set("samples", std::move(samples));
    Value mixed = Value::array();
    mixed.push_back(1.0);
    mixed.push_back("not a number");
    mixed.push_back(Value());
    mixed.push_back(true);
    panel.set("mixed", std::move(mixed));
    panel.set("empty", Value::array());
    Value non_finite = Value::array();
    non_finite.push_back(std::nan(""));
    non_finite.push_back(std::numeric_limits<double>::infinity());
    non_finite.push_back(2.5);
    panel.set("non_finite", std::move(non_finite));
    panel.set("nul_key", std::string("a\0b", 3));
    panels.push_back(std::move(panel));
  }
  doc.set("panels", std::move(panels));
  return doc;
}

/// The canonical form every consumer sees: what parsing the JSON text
/// yields (non-finite numbers normalized to null, etc.).
std::string canonical_dump(const Value& doc) {
  return util::json::parse(doc.dump()).dump();
}

TEST(PartialCodec, FormatNamesRoundTrip) {
  EXPECT_STREQ(to_string(PartialFormat::Json), "json");
  EXPECT_STREQ(to_string(PartialFormat::Binary), "bin");
  EXPECT_THROW(PartialCodec(static_cast<PartialFormat>(7)),
               std::invalid_argument);
}

TEST(PartialCodec, BothFormatsDecodeToTheCanonicalDocument) {
  const Value doc = representative_document();
  const std::string want = canonical_dump(doc);
  for (const PartialFormat format :
       {PartialFormat::Json, PartialFormat::Binary}) {
    const PartialCodec& codec = partial_codec(format);
    const std::string bytes = codec.encode(doc);
    const Value back = codec.decode(bytes, "round trip");
    EXPECT_EQ(back.dump(), want)
        << "format " << to_string(format)
        << " is distinguishable from the JSON path";
  }
}

TEST(PartialCodec, EncodeIsDeterministic) {
  const Value doc = representative_document();
  for (const PartialFormat format :
       {PartialFormat::Json, PartialFormat::Binary}) {
    const PartialCodec& codec = partial_codec(format);
    EXPECT_EQ(codec.encode(doc), codec.encode(doc));
    // encode ∘ decode is a fixpoint: re-encoding the decoded document
    // reproduces the bytes (the store-hit re-encode determinism).
    const std::string bytes = codec.encode(doc);
    EXPECT_EQ(codec.encode(codec.decode(bytes, "fixpoint")), bytes);
  }
}

TEST(PartialCodec, DetectionPicksTheCodecFromLeadingBytes) {
  const Value doc = representative_document();
  const std::string json =
      partial_codec(PartialFormat::Json).encode(doc);
  const std::string bin =
      partial_codec(PartialFormat::Binary).encode(doc);
  EXPECT_EQ(detect_partial_format(json, "x"), PartialFormat::Json);
  EXPECT_EQ(detect_partial_format(bin, "x"), PartialFormat::Binary);
  EXPECT_EQ(detect_partial_format("  \n\t{\"a\": 1}", "x"),
            PartialFormat::Json);
  // The universal read path hides the format entirely.
  EXPECT_EQ(decode_partial_document(json, "x").dump(),
            decode_partial_document(bin, "x").dump());
}

TEST(PartialCodec, DetectionNamesOriginOnGarbage) {
  for (const std::string garbage :
       {std::string("not a document"), std::string(""),
        std::string("RSRS....")}) {
    try {
      detect_partial_format(garbage, "mystery.file");
      FAIL() << "garbage accepted: " << garbage;
    } catch (const std::invalid_argument& e) {
      EXPECT_NE(std::string(e.what()).find("mystery.file"),
                std::string::npos)
          << e.what();
    }
  }
}

TEST(PartialCodec, JsonDecodeErrorsNameTheOrigin) {
  try {
    partial_codec(PartialFormat::Json).decode("{broken", "bad.json");
    FAIL() << "malformed JSON accepted";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("bad.json"), std::string::npos)
        << e.what();
  }
}

TEST(PartialCodec, BinaryTruncationAndTrailingBytesRejected) {
  const std::string bytes =
      partial_codec(PartialFormat::Binary).encode(representative_document());
  const PartialCodec& codec = partial_codec(PartialFormat::Binary);
  // Exhaustive over the frame scaffolding, sampled over the long payload.
  for (std::size_t len = 0; len < bytes.size();
       len += (len < 64 || len + 64 > bytes.size()) ? 1 : 37) {
    EXPECT_THROW(codec.decode(bytes.substr(0, len), "truncated"),
                 util::framed::Error)
        << "prefix of length " << len << " accepted";
  }
  EXPECT_THROW(codec.decode(bytes + "\n", "trailing"), util::framed::Error);
}

TEST(PartialCodec, RealPartialSurvivesEitherFormat) {
  DefectionExperimentConfig config;
  config.network.node_count = 50;
  config.network.seed = 4242;
  config.network.defection_rate = 0.15;
  config.runs = 4;
  config.rounds = 3;
  config.agg = AggBackend::Exact;
  const DefectionPartial partial = run_defection_partial(config);
  const std::string want = canonical_dump(partial.to_json());
  for (const PartialFormat format :
       {PartialFormat::Json, PartialFormat::Binary}) {
    const std::string bytes = partial_codec(format).encode(partial.to_json());
    const DefectionPartial back = DefectionPartial::from_json(
        decode_partial_document(bytes, "round trip"));
    EXPECT_EQ(canonical_dump(back.to_json()), want)
        << "format " << to_string(format);
  }
}

TEST(PartialCodec, ColumnarEncodingWinsOnSampleHeavyDocuments) {
  // Full-precision doubles print as ~20 text bytes but travel as 8
  // binary ones, so documents dominated by such sample columns shrink.
  // Size is not why RSBP is the written format (its checksums are):
  // short decimals average fewer than 8 text bytes, which makes a fig3
  // shard larger in binary (DESIGN.md §9.2).
  Value doc = Value::object();
  doc.set("kind", "reward");
  Value samples = Value::array();
  for (int i = 0; i < 4096; ++i) samples.push_back(std::sqrt(2.0) * i);
  doc.set("samples", std::move(samples));
  const std::size_t bin =
      partial_codec(PartialFormat::Binary).encode(doc).size();
  const std::size_t json =
      partial_codec(PartialFormat::Json).encode(doc).size();
  EXPECT_LT(bin, json / 2) << "binary " << bin << " vs json " << json;
}

}  // namespace
}  // namespace roleshare::sim
