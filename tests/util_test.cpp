// Unit tests for the util module: units, rng, crc32c, hash64, stats, json,
// toml, table.
#include <gtest/gtest.h>

#include <cstring>
#include <string_view>

#include "util/crc32c.hpp"
#include "util/error.hpp"
#include "util/hash64.hpp"
#include "util/json.hpp"
#include "util/rng.hpp"
#include "util/stats.hpp"
#include "util/table.hpp"
#include "util/toml.hpp"
#include "util/units.hpp"

namespace bitio {
namespace {

// ---------------------------------------------------------------- units ---

TEST(Units, FormatBytesMatchesPaperStyle) {
  EXPECT_EQ(format_bytes(13 * KiB), "13KiB");
  EXPECT_EQ(format_bytes(std::uint64_t(1.9 * double(MiB))), "1.9MiB");
  EXPECT_EQ(format_bytes(326 * MiB), "326MiB");
  EXPECT_EQ(format_bytes(std::uint64_t(1.1 * double(GiB))), "1.1GiB");
  EXPECT_EQ(format_bytes(512), "512B");
}

TEST(Units, ParseSizeAcceptsLfsNotation) {
  EXPECT_EQ(parse_size("16M"), 16 * MiB);
  EXPECT_EQ(parse_size("1MB"), 1 * MiB);
  EXPECT_EQ(parse_size("4MiB"), 4 * MiB);
  EXPECT_EQ(parse_size("2G"), 2 * GiB);
  EXPECT_EQ(parse_size("64K"), 64 * KiB);
  EXPECT_EQ(parse_size("123"), 123u);
  EXPECT_EQ(parse_size("1.5K"), 1536u);
}

TEST(Units, ParseSizeRejectsGarbage) {
  EXPECT_THROW(parse_size(""), FormatError);
  EXPECT_THROW(parse_size("abc"), FormatError);
  EXPECT_THROW(parse_size("12Q"), FormatError);
  EXPECT_THROW(parse_size("12Kx"), FormatError);
  EXPECT_THROW(parse_size("-5M"), FormatError);
}

TEST(Units, FormatGibps) {
  EXPECT_EQ(format_gibps(15.80 * double(GiB)), "15.80 GiB/s");
  EXPECT_EQ(format_gibps(0.41 * double(GiB)), "0.41 GiB/s");
}

// ------------------------------------------------------------------ rng ---

TEST(Rng, DeterministicPerSeed) {
  Rng a(42, 0), b(42, 0), c(42, 1);
  EXPECT_EQ(a(), b());
  EXPECT_EQ(a(), b());
  // Different streams diverge immediately with overwhelming probability.
  Rng a2(42, 0);
  EXPECT_NE(a2(), c());
}

TEST(Rng, UniformInRange) {
  Rng rng(7);
  for (int i = 0; i < 10000; ++i) {
    const double u = rng.uniform();
    EXPECT_GE(u, 0.0);
    EXPECT_LT(u, 1.0);
  }
}

TEST(Rng, BelowIsBounded) {
  Rng rng(11);
  for (int i = 0; i < 10000; ++i) EXPECT_LT(rng.below(17), 17u);
}

TEST(Rng, NormalMoments) {
  Rng rng(3);
  RunningStats stats;
  for (int i = 0; i < 200000; ++i) stats.add(rng.normal());
  EXPECT_NEAR(stats.mean(), 0.0, 0.02);
  EXPECT_NEAR(stats.stddev(), 1.0, 0.02);
}

TEST(Rng, ExponentialMean) {
  Rng rng(5);
  RunningStats stats;
  for (int i = 0; i < 200000; ++i) stats.add(rng.exponential(4.0));
  EXPECT_NEAR(stats.mean(), 0.25, 0.01);
}

// --------------------------------------------------------------- crc32c ---

TEST(Crc32c, MatchesTheCastagnoliCheckValue) {
  const std::string check = "123456789";
  const auto bytes = std::span(
      reinterpret_cast<const std::uint8_t*>(check.data()), check.size());
  EXPECT_EQ(crc32c(bytes), 0xE3069283u);
  EXPECT_EQ(crc32c_table(bytes), 0xE3069283u);
}

TEST(Crc32c, DispatchedKernelMatchesTableOracle) {
  // Every alignment, length class (empty, sub-word, word multiples, ragged
  // tails, either side of the three-stream 3 x 256 B and 3 x 8 KiB blocks,
  // and several long blocks with a ragged tail) and seed, plus chaining:
  // checksumming in two pieces equals one pass.
  std::vector<std::uint8_t> buffer((1u << 20) + 3 + 8);
  Rng rng(0xC5C, 3);
  for (auto& byte : buffer) byte = std::uint8_t(rng());
  for (std::size_t offset = 0; offset < 8; ++offset)
    for (const std::size_t len :
         {0u, 1u, 7u, 8u, 9u, 15u, 16u, 63u, 64u, 65u, 1000u, 4096u, 767u,
          768u, 769u, 24575u, 24576u, 24577u, 25357u, (1u << 20) + 3u})
      for (const std::uint32_t seed : {0u, 0xDEADBEEFu}) {
        const auto data = std::span(buffer).subspan(offset, len);
        ASSERT_EQ(crc32c(data, seed), crc32c_table(data, seed))
            << "offset " << offset << " len " << len << " seed " << seed;
        const std::size_t cut = len / 3;
        EXPECT_EQ(crc32c(data.subspan(cut), crc32c(data.first(cut), seed)),
                  crc32c(data, seed));
      }
}

// --------------------------------------------------------------- hash64 ---

std::span<const std::uint8_t> bytes_of(std::string_view text) {
  return {reinterpret_cast<const std::uint8_t*>(text.data()), text.size()};
}

TEST(Hash64, MatchesXxh64KnownAnswers) {
  // Published XXH64 values at seed 0.
  EXPECT_EQ(util::hash64(bytes_of("")), 0xEF46DB3751D8E999ull);
  EXPECT_EQ(util::hash64(bytes_of("a")), 0xD24EC4F1A98C6E5Bull);
  EXPECT_EQ(util::hash64(bytes_of("abc")), 0x44BC2CF5AD770999ull);
  EXPECT_EQ(util::hash64(bytes_of("Nobody inspects the spammish repetition")),
            0xFBCEA83C8A378BF1ull);
}

TEST(Hash64, DoesNotDependOnAlignment) {
  // Every length through two stripes (each tail shape: 8-, 4- and 1-byte
  // steps) hashes the same at every offset of an 8-byte word.
  std::vector<std::uint8_t> source(64);
  Rng rng(0x4A5, 1);
  for (auto& byte : source) byte = std::uint8_t(rng());
  std::vector<std::uint8_t> shifted(64 + 8);
  for (std::size_t len = 0; len <= 64; ++len) {
    const std::uint64_t aligned =
        util::hash64(std::span<const std::uint8_t>(source).first(len));
    for (std::size_t offset = 0; offset < 8; ++offset) {
      std::memcpy(shifted.data() + offset, source.data(), len);
      const auto view =
          std::span<const std::uint8_t>(shifted).subspan(offset, len);
      EXPECT_EQ(util::hash64(view), aligned)
          << "len " << len << " offset " << offset;
    }
  }
}

TEST(Hash64, TwoSignFlipsChangeTheHash) {
  // Flipping bit 63 (a double's sign) in two different words must change
  // the hash: a shortcut that folds words by xor and multiply would cancel
  // the two flips.  Pairs in one stripe, across stripes and in the tail.
  std::vector<double> words(64 + 3);
  Rng rng(0x5165, 2);
  for (auto& w : words) w = rng.normal();
  const std::uint64_t base = util::hash64_of<double>(words);
  for (const auto& [i, j] : {std::pair{0, 1}, {0, 2}, {1, 3}, {0, 4},
                             {5, 37}, {63, 64}, {64, 66}, {2, 65}}) {
    std::vector<double> flipped = words;
    flipped[std::size_t(i)] = -flipped[std::size_t(i)];
    flipped[std::size_t(j)] = -flipped[std::size_t(j)];
    EXPECT_NE(util::hash64_of<double>(flipped), base)
        << "words " << i << " and " << j;
  }
}

// ---------------------------------------------------------------- stats ---

TEST(Stats, RunningBasics) {
  RunningStats s;
  for (double x : {1.0, 2.0, 3.0, 4.0}) s.add(x);
  EXPECT_EQ(s.count(), 4u);
  EXPECT_DOUBLE_EQ(s.mean(), 2.5);
  EXPECT_DOUBLE_EQ(s.sum(), 10.0);
  EXPECT_DOUBLE_EQ(s.min(), 1.0);
  EXPECT_DOUBLE_EQ(s.max(), 4.0);
  EXPECT_NEAR(s.stddev(), 1.2909944, 1e-6);
}

TEST(Stats, MergeEqualsCombined) {
  RunningStats a, b, all;
  Rng rng(9);
  for (int i = 0; i < 1000; ++i) {
    const double x = rng.normal(5.0, 2.0);
    (i % 2 ? a : b).add(x);
    all.add(x);
  }
  a.merge(b);
  EXPECT_EQ(a.count(), all.count());
  EXPECT_NEAR(a.mean(), all.mean(), 1e-9);
  EXPECT_NEAR(a.variance(), all.variance(), 1e-9);
  EXPECT_DOUBLE_EQ(a.min(), all.min());
  EXPECT_DOUBLE_EQ(a.max(), all.max());
}

TEST(Stats, Percentile) {
  PercentileSampler p;
  for (int i = 1; i <= 100; ++i) p.add(double(i));
  EXPECT_DOUBLE_EQ(p.percentile(0.5), 50.0);
  EXPECT_DOUBLE_EQ(p.percentile(0.99), 99.0);
  EXPECT_DOUBLE_EQ(p.percentile(1.0), 100.0);
  EXPECT_DOUBLE_EQ(p.percentile(0.0), 1.0);
}

TEST(Stats, SizeHistogramBuckets) {
  SizeHistogram h;
  h.add(0);
  h.add(1);
  h.add(2);
  h.add(3);
  h.add(1024);
  EXPECT_EQ(h.bucket(0), 2u);  // 0 and 1
  EXPECT_EQ(h.bucket(1), 2u);  // 2 and 3
  EXPECT_EQ(h.bucket(10), 1u);
  EXPECT_EQ(h.total(), 5u);
}

// ----------------------------------------------------------------- json ---

TEST(Json, RoundTrip) {
  Json doc{JsonObject{}};
  doc["name"] = "profiling";
  doc["rank"] = 3;
  doc["time_us"] = 12.5;
  doc["ok"] = true;
  doc["missing"] = nullptr;
  doc["list"].push_back(1);
  doc["list"].push_back("two");

  const std::string text = doc.dump(2);
  Json back = Json::parse(text);
  EXPECT_EQ(back, doc);
  EXPECT_EQ(back.at("name").as_string(), "profiling");
  EXPECT_EQ(back.at("rank").as_int(), 3);
  EXPECT_TRUE(back.at("ok").as_bool());
  EXPECT_TRUE(back.at("missing").is_null());
  EXPECT_EQ(back.at("list").size(), 2u);
}

TEST(Json, ParsesEscapesAndNested) {
  Json v = Json::parse(R"({"a": "x\n\"y\"", "b": [1, 2, {"c": -3.5e2}]})");
  EXPECT_EQ(v.at("a").as_string(), "x\n\"y\"");
  EXPECT_DOUBLE_EQ(v.at("b").at(2).at("c").as_number(), -350.0);
}

TEST(Json, ParseErrors) {
  EXPECT_THROW(Json::parse("{"), FormatError);
  EXPECT_THROW(Json::parse("[1,]"), FormatError);
  EXPECT_THROW(Json::parse("{\"a\":1} extra"), FormatError);
  EXPECT_THROW(Json::parse("tru"), FormatError);
}

TEST(Json, TypeErrors) {
  Json v = Json::parse("{\"a\": 1}");
  EXPECT_THROW(v.at("a").as_string(), UsageError);
  EXPECT_THROW(v.at("nope"), UsageError);
  EXPECT_EQ(v.get_or("nope", Json(7)).as_int(), 7);
}

// ----------------------------------------------------------------- toml ---

TEST(Toml, ParsesAdios2StyleConfig) {
  const char* text = R"(
# openPMD dynamic configuration, as the paper's BIT1 integration uses.
[adios2.engine]
type = "bp4"
usesteps = true

[adios2.engine.parameters]
NumAggregators = 400
Profile = "On"

[adios2.dataset]
operators = [ { type = "blosc", level = 5 } ]
)";
  Json cfg = parse_toml(text);
  EXPECT_EQ(cfg.at("adios2").at("engine").at("type").as_string(), "bp4");
  EXPECT_TRUE(cfg.at("adios2").at("engine").at("usesteps").as_bool());
  EXPECT_EQ(cfg.at("adios2")
                .at("engine")
                .at("parameters")
                .at("NumAggregators")
                .as_int(),
            400);
  const auto& ops = cfg.at("adios2").at("dataset").at("operators").as_array();
  ASSERT_EQ(ops.size(), 1u);
  EXPECT_EQ(ops[0].at("type").as_string(), "blosc");
}

TEST(Toml, ScalarsAndArrays) {
  Json cfg = parse_toml(
      "a = 1_000\nb = -2.5\nc = 'lit'\nd = [1, 2, 3]\ne = true\n");
  EXPECT_EQ(cfg.at("a").as_int(), 1000);
  EXPECT_DOUBLE_EQ(cfg.at("b").as_number(), -2.5);
  EXPECT_EQ(cfg.at("c").as_string(), "lit");
  EXPECT_EQ(cfg.at("d").size(), 3u);
  EXPECT_TRUE(cfg.at("e").as_bool());
}

TEST(Toml, DottedKeys) {
  Json cfg = parse_toml("x.y.z = 4\nx.w = \"s\"\n");
  EXPECT_EQ(cfg.at("x").at("y").at("z").as_int(), 4);
  EXPECT_EQ(cfg.at("x").at("w").as_string(), "s");
}

TEST(Toml, RejectsDuplicatesAndSyntaxErrors) {
  EXPECT_THROW(parse_toml("a = 1\na = 2\n"), FormatError);
  EXPECT_THROW(parse_toml("[t]\n[t]\n"), FormatError);
  EXPECT_THROW(parse_toml("a 1\n"), FormatError);
  EXPECT_THROW(parse_toml("a = \n"), FormatError);
  EXPECT_THROW(parse_toml("[[arr]]\n"), FormatError);
}

// ---------------------------------------------------------------- table ---

TEST(Table, RendersAligned) {
  TextTable t("Title");
  t.header({"Nodes", "GiB/s"});
  t.row({"1", "0.09"});
  t.row({"200", "15.80"});
  const std::string out = t.render();
  EXPECT_NE(out.find("Title"), std::string::npos);
  EXPECT_NE(out.find("| Nodes | GiB/s |"), std::string::npos);
  EXPECT_NE(out.find("| 200   | 15.80 |"), std::string::npos);
}

TEST(Table, Strfmt) {
  EXPECT_EQ(strfmt("%d-%s-%.2f", 5, "x", 1.5), "5-x-1.50");
}

}  // namespace
}  // namespace bitio
