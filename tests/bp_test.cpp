// Tests for the miniBP container engine: format round trips, writer/reader
// end-to-end, aggregation mapping, operators, steps, and failure detection.
#include <gtest/gtest.h>

#include <numeric>
#include <type_traits>

#include "bp/engine.hpp"
#include "bp/reader.hpp"
#include "bp/stream.hpp"
#include "bp/writer.hpp"
#include "fsim/storage_model.hpp"
#include "util/binio.hpp"
#include "util/crc32c.hpp"
#include "fsim/system_profiles.hpp"
#include "smpi/comm.hpp"
#include "util/error.hpp"
#include "util/toml.hpp"

namespace bitio::bp {
namespace {

std::vector<float> iota_floats(std::size_t n, float start = 0.f) {
  std::vector<float> v(n);
  std::iota(v.begin(), v.end(), start);
  return v;
}

// ------------------------------------------------------------------ dims ---

TEST(BpDims, HoldsRanksZeroToThreeInline) {
  static_assert(sizeof(Dims) == 32);
  static_assert(std::is_trivially_copyable_v<Dims>);
  const Dims ranks[] = {{}, {7}, {7, 8}, {7, 8, 9}};
  for (std::size_t rank = 0; rank <= kMaxRank; ++rank) {
    const Dims& d = ranks[rank];
    EXPECT_EQ(d.size(), rank);
    EXPECT_EQ(d.empty(), rank == 0);
    for (std::size_t i = 0; i < rank; ++i) EXPECT_EQ(d[i], 7 + i);
    if (rank > 0) {
      EXPECT_EQ(d.back(), 6 + rank);
    }
    EXPECT_EQ(std::size_t(d.end() - d.begin()), rank);
    const std::uint64_t elements[] = {1, 7, 56, 504};
    EXPECT_EQ(element_count(d), elements[rank]);
  }
}

TEST(BpDims, CopiesAndComparesByValue) {
  Dims a{1, 2};
  const Dims b = a;
  EXPECT_EQ(a, b);
  a.push_back(3);
  EXPECT_NE(a, b);
  EXPECT_EQ(b, (Dims{1, 2}));
  // Rank is part of the value: {1, 2} is not {1, 2, 0}.
  EXPECT_NE((Dims{1, 2}), (Dims{1, 2, 0}));
  EXPECT_EQ((Dims{}), Dims());
  Dims grown;
  for (const std::uint64_t extent : {1u, 2u, 3u}) grown.push_back(extent);
  EXPECT_EQ(grown, a);
}

TEST(BpDims, RankAboveThreeIsUsageError) {
  EXPECT_THROW((Dims{1, 2, 3, 4}), UsageError);
  Dims full{1, 2, 3};
  EXPECT_THROW(full.push_back(4), UsageError);
  EXPECT_EQ(full, (Dims{1, 2, 3}));
}

// ---------------------------------------------------------------- format ---

TEST(BpFormat, StepRecordRoundTrip) {
  StepRecord record;
  record.step = 42;
  VarRecord var{"e/position/x", Datatype::float32, {1000}, "blosc", {}};
  var.chunks.push_back({{0}, {600}, 0, 0, 0, 1300, 2400});
  var.chunks.push_back({{600}, {400}, 1, 0, 1300, 900, 1600});
  record.variables.push_back(var);
  record.attributes.emplace_back("unitSI", AttrValue(1.0));
  record.attributes.emplace_back("comment", AttrValue(std::string("hi")));
  record.attributes.emplace_back("count", AttrValue(std::uint64_t(7)));

  const EncodedStep encoded = encode_step(record);
  // The returned CRC covers the whole block, as the index entry records it.
  EXPECT_EQ(encoded.crc, crc32c(encoded.bytes));
  const StepRecord back = decode_step(encoded.bytes);
  EXPECT_EQ(back.step, 42u);
  ASSERT_EQ(back.variables.size(), 1u);
  EXPECT_EQ(back.variables[0].name, "e/position/x");
  EXPECT_EQ(back.variables[0].shape, Dims{1000});
  EXPECT_EQ(back.variables[0].operator_name, "blosc");
  ASSERT_EQ(back.variables[0].chunks.size(), 2u);
  EXPECT_EQ(back.variables[0].chunks[1].stored_bytes, 900u);
  EXPECT_EQ(back.variables[0].chunks[1].raw_bytes, 1600u);
  ASSERT_EQ(back.attributes.size(), 3u);
  EXPECT_DOUBLE_EQ(std::get<double>(back.attributes[0].second), 1.0);
  EXPECT_EQ(std::get<std::string>(back.attributes[1].second), "hi");
  EXPECT_EQ(std::get<std::uint64_t>(back.attributes[2].second), 7u);
}

// ---------------------------------------------------------- golden bytes ---
// One fixed record per miniBP surface, encoded and compared byte for byte.
// A serializer change shows up here as a changed golden, next to the
// surface's version constant, which must change with it.

std::string hex(std::span<const std::uint8_t> bytes) {
  static constexpr char kDigits[] = "0123456789abcdef";
  std::string out;
  for (const std::uint8_t b : bytes) {
    out += kDigits[b >> 4];
    out += kDigits[b & 15];
  }
  return out;
}

StepRecord golden_step() {
  StepRecord record;
  record.step = 7;
  ChunkRecord chunk;
  chunk.offset = {2};
  chunk.count = {3};
  chunk.writer_rank = 1;
  chunk.subfile = 0;
  chunk.file_offset = 64;
  chunk.stored_bytes = 12;
  chunk.raw_bytes = 12;
  chunk.stat_min = -1.0;
  chunk.stat_max = 2.5;
  chunk.crc32c = 0xA1B2C3D4;
  chunk.has_crc = true;
  record.variables.push_back({"E/x", Datatype::float32, {5}, "", {chunk}});
  record.attributes.emplace_back("unitSI", AttrValue(1.0));
  return record;
}

TEST(BpGolden, StepBlockBytes) {
  EXPECT_EQ(kMdMagic, 0x4D443037u);  // "MD07"
  EXPECT_EQ(hex(encode_step(golden_step()).bytes),
            "3730444d07000000000000000100000003000000452f78030100000005000000"
            "0000000000000000010000000100000002000000000000000100000003000000"
            "00000000010000000000000040000000000000000c000000000000000c000000"
            "00000000000000000000f0bf000000000000044001d4c3b2a101000000060000"
            "00756e6974534901000000000000f03f9ca9f285");
}

/// Every field the size pass counts: a 3-D variable, an operator name and
/// one attribute of each kind.
StepRecord golden_3d_step() {
  StepRecord record;
  record.step = 9;
  ChunkRecord chunk;
  chunk.offset = {0, 2, 4};
  chunk.count = {2, 2, 4};
  chunk.writer_rank = 3;
  chunk.subfile = 1;
  chunk.file_offset = 128;
  chunk.stored_bytes = 40;
  chunk.raw_bytes = 64;
  chunk.stat_min = -0.5;
  chunk.stat_max = 4.0;
  chunk.crc32c = 0x01234567;
  chunk.has_crc = true;
  record.variables.push_back(
      {"B/z", Datatype::float32, {2, 4, 8}, "blosc", {chunk}});
  record.attributes.emplace_back("author", AttrValue(std::string("bitio")));
  record.attributes.emplace_back("dt", AttrValue(0.25));
  record.attributes.emplace_back("nranks", AttrValue(std::uint64_t(4)));
  return record;
}

TEST(BpGolden, ThreeDimensionalStepWithEveryAttributeKind) {
  const EncodedStep md = encode_step(golden_3d_step());
  EXPECT_EQ(hex(md.bytes),
            "3730444d09000000000000000100000003000000422f7a030300000002000000"
            "000000000400000000000000080000000000000005000000626c6f7363010000"
            "0003000000000000000000000002000000000000000400000000000000030000"
            "0002000000000000000200000000000000040000000000000003000000010000"
            "00800000000000000028000000000000004000000000000000000000000000e0"
            "bf000000000000104001674523010300000006000000617574686f7200050000"
            "00626974696f02000000647401000000000000d03f060000006e72616e6b7302"
            "04000000000000009951d4a1");
  EXPECT_EQ(encode_step(decode_step(md.bytes)).bytes, md.bytes);
}

TEST(BpGolden, OneDimensionalChunkRecordIs77Bytes) {
  // A 1-D record is its placement (2 x (4 + 8) for offset and count, 4 + 4
  // + 8 for rank, subfile and file offset), its sizes (2 x 8), statistics
  // (2 x 8) and CRC (1 + 4) — the same under every operator, which the
  // variable records once.
  for (const char* op : {"", "blosc"}) {
    StepRecord one = golden_step();
    one.variables[0].operator_name = op;
    StepRecord two = one;
    two.variables[0].chunks.push_back(two.variables[0].chunks[0]);
    EXPECT_EQ(encode_step(two).bytes.size() - encode_step(one).bytes.size(),
              77u)
        << op;
  }
}

TEST(BpGolden, IndexBytes) {
  EXPECT_EQ(kIdxMagic, 0x49445835u);  // "IDX5"
  EXPECT_EQ(hex(encode_index({{7, 0, 113, 0xCAFEF00D}, {8, 113, 90, 0x5}})),
            "3558444902000000070000000000000000000000000000007100000000000000"
            "0df0feca00000000080000000000000071000000000000005a00000000000000"
            "0500000000000000");
}

TEST(BpGolden, FooterBytes) {
  EXPECT_EQ(kFtrMagic, 0x46545237u);  // "FTR7"
  EXPECT_EQ(hex(encode_footer({{7, 0, 113, 0xCAFEF00D}}, 113)),
            "3558444901000000070000000000000000000000000000007100000000000000"
            "0df0feca00000000710000000000000028000000000000005a55b8cf37525446");
}

TEST(BpFormat, DetectsCorruption) {
  StepRecord record;
  record.step = 1;
  auto bytes = encode_step(record).bytes;
  bytes[0] ^= 0xFF;  // magic
  EXPECT_THROW(decode_step(bytes), FormatError);

  auto good = encode_step(record).bytes;
  good.pop_back();
  EXPECT_THROW(decode_step(good), FormatError);
  good = encode_step(record).bytes;
  good.push_back(0);
  EXPECT_THROW(decode_step(good), FormatError);
}

TEST(BpFormat, IndexRoundTripAndSizeCheck) {
  std::vector<IndexEntry> index{{0, 0, 100}, {1, 100, 80}};
  auto bytes = encode_index(index);
  auto back = decode_index(bytes);
  ASSERT_EQ(back.size(), 2u);
  EXPECT_EQ(back[1].md_offset, 100u);
  bytes.pop_back();
  EXPECT_THROW(decode_index(bytes), FormatError);
}

// ---------------------------------------------------------------- config ---

TEST(BpConfig, FromTomlConfig) {
  const Json cfg = parse_toml(R"(
[adios2.engine]
type = "bp4"

[adios2.engine.parameters]
NumAggregators = 400
Profile = "On"

[adios2.dataset]
operators = [ { type = "blosc", typesize = 4 } ]
)");
  const EngineConfig engine = EngineConfig::from_json(cfg.at("adios2"));
  EXPECT_EQ(engine.engine, EngineType::bp4);
  EXPECT_EQ(engine.num_aggregators, 400);
  EXPECT_TRUE(engine.profiling);
  EXPECT_EQ(engine.codec, "blosc");
  EXPECT_EQ(engine.codec_typesize, 4u);
}

TEST(BpConfig, EveryParameterRoundTripsThroughAdios2Toml) {
  // Every kEngineParameters row off its default at once.
  EngineConfig config;
  config.engine = EngineType::bp5;
  config.num_aggregators = 7;
  config.ranks_per_node = 64;
  config.profiling = true;
  config.async_write = true;
  config.buffer_chunk_mb = 4;
  config.io_batch_depth = 32;
  config.coalesce_writes = true;
  config.drain_timeout_ms = 150;
  config.max_drain_retries = 5;
  config.stream_max_steps = 9;
  config.stream_policy = "disconnect";
  config.aggregation = "two_level";
  config.topology = "dardel";
  config.numa_per_node = 4;
  config.nics_per_node = 2;
  config.codec = "bzip2";
  config.codec_typesize = 8;
  config.compress_threads = 4;
  config.compress_block_kb = 256;
  config.validate();

  const EngineConfig defaults;
  for (const EngineParameter& row : kEngineParameters) {
    const bool moved = std::visit(
        [&](auto member) { return config.*member != defaults.*member; },
        row.member);
    EXPECT_TRUE(moved) << "parameter '" << row.name
                       << "' is at its default in the maximal config";
  }
  const std::string toml = config.adios2_toml();
  EXPECT_EQ(EngineConfig::from_json(parse_toml(toml).at("adios2")), config)
      << toml;
}

TEST(BpConfig, AcceptsTheNumAggSpellingAndBooleanSwitches) {
  const Json cfg = parse_toml(R"(
[adios2.engine.parameters]
NumAgg = 3
Profile = true
AsyncWrite = "Off"
)");
  const EngineConfig engine = EngineConfig::from_json(cfg.at("adios2"));
  EXPECT_EQ(engine.num_aggregators, 3);
  EXPECT_TRUE(engine.profiling);
  EXPECT_FALSE(engine.async_write);
}

TEST(BpConfig, RejectsUnknownEngine) {
  Json cfg{JsonObject{}};
  cfg["engine"]["type"] = "hdf5";
  EXPECT_THROW(EngineConfig::from_json(cfg), UsageError);
}

// ---------------------------------------------------------------- writer ---

EngineConfig small_config(int aggregators = 0, const std::string& codec = "none") {
  EngineConfig config;
  config.num_aggregators = aggregators;
  config.ranks_per_node = 4;
  config.codec = codec;
  return config;
}

TEST(BpWriter, WriteReadRoundTrip1D) {
  fsim::SharedFs fs(8);
  {
    Writer writer = Writer::open(fs, "out/series.bp4", small_config(), /*nranks=*/4);
    writer.begin_step(0);
    const Dims shape{40};
    for (int r = 0; r < 4; ++r) {
      auto local = iota_floats(10, float(r) * 10.f);
      writer.put<float>(r, "density", shape, {std::uint64_t(r) * 10}, {10},
                        local);
    }
    writer.add_attribute("unitSI", AttrValue(1.0));
    writer.end_step();
    writer.close();
  }
  Reader reader = Reader::open(fs, 0, "out/series.bp4");
  EXPECT_EQ(reader.steps(), std::vector<std::uint64_t>{0});
  const auto data = reader.read_as<float>(0, "density");
  EXPECT_EQ(data, iota_floats(40));
  ASSERT_TRUE(reader.attribute(0, "unitSI").has_value());
  EXPECT_DOUBLE_EQ(std::get<double>(*reader.attribute(0, "unitSI")), 1.0);
  EXPECT_FALSE(reader.attribute(0, "nope").has_value());
}

TEST(BpWriter, MultiStepAndLatestWinsOnRewrite) {
  fsim::SharedFs fs(4);
  {
    Writer writer = Writer::open(fs, "ck.bp4", small_config(), 2);
    for (std::uint64_t rewrite = 0; rewrite < 3; ++rewrite) {
      writer.begin_step(0);  // checkpoint slot, rewritten
      auto payload = iota_floats(8, float(rewrite) * 100.f);
      writer.put<float>(0, "state", {16}, {0}, {8}, payload);
      writer.put<float>(1, "state", {16}, {8}, {8}, payload);
      writer.end_step();
    }
    writer.begin_step(7);
    auto last = iota_floats(4, 7.f);
    writer.put<float>(0, "other", {4}, {0}, {4}, last);
    writer.end_step();
    writer.close();
  }
  Reader reader = Reader::open(fs, 0, "ck.bp4");
  EXPECT_EQ(reader.steps(), (std::vector<std::uint64_t>{0, 7}));
  // The step-0 record must be the LAST rewrite.
  const auto state = reader.read_as<float>(0, "state");
  EXPECT_FLOAT_EQ(state[0], 200.f);
  EXPECT_FLOAT_EQ(state[8], 200.f);
}

TEST(BpWriter, AggregatorMappingIsContiguousAndBalanced) {
  fsim::SharedFs fs(4);
  Writer writer = Writer::open(fs, "x.bp4", small_config(3), 10);
  EXPECT_EQ(writer.aggregator_count(), 3);
  int previous = 0;
  std::vector<int> counts(3, 0);
  for (int r = 0; r < 10; ++r) {
    const int a = writer.aggregator_of(r);
    EXPECT_GE(a, previous);  // monotone => contiguous blocks
    previous = a;
    ++counts[std::size_t(a)];
  }
  for (int c : counts) EXPECT_NEAR(double(c), 10.0 / 3.0, 1.0);
  writer.begin_step(0);
  writer.end_step();
  writer.close();
}

TEST(BpWriter, SubfileCountMatchesAggregators) {
  // Table II: a BP4 container holds M data files + md.0 + md.idx.
  fsim::SharedFs fs(4);
  {
    Writer writer = Writer::open(fs, "t.bp4", small_config(5), 20);
    writer.begin_step(0);
    for (int r = 0; r < 20; ++r) {
      auto v = iota_floats(4);
      writer.put<float>(r, "v", {80}, {std::uint64_t(r) * 4}, {4}, v);
    }
    writer.end_step();
    writer.close();
  }
  const auto files = fs.store().list_recursive("t.bp4");
  EXPECT_EQ(files.size(), 5u + 2u);
  std::size_t data_files = 0;
  for (const auto* f : files)
    if (f->path.find("/data.") != std::string::npos) ++data_files;
  EXPECT_EQ(data_files, 5u);
}

TEST(BpWriter, DefaultAggregationIsPerNode) {
  fsim::SharedFs fs(4);
  Writer writer = Writer::open(fs, "n.bp4", small_config(0), 12);  // 4 ranks/node => 3 nodes
  EXPECT_EQ(writer.aggregator_count(), 3);
  writer.begin_step(0);
  writer.end_step();
  writer.close();
}

TEST(BpWriter, OperatorCompressesAndRoundTrips) {
  fsim::SharedFs fs(4);
  const std::size_t n = 1 << 16;
  std::vector<float> smooth(n);
  for (std::size_t i = 0; i < n; ++i) smooth[i] = float(i) * 0.001f;
  {
    Writer writer = Writer::open(fs, "c.bp4", small_config(1, "blosc"), 2);
    writer.begin_step(3);
    writer.put<float>(0, "x", {n}, {0}, {n / 2},
                      std::span<const float>(smooth.data(), n / 2));
    writer.put<float>(1, "x", {n}, {n / 2}, {n / 2},
                      std::span<const float>(smooth.data() + n / 2, n / 2));
    writer.end_step();
    writer.close();
  }
  // Stored bytes must be smaller than raw (compressible data).
  EXPECT_LT(fs.store().file("c.bp4/data.0").size, n * sizeof(float));
  Reader reader = Reader::open(fs, 0, "c.bp4");
  const auto var = reader.find_variable(3, "x");
  ASSERT_NE(var, nullptr);
  EXPECT_EQ(var->operator_name, "blosc");
  const auto back = reader.read_as<float>(3, "x");
  EXPECT_EQ(back, smooth);
}

TEST(BpWriter, CompressionChargesCompressNotMemcopy) {
  fsim::SharedFs fs(4);
  {
    Writer writer = Writer::open(fs, "p.bp4", small_config(1, "blosc"), 1);
    writer.begin_step(0);
    auto v = iota_floats(1024);
    writer.put<float>(0, "x", {1024}, {0}, {1024}, v);
    writer.end_step();
    writer.close();
  }
  double compress = 0.0, memcopy = 0.0;
  for (const auto& op : fs.trace()) {
    if (op.kind != fsim::OpKind::cpu) continue;
    if (op.tag == fsim::TraceTag::compress) compress += op.cpu_seconds;
    if (op.tag == fsim::TraceTag::memcopy) memcopy += op.cpu_seconds;
  }
  EXPECT_GT(compress, 0.0);
  EXPECT_DOUBLE_EQ(memcopy, 0.0);  // Fig 8: memcopy eliminated
}

TEST(BpWriter, NoCompressionChargesMemcopy) {
  fsim::SharedFs fs(4);
  {
    Writer writer = Writer::open(fs, "p2.bp4", small_config(1, "none"), 1);
    writer.begin_step(0);
    auto v = iota_floats(1024);
    writer.put<float>(0, "x", {1024}, {0}, {1024}, v);
    writer.end_step();
    writer.close();
  }
  double memcopy = 0.0;
  for (const auto& op : fs.trace())
    if (op.kind == fsim::OpKind::cpu && op.tag == fsim::TraceTag::memcopy)
      memcopy += op.cpu_seconds;
  EXPECT_GT(memcopy, 0.0);
}

TEST(BpWriter, ParallelCompressionRoundTripThroughContainer) {
  // compress_threads > 1 wraps the codec in the block-parallel pipeline, so
  // the container stores CZP1 frames; the reader must decode them.
  fsim::SharedFs fs(8);
  auto config = small_config(1, "blosc");
  config.compress_threads = 4;
  config.compress_block_kb = 16;  // several blocks per 64 KiB chunk
  const std::size_t n = 1 << 14;
  std::vector<float> smooth(n);
  for (std::size_t i = 0; i < n; ++i) smooth[i] = float(i) * 0.001f;
  {
    Writer writer = Writer::open(fs, "par.bp4", config, 2);
    writer.begin_step(0);
    writer.put<float>(0, "x", {2 * n}, {0}, {n}, smooth);
    writer.put<float>(1, "x", {2 * n}, {n}, {n}, smooth);
    writer.end_step();
    writer.close();
  }
  EXPECT_LT(fs.store().file("par.bp4/data.0").size, 2 * n * sizeof(float));
  Reader reader = Reader::open(fs, 0, "par.bp4");
  const auto var = reader.find_variable(0, "x");
  ASSERT_NE(var, nullptr);
  EXPECT_EQ(var->operator_name, "blosc");
  const auto back = reader.read_as<float>(0, "x");
  ASSERT_EQ(back.size(), 2 * n);
  for (std::size_t i = 0; i < n; ++i) {
    ASSERT_EQ(back[i], smooth[i]) << i;
    ASSERT_EQ(back[n + i], smooth[i]) << i;
  }
}

TEST(BpWriter, SteadyStateStepsHitTheBufferPool) {
  // After a warmup step populates the size-class freelists, repeated
  // identical steps must recycle every buffer: put() staging, aggregation
  // targets, and the parallel codec's per-block scratch all come from the
  // pool (hit rate >= 99%, i.e. zero steady-state heap allocation).
  fsim::SharedFs fs(8);
  auto config = small_config(1, "blosc");
  config.compress_threads = 4;
  config.compress_block_kb = 16;
  const std::size_t n = 1 << 14;
  std::vector<float> smooth(n);
  for (std::size_t i = 0; i < n; ++i) smooth[i] = float(i) * 0.001f;
  Writer writer = Writer::open(fs, "pool.bp4", config, 2);
  auto put_step = [&](std::uint64_t step) {
    writer.begin_step(step);
    writer.put<float>(0, "x", {2 * n}, {0}, {n}, smooth);
    writer.put<float>(1, "x", {2 * n}, {n}, {n}, smooth);
    writer.end_step();
  };
  put_step(0);
  put_step(1);  // two warmup steps: freelists reach steady state
  writer.reset_pool_stats();
  for (std::uint64_t step = 2; step < 12; ++step) put_step(step);
  const auto stats = writer.pool_stats();
  EXPECT_GT(stats.hits, 0u);
  EXPECT_GE(stats.hit_rate(), 0.99) << "hits=" << stats.hits
                                    << " misses=" << stats.misses;
  writer.close();
}

TEST(BpWriter, ProfilingJsonEmitted) {
  fsim::SharedFs fs(4);
  auto config = small_config(1, "blosc");
  config.profiling = true;
  {
    Writer writer = Writer::open(fs, "prof.bp4", config, 1);
    writer.begin_step(0);
    auto v = iota_floats(256);
    writer.put<float>(0, "x", {256}, {0}, {256}, v);
    writer.end_step();
    writer.close();
  }
  fsim::FsClient io(fs, 0);
  const auto text = io.read_all("prof.bp4/profiling.json");
  const Json profile = Json::parse(
      std::string(reinterpret_cast<const char*>(text.data()), text.size()));
  EXPECT_EQ(profile.at("engine").as_string(), "bp4");
  EXPECT_GT(profile.at("transport_0").at("compress_us").as_number(), 0.0);
  EXPECT_DOUBLE_EQ(profile.at("transport_0").at("memcopy_us").as_number(),
                   0.0);
}

TEST(BpWriter, Bp5WritesSecondMetadataFile) {
  fsim::SharedFs fs(4);
  auto config = small_config(1);
  config.engine = EngineType::bp5;
  {
    Writer writer = Writer::open(fs, "b5.bp5", config, 1);
    writer.begin_step(0);
    writer.end_step();
    writer.close();
  }
  EXPECT_TRUE(fs.store().file_exists("b5.bp5/mmd.0"));
  EXPECT_FALSE(fs.store().file_exists("b5.bp5/profiling.json"));
}

TEST(BpWriter, TwoDimensionalChunks) {
  fsim::SharedFs fs(4);
  const Dims shape{4, 6};
  {
    Writer writer = Writer::open(fs, "2d.bp4", small_config(1), 2);
    writer.begin_step(0);
    // Rank 0 owns rows 0-1, rank 1 rows 2-3.
    std::vector<float> top(12), bottom(12);
    std::iota(top.begin(), top.end(), 0.f);
    std::iota(bottom.begin(), bottom.end(), 12.f);
    writer.put<float>(0, "grid", shape, {0, 0}, {2, 6}, top);
    writer.put<float>(1, "grid", shape, {2, 0}, {2, 6}, bottom);
    writer.end_step();
    writer.close();
  }
  Reader reader = Reader::open(fs, 0, "2d.bp4");
  EXPECT_EQ(reader.read_as<float>(0, "grid"), iota_floats(24));
}

TEST(BpWriter, ColumnChunks2D) {
  fsim::SharedFs fs(4);
  const Dims shape{3, 4};
  {
    Writer writer = Writer::open(fs, "col.bp4", small_config(1), 2);
    writer.begin_step(0);
    // Rank 0 owns columns 0-1, rank 1 columns 2-3 (non-contiguous rows).
    std::vector<float> left{0, 1, 4, 5, 8, 9};
    std::vector<float> right{2, 3, 6, 7, 10, 11};
    writer.put<float>(0, "g", shape, {0, 0}, {3, 2}, left);
    writer.put<float>(1, "g", shape, {0, 2}, {3, 2}, right);
    writer.end_step();
    writer.close();
  }
  Reader reader = Reader::open(fs, 0, "col.bp4");
  EXPECT_EQ(reader.read_as<float>(0, "g"), iota_floats(12));
}

TEST(BpWriter, UsageErrors) {
  fsim::SharedFs fs(4);
  Writer writer = Writer::open(fs, "e.bp4", small_config(1), 2);
  auto v = iota_floats(4);
  EXPECT_THROW(writer.put<float>(0, "x", {4}, {0}, {4}, v), UsageError);
  writer.begin_step(0);
  EXPECT_THROW(writer.begin_step(1), UsageError);
  EXPECT_THROW(writer.put<float>(5, "x", {4}, {0}, {4}, v), UsageError);
  EXPECT_THROW(writer.put<float>(0, "x", {4}, {2}, {4}, v), UsageError);
  EXPECT_THROW(writer.put<float>(0, "x", {4}, {0}, {3}, v), UsageError);
  writer.put<float>(0, "x", {4}, {0}, {4}, v);
  std::vector<double> d(4, 0.0);
  EXPECT_THROW(writer.put<double>(1, "x", {4}, {0}, {4}, d), UsageError);
  EXPECT_THROW(writer.close(), UsageError);  // step still open
  writer.end_step();
  writer.close();
  EXPECT_THROW(writer.begin_step(2), UsageError);  // closed
}

TEST(BpWriter, RankAboveThreeIsUsageErrorOnEveryEngine) {
  for (const char* engine_name : {"bp4", "stream"}) {
    SCOPED_TRACE(engine_name);
    fsim::SharedFs fs(4);
    auto engine = make_engine(engine_name, fs, std::string("r4.") + engine_name,
                              EngineConfig{}, 1);
    engine->begin_step(0);
    const std::vector<float> one(1, 1.f);
    EXPECT_THROW(engine->put_synthetic(0, "x", Datatype::float32, {1, 1, 1, 1},
                                       {0, 0, 0, 0}, {1, 1, 1, 1}),
                 UsageError);
    EXPECT_THROW(engine->put<float>(0, "x", {1, 1, 1, 1}, {0, 0, 0, 0},
                                    {1, 1, 1, 1}, one),
                 UsageError);
    engine->put<float>(0, "x", {1, 1, 1}, {0, 0, 0}, {1, 1, 1}, one);
    engine->end_step();
    engine->close();
  }
}

TEST(BpReader, DetectsCorruptContainer) {
  fsim::SharedFs fs(4);
  {
    Writer writer = Writer::open(fs, "bad.bp4", small_config(1), 1);
    writer.begin_step(0);
    auto v = iota_floats(16);
    writer.put<float>(0, "x", {16}, {0}, {16}, v);
    writer.end_step();
    writer.close();
  }
  // Corrupt the step block in md.0: the footer only points at it, so the
  // open decodes the corrupt block and must reject the container.
  auto& node = fs.store().file("bad.bp4/md.0");
  node.data[4] ^= 0xFF;
  EXPECT_THROW(Reader::open(fs, 0, "bad.bp4"), FormatError);
}

TEST(BpReader, MissingVariableAndStep) {
  fsim::SharedFs fs(4);
  {
    Writer writer = Writer::open(fs, "m.bp4", small_config(1), 1);
    writer.begin_step(0);
    writer.end_step();
    writer.close();
  }
  Reader reader = Reader::open(fs, 0, "m.bp4");
  EXPECT_THROW(reader.read(0, "ghost"), UsageError);
  EXPECT_THROW((void)reader.step(9), UsageError);
  EXPECT_FALSE(reader.has_step(9));
  EXPECT_EQ(reader.find_variable(0, "ghost"), nullptr);
}

// ----------------------------------------------------------------- footer ---

namespace {

/// Writes a tiny closed two-step container at `path` and returns the
/// expected step-1 payload.
std::vector<float> write_footer_fixture(fsim::SharedFs& fs,
                                        const std::string& path) {
  Writer writer = Writer::open(fs, path, EngineConfig{}, 2);
  for (std::uint64_t step = 0; step < 2; ++step) {
    writer.begin_step(step);
    for (int r = 0; r < 2; ++r) {
      auto local = iota_floats(8, float(step * 100) + float(r) * 8.f);
      writer.put<float>(r, "density", {16}, {std::uint64_t(r) * 8}, {8},
                        local);
    }
    writer.end_step();
  }
  writer.close();
  return iota_floats(16, 100.f);
}

/// The footer trailer's first field: byte offset of the footer in md.0.
std::uint64_t footer_offset_of(const fsim::FileNode& md) {
  BinReader trailer(
      std::span(md.data).subspan(md.data.size() - 24, 8));
  return trailer.u64();
}

}  // namespace

TEST(BpFooter, ClosedContainerOpensThroughTheFooterIndex) {
  fsim::SharedFs fs(4);
  const auto expect = write_footer_fixture(fs, "f.bp4");
  Reader reader = Reader::open(fs, 0, "f.bp4");
  EXPECT_TRUE(reader.used_footer_index());
  EXPECT_EQ(reader.steps(), (std::vector<std::uint64_t>{0, 1}));
  EXPECT_EQ(reader.read_as<float>(1, "density"), expect);
  EXPECT_TRUE(reader.all_ok(reader.verify()));
}

TEST(BpFooter, PreFooterContainerFallsBackToScan) {
  fsim::SharedFs fs(4);
  const auto expect = write_footer_fixture(fs, "nf.bp4");
  // A container whose close() never appended the footer: truncate md.0
  // back to the footer offset and md.idx must serve the open, bit-for-bit.
  auto& md = fs.store().file("nf.bp4/md.0");
  md.data.resize(footer_offset_of(md));
  md.size = md.data.size();
  Reader reader = Reader::open(fs, 0, "nf.bp4");
  EXPECT_FALSE(reader.used_footer_index());
  EXPECT_EQ(reader.read_as<float>(1, "density"), expect);
}

TEST(BpFooter, CorruptFooterBodyFallsBackToScan) {
  fsim::SharedFs fs(4);
  const auto expect = write_footer_fixture(fs, "cf.bp4");
  auto& md = fs.store().file("cf.bp4/md.0");
  // Flip a byte inside the footer body: the trailer CRC no longer matches,
  // so open must reject the footer and use md.idx — never crash, never
  // follow the poisoned entries.
  md.data[footer_offset_of(md) + 6] ^= 0xFF;
  Reader reader = Reader::open(fs, 0, "cf.bp4");
  EXPECT_FALSE(reader.used_footer_index());
  EXPECT_EQ(reader.read_as<float>(1, "density"), expect);
  EXPECT_TRUE(reader.all_ok(reader.verify()));
}

TEST(BpFooter, TruncatedTrailerFallsBackToScan) {
  fsim::SharedFs fs(4);
  const auto expect = write_footer_fixture(fs, "tt.bp4");
  // Tear the tail mid-trailer (a torn final write): the trailer magic is
  // gone, the step records before the footer are intact.
  auto& md = fs.store().file("tt.bp4/md.0");
  md.data.resize(md.data.size() - 5);
  md.size = md.data.size();
  Reader reader = Reader::open(fs, 0, "tt.bp4");
  EXPECT_FALSE(reader.used_footer_index());
  EXPECT_EQ(reader.read_as<float>(1, "density"), expect);
}

TEST(BpFooter, MidRunPublishOpensWithoutFooter) {
  fsim::SharedFs fs(4);
  Writer writer = Writer::open(fs, "mid.bp4", EngineConfig{}, 1);
  writer.begin_step(0);
  auto v = iota_floats(8);
  writer.put<float>(0, "x", {8}, {0}, {8}, v);
  writer.end_step();
  writer.publish_index();  // mid-run attach: no footer yet
  Reader reader = Reader::open(fs, 0, "mid.bp4");
  EXPECT_FALSE(reader.used_footer_index());
  EXPECT_EQ(reader.read_as<float>(0, "x"), iota_floats(8));
  writer.close();
  Reader closed = Reader::open(fs, 0, "mid.bp4");
  EXPECT_TRUE(closed.used_footer_index());
}

TEST(BpFooter, FooterIsAPointerTableIntoMd0) {
  // The footer repeats md.idx's entries, not the step records: md.0 is the
  // step blocks md.idx points at, then exactly md.idx's bytes, then the
  // trailer.
  fsim::SharedFs fs(4);
  write_footer_fixture(fs, "pt.bp4");
  fsim::FsClient io(fs, 0);
  const auto md = io.read_all("pt.bp4/md.0");
  const auto idx = io.read_all("pt.bp4/md.idx");
  const auto entries = decode_index(idx);
  ASSERT_EQ(entries.size(), 2u);
  const std::uint64_t blocks_end =
      entries.back().md_offset + entries.back().md_length;
  EXPECT_EQ(footer_offset_of(fs.store().file("pt.bp4/md.0")), blocks_end);
  ASSERT_EQ(md.size(), blocks_end + idx.size() + kFtrTrailerBytes);
  EXPECT_TRUE(std::equal(idx.begin(), idx.end(),
                         md.begin() + std::ptrdiff_t(blocks_end)));
}

TEST(BpFooter, RandomAccessChunkAndSliceReads) {
  fsim::SharedFs fs(4);
  write_footer_fixture(fs, "ra.bp4");
  Reader reader = Reader::open(fs, 0, "ra.bp4");
  // find_chunk addresses one writer rank's block.
  const ChunkRecord* chunk = reader.find_chunk(1, "density", 1);
  ASSERT_NE(chunk, nullptr);
  EXPECT_EQ(chunk->offset, Dims{8});
  EXPECT_EQ(reader.find_chunk(1, "density", 7), nullptr);
  // read_chunk fetches exactly that block, CRC-verified.
  const auto raw = reader.read_chunk(1, "density", 1);
  ASSERT_EQ(raw.size(), 8 * sizeof(float));
  std::vector<float> block(8);
  std::memcpy(block.data(), raw.data(), raw.size());
  EXPECT_EQ(block, iota_floats(8, 108.f));
  // read_slice touches only overlapping chunks and honors bounds.
  const auto slice = reader.read_slice(1, "density", 6, 4);
  std::vector<float> four(4);
  std::memcpy(four.data(), slice.data(), slice.size());
  EXPECT_EQ(four, iota_floats(4, 106.f));
  EXPECT_THROW(reader.read_slice(1, "density", 10, 8), UsageError);
  EXPECT_THROW(reader.read_chunk(1, "ghost", 0), UsageError);
}

// -------------------------------------------------------------- hardening ---

StepRecord sample_record() {
  StepRecord record;
  record.step = 3;
  VarRecord var{"x", Datatype::float32, {8}, "", {}};
  var.chunks.push_back({{0}, {8}, 0, 0, 0, 32, 32});
  record.variables.push_back(var);
  record.attributes.emplace_back("time", AttrValue(1.5));
  return record;
}

TEST(BpHardening, TruncatedStepMetadataAlwaysFormatError) {
  // Every possible truncation of an encoded step record must surface as a
  // typed FormatError — never a crash, hang, or silent partial parse.
  const auto bytes = encode_step(sample_record()).bytes;
  for (std::size_t len = 0; len < bytes.size(); ++len) {
    SCOPED_TRACE("prefix length " + std::to_string(len));
    EXPECT_THROW(
        decode_step(std::span<const std::uint8_t>(bytes.data(), len)),
        FormatError);
  }
}

TEST(BpHardening, TruncatedIndexAlwaysFormatError) {
  const auto bytes =
      encode_index({{0, 0, 100, 0x1234}, {1, 100, 80, 0x5678}});
  for (std::size_t len = 0; len < bytes.size(); ++len) {
    SCOPED_TRACE("prefix length " + std::to_string(len));
    EXPECT_THROW(
        decode_index(std::span<const std::uint8_t>(bytes.data(), len)),
        FormatError);
  }
}

TEST(BpHardening, UnknownFormatVersionIsTypedFormatError) {
  // Any magic but the one live version — a retired one ("MD04"/"MD05"/
  // "MD06") or a future one ("MD08") — is rejected up front, even when the
  // block's own CRC checks out, rather than parsed as whichever version the
  // bytes happen to resemble.
  for (const std::uint32_t magic :
       {0x4D443034u, 0x4D443035u, 0x4D443036u, 0x4D443038u}) {
    auto bytes = encode_step(sample_record()).bytes;
    const std::size_t body = bytes.size() - 4;
    BinWriter head;
    head.u32(magic);
    std::copy(head.buffer().begin(), head.buffer().end(), bytes.begin());
    BinWriter seal;
    seal.u32(crc32c(std::span(bytes).first(body)));
    std::copy(seal.buffer().begin(), seal.buffer().end(),
              bytes.begin() + std::ptrdiff_t(body));
    EXPECT_THROW(decode_step(bytes), FormatError) << std::hex << magic;
  }

  for (const std::uint32_t magic : {0x49445834u, 0x49445836u}) {  // IDX4/6
    BinWriter idx;
    idx.u32(magic);
    idx.u32(0);
    EXPECT_THROW(decode_index(idx.take()), FormatError) << std::hex << magic;
  }
}

TEST(BpHardening, ChunkOutsideItsShapeFailsOpen) {
  // A CRC-valid md.0 whose chunk lies outside its variable (offset + count
  // wraps past UINT64_MAX, or a rank that disagrees with the shape), or
  // whose shape's byte size wraps, must be rejected at open with
  // FormatError: every reader scatters by these fields.
  const auto open_container = [](const StepRecord& record) {
    fsim::SharedFs fs(4);
    fsim::FsClient io(fs, 0);
    const EncodedStep md = encode_step(record);
    io.write_file("c.bp4/md.0", md.bytes);
    io.write_file("c.bp4/md.idx",
                  encode_index({{record.step, 0, md.bytes.size(), md.crc}}));
    io.write_file("c.bp4/data.0", std::vector<std::uint8_t>(32, 0));
    (void)Reader::open(fs, 0, "c.bp4");
  };
  EXPECT_NO_THROW(open_container(sample_record()));

  StepRecord wraps = sample_record();
  wraps.variables[0].chunks[0].offset = {UINT64_MAX};
  wraps.variables[0].chunks[0].count = {2};
  StepRecord wrong_rank = sample_record();
  wrong_rank.variables[0].chunks[0].offset = {0, 0};
  StepRecord huge_shape = sample_record();
  huge_shape.variables[0].shape = {std::uint64_t(1) << 62};
  for (const StepRecord* record : {&wraps, &wrong_rank, &huge_shape})
    EXPECT_THROW(open_container(*record), FormatError);
}

TEST(BpHardening, ShapeNoReaderCanBackIsFormatErrorOnRead) {
  // A CRC-valid block whose rank-1 shape declares 2^62 one-byte elements:
  // the byte size fits uint64, so open accepts the block, but no process
  // can allocate the whole array.  A full read through either engine is a
  // FormatError, never std::bad_alloc.
  StepRecord record;
  record.step = 0;
  VarRecord var{"x", Datatype::uint8, {std::uint64_t(1) << 62}, "", {}};
  var.chunks.push_back({{0}, {32}, 0, 0, 0, 32, 32});
  record.variables.push_back(var);

  fsim::SharedFs fs(4);
  fsim::FsClient io(fs, 0);
  const EncodedStep md = encode_step(record);
  io.write_file("h.bp4/md.0", md.bytes);
  io.write_file("h.bp4/md.idx",
                encode_index({{0, 0, md.bytes.size(), md.crc}}));
  io.write_file("h.bp4/data.0", std::vector<std::uint8_t>(32, 0));
  Reader reader = Reader::open(fs, 0, "h.bp4");
  EXPECT_THROW((void)reader.read(0, "x"), FormatError);

  StreamStep step;
  step.record = record;
  step.payload = {{std::vector<std::uint8_t>(32, 0)}};
  EXPECT_THROW((void)decode_stream_variable(step, "x"), FormatError);
}

TEST(BpHardening, RecordCountsBeyondTheBlockAreFormatError) {
  // A CRC-valid block whose variable or chunk count exceeds what its bytes
  // can hold is rejected before anything is reserved for the records.
  const auto sealed = [](BinWriter writer) {
    writer.u32(crc32c(writer.buffer()));
    return writer.take();
  };
  BinWriter vars;
  vars.u32(kMdMagic);
  vars.u64(0);            // step
  vars.u32(0xFFFFFFFFu);  // nvars
  EXPECT_THROW(decode_step(sealed(std::move(vars))), FormatError);

  BinWriter chunks;
  chunks.u32(kMdMagic);
  chunks.u64(0);  // step
  chunks.u32(1);  // nvars
  chunks.str("x");
  chunks.u8(std::uint8_t(Datatype::float32));
  chunks.dims({4});
  chunks.str("");           // operator
  chunks.u32(0xFFFFFFFFu);  // nchunks
  EXPECT_THROW(decode_step(sealed(std::move(chunks))), FormatError);
}

TEST(BpHardening, RankAboveThreeIsFormatError) {
  // A CRC-valid block whose shape, offset or count declares rank 4.
  const auto block = [](const std::vector<std::uint64_t>& shape,
                        const std::vector<std::uint64_t>& offset) {
    BinWriter writer;
    writer.u32(kMdMagic);
    writer.u64(0);  // step
    writer.u32(1);  // nvars
    writer.str("x");
    writer.u8(std::uint8_t(Datatype::float32));
    writer.dims(shape);
    writer.str("");  // operator
    writer.u32(1);   // nchunks
    writer.dims(offset);
    writer.dims(std::vector<std::uint64_t>(offset.size(), 1));  // count
    writer.u32(0);  // writer rank
    writer.u32(0);  // subfile
    for (int i = 0; i < 5; ++i) writer.u64(0);  // offset, sizes, min, max
    writer.u8(0);   // has_crc
    writer.u32(0);  // crc
    writer.u32(0);  // nattrs
    writer.u32(crc32c(writer.buffer()));
    return writer.take();
  };
  EXPECT_NO_THROW(decode_step(block({2, 2, 2}, {0, 0, 0})));
  EXPECT_THROW(decode_step(block({2, 2, 2, 2}, {0, 0, 0, 0})), FormatError);
  EXPECT_THROW(decode_step(block({2, 2, 2}, {0, 0, 0, 0})), FormatError);
}

TEST(BpHardening, Md06BlockIsRejected) {
  // golden_step() as the previous format wrote it, CRC intact: there is no
  // MD06 decoder.
  const std::string md06 =
      "3630444d07000000000000000100000003000000452f78030100000005000000"
      "0000000001000000010000000200000000000000010000000300000000000000"
      "010000000000000040000000000000000c000000000000000c00000000000000"
      "00000000000000000000f0bf000000000000044001d4c3b2a101efcdab896745"
      "23010100000006000000756e6974534901000000000000f03fbf65d846";
  std::vector<std::uint8_t> bytes;
  for (std::size_t i = 0; i < md06.size(); i += 2)
    bytes.push_back(std::uint8_t(std::stoul(md06.substr(i, 2), nullptr, 16)));
  EXPECT_EQ(crc32c(std::span(bytes).first(bytes.size() - 4)),
            BinReader(std::span(bytes).last(4)).u32());
  EXPECT_THROW(decode_step(bytes), FormatError);
}

/// A closed one-rank bp4 container at `path` holding `n` floats as "x".
void write_floats(fsim::SharedFs& fs, const std::string& path,
                  const EngineConfig& config, std::size_t n) {
  Writer writer = Writer::open(fs, path, config, 1);
  writer.begin_step(0);
  std::vector<float> v(n);
  for (std::size_t i = 0; i < n; ++i) v[i] = float(i % 64) * 0.5f;
  writer.put<float>(0, "x", {n}, {0}, {n}, v);
  writer.end_step();
  writer.close();
}

/// Replace a container's metadata with `record` alone — md.0 holds just its
/// step block, md.idx points at it — through encode_step, so every CRC
/// checks out whatever the record claims.
void rewrite_metadata(fsim::SharedFs& fs, const std::string& path,
                      const StepRecord& record) {
  fsim::FsClient io(fs, 0);
  io.unlink(path + "/md.0");
  io.unlink(path + "/md.idx");
  const EncodedStep md = encode_step(record);
  io.write_file(path + "/md.0", md.bytes);
  io.write_file(path + "/md.idx",
                encode_index({{record.step, 0, md.bytes.size(), md.crc}}));
}

TEST(BpHardening, ChunkExtentPastItsSubfileIsFormatError) {
  // A CRC-valid record can claim any extent.  The reader bounds it by the
  // subfile before allocating: reads raise FormatError and verify()
  // reports a short read, never std::bad_alloc.
  for (const auto& [offset, stored] :
       {std::pair<std::uint64_t, std::uint64_t>{0, std::uint64_t(1) << 50},
        {UINT64_MAX, 64}}) {
    SCOPED_TRACE(std::to_string(offset) + " + " + std::to_string(stored));
    fsim::SharedFs fs(4);
    write_floats(fs, "h.bp4", small_config(1), 16);
    StepRecord record = Reader::open(fs, 0, "h.bp4").step(0);
    record.variables[0].chunks[0].file_offset = offset;
    record.variables[0].chunks[0].stored_bytes = stored;
    rewrite_metadata(fs, "h.bp4", record);

    Reader reader = Reader::open(fs, 0, "h.bp4");
    EXPECT_THROW(reader.read(0, "x"), FormatError);
    EXPECT_THROW(reader.read_chunk(0, "x", 0), FormatError);
    const auto verdicts = reader.verify();
    ASSERT_EQ(verdicts.size(), 1u);
    EXPECT_EQ(verdicts[0].status, Reader::ChunkVerdict::Status::short_read);
  }
}

TEST(BpHardening, FrameDeclaringAnotherSizeIsFormatError) {
  // A stored frame whose header declares a decoded size other than count *
  // dtype, under a record whose CRC matches it, is rejected before the
  // decoder reserves that size — for every frame an operator stores: BLL1
  // (blosc), BZL1 (bzip2) and CZP1 (block-parallel).  `size_at` is where
  // the frame header keeps the size.
  struct Case {
    const char* codec;
    int threads;
    std::size_t size_at;
  };
  for (const Case& c : {Case{"blosc", 1, 5}, Case{"bzip2", 1, 4},
                        Case{"blosc", 2, 5}}) {
    SCOPED_TRACE(std::string(c.codec) + " x" + std::to_string(c.threads));
    fsim::SharedFs fs(4);
    EngineConfig config = small_config(1, c.codec);
    config.compress_threads = c.threads;
    write_floats(fs, "f.bp4", config, 4096);
    StepRecord record = Reader::open(fs, 0, "f.bp4").step(0);
    ChunkRecord& chunk = record.variables[0].chunks[0];
    const std::span<std::uint8_t> frame =
        std::span(fs.store().file("f.bp4/data.0").data)
            .subspan(chunk.file_offset, chunk.stored_bytes);
    BinWriter size;
    size.u64(std::uint64_t(1) << 50);
    std::copy(size.buffer().begin(), size.buffer().end(),
              frame.begin() + std::ptrdiff_t(c.size_at));
    chunk.crc32c = crc32c(frame);
    rewrite_metadata(fs, "f.bp4", record);

    Reader reader = Reader::open(fs, 0, "f.bp4");
    EXPECT_TRUE(Reader::all_ok(reader.verify()));
    EXPECT_THROW(reader.read(0, "x"), FormatError);
  }
}

TEST(BpHardening, UnknownOperatorFailsOpen) {
  // Every read decodes through the variable's operator, so a CRC-valid
  // block naming one no codec answers to is rejected at open with
  // FormatError — not at the first read, after decoding, with the codec
  // registry's UsageError.
  fsim::SharedFs fs(4);
  write_floats(fs, "o.bp4", small_config(1, "blosc"), 64);
  StepRecord record = Reader::open(fs, 0, "o.bp4").step(0);
  ASSERT_EQ(record.variables[0].operator_name, "blosc");
  record.variables[0].operator_name = "zstd";
  rewrite_metadata(fs, "o.bp4", record);
  EXPECT_THROW(Reader::open(fs, 0, "o.bp4"), FormatError);
}

// -------------------------------------------------------------- integrity ---

TEST(BpIntegrity, ChunkCrcCatchesEveryBitFlipInData) {
  fsim::SharedFs fs(4);
  {
    Writer writer = Writer::open(fs, "c.bp4", small_config(1), 1);
    writer.begin_step(0);
    auto v = iota_floats(16);
    writer.put<float>(0, "x", {16}, {0}, {16}, v);
    writer.end_step();
    writer.close();
  }
  Reader reader = Reader::open(fs, 0, "c.bp4");
  EXPECT_TRUE(Reader::all_ok(reader.verify()));

  // Flip every bit of the data subfile in turn: the per-chunk CRC32C must
  // catch each one (100% detection of single-bit silent corruption).
  auto& node = fs.store().file("c.bp4/data.0");
  ASSERT_EQ(node.data.size(), 64u);
  for (std::size_t bit = 0; bit < node.data.size() * 8; ++bit) {
    node.data[bit / 8] ^= std::uint8_t(1u << (bit % 8));
    EXPECT_FALSE(Reader::all_ok(reader.verify()))
        << "bit flip at " << bit << " went undetected";
    EXPECT_THROW(reader.read(0, "x"), FormatError);
    node.data[bit / 8] ^= std::uint8_t(1u << (bit % 8));
  }
  EXPECT_TRUE(Reader::all_ok(reader.verify()));
}

TEST(BpIntegrity, TornDataSubfileReportedAsShortRead) {
  fsim::SharedFs fs(4);
  {
    Writer writer = Writer::open(fs, "t.bp4", small_config(1), 1);
    writer.begin_step(0);
    auto v = iota_floats(16);
    writer.put<float>(0, "x", {16}, {0}, {16}, v);
    writer.end_step();
    writer.close();
  }
  auto& node = fs.store().file("t.bp4/data.0");
  fs.store().truncate(node, node.size - 1);  // the classic lost tail

  Reader reader = Reader::open(fs, 0, "t.bp4");
  const auto verdicts = reader.verify();
  ASSERT_EQ(verdicts.size(), 1u);
  EXPECT_EQ(verdicts[0].status, Reader::ChunkVerdict::Status::short_read);
  EXPECT_FALSE(Reader::all_ok(verdicts));
  EXPECT_THROW(reader.read(0, "x"), FormatError);
}

TEST(BpIntegrity, IndexCrossChecksStepMetadata) {
  fsim::SharedFs fs(4);
  {
    Writer writer = Writer::open(fs, "x.bp4", small_config(1), 1);
    writer.begin_step(0);
    auto v = iota_floats(8);
    writer.put<float>(0, "x", {8}, {0}, {8}, v);
    writer.end_step();
    writer.close();
  }
  // Flip the md_crc field of md.idx's only entry: md.idx and the intact
  // md.0 block no longer agree, and the open must reject the container.
  // The footer trailer is zapped first so the open takes md.idx (an intact
  // footer carries its own CRC-protected copy of the entries).
  auto& md = fs.store().file("x.bp4/md.0");
  md.data[md.data.size() - 1] ^= 0xFF;
  auto& idx = fs.store().file("x.bp4/md.idx");
  idx.data[kIdxHeaderBytes + 24] ^= 0x01;  // md_crc of entry 0
  EXPECT_THROW(Reader::open(fs, 0, "x.bp4"), FormatError);
}

TEST(BpChunkView, ValidatesGeometryAtConstruction) {
  const std::vector<float> data = iota_floats(8);
  const auto bytes = std::span<const std::uint8_t>(
      reinterpret_cast<const std::uint8_t*>(data.data()), data.size() * 4);
  // Offset/count dimensionality must agree.
  EXPECT_THROW(ChunkView(Datatype::float32, bytes, {0, 0}, {8}), UsageError);
  // Byte length must equal element_count(count) * sizeof(dtype).
  EXPECT_THROW(ChunkView(Datatype::float32, bytes, {0}, {7}), UsageError);
  EXPECT_THROW(ChunkView(Datatype::float64, bytes, {0}, {8}), UsageError);
  const ChunkView ok = ChunkView::of<float>(data, {4}, {8});
  EXPECT_EQ(ok.dtype(), Datatype::float32);
  EXPECT_EQ(ok.count(), Dims{8});
  EXPECT_EQ(ok.bytes().size(), 32u);
}

// ------------------------------------------------------------ async drain ---

// One multi-step, multi-aggregator workload, written with or without the
// background drain.  Real payloads so container bytes can be compared.
void write_workload(fsim::SharedFs& fs, const std::string& path,
                    EngineConfig config, int* peak = nullptr) {
  const int ranks = 4;
  Writer writer = Writer::open(fs, path, config, ranks);
  for (std::uint64_t step = 0; step < 6; ++step) {
    writer.begin_step(step);
    for (int r = 0; r < ranks; ++r) {
      auto local = iota_floats(64, float(step * 1000 + std::uint64_t(r)));
      writer.put<float>(r, "density", {256}, {std::uint64_t(r) * 64}, {64},
                        local);
    }
    writer.add_attribute("time", AttrValue(double(step)));
    writer.end_step();
  }
  writer.close();
  if (peak != nullptr) *peak = writer.peak_inflight();
}

TEST(BpAsync, DrainedChunksCarryVerifiableCrcs) {
  // The CRCs are computed inside the drain worker; the async container must
  // come out fully checksummed (and identical to sync, which the test
  // below checks byte-for-byte).
  fsim::SharedFs fs(8);
  auto config = small_config(2);
  config.async_write = true;
  write_workload(fs, "acrc.bp4", config);
  Reader reader = Reader::open(fs, 0, "acrc.bp4");
  const auto verdicts = reader.verify();
  EXPECT_FALSE(verdicts.empty());
  for (const auto& v : verdicts)
    EXPECT_EQ(v.status, Reader::ChunkVerdict::Status::ok)
        << "step " << v.step << " var " << v.var;
}

TEST(BpAsync, ContainerBytesIdenticalToSync) {
  fsim::SharedFs fs(8);
  auto config = small_config(2);
  write_workload(fs, "sync.bp4", config);
  config.async_write = true;
  config.buffer_chunk_mb = 1;
  write_workload(fs, "async.bp4", config);

  const auto sync_files = fs.store().list_recursive("sync.bp4");
  const auto async_files = fs.store().list_recursive("async.bp4");
  ASSERT_EQ(sync_files.size(), async_files.size());
  fsim::FsClient io(fs, 0);
  for (const char* name : {"data.0", "data.1", "md.0", "md.idx"}) {
    const auto a = io.read_all(std::string("sync.bp4/") + name);
    const auto b = io.read_all(std::string("async.bp4/") + name);
    EXPECT_EQ(a, b) << "file " << name << " differs between sync and async";
  }
}

TEST(BpAsync, ReaderSeesEveryStepAfterClose) {
  fsim::SharedFs fs(8);
  auto config = small_config(2);
  config.async_write = true;
  write_workload(fs, "a.bp4", config);
  Reader reader = Reader::open(fs, 0, "a.bp4");
  ASSERT_EQ(reader.steps().size(), 6u);
  for (std::uint64_t step = 0; step < 6; ++step) {
    const auto data = reader.read_as<float>(step, "density");
    ASSERT_EQ(data.size(), 256u);
    EXPECT_FLOAT_EQ(data[0], float(step * 1000));
    EXPECT_FLOAT_EQ(data[64], float(step * 1000 + 1));
    ASSERT_TRUE(reader.attribute(step, "time").has_value());
    EXPECT_DOUBLE_EQ(std::get<double>(*reader.attribute(step, "time")),
                     double(step));
  }
}

TEST(BpAsync, WaitDrainsMakesContainerReadable) {
  fsim::SharedFs fs(8);
  auto config = small_config(1);
  config.async_write = true;
  Writer writer = Writer::open(fs, "w.bp4", config, 2);
  writer.begin_step(0);
  auto a = iota_floats(16);
  writer.put<float>(0, "x", {32}, {0}, {16}, a);
  writer.put<float>(1, "x", {32}, {16}, {16}, a);
  writer.end_step();
  writer.wait_drains();
  // The step landed even though the writer is still open: its subfile and
  // step metadata bytes are on storage (the md.idx header is only patched
  // at close, so use the raw subfile instead of a Reader).
  EXPECT_GT(fs.store().file("w.bp4/data.0").size, 0u);
  EXPECT_GT(fs.store().file("w.bp4/md.0").size, 0u);
  writer.close();
  Reader reader = Reader::open(fs, 0, "w.bp4");
  EXPECT_EQ(reader.read_as<float>(0, "x").size(), 32u);
}

TEST(BpAsync, BackpressureBoundsInflightSteps) {
  fsim::SharedFs fs(8);
  for (const int max_inflight : {1, 2}) {
    auto config = small_config(1);
    config.async_write = true;
    config.max_inflight_steps = max_inflight;
    int peak = 0;
    const std::string path = "bp" + std::to_string(max_inflight) + ".bp4";
    write_workload(fs, path, config, &peak);
    EXPECT_GE(peak, 1);
    EXPECT_LE(peak, max_inflight);
  }
  auto config = small_config(1);
  config.async_write = true;
  config.max_inflight_steps = 0;
  EXPECT_THROW(Writer::open(fs, "bad.bp4", config, 1), UsageError);
}

TEST(BpAsync, SpmdConcurrentPutsAcrossOverlappedSteps) {
  // Satellite stress: every rank puts concurrently while earlier steps are
  // still draining in the background; the result must equal the sync run.
  fsim::SharedFs fs(16);
  const int ranks = 8;
  const std::uint64_t steps = 10;
  const std::size_t elems = 128;

  auto run = [&](const std::string& path, bool async) {
    auto config = small_config(2);
    config.ranks_per_node = ranks;
    config.async_write = async;
    config.max_inflight_steps = 2;
    Writer writer = Writer::open(fs, path, config, ranks);
    smpi::run_spmd(ranks, [&](smpi::Comm& comm) {
      const int r = comm.rank();
      for (std::uint64_t step = 0; step < steps; ++step) {
        if (r == 0) writer.begin_step(step);
        comm.barrier();
        auto local =
            iota_floats(elems, float(step * 10000 + std::uint64_t(r) * 100));
        writer.put<float>(r, "phase", {std::uint64_t(ranks) * elems},
                          {std::uint64_t(r) * elems}, {elems}, local);
        comm.barrier();
        if (r == 0) writer.end_step();
        comm.barrier();
      }
    });
    writer.close();
    return writer.peak_inflight();
  };

  run("spmd_sync.bp4", false);
  const int peak = run("spmd_async.bp4", true);
  EXPECT_GE(peak, 1);
  EXPECT_LE(peak, 2);

  Reader sync_reader = Reader::open(fs, 0, "spmd_sync.bp4");
  Reader async_reader = Reader::open(fs, 0, "spmd_async.bp4");
  ASSERT_EQ(async_reader.steps().size(), steps);
  for (std::uint64_t step = 0; step < steps; ++step) {
    const auto expect = sync_reader.read_as<float>(step, "phase");
    const auto got = async_reader.read_as<float>(step, "phase");
    EXPECT_EQ(expect, got) << "step " << step;
  }
  // Byte-identical containers, not merely equal decoded values.
  fsim::FsClient io(fs, 0);
  for (const char* name : {"data.0", "data.1", "md.0", "md.idx"}) {
    EXPECT_EQ(io.read_all(std::string("spmd_sync.bp4/") + name),
              io.read_all(std::string("spmd_async.bp4/") + name))
        << name;
  }
}

TEST(BpAsync, ProfilingAttributesDrainTimeOffCriticalPath) {
  fsim::SharedFs fs(4);
  auto config = small_config(1);
  config.profiling = true;
  config.async_write = true;
  {
    Writer writer = Writer::open(fs, "prof_async.bp4", config, 1);
    writer.begin_step(0);
    auto v = iota_floats(256);
    writer.put<float>(0, "x", {256}, {0}, {256}, v);
    writer.end_step();
    writer.close();
  }
  fsim::FsClient io(fs, 0);
  const auto text = io.read_all("prof_async.bp4/profiling.json");
  const Json profile = Json::parse(
      std::string(reinterpret_cast<const char*>(text.data()), text.size()));
  EXPECT_TRUE(profile.at("async_write").as_bool());
  // The memcopy cost moved off the critical path into the drain lane.
  EXPECT_GT(profile.at("transport_0").at("drain_us").as_number(), 0.0);
  EXPECT_DOUBLE_EQ(profile.at("transport_0").at("memcopy_us").as_number(),
                   0.0);
}

TEST(BpAsync, DrainLanesInTraceAndReplay) {
  fsim::SharedFs fs(8);
  auto config = small_config(2);
  config.async_write = true;
  write_workload(fs, "lanes.bp4", config);

  bool saw_drain_lane = false;
  for (const auto& op : fs.trace())
    if (op.lane > 0 && op.kind == fsim::OpKind::write) saw_drain_lane = true;
  EXPECT_TRUE(saw_drain_lane);

  const auto replay =
      fsim::replay_trace(fsim::dardel(), fs.store(), fs.trace(), 4);
  EXPECT_GT(replay.mean_drain_time(), 0.0);

  // The identical sync workload has no drain lane anywhere.
  fsim::SharedFs sync_fs(8);
  write_workload(sync_fs, "lanes.bp4", small_config(2));
  for (const auto& op : sync_fs.trace()) EXPECT_EQ(op.lane, 0u);
  const auto sync_replay =
      fsim::replay_trace(fsim::dardel(), sync_fs.store(), sync_fs.trace(), 4);
  EXPECT_DOUBLE_EQ(sync_replay.mean_drain_time(), 0.0);
}

}  // namespace
}  // namespace bitio::bp
