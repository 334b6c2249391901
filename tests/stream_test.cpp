// Tests for the pluggable engine registry (bp::make_engine) and the miniSST
// stream engine: factory registration, byte-identical compatibility of the
// named Writer/Reader constructors, the shared put check and chunk records
// of the file and stream engines, reader lifecycle edges (attach before
// the first step, detach mid-stream), the three slow-reader policies, and
// multi-consumer hammers for the TSan suite.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <numeric>
#include <thread>
#include <tuple>

#include "bp/engine.hpp"
#include "bp/reader.hpp"
#include "bp/stream.hpp"
#include "bp/writer.hpp"
#include "util/error.hpp"
#include "util/toml.hpp"

namespace bitio::bp {
namespace {

std::vector<float> iota_floats(std::size_t n, float start = 0.f) {
  std::vector<float> v(n);
  std::iota(v.begin(), v.end(), start);
  return v;
}

EngineConfig stream_config(int max_steps, const std::string& policy,
                           const std::string& codec = "none") {
  EngineConfig config;
  config.ranks_per_node = 4;
  config.codec = codec;
  config.stream_max_steps = max_steps;
  config.stream_policy = policy;
  return config;
}

/// One step of a 2-rank float variable, put through any Engine.
void put_step(Engine& engine, std::uint64_t step, float base) {
  engine.begin_step(step);
  const Dims shape{16};
  for (int r = 0; r < 2; ++r) {
    auto local = iota_floats(8, base + float(r) * 8.f);
    engine.put<float>(r, "density", shape, {std::uint64_t(r) * 8}, {8},
                      local);
  }
  engine.add_attribute("unitSI", AttrValue(1.0));
  engine.end_step();
}

std::vector<float> as_floats(const std::vector<std::uint8_t>& bytes) {
  std::vector<float> out(bytes.size() / sizeof(float));
  std::memcpy(out.data(), bytes.data(), out.size() * sizeof(float));
  return out;
}

// -------------------------------------------------------------- registry ---

TEST(EngineRegistry, BuiltinsAreRegistered) {
  for (const char* name : {"bp4", "bp5", "stream"})
    EXPECT_TRUE(engine_registered(name)) << name;
  const auto names = registered_engines();
  for (const char* name : {"bp4", "bp5", "stream"})
    EXPECT_NE(std::find(names.begin(), names.end(), name), names.end())
        << name;
}

TEST(EngineRegistry, UnknownNameThrowsListingRegistered) {
  fsim::SharedFs fs(4);
  try {
    make_engine("hdf5", fs, "x.hdf5", EngineConfig{}, 2);
    FAIL() << "make_engine accepted an unregistered name";
  } catch (const UsageError& e) {
    const std::string message = e.what();
    EXPECT_NE(message.find("hdf5"), std::string::npos) << message;
    EXPECT_NE(message.find("bp4"), std::string::npos) << message;
    EXPECT_NE(message.find("stream"), std::string::npos) << message;
  }
}

TEST(EngineRegistry, CustomEngineResolvesThroughFactory) {
  register_engine("bp4-alias",
                  [](fsim::SharedFs& fs, std::string path,
                     EngineConfig config, int nranks) {
                    return make_engine("bp4", fs, std::move(path),
                                       std::move(config), nranks);
                  });
  ASSERT_TRUE(engine_registered("bp4-alias"));
  fsim::SharedFs fs(4);
  auto engine = make_engine("bp4-alias", fs, "alias.bp4", EngineConfig{}, 2);
  put_step(*engine, 0, 0.f);
  engine->close();
  Reader reader = Reader::open(fs, 0, "alias.bp4");
  EXPECT_EQ(reader.read_as<float>(0, "density"), iota_floats(16));
}

// ------------------------------------------- named-ctor compatibility -------

// The concrete Writer::open / Reader::open entry points (the replacement
// for the removed deprecated raw constructors) produce a container
// byte-identical to the factory path for both file engines.
TEST(EngineCompat, NamedCtorsByteIdenticalToFactory) {
  for (const char* name : {"bp4", "bp5"}) {
    fsim::SharedFs fs(8);
    EngineConfig config;
    config.num_aggregators = 2;
    config.ranks_per_node = 4;
    config.engine = std::string(name) == "bp4" ? EngineType::bp4
                                               : EngineType::bp5;

    const std::string raw_path = std::string("raw.") + name;
    {
      Writer writer = Writer::open(fs, raw_path, config, 2);
      writer.begin_step(0);
      const Dims shape{16};
      for (int r = 0; r < 2; ++r) {
        auto local = iota_floats(8, float(r) * 8.f);
        writer.put<float>(r, "density", shape, {std::uint64_t(r) * 8}, {8},
                          local);
      }
      writer.add_attribute("unitSI", AttrValue(1.0));
      writer.end_step();
      writer.close();
    }
    const std::string fac_path = std::string("fac.") + name;
    {
      auto engine = make_engine(name, fs, fac_path, config, 2);
      put_step(*engine, 0, 0.f);
      engine->close();
    }

    const auto raw_files = fs.store().list_recursive(raw_path);
    const auto fac_files = fs.store().list_recursive(fac_path);
    ASSERT_EQ(raw_files.size(), fac_files.size()) << name;
    fsim::FsClient io(fs, 0);
    for (const auto* file : raw_files) {
      const std::string rel = file->path.substr(raw_path.size());
      const auto a = io.read_all(file->path);
      const auto b = io.read_all(fac_path + rel);
      EXPECT_EQ(a, b) << "file " << rel << " differs for " << name;
    }

    // Reader::open parses both containers to the same decoded data.
    Reader direct = Reader::open(fs, 0, raw_path);
    Reader via_factory = Reader::open(fs, 0, fac_path);
    EXPECT_EQ(direct.read_as<float>(0, "density"),
              via_factory.read_as<float>(0, "density"));
  }
}

TEST(EngineCompat, FileEngineAttachWalksLandedSteps) {
  fsim::SharedFs fs(4);
  auto engine = make_engine("bp4", fs, "walk.bp4", EngineConfig{}, 2);
  put_step(*engine, 3, 0.f);
  put_step(*engine, 7, 100.f);

  auto reader = engine->attach(0);
  ASSERT_EQ(reader->next_step(), std::optional<std::uint64_t>(3));
  EXPECT_EQ(as_floats(reader->get("density")), iota_floats(16));
  ASSERT_EQ(reader->next_step(), std::optional<std::uint64_t>(7));
  EXPECT_EQ(as_floats(reader->get("density")), iota_floats(16, 100.f));
  ASSERT_TRUE(reader->attribute("unitSI").has_value());
  EXPECT_EQ(reader->next_step(), std::nullopt);
  EXPECT_EQ(reader->steps_dropped(), 0u);
  EXPECT_FALSE(reader->disconnected());
  engine->close();
}

// A chunk whose offset + count wraps past UINT64_MAX would land outside the
// global array; both kinds of engine refuse it at put().
TEST(EngineCompat, OverflowingPlacementIsUsageError) {
  for (const char* name : {"bp4", "stream"}) {
    fsim::SharedFs fs(4);
    auto engine = make_engine(name, fs, std::string("wrap.") + name,
                              stream_config(4, "block"), 2);
    engine->begin_step(0);
    const auto local = iota_floats(2);
    EXPECT_THROW(engine->put<float>(0, "x", {4}, {UINT64_MAX}, {2}, local),
                 UsageError)
        << name;
    EXPECT_THROW(engine->put_synthetic(0, "y", Datatype::float32, {4},
                                       {UINT64_MAX}, {2}),
                 UsageError)
        << name;
    engine->end_step();
    engine->close();
  }
}

/// Every ChunkRecord field but the file placement (subfile, file_offset).
auto engine_neutral_fields(const ChunkRecord& c) {
  return std::tie(c.offset, c.count, c.writer_rank, c.stored_bytes,
                  c.raw_bytes, c.stat_min, c.stat_max, c.crc32c, c.has_crc);
}

// The same puts through bp4 and the stream engine yield the same chunk
// records (but for where bp4 put the bytes) and the same decoded array: a
// 3-D variable split 2 x 2 over 4 ranks, without and with an operator.
TEST(EngineCompat, StreamAndFileChunkRecordsAgree) {
  const Dims shape{4, 6, 8};
  const auto put_variable = [&](Engine& engine) {
    engine.begin_step(0);
    for (int r = 0; r < 4; ++r) {
      const Dims offset{std::uint64_t(2 * (r / 2)), std::uint64_t(3 * (r % 2)),
                        0};
      const Dims count{2, 3, 8};
      std::vector<float> local;
      for (std::uint64_t i = 0; i < count[0]; ++i)
        for (std::uint64_t j = 0; j < count[1]; ++j)
          for (std::uint64_t k = 0; k < count[2]; ++k)
            local.push_back(
                float(((offset[0] + i) * shape[1] + offset[1] + j) *
                          shape[2] +
                      k));
      engine.put<float>(r, "E", shape, offset, count, local);
    }
    engine.end_step();
  };

  for (const char* codec : {"none", "blosc"}) {
    SCOPED_TRACE(codec);
    fsim::SharedFs fs(8);
    EngineConfig config = stream_config(4, "block", codec);
    config.num_aggregators = 2;

    auto file = make_engine("bp4", fs, "diff.bp4", config, 4);
    put_variable(*file);
    file->close();
    Reader reader = Reader::open(fs, 0, "diff.bp4");

    auto stream = make_engine("stream", fs, "diff.stream", config, 4);
    auto consumer = stream->attach(0);
    put_variable(*stream);
    stream->close();
    ASSERT_EQ(consumer->next_step(), std::optional<std::uint64_t>(0));

    const VarRecord* file_var = reader.find_variable(0, "E");
    const VarRecord* stream_var = consumer->find_variable("E");
    ASSERT_NE(file_var, nullptr);
    ASSERT_NE(stream_var, nullptr);
    EXPECT_EQ(file_var->operator_name, stream_var->operator_name);
    EXPECT_EQ(file_var->operator_name,
              std::string(codec) == "none" ? "" : codec);
    ASSERT_EQ(file_var->chunks.size(), 4u);
    ASSERT_EQ(stream_var->chunks.size(), 4u);
    for (std::size_t c = 0; c < 4; ++c) {
      SCOPED_TRACE("chunk " + std::to_string(c));
      EXPECT_TRUE(stream_var->chunks[c].has_crc);
      EXPECT_EQ(engine_neutral_fields(file_var->chunks[c]),
                engine_neutral_fields(stream_var->chunks[c]));
    }

    const auto from_file = reader.read(0, "E");
    EXPECT_EQ(from_file, consumer->get("E"));
    EXPECT_EQ(as_floats(from_file), iota_floats(element_count(shape)));
  }
}

// ---------------------------------------------------------- stream engine ---

TEST(StreamEngine, AttachBeforeFirstStepSeesEveryStep) {
  fsim::SharedFs fs(4);
  auto engine = make_engine("stream", fs, "live.stream",
                            stream_config(4, "block", "blosc"), 2);
  // Attach before any begin_step: the consumer must receive step 0.
  auto reader = engine->attach(0);
  put_step(*engine, 0, 0.f);
  put_step(*engine, 1, 50.f);

  ASSERT_EQ(reader->next_step(), std::optional<std::uint64_t>(0));
  EXPECT_EQ(reader->variables(), std::vector<std::string>{"density"});
  EXPECT_EQ(as_floats(reader->get("density")), iota_floats(16));
  ASSERT_TRUE(reader->attribute("unitSI").has_value());
  EXPECT_DOUBLE_EQ(std::get<double>(*reader->attribute("unitSI")), 1.0);

  ASSERT_EQ(reader->next_step(), std::optional<std::uint64_t>(1));
  EXPECT_EQ(as_floats(reader->get("density")), iota_floats(16, 50.f));

  engine->close();
  EXPECT_EQ(reader->next_step(), std::nullopt);  // stream ended
  EXPECT_EQ(engine->steps_written(), 2u);
}

TEST(StreamEngine, AttachDoesNotReplayEarlierSteps) {
  fsim::SharedFs fs(4);
  auto engine = make_engine("stream", fs, "mid.stream",
                            stream_config(4, "block"), 2);
  put_step(*engine, 0, 0.f);
  auto reader = engine->attach(0);  // step 0 predates the attach
  put_step(*engine, 1, 50.f);
  engine->close();

  ASSERT_EQ(reader->next_step(), std::optional<std::uint64_t>(1));
  EXPECT_EQ(reader->next_step(), std::nullopt);
}

TEST(StreamEngine, DetachReleasesTheProducer) {
  fsim::SharedFs fs(4);
  // Window of 1 under the block policy: a lagging attached consumer would
  // stall the producer, so detach must release it.
  auto engine = make_engine("stream", fs, "det.stream",
                            stream_config(1, "block"), 2);
  auto reader = engine->attach(0);
  put_step(*engine, 0, 0.f);
  ASSERT_EQ(reader->next_step(), std::optional<std::uint64_t>(0));
  reader->detach();
  // With the consumer detached these publishes must not block even though
  // the window can hold a single step.
  for (std::uint64_t step = 1; step <= 4; ++step)
    put_step(*engine, step, float(step) * 10.f);
  EXPECT_EQ(reader->next_step(), std::nullopt);  // detached cursor
  engine->close();
  EXPECT_EQ(engine->steps_written(), 5u);
}

TEST(StreamEngine, BlockPolicyDeliversEveryStepBounded) {
  fsim::SharedFs fs(4);
  auto engine = make_engine("stream", fs, "blk.stream",
                            stream_config(2, "block", "blosc"), 2);
  auto* stream = dynamic_cast<StreamEngine*>(engine.get());
  ASSERT_NE(stream, nullptr);
  auto reader = engine->attach(0);

  constexpr std::uint64_t kSteps = 12;
  std::thread producer([&] {
    for (std::uint64_t step = 0; step < kSteps; ++step)
      put_step(*engine, step, float(step));
    engine->close();
  });

  std::uint64_t received = 0;
  while (auto step = reader->next_step()) {
    EXPECT_EQ(*step, received);
    EXPECT_EQ(as_floats(reader->get("density")),
              iota_floats(16, float(received)));
    ++received;
  }
  producer.join();

  EXPECT_EQ(received, kSteps);  // block never drops
  EXPECT_EQ(reader->steps_dropped(), 0u);
  EXPECT_EQ(stream->channel().steps_lost(), 0u);
  // The backpressure guarantee: the window never outgrew its bound.
  EXPECT_LE(stream->channel().peak_depth(), 2);
  EXPECT_LE(engine->peak_inflight(), 2);
}

TEST(StreamEngine, DropOldestPolicySkipsAndCounts) {
  fsim::SharedFs fs(4);
  auto engine = make_engine("stream", fs, "drop.stream",
                            stream_config(2, "drop_oldest"), 2);
  auto* stream = dynamic_cast<StreamEngine*>(engine.get());
  ASSERT_NE(stream, nullptr);
  auto reader = engine->attach(0);
  // Publish 5 steps without consuming: a window of 2 keeps the last two.
  for (std::uint64_t step = 0; step < 5; ++step)
    put_step(*engine, step, float(step));

  ASSERT_EQ(reader->next_step(), std::optional<std::uint64_t>(3));
  EXPECT_EQ(reader->steps_dropped(), 3u);
  EXPECT_EQ(as_floats(reader->get("density")), iota_floats(16, 3.f));
  ASSERT_EQ(reader->next_step(), std::optional<std::uint64_t>(4));
  EXPECT_FALSE(reader->disconnected());
  EXPECT_GE(stream->channel().steps_lost(), 3u);
  engine->close();
  EXPECT_EQ(reader->next_step(), std::nullopt);
}

TEST(StreamEngine, DisconnectPolicyCutsOffTheLaggard) {
  fsim::SharedFs fs(4);
  auto engine = make_engine("stream", fs, "cut.stream",
                            stream_config(1, "disconnect"), 2);
  auto slow = engine->attach(0);
  put_step(*engine, 0, 0.f);
  // The second publish finds the window full with `slow` still needing
  // step 0: disconnect evicts the step and cuts the consumer off.
  put_step(*engine, 1, 10.f);
  EXPECT_TRUE(slow->disconnected());
  EXPECT_EQ(slow->next_step(), std::nullopt);

  // A fresh consumer is unaffected.
  auto fresh = engine->attach(1);
  put_step(*engine, 2, 20.f);
  ASSERT_EQ(fresh->next_step(), std::optional<std::uint64_t>(2));
  engine->close();
}

TEST(StreamEngine, PublishedPayloadsDoNotDrainThePool) {
  // Published payloads belong to the readers (shared_ptr StreamSteps), so
  // they are not drawn from the engine's pool: a pooled buffer would never
  // come back, and every put after warm-up would miss.
  for (const char* codec : {"none", "blosc"}) {
    SCOPED_TRACE(codec);
    fsim::SharedFs fs(4);
    auto engine = make_engine("stream", fs, "pool.stream",
                              stream_config(4, "block", codec), 2);
    auto reader = engine->attach(0);
    for (std::uint64_t step = 0; step < 40; ++step) {
      if (step == 8) engine->reset_pool_stats();  // after 8 warm-up steps
      put_step(*engine, step, float(step));
      ASSERT_EQ(reader->next_step(), std::optional<std::uint64_t>(step));
      EXPECT_EQ(as_floats(reader->get("density")),
                iota_floats(16, float(step)));
    }
    EXPECT_EQ(engine->pool_stats().misses, 0u);
    engine->close();
  }
}

TEST(StreamEngine, LifecycleErrorsAreUsageErrors) {
  fsim::SharedFs fs(4);
  auto engine = make_engine("stream", fs, "err.stream",
                            stream_config(2, "block"), 2);
  EXPECT_THROW(engine->end_step(), UsageError);         // no open step
  engine->begin_step(0);
  EXPECT_THROW(engine->begin_step(1), UsageError);      // nested step
  EXPECT_THROW(engine->close(), UsageError);            // close mid-step
  engine->end_step();
  engine->close();
  engine->close();                                      // idempotent
  EXPECT_THROW(engine->begin_step(2), UsageError);      // closed
}

TEST(StreamEngine, RejectsBadStreamKnobs) {
  fsim::SharedFs fs(4);
  EXPECT_THROW(
      make_engine("stream", fs, "bad.stream", stream_config(0, "block"), 2),
      UsageError);
  EXPECT_THROW(
      make_engine("stream", fs, "bad.stream", stream_config(2, "banana"), 2),
      UsageError);
}

TEST(StreamEngine, ConfigParsesStreamKnobsFromAdios2Toml) {
  const Json cfg = parse_toml(R"(
[adios2.engine]
type = "stream"

[adios2.engine.parameters]
StreamMaxSteps = 2
StreamPolicy = "drop_oldest"
)");
  const EngineConfig engine = EngineConfig::from_json(cfg.at("adios2"));
  EXPECT_EQ(engine.engine, EngineType::stream);
  EXPECT_EQ(engine.stream_max_steps, 2);
  EXPECT_EQ(engine.stream_policy, "drop_oldest");
}

// A TSan-facing hammer: one producer, several consumers attaching at
// different times, some detaching mid-stream, under the block policy (every
// attached consumer throttles the window, so the schedule interleaves).
TEST(StreamEngine, MultiConsumerHammer) {
  fsim::SharedFs fs(8);
  auto engine = make_engine("stream", fs, "ham.stream",
                            stream_config(3, "block", "blosc"), 2);
  auto* stream = dynamic_cast<StreamEngine*>(engine.get());
  ASSERT_NE(stream, nullptr);

  constexpr std::uint64_t kSteps = 24;
  constexpr int kConsumers = 6;

  // All consumers attach before the first publish so each one either reads
  // a prefix (detaching early) or the whole stream.
  std::vector<std::unique_ptr<EngineReader>> readers;
  for (int c = 0; c < kConsumers; ++c)
    readers.push_back(engine->attach(fsim::ClientId(c)));

  std::atomic<std::uint64_t> decoded{0};
  std::vector<std::thread> consumers;
  for (int c = 0; c < kConsumers; ++c) {
    consumers.emplace_back([&, c] {
      EngineReader& reader = *readers[std::size_t(c)];
      std::uint64_t expected = 0;
      while (auto step = reader.next_step()) {
        EXPECT_EQ(*step, expected);
        const auto data = reader.get("density");
        EXPECT_EQ(as_floats(data), iota_floats(16, float(*step)));
        decoded.fetch_add(1, std::memory_order_relaxed);
        ++expected;
        // Odd consumers bail out part-way: detach-mid-stream coverage.
        if (c % 2 == 1 && expected == std::uint64_t(2 + c)) {
          reader.detach();
          break;
        }
      }
    });
  }

  for (std::uint64_t step = 0; step < kSteps; ++step)
    put_step(*engine, step, float(step));
  engine->close();
  for (auto& thread : consumers) thread.join();

  EXPECT_EQ(stream->channel().steps_lost(), 0u);
  EXPECT_LE(stream->channel().peak_depth(), 3);
  // Even consumers read everything; odd ones read their prefix.
  std::uint64_t expected_total = 0;
  for (int c = 0; c < kConsumers; ++c)
    expected_total += c % 2 == 1 ? std::uint64_t(2 + c) : kSteps;
  EXPECT_EQ(decoded.load(), expected_total);
}

}  // namespace
}  // namespace bitio::bp
