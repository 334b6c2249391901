// Tests for the miniPMD layer: series/iteration/record hierarchy on the
// bp4 and bp5 engines, constants, attributes, TOML configuration, SPMD
// writing.
#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <limits>
#include <map>
#include <numeric>

#include "bp/engine.hpp"
#include "openpmd/series.hpp"
#include "smpi/comm.hpp"
#include "util/crc32c.hpp"
#include "util/error.hpp"

namespace bitio::pmd {
namespace {

using fsim::SharedFs;

std::vector<double> ramp(std::size_t n, double start = 0.0) {
  std::vector<double> v(n);
  std::iota(v.begin(), v.end(), start);
  return v;
}

class OpenPmdBackends : public ::testing::TestWithParam<const char*> {
protected:
  std::string series_path() const {
    return "out/data." + std::string(GetParam());
  }
};

TEST_P(OpenPmdBackends, WriteReadMeshAndParticles) {
  SharedFs fs(8);
  {
    Series series(fs, series_path(), Access::create, /*nranks=*/2);
    auto& it = series.write_iteration(100);
    it.set_time(2.5);
    it.set_dt(0.5);

    auto& rho = it.mesh("density").component();
    rho.reset_dataset(Datatype::float64, {8});
    rho.set_unit_si(1e-3);
    auto lo = ramp(4, 0.0), hi = ramp(4, 4.0);
    rho.store_chunk<double>(0, lo, {0}, {4});
    rho.store_chunk<double>(1, hi, {4}, {4});

    auto& e = it.particles("e");
    auto& x = e["position"]["x"];
    x.reset_dataset(Datatype::float64, {6});
    auto px0 = ramp(3, 10.0), px1 = ramp(3, 13.0);
    x.store_chunk<double>(0, px0, {0}, {3});
    x.store_chunk<double>(1, px1, {3}, {3});
    e["positionOffset"]["x"].make_constant(0.25, {6});

    it.close();
    series.close();
  }
  {
    Series series(fs, series_path(), Access::read_only);
    EXPECT_EQ(series.iterations(), std::vector<std::uint64_t>{100});
    auto& it = series.read_iteration(100);
    EXPECT_DOUBLE_EQ(it.time(), 2.5);
    EXPECT_DOUBLE_EQ(it.dt(), 0.5);
    EXPECT_EQ(it.mesh_names(), std::vector<std::string>{"density"});
    EXPECT_EQ(it.species_names(), std::vector<std::string>{"e"});

    auto& rho = it.mesh("density").component();
    EXPECT_DOUBLE_EQ(rho.unit_si(), 1e-3);
    EXPECT_EQ(rho.load<double>(), ramp(8));

    auto& x = it.particles("e")["position"]["x"];
    EXPECT_EQ(x.load<double>(), ramp(6, 10.0));

    auto& off = it.particles("e")["positionOffset"]["x"];
    EXPECT_TRUE(off.is_constant());
    EXPECT_DOUBLE_EQ(off.constant_value(), 0.25);
    const auto materialized = off.load<double>();
    ASSERT_EQ(materialized.size(), 6u);
    EXPECT_DOUBLE_EQ(materialized[5], 0.25);
  }
}

TEST_P(OpenPmdBackends, MultipleIterations) {
  SharedFs fs(8);
  {
    Series series(fs, series_path(), Access::create, 1);
    for (std::uint64_t step : {0u, 10u, 20u}) {
      auto& it = series.write_iteration(step);
      auto& m = it.mesh("f").component();
      m.reset_dataset(Datatype::float64, {4});
      auto v = ramp(4, double(step));
      m.store_chunk<double>(0, v, {0}, {4});
      it.close();
    }
    series.close();
  }
  Series series(fs, series_path(), Access::read_only);
  EXPECT_EQ(series.iterations(), (std::vector<std::uint64_t>{0, 10, 20}));
  EXPECT_EQ(series.read_iteration(10).mesh("f").component().load<double>(),
            ramp(4, 10.0));
}

INSTANTIATE_TEST_SUITE_P(Backends, OpenPmdBackends,
                         ::testing::Values("bp4", "bp5"),
                         [](const auto& info) {
                           return std::string(info.param);
                         });

/// "name:size:crc32c" of one container file.
std::string golden_file(SharedFs& fs, const std::string& path,
                        const char* name) {
  fsim::FsClient io(fs, 0);
  const auto bytes = io.read_all(path + "/" + name);
  char buf[64];
  std::snprintf(buf, sizeof buf, "%s:%zu:%08x", name, bytes.size(),
                crc32c(bytes));
  return buf;
}

TEST(OpenPmdGolden, SeriesIterationBytes) {
  // The Series -> engine path end to end: the order of puts and attributes
  // that Iteration::close emits is part of the container bytes.
  SharedFs fs(4);
  {
    Series series(fs, "golden.bp4", Access::create, /*nranks=*/2);
    auto& it = series.write_iteration(7);
    it.set_time(1.5);
    it.set_dt(0.25);
    auto& rho = it.mesh("density").component();
    rho.reset_dataset(Datatype::float64, {8});
    rho.set_unit_si(1e-3);
    const auto lo = ramp(4, 0.0), hi = ramp(4, 4.0);
    rho.store_chunk<double>(0, lo, {0}, {4});
    rho.store_chunk<double>(1, hi, {4}, {4});
    auto& e = it.particles("e");
    auto& x = e["position"]["x"];
    x.reset_dataset(Datatype::float64, {5});
    const auto px0 = ramp(2, 10.0), px1 = ramp(3, 12.0);
    x.store_chunk<double>(1, px1, {2}, {3});
    x.store_chunk<double>(0, px0, {0}, {2});
    e["positionOffset"]["x"].make_constant(0.5, {5});
    it.close();
    series.close();
  }
  std::string files;
  for (const char* name : {"data.0", "md.0", "md.idx"})
    files += golden_file(fs, "golden.bp4", name) + "\n";
  EXPECT_EQ(files,
            "data.0:104:1edf2be4\n"
            "md.0:791:41631a00\n"
            "md.idx:40:771dd462\n");
}

TEST(OpenPmd, StoredExtentAboveRankThreeIsFormatError) {
  // Each row rewrites one attribute of a well-formed constant record; only
  // the first row keeps it well-formed.  Malformed metadata -- a wrong
  // attribute type, an extent past bp::kMaxRank or one that is not a list
  // of 64-bit decimal integers -- is a FormatError when the iteration is
  // opened.
  const std::string path = "particles/e/positionOffset/x";
  struct Row {
    std::string key;
    AttrValue value;
    bool valid;
  };
  const Row rows[] = {
      {path + "/shape", AttrValue(std::string("1,2,3")), true},
      {path + "/shape", AttrValue(std::string("1,2,3,4")), false},
      {path + "/shape", AttrValue(std::string("1,x")), false},
      {path + "/shape", AttrValue(std::string("99999999999999999999")), false},
      {path + "/shape", AttrValue(std::string("-1")), false},
      {path + "/value", AttrValue(std::string("0.25")), false},
      {path + "/unitSI", AttrValue(std::uint64_t(1)), false},
      {"__constants", AttrValue(1.0), false},
      {"time", AttrValue(std::string("2.0")), false},
  };
  for (const Row& row : rows) {
    SCOPED_TRACE(row.key + " row " + std::to_string(&row - rows));
    std::map<std::string, AttrValue> attributes = {
        {"time", AttrValue(2.0)},
        {"__constants", AttrValue(path + ";")},
        {path + "/value", AttrValue(0.25)},
        {path + "/shape", AttrValue(std::string("1,2,3"))},
        {path + "/unitSI", AttrValue(1.0)},
    };
    attributes[row.key] = row.value;
    SharedFs fs(4);
    {
      auto engine = bp::make_engine("bp4", fs, "c.bp4", bp::EngineConfig{}, 1);
      engine->begin_step(0);
      for (const auto& [key, value] : attributes)
        engine->add_attribute(key, value);
      engine->end_step();
      engine->close();
    }
    Series series(fs, "c.bp4", Access::read_only);
    if (row.valid) {
      auto& it = series.read_iteration(0);
      EXPECT_DOUBLE_EQ(it.time(), 2.0);
      EXPECT_EQ(it.particles("e")["positionOffset"]["x"].extent(),
                (Extent{1, 2, 3}));
    } else {
      EXPECT_THROW(series.read_iteration(0), FormatError);
    }
  }
}

TEST(OpenPmd, BackendSelectionByExtension) {
  SharedFs fs(4);
  EXPECT_EQ(Series(fs, "a.bp4", Access::create).backend_name(), "bp4");
  EXPECT_EQ(Series(fs, "b.bp", Access::create).backend_name(), "bp4");
  EXPECT_EQ(Series(fs, "c.bp5", Access::create).backend_name(), "bp5");
  EXPECT_THROW(Series(fs, "d_%T.json", Access::create), UsageError);
  EXPECT_THROW(Series(fs, "e.h5", Access::create), UsageError);
  EXPECT_THROW(Series(fs, "noext", Access::create), UsageError);
}

TEST(OpenPmd, TomlConfigControlsEngine) {
  SharedFs fs(8);
  const std::string config = R"(
[adios2.engine]
type = "bp4"

[adios2.engine.parameters]
NumAggregators = 2

[adios2.dataset]
operators = [ { type = "blosc" } ]
)";
  {
    Series series(fs, "cfg.bp4", Access::create, 4, config);
    auto& it = series.write_iteration(0);
    auto& m = it.mesh("v").component();
    const std::size_t n = 1 << 14;
    m.reset_dataset(Datatype::float64, {4 * n});
    std::vector<double> smooth(n);
    for (std::size_t i = 0; i < n; ++i) smooth[i] = double(i) * 1e-4;
    for (int r = 0; r < 4; ++r)
      m.store_chunk<double>(r, smooth, {std::uint64_t(r) * n}, {n});
    it.close();
    series.close();
  }
  // NumAggregators=2 -> data.0 + data.1 + md.0 + md.idx.
  EXPECT_EQ(fs.store().list_recursive("cfg.bp4").size(), 4u);
  // blosc operator shrank the data.
  EXPECT_LT(fs.store().file("cfg.bp4/data.0").size,
            2u * (1 << 14) * sizeof(double));
  // And it reads back exactly.
  Series series(fs, "cfg.bp4", Access::read_only);
  const auto back = series.read_iteration(0).mesh("v").component().load<double>();
  EXPECT_DOUBLE_EQ(back[(1 << 14) + 5], 5e-4);
}

TEST(OpenPmd, CheckpointSlotRewriteLatestWins) {
  // The BIT1 pattern: iteration 0 is re-opened periodically and overwritten
  // with the latest system state.
  SharedFs fs(4);
  {
    Series series(fs, "ckpt.bp4", Access::create, 1);
    for (int epoch = 0; epoch < 3; ++epoch) {
      auto& it = series.write_iteration(0);
      auto& m = it.mesh("state").component();
      m.reset_dataset(Datatype::float64, {4});
      auto v = ramp(4, epoch * 100.0);
      m.store_chunk<double>(0, v, {0}, {4});
      it.close();
    }
    series.close();
  }
  Series series(fs, "ckpt.bp4", Access::read_only);
  EXPECT_EQ(series.read_iteration(0).mesh("state").component().load<double>(),
            ramp(4, 200.0));
}

TEST(OpenPmd, OpeningAnIterationIsLinearInItsComponents) {
  // Each component's unitSI (and a constant's value and shape) is an
  // attribute lookup; the reader indexes a step's attributes by name, so
  // opening 4x the components takes about 4x the time.  A linear scan per
  // lookup makes it 16x.  The gate is on the ratio, never on wall time;
  // the best of three opens damps scheduler noise.
  const auto open_seconds = [](int components) {
    SharedFs fs(4);
    {
      Series series(fs, "many.bp4", Access::create, 1);
      auto& it = series.write_iteration(0);
      const std::vector<double> one{1.0};
      for (int i = 0; i < components; ++i) {
        auto& c = it.mesh("m" + std::to_string(i)).component();
        if (i % 4 == 3) {
          c.make_constant(double(i), {1});
          continue;
        }
        c.reset_dataset(Datatype::float64, {1});
        c.set_unit_si(2.0);
        c.store_chunk<double>(0, one, {0}, {1});
      }
      it.close();
      series.close();
    }
    double best = std::numeric_limits<double>::infinity();
    for (int rep = 0; rep < 3; ++rep) {
      const auto start = std::chrono::steady_clock::now();
      Series series(fs, "many.bp4", Access::read_only);
      auto& it = series.read_iteration(0);
      const std::chrono::duration<double> took =
          std::chrono::steady_clock::now() - start;
      best = std::min(best, took.count());
      EXPECT_EQ(it.mesh_names().size(), std::size_t(components));
      EXPECT_DOUBLE_EQ(it.mesh("m0").component().unit_si(), 2.0);
      EXPECT_DOUBLE_EQ(it.mesh("m3").component().constant_value(), 3.0);
    }
    return best;
  };
  const double small = open_seconds(4000);
  const double large = open_seconds(16000);
  RecordProperty("open_4000_s", std::to_string(small));
  RecordProperty("open_16000_s", std::to_string(large));
  EXPECT_LT(large / small, 6.0)
      << "4,000 components open in " << small << " s, 16,000 in " << large
      << " s";
}

TEST(OpenPmd, EmptyChunksAreSkipped) {
  // "if the local vector is not empty, it is stored to disk" — ranks with
  // no particles contribute nothing and that must be legal.
  SharedFs fs(4);
  {
    Series series(fs, "sparse.bp4", Access::create, 3);
    auto& it = series.write_iteration(0);
    auto& x = it.particles("d")["position"]["x"];
    x.reset_dataset(Datatype::float64, {4});
    std::vector<double> empty;
    auto all = ramp(4);
    x.store_chunk<double>(0, all, {0}, {4});
    x.store_chunk<double>(1, empty, {4}, {0});
    x.store_chunk<double>(2, empty, {4}, {0});
    it.close();
    series.close();
  }
  Series series(fs, "sparse.bp4", Access::read_only);
  EXPECT_EQ(series.read_iteration(0).particles("d")["position"]["x"]
                .load<double>(),
            ramp(4));
}

TEST(OpenPmd, UsageErrors) {
  SharedFs fs(4);
  Series series(fs, "err.bp4", Access::create, 2);
  auto& it = series.write_iteration(0);
  auto& m = it.mesh("v").component();
  auto v = ramp(4);
  // store before reset_dataset
  EXPECT_THROW(m.store_chunk<double>(0, v, {0}, {4}), UsageError);
  m.reset_dataset(Datatype::float64, {8});
  // dtype mismatch
  std::vector<float> f(4, 0.f);
  EXPECT_THROW(m.store_chunk<float>(0, f, {0}, {4}), UsageError);
  // second open iteration while one is open
  EXPECT_THROW(series.write_iteration(1), UsageError);
  m.store_chunk<double>(0, v, {0}, {4});
  it.close();
  // write to closed iteration
  EXPECT_THROW(it.mesh("other"), UsageError);
  // read-only calls on a write series
  EXPECT_THROW(series.iterations(), UsageError);
  series.close();
  EXPECT_THROW(series.write_iteration(2), UsageError);

  // Read-mode misuse: write-only calls on a read series.
  Series reader(fs, "err.bp4", Access::read_only);
  EXPECT_THROW(reader.write_iteration(0), UsageError);
  EXPECT_THROW(reader.flush(), UsageError);
  EXPECT_THROW(reader.read_iteration(99), UsageError);
  auto& rit = reader.read_iteration(0);
  EXPECT_THROW(rit.mesh("ghost"), UsageError);
  EXPECT_THROW(rit.mesh("v").component().load<float>(), UsageError);
}

TEST(OpenPmd, SpmdRanksWriteConcurrently) {
  // Live-mode pattern: rank threads store their chunks concurrently; rank 0
  // closes the iteration between barriers.
  SharedFs fs(8);
  Series series(fs, "spmd.bp4", Access::create, 8);
  auto& it = series.write_iteration(0);
  auto& x = it.particles("e")["position"]["x"];
  x.reset_dataset(Datatype::float64, {8 * 100});

  smpi::run_spmd(8, [&](smpi::Comm& comm) {
    const std::uint64_t local = 100;
    const std::uint64_t offset = comm.exscan(local);
    auto mine = ramp(local, double(offset));
    x.store_chunk<double>(comm.rank(), mine, {offset}, {local});
    comm.barrier();
    if (comm.rank() == 0) it.close();
    comm.barrier();
  });
  series.close();

  Series reader(fs, "spmd.bp4", Access::read_only);
  EXPECT_EQ(
      reader.read_iteration(0).particles("e")["position"]["x"].load<double>(),
      ramp(800));
}

TEST(OpenPmd, AsyncEngineFlushJoinsDrains) {
  SharedFs fs(8);
  const std::string config = R"(
[adios2.engine]
type = "bp5"

[adios2.engine.parameters]
NumAggregators = 2
AsyncWrite = "On"
BufferChunkSize = 1
)";
  {
    Series series(fs, "async.bp5", Access::create, 2, config);
    for (std::uint64_t step = 0; step < 4; ++step) {
      auto& it = series.write_iteration(step);
      auto& m = it.mesh("v").component();
      m.reset_dataset(Datatype::float64, {16});
      auto lo = ramp(8, double(step)), hi = ramp(8, double(step) + 8.0);
      m.store_chunk<double>(0, lo, {0}, {8});
      m.store_chunk<double>(1, hi, {8}, {8});
      it.close();  // async: submitted to the drain, returns immediately
    }
    // flush joins every outstanding drain: the data bytes are on storage
    // while the series is still open.
    series.flush();
    EXPECT_GT(fs.store().file("async.bp5/data.0").size, 0u);
    EXPECT_GT(fs.store().file("async.bp5/md.0").size, 0u);
    series.close();
  }
  Series series(fs, "async.bp5", Access::read_only);
  ASSERT_EQ(series.iterations().size(), 4u);
  for (std::uint64_t step = 0; step < 4; ++step) {
    const auto v =
        series.read_iteration(step).mesh("v").component().load<double>();
    ASSERT_EQ(v.size(), 16u);
    EXPECT_DOUBLE_EQ(v[0], double(step));
    EXPECT_DOUBLE_EQ(v[15], double(step) + 15.0);
  }
}

TEST(OpenPmd, FlushIsWriteModeOnly) {
  SharedFs fs(4);
  {
    Series series(fs, "f.bp4", Access::create, 1);
    auto& it = series.write_iteration(0);
    auto& m = it.mesh("v").component();
    m.reset_dataset(Datatype::float64, {2});
    auto v = ramp(2);
    m.store_chunk<double>(0, v, {0}, {2});
    it.close();
    series.flush();  // a no-op for the synchronous engine
    series.close();
  }
  Series reader(fs, "f.bp4", Access::read_only);
  EXPECT_THROW(reader.flush(), UsageError);
}

}  // namespace
}  // namespace bitio::pmd
