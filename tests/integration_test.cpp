// End-to-end integration tests across the whole stack: live SPMD PIC runs
// writing through both I/O paths, full read-back verification, Darshan
// capture of a real run, and the original-vs-openPMD contrast on live (not
// synthetic) workloads.
#include <gtest/gtest.h>

#include <cmath>

#include "core/adaptor.hpp"
#include "core/diagnostics_sink.hpp"
#include "darshan/darshan.hpp"
#include "fsim/system_profiles.hpp"
#include "picmc/checkpoint.hpp"
#include "picmc/diagnostics.hpp"
#include "picmc/serial_io.hpp"
#include "smpi/comm.hpp"

namespace bitio {
namespace {

using core::Bit1IoConfig;
using core::Bit1OpenPmdAdaptor;
using picmc::Diagnostics;
using picmc::SimConfig;
using picmc::Simulation;

SimConfig test_case() {
  auto config = SimConfig::ionization_case(48, 8);
  config.last_step = 60;
  config.datfile = 20;
  config.dmpstep = 60;
  return config;
}

TEST(Integration, SpmdRunWritesBothPathsAndDecaysNeutrals) {
  fsim::SharedFs fs(16);
  const int nranks = 4;
  const auto config = test_case();
  Bit1IoConfig io;
  io.ranks_per_node = nranks;

  // Both output paths behind the same seam, selected only by config.mode.
  Bit1IoConfig original_io = io;
  original_io.mode = core::IoMode::original;
  auto original =
      core::make_diagnostics_sink(fs, "original_run", original_io, nranks);
  auto openpmd = core::make_diagnostics_sink(fs, "openpmd_run", io, nranks);
  ASSERT_EQ(original->sink_name(), "original");
  ASSERT_EQ(openpmd->sink_name(), "openpmd");
  auto& serial_sink = dynamic_cast<core::SerialDiagnosticsSink&>(*original);

  double neutrals_start = 0.0, neutrals_end = 0.0;
  smpi::run_spmd(nranks, [&](smpi::Comm& comm) {
    Simulation sim(config, comm.rank(), comm.size());
    sim.initialize();
    serial_sink.writer(comm.rank()).write_input_echo(config);

    const double start = comm.allreduce(
        sim.species_named("D").particles.total_weight(), smpi::Op::sum);
    if (comm.rank() == 0) neutrals_start = start;

    auto reduce = [&](std::span<double> density) {
      for (auto& v : density) v = comm.allreduce(v, smpi::Op::sum);
    };
    sim.run(reduce, [&](Simulation& s) {
      if (s.current_step() % config.datfile != 0) return;
      const auto snap = Diagnostics::sample_now(s);
      original->stage_diagnostics(comm.rank(), s, snap);
      openpmd->stage_diagnostics(comm.rank(), s, snap);
      openpmd->stage_checkpoint(comm.rank(), s);
      comm.barrier();
      if (comm.rank() == 0) {
        const double t = double(s.current_step()) * config.dt;
        original->flush_diagnostics(s.current_step(), t);
        openpmd->flush_diagnostics(s.current_step(), t);
        openpmd->flush_checkpoint();
      }
      comm.barrier();
    });

    const double end = comm.allreduce(
        sim.species_named("D").particles.total_weight(), smpi::Op::sum);
    if (comm.rank() == 0) neutrals_end = end;
  });
  original->close();
  openpmd->close();

  // Physics: neutrals decayed, and by roughly the rate-equation amount.
  EXPECT_LT(neutrals_end, neutrals_start);
  const double t = double(config.last_step) * config.dt;
  const double expected =
      neutrals_start * std::exp(-config.ionization_rate * t);
  EXPECT_NEAR(neutrals_end, expected, 0.1 * neutrals_start);

  // File population: original = 2/rank + input echo + globals written;
  // openPMD = exactly 6 (both series, 1 node / default aggregation).
  EXPECT_EQ(fs.store().list_recursive("openpmd_run").size(), 6u);
  EXPECT_GE(fs.store().list_recursive("original_run").size(),
            std::size_t(2 * nranks + 1));

  // Read-back: the last iteration's per-rank particle counts must sum to
  // the total electron count at the end of the run.
  pmd::Series series(fs, "openpmd_run/dat_file.bp4",
                     pmd::Access::read_only);
  const auto iterations = series.iterations();
  ASSERT_FALSE(iterations.empty());
  auto& last = series.read_iteration(iterations.back());
  const auto counts =
      last.mesh("particle_count_e").component().load<std::uint64_t>();
  ASSERT_EQ(counts.size(), std::size_t(nranks));

  // Restart every rank from the openPMD checkpoint and compare against the
  // per-rank counts recorded in the diagnostics.
  std::uint64_t restored_total = 0;
  for (int rank = 0; rank < nranks; ++rank) {
    Simulation restored(config, rank, nranks);
    Bit1OpenPmdAdaptor::restore(fs, "openpmd_run", io, restored);
    EXPECT_EQ(restored.current_step(), 60u);
    restored_total += restored.species_named("e").particles.size();
  }
  std::uint64_t diag_total = 0;
  for (auto c : counts) diag_total += c;
  EXPECT_EQ(restored_total, diag_total);
}

TEST(Integration, DarshanSeesBothPathsOfALiveRun) {
  fsim::SharedFs fs(16);
  const auto config = test_case();
  Simulation sim(config);
  sim.initialize();
  sim.run();

  picmc::Bit1SerialWriter serial(fs, "orig", 0, 1);
  serial.write_diagnostics(sim, Diagnostics::sample_now(sim));
  std::vector<std::vector<std::uint8_t>> states{picmc::save_checkpoint(sim)};
  serial.write_checkpoint(states);

  Bit1IoConfig io;
  io.ranks_per_node = 1;
  {
    Bit1OpenPmdAdaptor adaptor(fs, "pmd", io, 1);
    adaptor.stage_diagnostics(0, sim, Diagnostics::sample_now(sim));
    adaptor.flush_diagnostics(60, 6.0);
    adaptor.close();
  }

  const auto replay =
      fsim::replay_trace(fsim::dardel(), fs.store(), fs.trace(), 1);
  const auto log = darshan::capture(fs, replay, {"bit1", 1, 0.0, "/lustre"});

  // Darshan must account for at least every byte the store holds; rewrites
  // of the md.idx header count twice in the written-bytes counter, so allow
  // a small surplus.
  std::uint64_t store_bytes = 0;
  for (const auto* file : fs.store().all_files()) store_bytes += file->size;
  EXPECT_GE(log.total_bytes_written(), store_bytes);
  EXPECT_LE(log.total_bytes_written(), store_bytes + 64);

  // The original path's small-record writes dominate the call counts (the
  // footer costs one extra metadata write per container close).
  std::uint64_t original_calls = 0, openpmd_calls = 0;
  for (const auto& record : log.records) {
    if (record.path.rfind("orig", 0) == 0) original_calls += record.writes;
    if (record.path.rfind("pmd", 0) == 0) openpmd_calls += record.writes;
  }
  EXPECT_GT(original_calls, 2 * openpmd_calls);
}

TEST(Integration, SerialDmpAndOpenPmdCheckpointAgree) {
  // The same state checkpointed through both mechanisms restores
  // identically.
  fsim::SharedFs fs(8);
  const auto config = test_case();
  Simulation sim(config);
  sim.initialize();
  while (sim.current_step() < 30) sim.step();

  // Original: gathered binary .dmp.
  picmc::Bit1SerialWriter serial(fs, "orig", 0, 1);
  std::vector<std::vector<std::uint8_t>> states{picmc::save_checkpoint(sim)};
  serial.write_checkpoint(states);

  // openPMD: iteration-0 rewrite.
  Bit1IoConfig io;
  io.ranks_per_node = 1;
  {
    Bit1OpenPmdAdaptor adaptor(fs, "pmd", io, 1);
    adaptor.stage_checkpoint(0, sim);
    adaptor.flush_checkpoint();
    adaptor.close();
  }

  Simulation from_dmp(config);
  picmc::load_checkpoint(from_dmp, serial.read_checkpoint()[0]);
  Simulation from_pmd(config);
  Bit1OpenPmdAdaptor::restore(fs, "pmd", io, from_pmd);

  ASSERT_EQ(from_dmp.local_particles(), from_pmd.local_particles());
  for (std::size_t s = 0; s < sim.species_count(); ++s) {
    EXPECT_EQ(from_dmp.species(s).particles.x(),
              from_pmd.species(s).particles.x());
    EXPECT_EQ(from_dmp.species(s).particles.vz(),
              from_pmd.species(s).particles.vz());
  }
  // Both continue identically.
  from_dmp.step();
  from_pmd.step();
  EXPECT_EQ(from_dmp.species(0).particles.x(),
            from_pmd.species(0).particles.x());
}

TEST(Integration, CompressedContainerRoundTripsLiveData) {
  // Full pipeline with a real codec: live particle data -> blosc-compressed
  // BP4 chunks -> decompress on read -> bit-exact doubles.
  fsim::SharedFs fs(8);
  auto config = test_case();
  Simulation sim(config);
  sim.initialize();
  sim.run();

  Bit1IoConfig io;
  io.ranks_per_node = 1;
  io.codec = "blosc";
  {
    Bit1OpenPmdAdaptor adaptor(fs, "z", io, 1);
    adaptor.stage_checkpoint(0, sim);
    adaptor.flush_checkpoint();
    adaptor.close();
  }
  Simulation restored(config);
  Bit1OpenPmdAdaptor::restore(fs, "z", io, restored);
  for (std::size_t s = 0; s < sim.species_count(); ++s) {
    EXPECT_EQ(restored.species(s).particles.x(),
              sim.species(s).particles.x());
    EXPECT_EQ(restored.species(s).particles.w(),
              sim.species(s).particles.w());
  }
}

}  // namespace
}  // namespace bitio
