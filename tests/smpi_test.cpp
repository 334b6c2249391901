// Unit tests for the simulated MPI subset: collectives have exact MPI
// semantics and are deterministic regardless of thread scheduling.
#include <gtest/gtest.h>

#include <atomic>
#include <numeric>

#include "smpi/comm.hpp"

namespace bitio::smpi {
namespace {

TEST(Smpi, SelfCommIsSerial) {
  Comm comm = Comm::self();
  EXPECT_EQ(comm.rank(), 0);
  EXPECT_EQ(comm.size(), 1);
  EXPECT_EQ(comm.allreduce(5, Op::sum), 5);
  EXPECT_EQ(comm.exscan(7), 0);
  EXPECT_EQ(comm.allgather(3.5), std::vector<double>{3.5});
}

TEST(Smpi, AllreduceSumMinMax) {
  run_spmd(8, [](Comm& comm) {
    const int r = comm.rank();
    EXPECT_EQ(comm.allreduce(r, Op::sum), 28);
    EXPECT_EQ(comm.allreduce(r, Op::min), 0);
    EXPECT_EQ(comm.allreduce(r, Op::max), 7);
    EXPECT_DOUBLE_EQ(comm.allreduce(double(r) * 0.5, Op::sum), 14.0);
  });
}

TEST(Smpi, ExscanComputesOffsets) {
  // The exact pattern the openPMD adaptor uses: each rank contributes its
  // local extent; exscan yields its offset in the global array.
  run_spmd(6, [](Comm& comm) {
    const std::uint64_t local = std::uint64_t(comm.rank() + 1) * 10;
    const std::uint64_t offset = comm.exscan(local);
    // offset = 10+20+...+rank*10
    std::uint64_t expect = 0;
    for (int r = 0; r < comm.rank(); ++r) expect += std::uint64_t(r + 1) * 10;
    EXPECT_EQ(offset, expect);
  });
}

TEST(Smpi, AllgatherOrdersByRank) {
  run_spmd(5, [](Comm& comm) {
    const auto all = comm.allgather(comm.rank() * comm.rank());
    ASSERT_EQ(all.size(), 5u);
    for (int r = 0; r < 5; ++r) EXPECT_EQ(all[std::size_t(r)], r * r);
  });
}

TEST(Smpi, GatherOnlyAtRoot) {
  run_spmd(4, [](Comm& comm) {
    const auto at_root = comm.gather(comm.rank() + 100, 2);
    if (comm.rank() == 2) {
      ASSERT_EQ(at_root.size(), 4u);
      EXPECT_EQ(at_root[0], 100);
      EXPECT_EQ(at_root[3], 103);
    } else {
      EXPECT_TRUE(at_root.empty());
    }
  });
}

TEST(Smpi, Broadcast) {
  run_spmd(7, [](Comm& comm) {
    const double v = comm.bcast(comm.rank() == 3 ? 2.75 : -1.0, 3);
    EXPECT_DOUBLE_EQ(v, 2.75);
  });
}

TEST(Smpi, GathervBytesVariableSizes) {
  run_spmd(4, [](Comm& comm) {
    // Rank r contributes r bytes of value r (rank 0 contributes none).
    std::vector<std::byte> local(std::size_t(comm.rank()),
                                 std::byte(comm.rank()));
    const auto gathered = comm.gatherv_bytes(local, 0);
    if (comm.rank() == 0) {
      ASSERT_EQ(gathered.size(), 4u);
      for (int r = 0; r < 4; ++r) {
        EXPECT_EQ(gathered[std::size_t(r)].size(), std::size_t(r));
        for (auto b : gathered[std::size_t(r)])
          EXPECT_EQ(int(b), r);
      }
    } else {
      EXPECT_TRUE(gathered.empty());
    }
  });
}

TEST(Smpi, SendRecvPreservesOrder) {
  run_spmd(2, [](Comm& comm) {
    if (comm.rank() == 0) {
      for (int i = 0; i < 10; ++i) {
        std::vector<std::byte> msg{std::byte(i)};
        comm.send(1, msg);
      }
    } else {
      for (int i = 0; i < 10; ++i) {
        const auto msg = comm.recv(0);
        ASSERT_EQ(msg.size(), 1u);
        EXPECT_EQ(int(msg[0]), i);
      }
    }
  });
}

TEST(Smpi, BarrierIsReusable) {
  std::atomic<int> counter{0};
  run_spmd(4, [&](Comm& comm) {
    for (int iter = 0; iter < 50; ++iter) {
      if (comm.rank() == 0) counter.fetch_add(1);
      comm.barrier();
      EXPECT_EQ(counter.load(), iter + 1);
      comm.barrier();
    }
  });
}

TEST(Smpi, CollectivesInterleaveSafely) {
  // Back-to-back different collectives must not corrupt each other's slots.
  run_spmd(8, [](Comm& comm) {
    for (int iter = 0; iter < 20; ++iter) {
      const int sum = comm.allreduce(1, Op::sum);
      const auto all = comm.allgather(comm.rank() + iter);
      const int offset = comm.exscan(2);
      EXPECT_EQ(sum, 8);
      EXPECT_EQ(all[3], 3 + iter);
      EXPECT_EQ(offset, comm.rank() * 2);
    }
  });
}

TEST(Smpi, RankExceptionPropagates) {
  EXPECT_THROW(
      run_spmd(1, [](Comm&) { throw UsageError("rank failure"); }),
      UsageError);
}

TEST(Smpi, RejectsBadWorldAndRanks) {
  EXPECT_THROW(run_spmd(0, [](Comm&) {}), UsageError);
  run_spmd(2, [](Comm& comm) {
    if (comm.rank() == 0) {
      std::vector<std::byte> msg{std::byte(1)};
      EXPECT_THROW(comm.send(5, msg), UsageError);
      EXPECT_THROW(comm.recv(-1), UsageError);
    }
  });
}

// --- ULFM-style failure semantics -------------------------------------------

TEST(SmpiUlfm, BarrierRaisesTypedErrorOnRankFailure) {
  // The victim dies; every survivor's barrier raises RankFailedError — no
  // rank hangs, no rank sees a different error type.
  std::atomic<int> typed{0};
  run_spmd(4, [&](Comm& comm) {
    if (comm.rank() == 3) {
      comm.mark_self_failed();
      return;
    }
    try {
      while (true) comm.barrier();
    } catch (const RankFailedError&) {
      typed.fetch_add(1);
    }
  });
  EXPECT_EQ(typed.load(), 3);
}

TEST(SmpiUlfm, EveryCollectivePathObservesMidRunFailure) {
  // Stress the whole collective surface: survivors loop the operation while
  // the victim participates for a few rounds and then dies mid-run.  Every
  // survivor must get RankFailedError from whichever call it is in.
  enum class Path { barrier, allreduce, exscan, allgather, gatherv };
  for (const Path path : {Path::barrier, Path::allreduce, Path::exscan,
                          Path::allgather, Path::gatherv}) {
    std::atomic<int> typed{0};
    run_spmd(4, [&](Comm& comm) {
      auto op = [&] {
        switch (path) {
          case Path::barrier: comm.barrier(); break;
          case Path::allreduce: comm.allreduce(comm.rank(), Op::sum); break;
          case Path::exscan: comm.exscan(1); break;
          case Path::allgather: comm.allgather(comm.rank()); break;
          case Path::gatherv: {
            std::vector<std::byte> local(3, std::byte(comm.rank()));
            comm.gatherv_bytes(local, 0);
            break;
          }
        }
      };
      if (comm.rank() == 2) {
        for (int i = 0; i < 5; ++i) op();
        comm.mark_self_failed();
        return;
      }
      try {
        while (true) op();
      } catch (const RankFailedError&) {
        typed.fetch_add(1);
      }
    });
    EXPECT_EQ(typed.load(), 3) << "path " << int(path);
  }
}

TEST(SmpiUlfm, SendRecvObservesPeerFailure) {
  // Queued messages from a now-dead peer still deliver; the recv *after*
  // the queue drains raises RankFailedError instead of hanging.
  std::atomic<int> typed{0};
  run_spmd(2, [&](Comm& comm) {
    if (comm.rank() == 1) {
      for (int i = 0; i < 3; ++i) {
        std::vector<std::byte> msg{std::byte(i)};
        comm.send(0, msg);
      }
      comm.mark_self_failed();
      return;
    }
    for (int i = 0; i < 3; ++i) {
      const auto msg = comm.recv(1);
      ASSERT_EQ(msg.size(), 1u);
      EXPECT_EQ(int(msg[0]), i);
    }
    try {
      comm.recv(1);
    } catch (const RankFailedError&) {
      typed.fetch_add(1);
    }
  });
  EXPECT_EQ(typed.load(), 1);
}

TEST(SmpiUlfm, RevokePoisonsEveryRank) {
  std::atomic<int> typed{0};
  run_spmd(3, [&](Comm& comm) {
    if (comm.rank() == 0) comm.revoke();
    try {
      while (true) comm.barrier();
    } catch (const RankFailedError&) {
      typed.fetch_add(1);
    }
    EXPECT_TRUE(comm.revoked());
  });
  EXPECT_EQ(typed.load(), 3);
}

TEST(SmpiUlfm, AgreeAndShrinkRebuildDenseCommunicator) {
  run_spmd(4, [](Comm& comm) {
    if (comm.rank() == 1) {
      comm.mark_self_failed();
      return;
    }
    try {
      while (true) comm.barrier();
    } catch (const RankFailedError&) {
    }
    // ULFM recovery sequence on the survivors.
    EXPECT_TRUE(comm.agree(true));
    EXPECT_EQ(comm.alive_count(), 3);
    EXPECT_EQ(comm.failed_ranks(), std::vector<int>{1});
    Comm next = comm.shrink();
    EXPECT_EQ(next.size(), 3);
    // Dense renumbering in ascending old-rank order: 0,2,3 -> 0,1,2.
    const auto olds = next.allgather(comm.rank());
    EXPECT_EQ(olds, (std::vector<int>{0, 2, 3}));
    // The shrunken communicator is fully functional.
    EXPECT_EQ(next.allreduce(1, Op::sum), 3);
    next.barrier();
  });
}

TEST(SmpiUlfm, AgreeIsAndConsensusOverSurvivors) {
  run_spmd(3, [](Comm& comm) {
    // One survivor votes false: everyone must learn false.
    EXPECT_FALSE(comm.agree(comm.rank() != 2));
    // All-true round returns true.
    EXPECT_TRUE(comm.agree(true));
  });
}

TEST(SmpiUlfm, SupervisedRunShrinksAndReenters) {
  std::atomic<int> recovered_entries{0};
  const auto report = run_spmd_supervised(4, [&](Comm& comm,
                                                 RecoveryContext& ctx) {
    if (!ctx.recovered && ctx.original_rank == 2)
      throw RankFailure(comm.rank(), "injected crash");
    for (int i = 0; i < 3; ++i) comm.barrier();
    if (ctx.recovered) {
      recovered_entries.fetch_add(1);
      EXPECT_EQ(comm.size(), 3);
      EXPECT_EQ(ctx.generation, 1);
      EXPECT_EQ(ctx.original_size, 4);
      EXPECT_EQ(ctx.failed_ranks, std::vector<int>{2});
      EXPECT_EQ(comm.allreduce(1, Op::sum), 3);
    }
  });
  EXPECT_EQ(recovered_entries.load(), 3);
  EXPECT_EQ(report.recoveries, 1);
  EXPECT_EQ(report.final_size, 3);
  EXPECT_EQ(report.crashed_ranks, std::vector<int>{2});
}

TEST(SmpiUlfm, SupervisedRunWithoutFailuresIsPlain) {
  const auto report = run_spmd_supervised(3, [](Comm& comm,
                                                RecoveryContext& ctx) {
    EXPECT_FALSE(ctx.recovered);
    EXPECT_EQ(ctx.generation, 0);
    comm.barrier();
  });
  EXPECT_EQ(report.recoveries, 0);
  EXPECT_EQ(report.final_size, 3);
  EXPECT_TRUE(report.crashed_ranks.empty());
}

TEST(SmpiUlfm, SupervisedRunExhaustsRecoveryBudget) {
  // max_recoveries = 0 is the "abort" policy: the survivors' typed error
  // becomes the run error instead of triggering a shrink.
  EXPECT_THROW(
      run_spmd_supervised(
          3,
          [](Comm& comm, RecoveryContext& ctx) {
            if (ctx.original_rank == 1)
              throw RankFailure(comm.rank(), "crash");
            comm.barrier();
          },
          0),
      RankFailedError);
}

}  // namespace
}  // namespace bitio::smpi
