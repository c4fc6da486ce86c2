#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <functional>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "src/comm/dist_field.hpp"
#include "src/comm/dist_field_batch.hpp"
#include "src/comm/halo.hpp"
#include "src/comm/serial_comm.hpp"
#include "src/comm/thread_comm.hpp"
#include "src/grid/bathymetry.hpp"
#include "src/util/error.hpp"
#include "src/util/rng.hpp"

namespace mc = minipop::comm;
namespace mg = minipop::grid;
namespace mu = minipop::util;

TEST(SerialComm, AllreduceIsIdentityButCounted) {
  mc::SerialComm comm;
  double v[2] = {3.0, 4.0};
  comm.allreduce(std::span<double>(v, 2), mc::ReduceOp::kSum);
  EXPECT_EQ(v[0], 3.0);
  EXPECT_EQ(v[1], 4.0);
  EXPECT_EQ(comm.costs().counters().allreduces, 1u);
  EXPECT_EQ(comm.costs().counters().allreduce_doubles, 2u);
  // Nothing waits on a peer: no request, no exposed time.
  EXPECT_EQ(comm.costs().counters().requests, 0u);
  EXPECT_EQ(comm.costs().counters().exposed_comm_seconds, 0.0);
}

TEST(SerialComm, SendRecvThrow) {
  mc::SerialComm comm;
  double v = 0;
  EXPECT_THROW(comm.send(0, 0, std::span<const double>(&v, 1)), mu::Error);
  EXPECT_THROW(comm.recv(0, 0, std::span<double>(&v, 1)), mu::Error);
}

TEST(ThreadTeam, AllreduceSumAcrossRanks) {
  const int p = 6;
  mc::ThreadTeam team(p);
  std::vector<double> results(p);
  team.run([&](mc::Communicator& comm) {
    double v = comm.rank() + 1.0;
    comm.allreduce(std::span<double>(&v, 1), mc::ReduceOp::kSum);
    results[comm.rank()] = v;
  });
  for (int r = 0; r < p; ++r) EXPECT_DOUBLE_EQ(results[r], 21.0);
}

TEST(ThreadTeam, AllreduceMaxMin) {
  const int p = 4;
  mc::ThreadTeam team(p);
  std::vector<double> mx(p), mn(p);
  team.run([&](mc::Communicator& comm) {
    double v[2] = {static_cast<double>(comm.rank()),
                   static_cast<double>(-comm.rank())};
    comm.allreduce(std::span<double>(v, 1), mc::ReduceOp::kMax);
    comm.allreduce(std::span<double>(v + 1, 1), mc::ReduceOp::kMin);
    mx[comm.rank()] = v[0];
    mn[comm.rank()] = v[1];
  });
  for (int r = 0; r < p; ++r) {
    EXPECT_DOUBLE_EQ(mx[r], 3.0);
    EXPECT_DOUBLE_EQ(mn[r], -3.0);
  }
}

TEST(ThreadTeam, AllreduceDeterministicUnderArrivalJitter) {
  // Values chosen so floating-point summation order matters.
  const int p = 5;
  std::vector<double> vals = {1e16, 1.0, -1e16, 3.0, 7.0};
  double reference = 0;
  {
    mc::ThreadTeam team(p);
    std::vector<double> out(p);
    team.run([&](mc::Communicator& comm) {
      double v = vals[comm.rank()];
      comm.allreduce(std::span<double>(&v, 1), mc::ReduceOp::kSum);
      out[comm.rank()] = v;
    });
    reference = out[0];
  }
  for (int trial = 0; trial < 5; ++trial) {
    mc::ThreadTeam team(p);
    std::vector<double> out(p);
    team.run([&](mc::Communicator& comm) {
      // Randomize arrival order.
      std::this_thread::sleep_for(
          std::chrono::microseconds((comm.rank() * 7919 + trial * 104729) %
                                    500));
      double v = vals[comm.rank()];
      comm.allreduce(std::span<double>(&v, 1), mc::ReduceOp::kSum);
      out[comm.rank()] = v;
    });
    for (int r = 0; r < p; ++r)
      EXPECT_EQ(out[r], reference) << "trial " << trial << " rank " << r;
  }
}

TEST(ThreadTeam, SendRecvPointToPoint) {
  mc::ThreadTeam team(3);
  std::vector<double> got(3, -1);
  team.run([&](mc::Communicator& comm) {
    const int r = comm.rank();
    double out = 100.0 + r;
    comm.send((r + 1) % 3, 5, std::span<const double>(&out, 1));
    double in = 0;
    comm.recv((r + 2) % 3, 5, std::span<double>(&in, 1));
    got[r] = in;
  });
  EXPECT_DOUBLE_EQ(got[0], 102.0);
  EXPECT_DOUBLE_EQ(got[1], 100.0);
  EXPECT_DOUBLE_EQ(got[2], 101.0);
}

TEST(ThreadTeam, MultipleMessagesSameChannelPreserveOrder) {
  mc::ThreadTeam team(2);
  std::vector<double> got;
  team.run([&](mc::Communicator& comm) {
    if (comm.rank() == 0) {
      for (int k = 0; k < 4; ++k) {
        double v = k;
        comm.send(1, 9, std::span<const double>(&v, 1));
      }
    } else {
      got.resize(4);
      for (int k = 0; k < 4; ++k)
        comm.recv(0, 9, std::span<double>(&got[k], 1));
    }
  });
  for (int k = 0; k < 4; ++k) EXPECT_DOUBLE_EQ(got[k], k);
}

TEST(ThreadTeam, BarrierSynchronizes) {
  const int p = 4;
  mc::ThreadTeam team(p);
  std::atomic<int> before{0};
  std::vector<int> seen(p, -1);
  team.run([&](mc::Communicator& comm) {
    before.fetch_add(1);
    comm.barrier();
    seen[comm.rank()] = before.load();
  });
  for (int r = 0; r < p; ++r) EXPECT_EQ(seen[r], p);
}

TEST(ThreadTeam, ExceptionPropagatesToCaller) {
  mc::ThreadTeam team(2);
  EXPECT_THROW(team.run([&](mc::Communicator& comm) {
    if (comm.rank() == 1) MINIPOP_REQUIRE(false, "boom");
  }),
               mu::Error);
}

TEST(ThreadTeam, FailingRankPoisonsBlockedPeersInsteadOfDeadlocking) {
  // Rank 1 throws while the others sit in collectives that can never
  // complete; run() must return promptly with the ORIGINAL error.
  mc::ThreadTeam team(3);
  try {
    team.run([&](mc::Communicator& comm) {
      if (comm.rank() == 1) MINIPOP_REQUIRE(false, "original failure");
      double v = 1.0;
      comm.allreduce(std::span<double>(&v, 1), mc::ReduceOp::kSum);
    });
    FAIL() << "should have thrown";
  } catch (const mu::Error& e) {
    EXPECT_NE(std::string(e.what()).find("original failure"),
              std::string::npos)
        << "got secondary error instead: " << e.what();
  }
  // Blocked receives abort the same way.
  mc::ThreadTeam team2(2);
  EXPECT_THROW(team2.run([&](mc::Communicator& comm) {
    if (comm.rank() == 1) MINIPOP_REQUIRE(false, "recv poison");
    double v;
    comm.recv(1, 0, std::span<double>(&v, 1));  // never sent
  }),
               mu::Error);
  // And the team is reusable after a poisoned run.
  std::vector<double> out(2);
  team2.run([&](mc::Communicator& comm) {
    double v = comm.rank() + 1.0;
    comm.allreduce(std::span<double>(&v, 1), mc::ReduceOp::kSum);
    out[comm.rank()] = v;
  });
  EXPECT_DOUBLE_EQ(out[0], 3.0);
}

TEST(ThreadTeam, CostCountersPerRank) {
  mc::ThreadTeam team(2);
  team.run([&](mc::Communicator& comm) {
    double v = 1;
    comm.allreduce(std::span<double>(&v, 1), mc::ReduceOp::kSum);
    if (comm.rank() == 0) {
      double d[3] = {1, 2, 3};
      comm.send(1, 0, std::span<const double>(d, 3));
    } else {
      double d[3];
      comm.recv(0, 0, std::span<double>(d, 3));
    }
    comm.costs().add_flops(10);
  });
  EXPECT_EQ(team.costs(0).allreduces, 1u);
  EXPECT_EQ(team.costs(0).p2p_messages, 1u);
  EXPECT_EQ(team.costs(0).p2p_bytes, 24u);
  EXPECT_EQ(team.costs(1).p2p_messages, 0u);
  // A request is a call that waits on peers: the allreduce on both
  // ranks and the recv on rank 1, never the eager send.
  EXPECT_EQ(team.costs(0).requests, 1u);
  EXPECT_EQ(team.costs(1).requests, 2u);
  EXPECT_EQ(team.total_costs().flops, 20u);
}

// A receive must name the element count it expects: a mismatch with the
// sent count throws, and the message says which source and tag.
TEST(ThreadTeam, RecvSizeMismatchNamesSourceAndTag) {
  mc::ThreadTeam team(2);
  std::string what;
  team.run([&](mc::Communicator& comm) {
    if (comm.rank() == 0) {
      const double d[3] = {1, 2, 3};
      comm.send(1, 7, std::span<const double>(d, 3));
      return;
    }
    double d[2];
    try {
      comm.recv(0, 7, std::span<double>(d, 2));
    } catch (const mu::Error& e) {
      what = e.what();
    }
  });
  EXPECT_NE(what.find("recv size 2 != sent 3"), std::string::npos) << what;
  EXPECT_NE(what.find("src=0"), std::string::npos) << what;
  EXPECT_NE(what.find("tag=7"), std::string::npos) << what;
}

// An allreduce is collective in its op and its length too: a rank that
// disagrees fails the run with a mismatch error, never a wrong result or
// a hang, and run() reports that error rather than the poison it causes.
TEST(ThreadTeam, AllreduceOpOrLengthMismatchThrows) {
  const auto expect_mismatch =
      [](const std::function<void(mc::Communicator&)>& fn) {
        mc::ThreadTeam team(3);
        try {
          team.run(fn);
          ADD_FAILURE() << "mismatched allreduce did not throw";
        } catch (const mu::Error& e) {
          EXPECT_NE(std::string(e.what()).find("mismatch"),
                    std::string::npos)
              << e.what();
        }
      };
  expect_mismatch([](mc::Communicator& comm) {
    double v = 1.0;
    comm.allreduce(std::span<double>(&v, 1), comm.rank() == 1
                                                 ? mc::ReduceOp::kMax
                                                 : mc::ReduceOp::kSum);
  });
  expect_mismatch([](mc::Communicator& comm) {
    double v[2] = {1.0, 2.0};
    comm.allreduce(std::span<double>(v, comm.rank() == 2 ? 2 : 1),
                   mc::ReduceOp::kSum);
  });
}

// Messages on one (source, destination) pair are matched by tag, not by
// arrival: received in the reverse of their sending order, and with
// different lengths, each arrives under its own tag. Repeating the
// exchange reuses the receiver's payload buffers across lengths.
TEST(ThreadTeam, TagsOnOnePairMatchOutOfSendingOrder) {
  mc::ThreadTeam team(2);
  std::vector<std::vector<double>> got;
  team.run([&](mc::Communicator& comm) {
    for (int round = 0; round < 3; ++round) {
      if (comm.rank() == 0) {
        const double a[3] = {1.0 + round, 2.0, 3.0};
        const double b = 20.0 + round;
        comm.send(1, 1, std::span<const double>(a, 3));
        comm.send(1, 2, std::span<const double>(&b, 1));
      } else {
        std::vector<double> b(1), a(3);
        comm.recv(0, 2, std::span<double>(b));
        comm.recv(0, 1, std::span<double>(a));
        got.push_back(b);
        got.push_back(a);
      }
      comm.barrier();
    }
  });
  ASSERT_EQ(got.size(), 6u);
  for (int round = 0; round < 3; ++round) {
    EXPECT_EQ(got[2 * round], std::vector<double>({20.0 + round}));
    EXPECT_EQ(got[2 * round + 1],
              std::vector<double>({1.0 + round, 2.0, 3.0}));
  }
}

namespace {

/// Rank r's contribution to element k of reduction n in the stress test:
/// magnitudes spread over 60 binary orders, so the sum depends on the
/// combination order.
double stress_value(int r, int n, int k) {
  mu::SplitMix64 h(static_cast<std::uint64_t>(n) * 64 + r * 8 + k);
  const std::uint64_t bits = h.next();
  const double mantissa = static_cast<double>(bits >> 11) * 0x1.0p-53 - 0.5;
  return std::ldexp(mantissa, static_cast<int>(bits % 61) - 30);
}

}  // namespace

// Back-to-back reductions with random per-rank delays, so a fast rank
// enters reduction n+1 while a slow one has not yet read reduction n.
// Between them every rank sends to its right neighbour under a fresh tag
// epoch and collects the messages of a whole epoch window at once, in
// the reverse of their sending order. Every reduction must equal the
// fixed-order (rank 0..p-1) combination bit for bit, and every message
// must arrive under its own epoch.
TEST(ThreadTeam, StressReductionsAndEpochWindowSends) {
  constexpr int kRanks = 4;
  constexpr int kRounds = 4000;
  constexpr int kWindow = mc::Communicator::kTagEpochWindow;
  constexpr mc::ReduceOp kOps[] = {mc::ReduceOp::kSum, mc::ReduceOp::kMax,
                                   mc::ReduceOp::kMin};
  mc::ThreadTeam team(kRanks);
  std::vector<int> bad_reductions(kRanks, 0), bad_messages(kRanks, 0);
  team.run([&](mc::Communicator& comm) {
    const int r = comm.rank();
    const int right = (r + 1) % kRanks;
    const int left = (r + kRanks - 1) % kRanks;
    mu::Xoshiro256 rng(1000 + r);
    std::vector<double> v(3), ref(3), msg(4), in(4);
    int tags[kWindow];
    for (int n = 0; n < kRounds; ++n) {
      const std::size_t len = 1 + n % 3;
      const mc::ReduceOp op = kOps[(n / 3) % 3];
      for (std::size_t k = 0; k < len; ++k) {
        v[k] = stress_value(r, n, static_cast<int>(k));
        ref[k] = stress_value(0, n, static_cast<int>(k));
        for (int q = 1; q < kRanks; ++q) {
          const double c = stress_value(q, n, static_cast<int>(k));
          ref[k] = op == mc::ReduceOp::kSum ? ref[k] + c
                   : op == mc::ReduceOp::kMax ? std::max(ref[k], c)
                                              : std::min(ref[k], c);
        }
      }
      if (rng() % 4 == 0)
        std::this_thread::sleep_for(std::chrono::microseconds(rng() % 40));
      comm.allreduce(std::span<double>(v.data(), len), op);
      for (std::size_t k = 0; k < len; ++k)
        if (v[k] != ref[k]) ++bad_reductions[r];

      const int slot = n % kWindow;
      tags[slot] = comm.next_tag_epoch() * mc::Communicator::kTagEpochStride +
                   1 + slot;
      for (std::size_t k = 0; k < msg.size(); ++k) msg[k] = n + 0.25 * r;
      comm.send(right, tags[slot],
                std::span<const double>(msg.data(), 1 + slot));
      if (slot != kWindow - 1) continue;
      for (int s = kWindow - 1; s >= 0; --s) {
        comm.recv(left, tags[s], std::span<double>(in.data(), 1 + s));
        const double want = n - (kWindow - 1 - s) + 0.25 * left;
        for (int k = 0; k <= s; ++k)
          if (in[k] != want) ++bad_messages[r];
      }
    }
  });
  for (int r = 0; r < kRanks; ++r) {
    EXPECT_EQ(bad_reductions[r], 0) << "rank " << r;
    EXPECT_EQ(bad_messages[r], 0) << "rank " << r;
  }
  // Exact counts: one reduction, one send and one receive per round.
  for (int r = 0; r < kRanks; ++r) {
    EXPECT_EQ(team.costs(r).allreduces, static_cast<std::uint64_t>(kRounds));
    EXPECT_EQ(team.costs(r).p2p_messages,
              static_cast<std::uint64_t>(kRounds));
    EXPECT_EQ(team.costs(r).requests, 2u * kRounds);
  }
}

// --- DistField / halo exchange ------------------------------------------

namespace {

/// Global test pattern with unique values.
double pattern(int i, int j) { return 1 + i + 1000.0 * j; }

/// Validate every halo cell of member m of every local block of `field`
/// against the global pattern plus `shift` (0 where the halo leaves the
/// domain or enters an eliminated block).
void check_halos(const mg::Decomposition& d, const mc::DistFieldBatch& field,
                 int m = 0, double shift = 0.0) {
  const int h = field.halo();
  for (int lb = 0; lb < field.num_local_blocks(); ++lb) {
    const auto& b = field.info(lb);
    for (int j = -h; j < b.ny + h; ++j) {
      for (int i = -h; i < b.nx + h; ++i) {
        const bool interior =
            (i >= 0 && i < b.nx && j >= 0 && j < b.ny);
        if (interior) continue;
        int gi = b.i0 + i;
        const int gj = b.j0 + j;
        double expected = 0.0;
        if (gj >= 0 && gj < d.ny_global()) {
          if (d.periodic_x())
            gi = (gi % d.nx_global() + d.nx_global()) % d.nx_global();
          if (gi >= 0 && gi < d.nx_global()) {
            const int nbi = gi / d.block_nx();
            const int nbj = gj / d.block_ny();
            if (d.block_id_at(nbi, nbj) >= 0)
              expected = pattern(gi, gj) + shift;
          }
        }
        ASSERT_EQ(field.at(lb, i, j, m), expected)
            << "block (" << b.bi << "," << b.bj << ") halo cell (" << i
            << "," << j << ") member " << m;
      }
    }
  }
}

void run_halo_case(int nx, int ny, bool periodic, int bnx, int bny,
                   int nranks, int halo,
                   const mu::MaskArray* mask_in = nullptr) {
  mu::MaskArray mask = mask_in ? *mask_in : mu::MaskArray(nx, ny, 1);
  mg::Decomposition d(nx, ny, periodic, mask, bnx, bny, nranks);
  mu::Field global(nx, ny);
  for (int j = 0; j < ny; ++j)
    for (int i = 0; i < nx; ++i) global(i, j) = pattern(i, j);

  mc::HaloExchanger hx(d);
  if (nranks == 1) {
    mc::SerialComm comm;
    mc::DistField f(d, 0, halo);
    f.load_global(global);
    hx.exchange(comm, f);
    check_halos(d, f);
  } else {
    mc::ThreadTeam team(nranks);
    team.run([&](mc::Communicator& comm) {
      mc::DistField f(d, comm.rank(), halo);
      f.load_global(global);
      hx.exchange(comm, f);
      check_halos(d, f);
    });
  }
}

}  // namespace

TEST(DistField, LoadStoreRoundTrip) {
  mu::MaskArray mask(12, 8, 1);
  mg::Decomposition d(12, 8, false, mask, 4, 4, 2);
  mu::Field global(12, 8);
  for (int j = 0; j < 8; ++j)
    for (int i = 0; i < 12; ++i) global(i, j) = pattern(i, j);
  mu::Field out(12, 8, -1.0);
  for (int r = 0; r < 2; ++r) {
    mc::DistField f(d, r, 2);
    f.load_global(global);
    f.store_global(out);
  }
  for (int j = 0; j < 8; ++j)
    for (int i = 0; i < 12; ++i) EXPECT_DOUBLE_EQ(out(i, j), pattern(i, j));
}

TEST(DistField, LocalIndexLookup) {
  mu::MaskArray mask(8, 8, 1);
  mg::Decomposition d(8, 8, false, mask, 4, 4, 2);
  mc::DistField f(d, 0, 1);
  int found = 0;
  for (int id = 0; id < d.num_active_blocks(); ++id) {
    int lb = f.local_index(id);
    if (d.block(id).owner == 0) {
      EXPECT_GE(lb, 0);
      EXPECT_EQ(f.info(lb).id, id);
      ++found;
    } else {
      EXPECT_EQ(lb, -1);
    }
  }
  EXPECT_EQ(found, f.num_local_blocks());
}

TEST(Halo, SerialSingleRankClosedDomain) {
  run_halo_case(12, 9, false, 4, 3, 1, 2);
}

TEST(Halo, SerialPeriodicWrap) { run_halo_case(12, 9, true, 4, 3, 1, 2); }

TEST(Halo, SinglePeriodicBlockWrapsOntoItself) {
  run_halo_case(10, 6, true, 10, 6, 1, 2);
}

TEST(Halo, MultiRankClosed) { run_halo_case(16, 12, false, 4, 4, 4, 2); }

TEST(Halo, MultiRankPeriodic) { run_halo_case(16, 12, true, 4, 4, 5, 2); }

TEST(Halo, HaloWidthOne) { run_halo_case(16, 12, true, 4, 4, 3, 1); }

TEST(Halo, RaggedBlocks) { run_halo_case(14, 10, true, 4, 4, 3, 2); }

// Round-trips for the row-wise memcpy pack/unpack. Full-domain-width
// blocks make the N/S regions whole padded-row strips (the widest
// contiguous copies); the multi-rank periodic cases cover wrap seams and
// corner regions at both supported halo widths.
TEST(Halo, FullWidthRowStripsSerial) {
  run_halo_case(24, 12, false, 24, 3, 1, 2);
}

TEST(Halo, FullWidthRowStripsMultiRank) {
  run_halo_case(24, 12, false, 24, 3, 4, 2);
}

TEST(Halo, FullWidthRowStripsPeriodicHaloOne) {
  run_halo_case(24, 12, true, 24, 3, 4, 1);
}

TEST(Halo, OddBlocksMultiRankPeriodicHaloOne) {
  run_halo_case(21, 11, true, 7, 4, 3, 1);
}

TEST(Halo, OddBlocksMaskedMultiRankPeriodic) {
  mu::MaskArray mask(21, 11, 1);
  for (int j = 0; j < 11; ++j)
    for (int i = 0; i < 21; ++i)
      if ((i * 7 + j * 3) % 5 == 0) mask(i, j) = 0;
  run_halo_case(21, 11, true, 7, 4, 3, 2, &mask);
}

TEST(Halo, EliminatedLandBlockZeroFills) {
  mu::MaskArray mask(12, 12, 1);
  for (int j = 4; j < 8; ++j)
    for (int i = 4; i < 8; ++i) mask(i, j) = 0;  // center block all land
  run_halo_case(12, 12, false, 4, 4, 4, 2, &mask);
}

namespace {

constexpr mg::Dir kNeighbourDirs[] = {
    mg::Dir::kEast,      mg::Dir::kWest,      mg::Dir::kNorth,
    mg::Dir::kSouth,     mg::Dir::kNorthEast, mg::Dir::kNorthWest,
    mg::Dir::kSouthEast, mg::Dir::kSouthWest};

/// Ranks other than `rank` that own a neighbour of one of its blocks.
std::set<int> neighbour_ranks(const mg::Decomposition& d, int rank) {
  std::set<int> out;
  for (int id : d.blocks_of_rank(rank))
    for (mg::Dir dir : kNeighbourDirs) {
      const int nid = d.neighbor(id, dir);
      if (nid >= 0 && d.block(nid).owner != rank)
        out.insert(d.block(nid).owner);
    }
  return out;
}

/// Halo payload bytes `rank` sends per exchange of one field: the rim of
/// each of its blocks toward each neighbour owned elsewhere.
std::uint64_t payload_bytes(const mg::Decomposition& d, int rank, int h) {
  std::uint64_t cells = 0;
  for (int id : d.blocks_of_rank(rank)) {
    const auto& b = d.block(id);
    for (mg::Dir dir : kNeighbourDirs) {
      const int nid = d.neighbor(id, dir);
      if (nid < 0 || d.block(nid).owner == rank) continue;
      const auto [di, dj] = mg::kDirOffset[static_cast<int>(dir)];
      cells += static_cast<std::uint64_t>(di == 0 ? b.nx : h) *
               (dj == 0 ? b.ny : h);
    }
  }
  return cells * sizeof(double);
}

/// Writes member m of every interior cell of `field` as the global
/// pattern plus shift(m), over halos holding garbage.
template <typename Shift>
void load_pattern(mc::DistFieldBatch& field, Shift shift) {
  field.fill(-7.0);
  for (int lb = 0; lb < field.num_local_blocks(); ++lb) {
    const auto& b = field.info(lb);
    for (int m = 0; m < field.nb(); ++m)
      for (int j = 0; j < b.ny; ++j)
        for (int i = 0; i < b.nx; ++i)
          field.at(lb, i, j, m) = pattern(b.i0 + i, b.j0 + j) + shift(m);
  }
}

}  // namespace

// One message per peer rank: on a 4-rank decomposition with several
// blocks per rank, each exchange sends exactly one message to every
// neighbour rank, and the bytes — each message's strips plus, with CRC
// on, its one trailer — are what bytes_sent_per_exchange reads off the
// plan.
TEST(Halo, BytesSentAccounting) {
  constexpr int kRanks = 4;
  constexpr int kExchanges = 3;
  constexpr int kHalo = 2;
  mu::MaskArray mask(24, 16, 1);
  mg::Decomposition d(24, 16, true, mask, 4, 4, kRanks);
  std::vector<std::uint64_t> plain(kRanks);
  for (bool crc : {false, true}) {
    SCOPED_TRACE(crc ? "crc on" : "crc off");
    mc::HaloExchanger hx(d);
    hx.set_crc(crc);
    mc::ThreadTeam team(kRanks);
    std::vector<std::uint64_t> predicted(kRanks);
    team.run([&](mc::Communicator& comm) {
      mc::DistField f(d, comm.rank(), kHalo);
      predicted[comm.rank()] = hx.bytes_sent_per_exchange(f);
      for (int k = 0; k < kExchanges; ++k) hx.exchange(comm, f);
    });
    for (int r = 0; r < kRanks; ++r) {
      SCOPED_TRACE("rank " + std::to_string(r));
      ASSERT_GE(d.blocks_of_rank(r).size(), 2u);
      const std::uint64_t peers = neighbour_ranks(d, r).size();
      ASSERT_GE(peers, 2u);
      const std::uint64_t trailers = crc ? peers * sizeof(double) : 0;
      EXPECT_EQ(predicted[r], payload_bytes(d, r, kHalo) + trailers);
      if (crc) {
        EXPECT_EQ(predicted[r], plain[r] + trailers);
      }
      plain[r] = predicted[r];
      const mc::CostCounters& c = team.costs(r);
      EXPECT_EQ(c.p2p_bytes, kExchanges * predicted[r]);
      EXPECT_EQ(c.p2p_messages, kExchanges * peers);
      EXPECT_EQ(c.requests, kExchanges * peers);
      EXPECT_EQ(c.halo_exchanges, static_cast<std::uint64_t>(kExchanges));
      EXPECT_EQ(c.integrity_checks, crc ? kExchanges * peers : 0u);
    }
  }
}

// A message whose CRC trailer does not match its payload throws
// CorruptPayloadError and counts exactly one failed integrity check:
// the exchange verifies each received message once, also on the path
// that throws.
TEST(Halo, CrcMismatchCountsOneFailedCheck) {
  mu::MaskArray mask(16, 8, 1);
  mg::Decomposition d(16, 8, false, mask, 8, 8, 2);
  mc::HaloExchanger hx(d);
  hx.set_crc(true);
  mc::ThreadTeam team(2);
  bool caught = false;
  team.run([&](mc::Communicator& comm) {
    mc::DistField f(d, comm.rank());
    if (comm.rank() == 0) {
      try {
        hx.exchange(comm, f);
      } catch (const mc::CorruptPayloadError&) {
        caught = true;
      }
      return;
    }
    // Rank 1 stands in for a corrupted wire: the message rank 0 expects
    // (same size and tag) with a payload of ones and a zero trailer.
    std::vector<double> msg(hx.bytes_sent_per_exchange(f) / sizeof(double),
                            1.0);
    msg.back() = 0.0;
    const int tag =
        comm.next_tag_epoch() * mc::Communicator::kTagEpochStride + 1;
    comm.send(0, tag, std::span<const double>(msg));
  });
  EXPECT_TRUE(caught);
  EXPECT_EQ(team.costs(0).integrity_checks, 1u);
  EXPECT_EQ(team.costs(0).integrity_failures, 1u);
  EXPECT_EQ(team.costs(0).halo_exchanges, 0u);
}

// Every exchange draws a fresh tag epoch, so 3x the epoch window wraps
// the counter several times. Each exchange carries different interior
// values: a message matched to the wrong exchange would leave a stale
// halo.
TEST(SplitHalo, EpochWindowWrapsAcrossManyExchanges) {
  constexpr int kRanks = 3;
  mu::MaskArray mask(18, 18, 1);
  mg::Decomposition d(18, 18, true, mask, 6, 6, kRanks);
  mc::HaloExchanger hx(d);
  mc::ThreadTeam team(kRanks);
  team.run([&](mc::Communicator& comm) {
    mc::DistField f(d, comm.rank());
    for (int k = 0; k < 3 * mc::Communicator::kTagEpochWindow; ++k) {
      SCOPED_TRACE("exchange " + std::to_string(k));
      const auto shift = [k](int) { return 1e6 * k; };
      load_pattern(f, shift);
      hx.exchange(comm, f);
      check_halos(d, f, 0, shift(0));
    }
  });
}

// Plans are built on first use under the exchanger's lock: threads that
// look up the same (rank, width) at once all read the one plan.
TEST(Halo, ConcurrentFirstPlanLookupsAgree) {
  mu::MaskArray mask(24, 16, 1);
  mg::Decomposition d(24, 16, true, mask, 4, 4, 4);
  mc::HaloExchanger hx(d);
  const mc::DistField f(d, 0, 2);
  std::vector<std::uint64_t> bytes(4);
  std::vector<std::thread> threads;
  for (int t = 0; t < 4; ++t)
    threads.emplace_back([&, t] { bytes[t] = hx.bytes_sent_per_exchange(f); });
  for (std::thread& t : threads) t.join();
  for (std::uint64_t b : bytes) EXPECT_EQ(b, payload_bytes(d, 0, 2));
}

// One exchanger shared by every rank of a team serves every halo width
// and batch width, through exchange() and exchange_group(): the plans it
// builds on first use per (rank, width) deliver halos bitwise equal to
// the global truth, member by member and field by field.
TEST(Halo, SharedExchangerServesEveryWidthAndBatchWidth) {
  constexpr int kRanks = 4;
  mu::MaskArray mask(24, 16, 1);
  for (int j = 4; j < 8; ++j)
    for (int i = 8; i < 12; ++i) mask(i, j) = 0;  // one all-land block
  mg::Decomposition d(24, 16, true, mask, 4, 4, kRanks);
  ASSERT_EQ(d.num_land_blocks(), 1);
  mc::HaloExchanger hx(d);
  mc::ThreadTeam team(kRanks);
  team.run([&](mc::Communicator& comm) {
    for (int h : {1, 2}) {
      for (int nb : {1, 8}) {
        SCOPED_TRACE("halo " + std::to_string(h) + ", nb " +
                     std::to_string(nb));
        const auto shift = [](int k) {
          return [k](int m) { return 1e5 * m + 1e7 * k; };
        };
        mc::DistFieldBatch one(d, comm.rank(), nb, h);
        load_pattern(one, shift(0));
        hx.exchange(comm, one);
        mc::DistFieldBatch a(d, comm.rank(), nb, h);
        mc::DistFieldBatch b(d, comm.rank(), nb, h);
        load_pattern(a, shift(1));
        load_pattern(b, shift(2));
        mc::DistFieldBatch* const group[2] = {&a, &b};
        hx.exchange_group(comm, group);
        for (int m = 0; m < nb; ++m) {
          check_halos(d, one, m, shift(0)(m));
          check_halos(d, a, m, shift(1)(m));
          check_halos(d, b, m, shift(2)(m));
        }
      }
    }
  });
}
