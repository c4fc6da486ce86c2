#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
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
  EXPECT_EQ(team.total_costs().flops, 20u);
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
