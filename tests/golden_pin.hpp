// Golden-pin format shared by the pin tables (test_golden_pins.cpp,
// test_span_plan.cpp): what a pin records about one solve (and the
// integer cost counters of the solve and of its set-up), and the
// lookup-and-compare step. To print the measured rows of a table for a
// deliberate change instead of checking them, run the tests with
//   MINIPOP_PRINT_PINS=1
// and paste the printed rows over the table.
#pragma once

#include <gtest/gtest.h>

#include <array>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "src/comm/cost_tracker.hpp"
#include "src/solver/iterative_solver.hpp"
#include "src/util/array2d.hpp"
#include "src/util/crc32c.hpp"

namespace minipop::test {

/// The integer fields of a comm::CostCounters, in declaration order
/// (the wall-time fields vary run to run and are not pinned).
using PinCounts = std::array<std::uint64_t, 13>;
inline constexpr const char* kPinCountNames[] = {
    "flops",          "redundant_flops",    "p2p_messages",
    "p2p_bytes",      "halo_exchanges",     "halo_member_updates",
    "allreduces",     "allreduce_doubles",  "requests",
    "active_points",  "swept_points",       "integrity_checks",
    "integrity_failures"};

inline PinCounts counts_of(const comm::CostCounters& c) {
  return {c.flops,          c.redundant_flops,   c.p2p_messages,
          c.p2p_bytes,      c.halo_exchanges,    c.halo_member_updates,
          c.allreduces,     c.allreduce_doubles, c.requests,
          c.active_points,  c.swept_points,      c.integrity_checks,
          c.integrity_failures};
}

/// What a pin records about one solve.
struct Pin {
  const char* label;
  int iterations;
  std::uint64_t rel_bits;  ///< bit pattern of relative_residual
  int history_len;
  std::uint32_t history_crc;  ///< CRC32C of the (iteration, rel) pairs
  std::uint32_t solution_crc;  ///< CRC32C of the gathered solution
  int refine_sweeps;
  PinCounts solve;  ///< rank 0's SolveStats::costs
  /// Rank 0's counters over the solver's set-up (the Lanczos estimate
  /// for P-CSI; zero where the set-up communicates and sweeps nothing).
  PinCounts setup;
};

inline std::uint64_t bits_of(double v) {
  std::uint64_t b;
  std::memcpy(&b, &v, sizeof(b));
  return b;
}

inline std::uint32_t history_crc(
    const std::vector<std::pair<int, double>>& h) {
  std::uint32_t s = util::kCrc32cInit;
  for (const auto& [k, rel] : h) {
    const std::int32_t k32 = k;
    s = util::crc32c_update(s, &k32, sizeof(k32));
    s = util::crc32c_update(s, &rel, sizeof(rel));
  }
  return util::crc32c_final(s);
}

/// Reduce one solve (rank 0's stats, the gathered global solution and
/// rank 0's set-up counters) to a pin.
inline Pin make_pin(const char* label, const solver::SolveStats& stats,
                    const util::Field& x_global,
                    const comm::CostCounters& setup) {
  Pin pin{};
  pin.label = label;
  pin.iterations = stats.iterations;
  pin.rel_bits = bits_of(stats.relative_residual);
  pin.history_len = static_cast<int>(stats.residual_history.size());
  pin.history_crc = history_crc(stats.residual_history);
  pin.solution_crc =
      util::crc32c(x_global.data(), x_global.size() * sizeof(double));
  pin.refine_sweeps = stats.refine_sweeps;
  pin.solve = counts_of(stats.costs);
  pin.setup = counts_of(setup);
  return pin;
}

inline void print_counts(const PinCounts& c, const char* tail) {
  std::printf("     {");
  for (std::size_t i = 0; i < c.size(); ++i)
    std::printf("%s%llu", i ? ", " : "",
                static_cast<unsigned long long>(c[i]));
  std::printf("}%s\n", tail);
}

inline void expect_counts(const char* what, const PinCounts& got,
                          const PinCounts& want) {
  for (std::size_t i = 0; i < got.size(); ++i)
    EXPECT_EQ(got[i], want[i]) << what << "." << kPinCountNames[i];
}

/// Compare `got` with the row of `table` carrying its label (or print
/// it in table syntax under MINIPOP_PRINT_PINS).
inline void check_pin(const Pin& got, std::span<const Pin> table) {
  if (std::getenv("MINIPOP_PRINT_PINS") != nullptr) {
    std::printf("    {\"%s\", %d, 0x%016llxull, %d, 0x%08xu, 0x%08xu, %d,\n",
                got.label, got.iterations,
                static_cast<unsigned long long>(got.rel_bits),
                got.history_len, got.history_crc, got.solution_crc,
                got.refine_sweeps);
    print_counts(got.solve, ",");
    print_counts(got.setup, "},");
    return;
  }
  const Pin* want = nullptr;
  for (const Pin& p : table)
    if (std::string(p.label) == got.label) want = &p;
  ASSERT_NE(want, nullptr) << "no pin for " << got.label;
  SCOPED_TRACE(got.label);
  EXPECT_GT(got.history_len, 0);
  EXPECT_EQ(got.iterations, want->iterations);
  EXPECT_EQ(got.rel_bits, want->rel_bits);
  EXPECT_EQ(got.history_len, want->history_len);
  EXPECT_EQ(got.history_crc, want->history_crc);
  EXPECT_EQ(got.solution_crc, want->solution_crc);
  EXPECT_EQ(got.refine_sweeps, want->refine_sweeps);
  expect_counts("solve", got.solve, want->solve);
  expect_counts("setup", got.setup, want->setup);
}

}  // namespace minipop::test
