// Per-rank accounting of the three cost classes the paper's performance
// model distinguishes (§2.2): computation (flops), boundary updates
// (point-to-point messages and bytes), and global reductions. Solvers and
// kernels record into the tracker of their communicator; the perf module
// converts counts into modeled wall time for a given machine profile.
#pragma once

#include <cstdint>

namespace minipop::comm {

struct CostCounters {
  std::uint64_t flops = 0;
  /// Subset of `flops` spent recomputing ghost points that another rank
  /// also computes — the price of depth-k communication-avoiding sweeps
  /// (flops already includes them; this is not an additional total).
  std::uint64_t redundant_flops = 0;
  std::uint64_t p2p_messages = 0;
  std::uint64_t p2p_bytes = 0;
  std::uint64_t halo_exchanges = 0;  ///< full-field halo update rounds
  /// Field planes refreshed across all halo rounds: a DistField
  /// exchange adds 1, an aggregated nb-member batch exchange adds nb (it
  /// moves nb planes' worth of bytes in the same message count as one
  /// plane).
  /// halo_member_updates / halo_exchanges is the mean aggregation factor.
  std::uint64_t halo_member_updates = 0;
  std::uint64_t allreduces = 0;      ///< global reduction rounds
  std::uint64_t allreduce_doubles = 0;
  /// Communication calls that waited on peers: one per ThreadComm recv
  /// and allreduce. A send is eager and never waits, and SerialComm has
  /// no peers, so neither counts.
  std::uint64_t requests = 0;

  /// Land-aware sweep accounting (DESIGN.md §14): every kernel sweep
  /// records the ocean cells of the swept region (`active_points`) and
  /// the region's full padded area (`swept_points`), identically on the
  /// masked and span execution paths — the pair describes the *region*,
  /// not the instructions retired, so counter parity between the two
  /// paths is preserved. active_points / swept_points is the ocean
  /// fraction the perf model uses to price flops and bandwidth.
  std::uint64_t active_points = 0;
  std::uint64_t swept_points = 0;

  /// Integrity-layer verifications performed (halo CRC validations,
  /// ABFT operator checksums, guarded-reduction cross-checks,
  /// true-residual audits) and how many of them detected corruption.
  /// Both stay exactly zero when every IntegrityOptions knob is off —
  /// the "free when disabled" tests pin that down.
  std::uint64_t integrity_checks = 0;
  std::uint64_t integrity_failures = 0;

  /// Wall time the `requests` spent blocked waiting for peers (the
  /// message to arrive, the last rank to join the reduction): the
  /// communication the caller waited on.
  double exposed_comm_seconds = 0.0;

  CostCounters& operator+=(const CostCounters& o) {
    flops += o.flops;
    redundant_flops += o.redundant_flops;
    p2p_messages += o.p2p_messages;
    p2p_bytes += o.p2p_bytes;
    halo_exchanges += o.halo_exchanges;
    halo_member_updates += o.halo_member_updates;
    allreduces += o.allreduces;
    allreduce_doubles += o.allreduce_doubles;
    requests += o.requests;
    active_points += o.active_points;
    swept_points += o.swept_points;
    integrity_checks += o.integrity_checks;
    integrity_failures += o.integrity_failures;
    exposed_comm_seconds += o.exposed_comm_seconds;
    return *this;
  }
};

class CostTracker {
 public:
  void add_flops(std::uint64_t n) { c_.flops += n; }
  void add_redundant_flops(std::uint64_t n) { c_.redundant_flops += n; }
  void add_message(std::uint64_t bytes) {
    ++c_.p2p_messages;
    c_.p2p_bytes += bytes;
  }
  void add_halo_exchange(int members = 1) {
    ++c_.halo_exchanges;
    c_.halo_member_updates += static_cast<std::uint64_t>(members);
  }
  void add_allreduce(std::uint64_t doubles) {
    ++c_.allreduces;
    c_.allreduce_doubles += doubles;
  }
  void add_request() { ++c_.requests; }
  void add_points(std::uint64_t active, std::uint64_t swept) {
    c_.active_points += active;
    c_.swept_points += swept;
  }
  void add_integrity_check(bool failed = false) {
    ++c_.integrity_checks;
    if (failed) ++c_.integrity_failures;
  }
  void add_exposed_seconds(double s) { c_.exposed_comm_seconds += s; }

  const CostCounters& counters() const { return c_; }
  void reset() { c_ = CostCounters{}; }

  /// Difference since a snapshot; convenient for per-solve accounting.
  CostCounters since(const CostCounters& snapshot) const;

 private:
  CostCounters c_;
};

}  // namespace minipop::comm
