#include "src/comm/cost_tracker.hpp"

namespace minipop::comm {

CostCounters CostTracker::since(const CostCounters& snapshot) const {
  CostCounters d;
  d.flops = c_.flops - snapshot.flops;
  d.redundant_flops = c_.redundant_flops - snapshot.redundant_flops;
  d.p2p_messages = c_.p2p_messages - snapshot.p2p_messages;
  d.p2p_bytes = c_.p2p_bytes - snapshot.p2p_bytes;
  d.halo_exchanges = c_.halo_exchanges - snapshot.halo_exchanges;
  d.halo_member_updates =
      c_.halo_member_updates - snapshot.halo_member_updates;
  d.allreduces = c_.allreduces - snapshot.allreduces;
  d.allreduce_doubles = c_.allreduce_doubles - snapshot.allreduce_doubles;
  d.requests = c_.requests - snapshot.requests;
  d.active_points = c_.active_points - snapshot.active_points;
  d.swept_points = c_.swept_points - snapshot.swept_points;
  d.integrity_checks = c_.integrity_checks - snapshot.integrity_checks;
  d.integrity_failures =
      c_.integrity_failures - snapshot.integrity_failures;
  d.exposed_comm_seconds =
      c_.exposed_comm_seconds - snapshot.exposed_comm_seconds;
  return d;
}

}  // namespace minipop::comm
