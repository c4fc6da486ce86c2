// Threaded virtual-MPI backend: a ThreadTeam runs N ranks as threads
// sharing mailboxes for point-to-point messages and reduction "rounds"
// for deterministic global reductions.
//
// Semantics mirror the subset of MPI the solvers need:
//   * isend() is buffered/eager (never blocks, complete at post time) —
//     like MPI's eager protocol that §5 of the paper tunes via
//     MP_EAGER_LIMIT;
//   * irecv() posts a mailbox future matching (src, tag) that completes
//     when the message arrives;
//   * iallreduce() posts a full-team rendezvous round whose combination
//     order is fixed (rank 0, 1, ..., p-1) regardless of arrival order,
//     so results are bitwise reproducible for a given rank count,
//     exactly like a fixed-topology MPI reduction tree. Ranks contribute
//     at post time; requests complete once every rank has posted.
//     Collectives are matched by call ordinal, so every rank must post
//     its reductions in the same order — but several may be in flight
//     at once.
#pragma once

#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <mutex>
#include <thread>
#include <unordered_map>
#include <vector>

#include "src/comm/communicator.hpp"
#include "src/util/error.hpp"

namespace minipop::comm {

/// Thrown in ranks blocked on a rendezvous when another rank of the team
/// failed: the collective can never complete, so waiting peers abort
/// instead of deadlocking. ThreadTeam::run() rethrows the *original*
/// failure, not this secondary one.
class TeamPoisonedError : public util::Error {
 public:
  using util::Error::Error;
};

class ThreadTeam;
class ThreadReduceRequest;
class ThreadRecvRequest;

/// Communicator handed to each rank function by ThreadTeam::run().
class ThreadComm final : public Communicator {
 public:
  int rank() const override { return rank_; }
  int size() const override;

  Request iallreduce(std::span<double> values, ReduceOp op) override;
  Request isend_bytes(int dest, int tag,
                      std::span<const std::byte> data) override;
  Request irecv_bytes(int src, int tag, std::span<std::byte> data) override;
  void barrier() override;
  void resync() override;
  void declare_desync() override;

 private:
  friend class ThreadTeam;
  ThreadComm(ThreadTeam* team, int rank) : team_(team), rank_(rank) {}
  ThreadTeam* team_;
  int rank_;
};

/// Owns the shared state for one team of virtual ranks.
class ThreadTeam {
 public:
  explicit ThreadTeam(int nranks);
  ~ThreadTeam();

  ThreadTeam(const ThreadTeam&) = delete;
  ThreadTeam& operator=(const ThreadTeam&) = delete;

  int nranks() const { return nranks_; }

  /// Bound blocking receives: a recv_block that finds no message within
  /// `total_ms` throws CommTimeoutError instead of waiting forever. The
  /// wait is split into `retries` attempts with exponentially growing
  /// slices (slice, 2*slice, 4*slice, ... summing to total_ms) — the
  /// retry/backoff ladder an MPI progress loop would use. Once one rank
  /// times out the whole team is flagged: every blocked or newly posted
  /// operation on any rank throws CommTimeoutError until resync() runs
  /// collectively. total_ms <= 0 restores the default infinite wait.
  void set_recv_timeout(double total_ms, int retries = 4);

  /// Run fn(comm) on every rank concurrently; returns when all finish.
  /// If any rank throws, the first exception is rethrown here after all
  /// threads have been joined.
  void run(const std::function<void(Communicator&)>& fn);

  /// Cost counters of rank r recorded during the last run().
  const CostCounters& costs(int r) const;

  /// Sum of all ranks' counters.
  CostCounters total_costs() const;

 private:
  friend class ThreadComm;
  friend class ThreadReduceRequest;
  friend class ThreadRecvRequest;

  // Mailbox payloads are raw bytes: the team relays whatever the sender
  // packed without reinterpretation; sizes are checked in bytes.
  struct Message {
    std::vector<std::byte> data;
  };

  /// Point-to-point channel identity. A plain struct key (not a packed
  /// integer) so epoch-widened tags get the full non-negative int range.
  struct ChannelKey {
    int src;
    int dest;
    int tag;
    bool operator==(const ChannelKey&) const = default;
  };
  struct ChannelKeyHash {
    std::size_t operator()(const ChannelKey& k) const;
  };

  /// One in-flight deterministic reduction. Every rank deposits its
  /// contribution at post time; the last arriver combines in fixed rank
  /// order 0..p-1 and marks the round done. Requests hold a shared_ptr,
  /// so the team's routing map drops the round as soon as it completes.
  struct ReduceRound {
    ReduceOp op{};
    std::vector<std::vector<double>> slots;
    int arrived = 0;
    bool done = false;
    std::vector<double> result;
  };

  std::shared_ptr<ReduceRound> post_allreduce(int rank,
                                              std::span<double> values,
                                              ReduceOp op);
  bool reduce_poll(ReduceRound& round, std::span<double> out);
  void reduce_block(ReduceRound& round, std::span<double> out);

  void post_send(int src, int dest, int tag,
                 std::span<const std::byte> data);
  void post_recv(const ChannelKey& key);
  bool recv_poll(const ChannelKey& key, std::span<std::byte> out);
  void recv_block(const ChannelKey& key, std::span<std::byte> out);
  bool try_take_locked(const ChannelKey& key, std::span<std::byte> out);

  void do_barrier();
  void do_resync();

  /// Set when any rank throws: blocked peers wake up and abort instead
  /// of deadlocking in a rendezvous that can never complete.
  bool poisoned_ = false;
  void poison();
  void throw_if_poisoned() const;

  /// Set when any rank's receive timed out: the team's collective state
  /// is out of sync (ordinals, mailboxes), so every rank aborts its
  /// current operation and must rendezvous in do_resync(). Unlike
  /// poisoning this is recoverable.
  bool timed_out_ = false;
  void throw_if_timed_out() const;
  /// Raise timed_out_ from a rank that detected corruption (not a
  /// timeout) and is about to throw: peers blocked in recv/reduce/
  /// barrier waits wake via cv_ and abort with CommTimeoutError, then
  /// the whole team meets in do_resync() exactly as after a timeout.
  void declare_timeout();
  double recv_timeout_ms_ = 0.0;  ///< <= 0: wait forever (default)
  int recv_retries_ = 4;

  int nranks_;
  std::vector<std::unique_ptr<ThreadComm>> comms_;

  std::mutex mu_;
  std::condition_variable cv_;
  std::unordered_map<ChannelKey, std::deque<Message>, ChannelKeyHash>
      mailboxes_;

  // Reduction rounds routed by global call ordinal: per-rank post
  // counters stay in sync because collectives are posted in the same
  // order on every rank.
  std::unordered_map<std::uint64_t, std::shared_ptr<ReduceRound>>
      reduce_rounds_;
  std::vector<std::uint64_t> reduce_posts_;

  // Barrier state.
  int barrier_arrived_ = 0;
  std::uint64_t barrier_generation_ = 0;

  // Resync rendezvous state. The generation also stamps fault-delayed
  // deliveries: a delayed message posted before a resync is dropped when
  // it finally matures, so it cannot collide with a reused tag epoch.
  int resync_arrived_ = 0;
  std::uint64_t resync_generation_ = 0;

  // Timer threads carrying fault-delayed mailbox deliveries; joined at
  // the end of run() so no delivery outlives its team run.
  std::vector<std::thread> delayed_threads_;

#if MINIPOP_BOUNDS_CHECK
  // Tag-epoch audit: number of posted-but-uncompleted recvs per channel.
  // Posting a second recv on a channel that already has one outstanding
  // means a tag (epoch) was reused while the previous exchange was still
  // in flight — the failure the tag-epoch window exists to prevent.
  std::unordered_map<ChannelKey, int, ChannelKeyHash> outstanding_recvs_;
#endif
};

}  // namespace minipop::comm
