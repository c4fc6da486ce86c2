#include "src/comm/thread_comm.hpp"

#include <algorithm>
#include <chrono>
#include <exception>
#include <string>
#include <thread>
#include <utility>

#include "src/fault/fault_injector.hpp"
#include "src/util/error.hpp"

namespace minipop::comm {

namespace {
double seconds_since(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
      .count();
}
}  // namespace

// ---------------------------------------------------------------------------
// ThreadComm

int ThreadComm::size() const { return team_->nranks(); }

void ThreadComm::allreduce(std::span<double> values, ReduceOp op) {
  fault::hook_rank_stall(rank_);
  costs_.add_allreduce(values.size());
  const std::uint64_t round = team_->post_allreduce(rank_, values, op);
  costs_.add_request();
  const auto t0 = std::chrono::steady_clock::now();
  team_->reduce_block(round, values);
  costs_.add_exposed_seconds(seconds_since(t0));
}

void ThreadComm::send(int dest, int tag, std::span<const double> data) {
  costs_.add_message(data.size_bytes());
  team_->post_send(rank_, dest, tag, data);
}

void ThreadComm::recv(int src, int tag, std::span<double> data) {
  MINIPOP_REQUIRE(src >= 0 && src < size(), "recv from rank " << src);
  MINIPOP_REQUIRE(tag >= 0, "tag " << tag);
  team_->throw_if_failed();
  costs_.add_request();
  const auto t0 = std::chrono::steady_clock::now();
  team_->recv_block(src, rank_, tag, data);
  costs_.add_exposed_seconds(seconds_since(t0));
}

void ThreadComm::barrier() { team_->do_barrier(); }

void ThreadComm::declare_desync() { team_->declare_timeout(); }

void ThreadComm::resync() {
  team_->do_resync();
  // The fence wiped all queued messages, so rewinding every rank's
  // epoch counter is safe — and necessary: ranks abort a timed-out
  // exchange after different numbers of epoch draws, so the counters
  // no longer agree and post-recovery exchanges would mismatch tags.
  reset_tag_epoch();
}

// ---------------------------------------------------------------------------
// ThreadTeam

ThreadTeam::ThreadTeam(int nranks) : nranks_(nranks) {
  MINIPOP_REQUIRE(nranks >= 1, "nranks=" << nranks);
  comms_.reserve(nranks);
  for (int r = 0; r < nranks; ++r)
    comms_.push_back(std::unique_ptr<ThreadComm>(new ThreadComm(this, r)));
  inboxes_ = std::vector<Inbox>(nranks);
  for (Inbox& inbox : inboxes_) inbox.from.resize(nranks);
  for (ReduceSlot& slot : ring_) slot.parts.resize(nranks);
  reduce_posts_.assign(nranks, 0);
}

ThreadTeam::~ThreadTeam() = default;

void ThreadTeam::run(const std::function<void(Communicator&)>& fn) {
  // Fresh counters and message/reduction state per run.
  for (auto& c : comms_) c->costs().reset();
  for (Inbox& inbox : inboxes_) inbox.clear();
  reset_ring();
  barrier_arrived_ = 0;
  poisoned_ = false;
  timed_out_ = false;
  resync_arrived_ = 0;

  std::vector<std::thread> threads;
  std::vector<std::exception_ptr> errors(nranks_);
  threads.reserve(nranks_);
  for (int r = 0; r < nranks_; ++r) {
    threads.emplace_back([&, r] {
      try {
        fn(*comms_[r]);
      } catch (...) {
        errors[r] = std::current_exception();
        // Unblock peers that may be waiting on this rank forever: mark
        // the team poisoned so every blocked rendezvous aborts.
        poison();
      }
    });
  }
  for (auto& t : threads) t.join();
  // Drain fault-delayed deliveries: no timer thread may outlive the run.
  std::vector<std::thread> delayed;
  {
    std::lock_guard<std::mutex> lock(mu_);
    delayed.swap(delayed_threads_);
  }
  for (auto& t : delayed) t.join();
  // Prefer the original failure over secondary "team poisoned" aborts.
  std::exception_ptr poison_error;
  for (auto& e : errors) {
    if (!e) continue;
    try {
      std::rethrow_exception(e);
    } catch (const TeamPoisonedError&) {
      poison_error = e;
    } catch (...) {
      std::rethrow_exception(e);
    }
  }
  if (poison_error) std::rethrow_exception(poison_error);
}

void ThreadTeam::throw_if_poisoned() const {
  if (poisoned_)
    throw TeamPoisonedError("virtual-MPI team aborted: a peer rank failed");
}

void ThreadTeam::throw_if_failed() const {
  throw_if_poisoned();
  throw_if_timed_out();
}

void ThreadTeam::throw_if_timed_out() const {
  if (timed_out_)
    throw CommTimeoutError(
        "virtual-MPI team out of sync after a receive timeout; "
        "Communicator::resync() required");
}

std::vector<std::unique_lock<std::mutex>> ThreadTeam::lock_inboxes_and_ring() {
  std::vector<std::unique_lock<std::mutex>> held;
  held.reserve(inboxes_.size() + 1);
  for (Inbox& inbox : inboxes_) held.emplace_back(inbox.mu);
  held.emplace_back(ring_mu_);
  return held;
}

void ThreadTeam::raise_flag(std::atomic<bool>& flag) {
  {
    std::lock_guard<std::mutex> lock(mu_);
    const auto held = lock_inboxes_and_ring();
    flag = true;
  }
  // Every blocking wait's predicate re-checks the flags on wake, so
  // this aborts peers stuck on data the raiser will never provide; they
  // throw and meet in do_resync() (timeout) or unwind run() (poison).
  cv_.notify_all();
  for (Inbox& inbox : inboxes_) inbox.cv.notify_all();
  ring_cv_.notify_all();
}

void ThreadTeam::set_recv_timeout(double total_ms, int retries) {
  MINIPOP_REQUIRE(retries >= 1 && retries < 31, "retries " << retries);
  recv_timeout_ms_ = total_ms;
  recv_retries_ = retries;
}

void ThreadTeam::do_resync() {
  std::unique_lock<std::mutex> lock(mu_);
  throw_if_poisoned();
  const std::uint64_t my_generation = resync_generation_;
  if (++resync_arrived_ == nranks_) {
    // Last arriver wipes the failed communication epoch: queued
    // messages, the reduction ring and ordinals, the barrier count and
    // the timeout flag.
    {
      const auto held = lock_inboxes_and_ring();
      for (Inbox& inbox : inboxes_) inbox.clear();
      reset_ring();
      timed_out_ = false;
    }
    barrier_arrived_ = 0;
    resync_arrived_ = 0;
    ++resync_generation_;
    cv_.notify_all();
  } else {
    cv_.wait(lock, [&] {
      return poisoned_ || resync_generation_ != my_generation;
    });
    throw_if_poisoned();
  }
}

const CostCounters& ThreadTeam::costs(int r) const {
  MINIPOP_REQUIRE(r >= 0 && r < nranks_, "rank " << r);
  return comms_[r]->costs().counters();
}

CostCounters ThreadTeam::total_costs() const {
  CostCounters total;
  for (const auto& c : comms_) total += c->costs().counters();
  return total;
}

// ---------------------------------------------------------------------------
// Reductions

void ThreadTeam::reset_ring() {
  for (ReduceSlot& slot : ring_) slot.arrived = 0;
  rounds_done_ = 0;
  std::fill(reduce_posts_.begin(), reduce_posts_.end(), 0);
}

std::uint64_t ThreadTeam::post_allreduce(int rank,
                                         std::span<const double> values,
                                         ReduceOp op) {
  throw_if_failed();
  std::unique_lock<std::mutex> lock(ring_mu_);
  const std::uint64_t round = reduce_posts_[rank]++;
  ReduceSlot& slot = ring_[round % 2];
  if (slot.arrived == 0) slot.op = op;
  MINIPOP_REQUIRE(slot.op == op,
                  "allreduce op mismatch across ranks at collective #"
                      << round);
  slot.parts[rank].assign(values.begin(), values.end());
  if (++slot.arrived < nranks_) return round;

  // Last arriver combines in fixed rank order — deterministic result.
  std::vector<double>& acc = slot.result;
  acc.assign(slot.parts[0].begin(), slot.parts[0].end());
  for (int r = 1; r < nranks_; ++r) {
    const std::vector<double>& part = slot.parts[r];
    MINIPOP_REQUIRE(part.size() == acc.size(),
                    "allreduce size mismatch at rank " << r);
    for (std::size_t k = 0; k < acc.size(); ++k) {
      switch (op) {
        case ReduceOp::kSum: acc[k] += part[k]; break;
        case ReduceOp::kMax: acc[k] = std::max(acc[k], part[k]); break;
        case ReduceOp::kMin: acc[k] = std::min(acc[k], part[k]); break;
      }
    }
  }
  slot.arrived = 0;
  rounds_done_ = round + 1;
  lock.unlock();
  ring_cv_.notify_all();
  return round;
}

void ThreadTeam::reduce_block(std::uint64_t round, std::span<double> out) {
  std::unique_lock<std::mutex> lock(ring_mu_);
  ring_cv_.wait(lock, [&] {
    return poisoned_ || timed_out_ || rounds_done_ > round;
  });
  throw_if_poisoned();
  // A completed round is still good data even if a peer timed out
  // elsewhere; only an incomplete one can never finish.
  if (rounds_done_ <= round) throw_if_timed_out();
  const std::vector<double>& result = ring_[round % 2].result;
  std::copy(result.begin(), result.end(), out.begin());
}

// ---------------------------------------------------------------------------
// Point-to-point

void ThreadTeam::Inbox::clear() {
  for (std::vector<Message>& fifo : from) {
    for (Message& m : fifo) spare.push_back(std::move(m.data));
    fifo.clear();
  }
}

void ThreadTeam::post_send(int src, int dest, int tag,
                           std::span<const double> data) {
  MINIPOP_REQUIRE(dest >= 0 && dest < nranks_, "send to rank " << dest);
  MINIPOP_REQUIRE(tag >= 0, "tag " << tag);
  const fault::MailboxDecision fate = fault::hook_mailbox(src);
  throw_if_timed_out();
  if (!fate.fired) return deliver(src, dest, tag, data, 1);
  switch (fate.action) {
    case fault::MailboxAction::kDrop: return;
    case fault::MailboxAction::kDuplicate:
      return deliver(src, dest, tag, data, 2);
    case fault::MailboxAction::kDelay: {
      // Deliver from a timer thread. The message is stamped with the
      // current resync generation: if a resync intervenes before it
      // matures, delivery is dropped — a late message must not leak into
      // a fresh epoch whose tags it could accidentally match.
      std::lock_guard<std::mutex> lock(mu_);
      delayed_threads_.emplace_back(
          [this, src, dest, tag, generation = resync_generation_,
           delay_ms = fate.delay_ms,
           msg = std::vector<double>(data.begin(), data.end())] {
            std::this_thread::sleep_for(
                std::chrono::duration<double, std::milli>(delay_ms));
            std::lock_guard<std::mutex> inner(mu_);
            if (poisoned_ || resync_generation_ != generation) return;
            deliver(src, dest, tag, msg, 1);
          });
      return;
    }
  }
}

void ThreadTeam::deliver(int src, int dest, int tag,
                         std::span<const double> data, int copies) {
  Inbox& inbox = inboxes_[dest];
  {
    std::lock_guard<std::mutex> lock(inbox.mu);
    for (int c = 0; c < copies; ++c) {
      std::vector<double> payload;
      if (!inbox.spare.empty()) {
        payload = std::move(inbox.spare.back());
        inbox.spare.pop_back();
      }
      payload.assign(data.begin(), data.end());
      inbox.from[src].push_back(Message{tag, std::move(payload)});
    }
  }
  inbox.cv.notify_one();
}

std::optional<std::size_t> ThreadTeam::try_take_locked(
    Inbox& inbox, int src, int tag, std::span<double> out) {
  std::vector<Message>& fifo = inbox.from[src];
  const auto it = std::find_if(
      fifo.begin(), fifo.end(),
      [tag](const Message& m) { return m.tag == tag; });
  if (it == fifo.end()) return std::nullopt;
  std::vector<double> data = std::move(it->data);
  fifo.erase(it);
  const std::size_t sent = data.size();
  if (sent == out.size()) std::copy(data.begin(), data.end(), out.begin());
  inbox.spare.push_back(std::move(data));
  return sent;
}

void ThreadTeam::recv_block(int src, int dest, int tag,
                            std::span<double> out) {
  Inbox& inbox = inboxes_[dest];
  std::unique_lock<std::mutex> lock(inbox.mu);
  const std::vector<Message>& fifo = inbox.from[src];
  const auto ready = [&] {
    return poisoned_ || timed_out_ ||
           std::any_of(fifo.begin(), fifo.end(),
                       [tag](const Message& m) { return m.tag == tag; });
  };
  if (recv_timeout_ms_ <= 0.0) {
    inbox.cv.wait(lock, ready);
  } else {
    // Retry ladder with exponential backoff: attempt i waits slice*2^i,
    // the attempts summing to recv_timeout_ms_.
    const int attempts = recv_retries_;
    const double slice = recv_timeout_ms_ / ((1u << attempts) - 1);
    bool satisfied = ready();
    for (int a = 0; a < attempts && !satisfied; ++a)
      satisfied = inbox.cv.wait_for(
          lock,
          std::chrono::duration<double, std::milli>(slice * (1u << a)),
          ready);
    if (!satisfied) {
      // First observer of the timeout: flag the team so every peer
      // unwinds to the resync fence instead of waiting on collectives
      // this rank will never join. The flag takes every inbox lock, so
      // this one is released first.
      lock.unlock();
      declare_timeout();
      throw CommTimeoutError("recv timed out after " +
                             std::to_string(recv_timeout_ms_) +
                             " ms (src=" + std::to_string(src) +
                             " tag=" + std::to_string(tag) + ")");
    }
  }
  throw_if_poisoned();
  const std::optional<std::size_t> sent = try_take_locked(inbox, src, tag, out);
  if (!sent) {
    throw_if_timed_out();
    MINIPOP_REQUIRE(false, "recv woke without a matching message (src="
                               << src << " tag=" << tag << ")");
  }
  if (*sent != out.size()) {
    // A message of another size under this tag is not this receive's
    // (a stale duplicate matched by a later exchange of another width):
    // the team's message state is out of sync. As after a timeout, drop
    // the inbox lock, flag the team so every peer unwinds to the resync
    // fence, and throw the typed error recovery restarts from.
    lock.unlock();
    declare_timeout();
    throw CorruptPayloadError("recv size " + std::to_string(out.size()) +
                              " != sent " + std::to_string(*sent) +
                              " (src=" + std::to_string(src) +
                              " tag=" + std::to_string(tag) + ")");
  }
}

// ---------------------------------------------------------------------------
// Barrier

void ThreadTeam::do_barrier() {
  std::unique_lock<std::mutex> lock(mu_);
  throw_if_poisoned();
  throw_if_timed_out();
  const std::uint64_t my_generation = barrier_generation_;
  if (++barrier_arrived_ == nranks_) {
    barrier_arrived_ = 0;
    ++barrier_generation_;
    cv_.notify_all();
  } else {
    cv_.wait(lock, [&] {
      return poisoned_ || timed_out_ ||
             barrier_generation_ != my_generation;
    });
    throw_if_poisoned();
    if (barrier_generation_ == my_generation) throw_if_timed_out();
  }
}

}  // namespace minipop::comm
