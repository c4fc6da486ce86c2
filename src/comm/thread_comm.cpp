#include "src/comm/thread_comm.hpp"

#include <algorithm>
#include <chrono>
#include <exception>
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
  const auto round = team_->post_allreduce(rank_, values, op);
  costs_.add_request();
  const auto t0 = std::chrono::steady_clock::now();
  team_->reduce_block(*round, values);
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
  team_->recv_block({src, rank_, tag}, data);
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
}

ThreadTeam::~ThreadTeam() = default;

void ThreadTeam::run(const std::function<void(Communicator&)>& fn) {
  // Fresh counters and message/reduction state per run.
  for (auto& c : comms_) c->costs().reset();
  mailboxes_.clear();
  reduce_rounds_.clear();
  reduce_posts_.assign(nranks_, 0);
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

void ThreadTeam::poison() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    poisoned_ = true;
  }
  cv_.notify_all();
}

void ThreadTeam::throw_if_poisoned() const {
  if (poisoned_)
    throw TeamPoisonedError("virtual-MPI team aborted: a peer rank failed");
}

void ThreadTeam::throw_if_failed() {
  std::lock_guard<std::mutex> lock(mu_);
  throw_if_poisoned();
  throw_if_timed_out();
}

void ThreadTeam::throw_if_timed_out() const {
  if (timed_out_)
    throw CommTimeoutError(
        "virtual-MPI team out of sync after a receive timeout; "
        "Communicator::resync() required");
}

void ThreadTeam::declare_timeout() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    timed_out_ = true;
  }
  // Every blocking wait's predicate re-checks timed_out_ on wake, so
  // this is enough to abort peers stuck on data the declarer will never
  // provide; they throw CommTimeoutError and meet us in do_resync().
  cv_.notify_all();
}

void ThreadTeam::set_recv_timeout(double total_ms, int retries) {
  MINIPOP_REQUIRE(retries >= 1 && retries < 31, "retries " << retries);
  std::lock_guard<std::mutex> lock(mu_);
  recv_timeout_ms_ = total_ms;
  recv_retries_ = retries;
}

void ThreadTeam::do_resync() {
  std::unique_lock<std::mutex> lock(mu_);
  throw_if_poisoned();
  const std::uint64_t my_generation = resync_generation_;
  if (++resync_arrived_ == nranks_) {
    // Last arriver wipes the failed communication epoch: queued and
    // in-flight messages, reduction rounds and ordinals, the barrier
    // count and the timeout flag.
    mailboxes_.clear();
    reduce_rounds_.clear();
    std::fill(reduce_posts_.begin(), reduce_posts_.end(), 0);
    barrier_arrived_ = 0;
    timed_out_ = false;
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

std::size_t ThreadTeam::ChannelKeyHash::operator()(
    const ChannelKey& k) const {
  std::uint64_t h = static_cast<std::uint32_t>(k.src);
  h = h * 0x9e3779b97f4a7c15ULL + static_cast<std::uint32_t>(k.dest);
  h = h * 0x9e3779b97f4a7c15ULL + static_cast<std::uint32_t>(k.tag);
  h ^= h >> 32;
  return static_cast<std::size_t>(h);
}

// ---------------------------------------------------------------------------
// Reductions

std::shared_ptr<ThreadTeam::ReduceRound> ThreadTeam::post_allreduce(
    int rank, std::span<double> values, ReduceOp op) {
  std::unique_lock<std::mutex> lock(mu_);
  throw_if_poisoned();
  throw_if_timed_out();
  const std::uint64_t ordinal = reduce_posts_[rank]++;
  auto [it, inserted] = reduce_rounds_.try_emplace(ordinal);
  if (inserted) {
    it->second = std::make_shared<ReduceRound>();
    it->second->op = op;
    it->second->slots.resize(nranks_);
  }
  std::shared_ptr<ReduceRound> round = it->second;
  MINIPOP_REQUIRE(round->op == op,
                  "allreduce op mismatch across ranks at collective #"
                      << ordinal);
  round->slots[rank].assign(values.begin(), values.end());
  if (++round->arrived == nranks_) {
    // Last arriver combines in fixed rank order — deterministic result.
    round->result = round->slots[0];
    for (int r = 1; r < nranks_; ++r) {
      MINIPOP_REQUIRE(round->slots[r].size() == round->result.size(),
                      "allreduce size mismatch at rank " << r);
      for (std::size_t k = 0; k < round->result.size(); ++k) {
        switch (round->op) {
          case ReduceOp::kSum: round->result[k] += round->slots[r][k]; break;
          case ReduceOp::kMax:
            round->result[k] =
                std::max(round->result[k], round->slots[r][k]);
            break;
          case ReduceOp::kMin:
            round->result[k] =
                std::min(round->result[k], round->slots[r][k]);
            break;
        }
      }
    }
    round->done = true;
    // Every rank has arrived by now, so nothing routes to this ordinal
    // again; waiting ranks keep the round alive through their shared_ptr.
    reduce_rounds_.erase(ordinal);
    lock.unlock();
    cv_.notify_all();
  }
  return round;
}

void ThreadTeam::reduce_block(ReduceRound& round, std::span<double> out) {
  std::unique_lock<std::mutex> lock(mu_);
  cv_.wait(lock, [&] { return poisoned_ || timed_out_ || round.done; });
  throw_if_poisoned();
  // A completed round is still good data even if a peer timed out
  // elsewhere; only an incomplete one can never finish.
  if (!round.done) throw_if_timed_out();
  std::copy(round.result.begin(), round.result.end(), out.begin());
}

// ---------------------------------------------------------------------------
// Point-to-point

void ThreadTeam::post_send(int src, int dest, int tag,
                           std::span<const double> data) {
  MINIPOP_REQUIRE(dest >= 0 && dest < nranks_, "send to rank " << dest);
  MINIPOP_REQUIRE(tag >= 0, "tag " << tag);
  const ChannelKey key{src, dest, tag};
  const fault::MailboxDecision fate = fault::hook_mailbox(src);
  {
    std::lock_guard<std::mutex> lock(mu_);
    throw_if_timed_out();
    if (fate.fired && fate.action == fault::MailboxAction::kDrop) return;
    if (fate.fired && fate.action == fault::MailboxAction::kDelay) {
      // Deliver from a timer thread. The message is stamped with the
      // current resync generation: if a resync intervenes before it
      // matures, delivery is dropped — a late message must not leak into
      // a fresh epoch whose tags it could accidentally match.
      const std::uint64_t generation = resync_generation_;
      Message msg{std::vector<double>(data.begin(), data.end())};
      delayed_threads_.emplace_back(
          [this, key, generation, delay_ms = fate.delay_ms,
           msg = std::move(msg)]() mutable {
            std::this_thread::sleep_for(
                std::chrono::duration<double, std::milli>(delay_ms));
            {
              std::lock_guard<std::mutex> inner(mu_);
              if (poisoned_ || resync_generation_ != generation) return;
              mailboxes_[key].push_back(std::move(msg));
            }
            cv_.notify_all();
          });
      return;
    }
    const int copies =
        (fate.fired && fate.action == fault::MailboxAction::kDuplicate) ? 2
                                                                        : 1;
    for (int c = 0; c < copies; ++c)
      mailboxes_[key].push_back(
          Message{std::vector<double>(data.begin(), data.end())});
  }
  cv_.notify_all();
}

bool ThreadTeam::try_take_locked(const ChannelKey& key,
                                 std::span<double> out) {
  auto it = mailboxes_.find(key);
  if (it == mailboxes_.end() || it->second.empty()) return false;
  Message msg = std::move(it->second.front());
  it->second.pop_front();
  MINIPOP_REQUIRE(msg.data.size() == out.size(),
                  "recv size " << out.size() << " != sent "
                               << msg.data.size() << " (src=" << key.src
                               << " tag=" << key.tag << ")");
  std::copy(msg.data.begin(), msg.data.end(), out.begin());
  return true;
}

void ThreadTeam::recv_block(const ChannelKey& key, std::span<double> out) {
  std::unique_lock<std::mutex> lock(mu_);
  const auto ready = [&] {
    if (poisoned_ || timed_out_) return true;
    auto it = mailboxes_.find(key);
    return it != mailboxes_.end() && !it->second.empty();
  };
  if (recv_timeout_ms_ <= 0.0) {
    cv_.wait(lock, ready);
  } else {
    // Retry ladder with exponential backoff: attempt i waits slice*2^i,
    // the attempts summing to recv_timeout_ms_.
    const int attempts = recv_retries_;
    const double slice = recv_timeout_ms_ / ((1u << attempts) - 1);
    bool satisfied = ready();
    for (int a = 0; a < attempts && !satisfied; ++a)
      satisfied = cv_.wait_for(
          lock,
          std::chrono::duration<double, std::milli>(slice * (1u << a)),
          ready);
    if (!satisfied) {
      // First observer of the timeout: flag the team so every peer
      // unwinds to the resync fence instead of waiting on collectives
      // this rank will never join.
      timed_out_ = true;
      lock.unlock();
      cv_.notify_all();
      throw CommTimeoutError("recv timed out after " +
                             std::to_string(recv_timeout_ms_) +
                             " ms (src=" + std::to_string(key.src) +
                             " tag=" + std::to_string(key.tag) + ")");
    }
  }
  throw_if_poisoned();
  if (!try_take_locked(key, out)) {
    throw_if_timed_out();
    MINIPOP_REQUIRE(false, "recv woke without a matching message (src="
                               << key.src << " tag=" << key.tag << ")");
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
