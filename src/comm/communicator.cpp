#include "src/comm/communicator.hpp"

#include <chrono>
#include <exception>

namespace minipop::comm {

namespace {
double seconds_between(std::chrono::steady_clock::time_point a,
                       std::chrono::steady_clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}
}  // namespace

Request::Request(std::unique_ptr<RequestState> state, CostTracker* costs)
    : state_(std::move(state)), costs_(costs) {
  if (state_ != nullptr && costs_ != nullptr) costs_->add_request();
}

Request& Request::operator=(Request&& o) noexcept {
  if (this != &o) {
    // Assigning over an in-flight request would silently abandon it;
    // callers must complete (or move from) a request before reusing the
    // handle. A violation is a bug, not a runtime condition, so fail
    // loudly rather than risk a lost message.
    if (!done()) std::terminate();
    state_ = std::move(o.state_);
    costs_ = o.costs_;
  }
  return *this;
}

Request::~Request() {
  if (done()) return;
  // Abandonment path (see header): one non-blocking attempt, never
  // block. Swallow backend errors — destructors run during poisoned-team
  // unwinding.
  try {
    test();
  } catch (...) {
  }
  state_.reset();
}

void Request::record_completion(double exposed_seconds) {
  if (costs_ != nullptr) costs_->add_exposed_seconds(exposed_seconds);
  state_.reset();
}

bool Request::test() {
  if (done()) return true;
  if (!state_->poll()) return false;
  record_completion(0.0);
  return true;
}

void Request::wait() {
  if (done()) return;
  const auto t0 = std::chrono::steady_clock::now();
  state_->block();
  record_completion(seconds_between(t0, std::chrono::steady_clock::now()));
}

void Communicator::allreduce(std::span<double> values, ReduceOp op) {
  iallreduce(values, op).wait();
}

void Communicator::send(int dest, int tag, std::span<const double> data) {
  isend(dest, tag, data).wait();
}

void Communicator::recv(int src, int tag, std::span<double> data) {
  irecv(src, tag, data).wait();
}

double Communicator::allreduce_sum(double v) {
  allreduce(std::span<double>(&v, 1), ReduceOp::kSum);
  return v;
}

void Communicator::allreduce_sum2(double* a, double* b) {
  double buf[2] = {*a, *b};
  allreduce(std::span<double>(buf, 2), ReduceOp::kSum);
  *a = buf[0];
  *b = buf[1];
}

}  // namespace minipop::comm
