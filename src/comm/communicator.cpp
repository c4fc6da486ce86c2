#include "src/comm/communicator.hpp"

namespace minipop::comm {

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
