#include "src/comm/serial_comm.hpp"

#include "src/util/error.hpp"

namespace minipop::comm {

void SerialComm::allreduce(std::span<double> values, ReduceOp /*op*/) {
  // One rank: the local values are already the reduction, but the event
  // still counts (POP performs the MPI_Allreduce regardless of size).
  // Nothing waits, so it adds no request and no exposed time.
  costs_.add_allreduce(values.size());
}

void SerialComm::send(int /*dest*/, int /*tag*/,
                      std::span<const double> /*data*/) {
  MINIPOP_REQUIRE(false, "SerialComm has no peers to send to");
}

void SerialComm::recv(int /*src*/, int /*tag*/, std::span<double> /*data*/) {
  MINIPOP_REQUIRE(false, "SerialComm has no peers to receive from");
}

}  // namespace minipop::comm
