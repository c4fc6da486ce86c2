// Single-rank communicator: reductions are identities, point-to-point
// is an error (a single rank has no peers; same-rank halo copies bypass
// the communicator entirely).
#pragma once

#include "src/comm/communicator.hpp"

namespace minipop::comm {

class SerialComm final : public Communicator {
 public:
  int rank() const override { return 0; }
  int size() const override { return 1; }

  void allreduce(std::span<double> values, ReduceOp op) override;
  void send(int dest, int tag, std::span<const double> data) override;
  void recv(int src, int tag, std::span<double> data) override;
  void barrier() override {}
};

}  // namespace minipop::comm
