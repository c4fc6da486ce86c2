// Preconditioner interface and the two baseline preconditioners.
//
// POP's production preconditioner is the simple diagonal scaling
// (paper §4, refs [29, 30]); the paper's contribution — the block-EVP
// preconditioner — lives in src/evp and implements this same interface.
// Preconditioners act block-locally on interiors; they require and
// perform no communication.
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "src/comm/communicator.hpp"
#include "src/comm/dist_field.hpp"
#include "src/comm/dist_field_batch.hpp"
#include "src/solver/dist_operator.hpp"

namespace minipop::solver {

class Preconditioner {
 public:
  virtual ~Preconditioner() = default;

  /// out = M^{-1} in over block interiors (land cells map to zero).
  virtual void apply(comm::Communicator& comm, const comm::DistField& in,
                     comm::DistField& out) = 0;

  /// Batched multi-RHS apply: out_m = M^{-1} in_m for every member,
  /// per member bit-identical to apply() on that member's plane.
  virtual void apply_batch(comm::Communicator& comm,
                           const comm::DistFieldBatch& in,
                           comm::DistFieldBatch& out) = 0;

  /// fp32 batched apply — the preconditioner step of the fp32 and mixed
  /// inner solves, from a lazily-built float copy of the setup data.
  virtual void apply_batch(comm::Communicator& comm,
                           const comm::DistFieldBatch32& in,
                           comm::DistFieldBatch32& out) = 0;

  virtual std::string name() const = 0;
};

/// M = I (no preconditioning). Turns P-CSI into the plain CSI of [20].
class IdentityPreconditioner final : public Preconditioner {
 public:
  explicit IdentityPreconditioner(const DistOperator& op) : op_(&op) {}
  void apply(comm::Communicator& comm, const comm::DistField& in,
             comm::DistField& out) override;
  void apply_batch(comm::Communicator& comm, const comm::DistFieldBatch& in,
                   comm::DistFieldBatch& out) override;
  void apply_batch(comm::Communicator& comm,
                   const comm::DistFieldBatch32& in,
                   comm::DistFieldBatch32& out) override;
  std::string name() const override { return "identity"; }

 private:
  const DistOperator* op_;
};

/// M = diag(A): POP's default. One op per point per application.
class DiagonalPreconditioner final : public Preconditioner {
 public:
  explicit DiagonalPreconditioner(const DistOperator& op);
  void apply(comm::Communicator& comm, const comm::DistField& in,
             comm::DistField& out) override;
  void apply_batch(comm::Communicator& comm, const comm::DistFieldBatch& in,
                   comm::DistFieldBatch& out) override;
  void apply_batch(comm::Communicator& comm,
                   const comm::DistFieldBatch32& in,
                   comm::DistFieldBatch32& out) override;
  std::string name() const override { return "diagonal"; }

 private:
  void ensure_inv_diag32();

  const DistOperator* op_;
  std::vector<util::Field> inv_diag_;  ///< masked inverse diagonal per block
  /// float mirror of inv_diag_, built on first fp32 apply (each inverse
  /// is rounded from the double one, not recomputed in float).
  std::vector<util::Array2D<float>> inv_diag32_;
};

}  // namespace minipop::solver
