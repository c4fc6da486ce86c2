// Preconditioner interface and the two baseline preconditioners.
//
// POP's production preconditioner is the simple diagonal scaling
// (paper §4, refs [29, 30]); the paper's contribution — the block-EVP
// preconditioner — lives in src/evp and implements this same interface.
// Preconditioners act block-locally on interiors (the pointwise ones
// also on interiors grown into the halo); they require and perform no
// communication.
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

  /// out_m = M^{-1} in_m over block interiors for every member (land
  /// cells map to zero), per member bit-identical to the width-1 apply
  /// on that member's plane.
  virtual void apply_batch(comm::Communicator& comm,
                           const comm::DistFieldBatch& in,
                           comm::DistFieldBatch& out) = 0;

  /// out = M^{-1} in for a single field: apply_batch at width 1.
  void apply(comm::Communicator& comm, const comm::DistField& in,
             comm::DistField& out) {
    apply_batch(comm, in, out);
  }

  /// True when out at a cell depends on `in` at that cell only, so the
  /// apply extends to interiors grown into the halo (apply_batch_ext) —
  /// what P-CSI's depth-k schedule needs (DESIGN.md §13). Block-EVP
  /// couples a whole tile and is not pointwise.
  virtual bool pointwise() const { return false; }

  /// apply_batch on the interiors grown by `ext` cells (0 <= ext <= the
  /// operator's rim and the fields' halo). Only a pointwise
  /// preconditioner takes ext > 0.
  virtual void apply_batch_ext(comm::Communicator& comm,
                               const comm::DistFieldBatch& in,
                               comm::DistFieldBatch& out, int ext);

  virtual std::string name() const = 0;
};

/// M = I (no preconditioning). Turns P-CSI into the plain CSI of [20].
class IdentityPreconditioner final : public Preconditioner {
 public:
  explicit IdentityPreconditioner(const DistOperator& op) : op_(&op) {}
  void apply_batch(comm::Communicator& comm, const comm::DistFieldBatch& in,
                   comm::DistFieldBatch& out) override {
    apply_batch_ext(comm, in, out, 0);
  }
  bool pointwise() const override { return true; }
  void apply_batch_ext(comm::Communicator& comm,
                       const comm::DistFieldBatch& in,
                       comm::DistFieldBatch& out, int ext) override;
  std::string name() const override { return "identity"; }

 private:
  const DistOperator* op_;
};

/// M = diag(A): POP's default. One op per point per application.
class DiagonalPreconditioner final : public Preconditioner {
 public:
  explicit DiagonalPreconditioner(const DistOperator& op);
  void apply_batch(comm::Communicator& comm, const comm::DistFieldBatch& in,
                   comm::DistFieldBatch& out) override {
    apply_batch_ext(comm, in, out, 0);
  }
  bool pointwise() const override { return true; }
  void apply_batch_ext(comm::Communicator& comm,
                       const comm::DistFieldBatch& in,
                       comm::DistFieldBatch& out, int ext) override;
  std::string name() const override { return "diagonal"; }

 private:
  const DistOperator* op_;
  /// Masked inverse diagonal per block, padded by the operator's rim
  /// like its coefficient planes: a ghost cell divides the same
  /// diagonal value its owner divides, so the quotients are bit-equal.
  std::vector<util::Field> inv_diag_;
};

}  // namespace minipop::solver
