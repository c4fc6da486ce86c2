#include "src/solver/integrity.hpp"

#include <algorithm>
#include <cmath>
#include <cstring>

#include "src/fault/fault_injector.hpp"
#include "src/util/error.hpp"

namespace minipop::solver {

bool allreduce_sum_guarded(comm::Communicator& comm,
                           const IntegrityOptions& integrity,
                           std::span<double> values, std::vector<int>* bad) {
  if (!integrity.guarded_reductions) {
    // The fault hook arms either way: with the guard off an injected
    // contribution corruption flows into the reduced value undetected —
    // the vulnerability the guard exists to close.
    fault::hook_reduction_corrupt(comm.rank(), values.data(),
                                  values.size());
    comm.allreduce(values, comm::ReduceOp::kSum);
    return false;
  }
  const std::size_t n = values.size();
  std::vector<double> dup(2 * n);
  std::copy(values.begin(), values.end(), dup.begin());
  std::copy(values.begin(), values.end(),
            dup.begin() + static_cast<std::ptrdiff_t>(n));
  // Corrupt only the primary half: the duplicate is the reference the
  // cross-check compares against.
  fault::hook_reduction_corrupt(comm.rank(), dup.data(), n);
  comm.allreduce(std::span<double>(dup), comm::ReduceOp::kSum);
  bool any = false;
  for (std::size_t i = 0; i < n; ++i) {
    // Bitwise, not ==: the halves of a healthy reduction combine the
    // same addends in the same fixed rank order and are exactly equal,
    // and memcmp still trips when corruption breeds a NaN.
    if (std::memcmp(&dup[i], &dup[n + i], sizeof(double)) != 0) {
      any = true;
      if (bad) bad->push_back(static_cast<int>(i));
    }
    values[i] = dup[i];
  }
  comm.costs().add_integrity_check(any);
  return any;
}

bool abft_mismatch(const IntegrityOptions& integrity, double sum_b,
                   double sum_r, double dot_cx, double n_ocean,
                   double b_norm2) {
  const double gap = (sum_b - sum_r) - dot_cx;
  const double scale = std::sqrt(n_ocean * b_norm2) + std::abs(dot_cx);
  // Negated <= so a NaN/Inf gap (flipped exponent bits) is a mismatch.
  return !(std::abs(gap) <= integrity.abft_tolerance * scale);
}

bool drift_mismatch(const IntegrityOptions& integrity, double rel_true,
                    double rel_recurrence) {
  const double gap = std::abs(rel_true - rel_recurrence);
  return !(gap <= integrity.drift_tolerance * (1.0 + rel_recurrence));
}

void BatchIntegrityAuditor::at_check(
    comm::Communicator& comm, const comm::HaloExchanger& halo,
    const DistOperator& a, const comm::DistFieldBatch& b,
    const comm::DistFieldBatch& r, comm::DistFieldBatch& x,
    const double* b_norm2_by_member, const int* member_of,
    const unsigned char* active, int cur_nb, const double* r_norm2,
    bool r_is_true, const unsigned char* accept, bool any_accept,
    FailureKind* fail) {
  ++checks_;
  const std::size_t nb = static_cast<std::size_t>(cur_nb);
  const bool abft_due =
      integrity_.abft_interval > 0 &&
      checks_ % integrity_.abft_interval == 0;
  const bool drift_cadence =
      !r_is_true && integrity_.true_residual_interval > 0 &&
      checks_ % integrity_.true_residual_interval == 0;
  const bool drift_due = !r_is_true &&
                         integrity_.true_residual_interval > 0 &&
                         (any_accept || drift_cadence);

  std::vector<int> bad;
  if (abft_due) {
    abft_sums_.resize(3 * nb + 1);
    a.abft_local_sums_batch(comm, b, r, x, abft_sums_.data());
    abft_sums_[3 * nb] = static_cast<double>(a.local_ocean_cells());
    bad.clear();
    if (allreduce_sum_guarded(comm, integrity_,
                              std::span<double>(abft_sums_), &bad)) {
      for (int i : bad) {
        if (i < 3 * cur_nb)
          fail[i % cur_nb] = FailureKind::kCorruptReduction;
        else  // a corrupt ocean-cell slot poisons every verdict
          for (int s = 0; s < cur_nb; ++s)
            fail[s] = FailureKind::kCorruptReduction;
      }
    } else {
      const double n_ocean = abft_sums_[3 * nb];
      for (int s = 0; s < cur_nb; ++s) {
        if (!active[s] || fail[s] != FailureKind::kNone) continue;
        const bool bad_s = abft_mismatch(
            integrity_, abft_sums_[static_cast<std::size_t>(s)],
            abft_sums_[nb + static_cast<std::size_t>(s)],
            abft_sums_[2 * nb + static_cast<std::size_t>(s)], n_ocean,
            b_norm2_by_member[member_of[s]]);
        comm.costs().add_integrity_check(bad_s);
        if (bad_s) fail[s] = FailureKind::kCorruptOperator;
      }
    }
  }

  if (drift_due) {
    // Scratch allocated per audit: the batch width shrinks across
    // retirements, and audits are rare (cadence-gated).
    comm::DistFieldBatch scratch(a.decomposition(), a.rank(), cur_nb,
                                 x.halo());
    true_sums_.resize(nb);
    a.residual_local_norm2_batch(comm, halo, b, x, scratch,
                                 true_sums_.data());
    bad.clear();
    if (allreduce_sum_guarded(comm, integrity_,
                              std::span<double>(true_sums_.data(), nb),
                              &bad)) {
      for (int i : bad) fail[i] = FailureKind::kCorruptReduction;
    } else {
      for (int s = 0; s < cur_nb; ++s) {
        if (!active[s] || fail[s] != FailureKind::kNone) continue;
        if (!(accept[s] || drift_cadence)) continue;
        const int mm = member_of[s];
        const double rel_true =
            std::sqrt(true_sums_[static_cast<std::size_t>(s)] /
                      b_norm2_by_member[mm]);
        const double rel_rec = std::sqrt(r_norm2[s] / b_norm2_by_member[mm]);
        const bool bad_s = drift_mismatch(integrity_, rel_true, rel_rec);
        comm.costs().add_integrity_check(bad_s);
        if (bad_s) fail[s] = FailureKind::kSilentDrift;
      }
    }
  }
}

}  // namespace minipop::solver
