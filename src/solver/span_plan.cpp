#include "src/solver/span_plan.hpp"

#include "src/util/error.hpp"

namespace minipop::solver {

BlockSpans::BlockSpans(const unsigned char* mask, std::ptrdiff_t mask_stride,
                       int nx, int ny)
    : nx_(nx), ny_(ny) {
  MINIPOP_REQUIRE(nx >= 0 && ny >= 0,
                  "span plan extent " << nx << "x" << ny);
  row_offset_.resize(static_cast<size_t>(ny) + 1, 0);
  for (int j = 0; j < ny; ++j) {
    row_offset_[j] = static_cast<int>(spans_.size());
    const unsigned char* mrow = mask + j * mask_stride;
    int i = 0;
    while (i < nx) {
      while (i < nx && !mrow[i]) ++i;
      if (i == nx) break;
      const int i0 = i;
      while (i < nx && mrow[i]) ++i;
      spans_.push_back(kernels::Span{i0, i - i0});
      active_points_ += i - i0;
    }
  }
  row_offset_[ny] = static_cast<int>(spans_.size());
}

void BlockSpans::validate(const unsigned char* mask,
                          std::ptrdiff_t mask_stride) const {
  long active = 0;
  for (int j = 0; j < ny_; ++j) {
    const unsigned char* mrow = mask + j * mask_stride;
    int prev_end = 0;  // spans must be sorted and non-overlapping
    for (int s = row_offset_[j]; s < row_offset_[j + 1]; ++s) {
      const kernels::Span sp = spans_[s];
      MINIPOP_REQUIRE(sp.len > 0 && sp.i0 >= prev_end &&
                          sp.i0 + sp.len <= nx_,
                      "malformed span [" << sp.i0 << ", +" << sp.len
                                         << ") in row " << j);
      // Gap before the span must be land, the span itself all ocean.
      for (int i = prev_end; i < sp.i0; ++i)
        MINIPOP_REQUIRE(!mrow[i], "span plan misses ocean cell (" << i
                                                                  << "," << j
                                                                  << ")");
      for (int i = sp.i0; i < sp.i0 + sp.len; ++i)
        MINIPOP_REQUIRE(mrow[i], "span plan covers land cell (" << i << ","
                                                                << j << ")");
      prev_end = sp.i0 + sp.len;
      active += sp.len;
    }
    for (int i = prev_end; i < nx_; ++i)
      MINIPOP_REQUIRE(!mrow[i], "span plan misses ocean cell (" << i << ","
                                                                << j << ")");
  }
  MINIPOP_REQUIRE(active == active_points_,
                  "active_points " << active_points_ << " != mask count "
                                   << active);
}

}  // namespace minipop::solver
