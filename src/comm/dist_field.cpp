#include "src/comm/dist_field.hpp"

#include "src/util/error.hpp"

namespace minipop::comm {

void DistField::load_global(const util::Field& global) {
  MINIPOP_REQUIRE(global.nx() == decomposition().nx_global() &&
                      global.ny() == decomposition().ny_global(),
                  "global field shape mismatch");
  for (int lb = 0; lb < num_local_blocks(); ++lb) {
    const auto& b = info(lb);
    for (int j = 0; j < b.ny; ++j)
      for (int i = 0; i < b.nx; ++i) at(lb, i, j) = global(b.i0 + i, b.j0 + j);
  }
}

void DistField::store_global(util::Field& global) const {
  MINIPOP_REQUIRE(global.nx() == decomposition().nx_global() &&
                      global.ny() == decomposition().ny_global(),
                  "global field shape mismatch");
  for (int lb = 0; lb < num_local_blocks(); ++lb) {
    const auto& b = info(lb);
    for (int j = 0; j < b.ny; ++j)
      for (int i = 0; i < b.nx; ++i) global(b.i0 + i, b.j0 + j) = at(lb, i, j);
  }
}

}  // namespace minipop::comm
