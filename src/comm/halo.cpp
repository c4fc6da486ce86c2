#include "src/comm/halo.hpp"

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <vector>

#include "src/fault/fault_injector.hpp"
#include "src/util/crc32c.hpp"
#include "src/util/error.hpp"

namespace minipop::comm {

namespace detail {

/// Rectangular region in block-interior coordinates: [i0, i0+ni) x
/// [j0, j0+nj) (indices may be negative or >= block size for halo
/// regions).
struct HaloRegion {
  int i0, j0, ni, nj;
};

/// One region of one local block.
struct HaloStrip {
  int lb;
  HaloRegion r;
};

/// The strips exchanged with one peer rank, both lists in the
/// receiver's (local block, direction) order. `*_cells` counts one
/// field's elements at batch width 1.
struct HaloPeerPlan {
  int rank = -1;
  std::vector<HaloStrip> send;  ///< interior strips this rank packs
  std::vector<HaloStrip> recv;  ///< halo regions the peer's message fills
  std::size_t send_cells = 0;
  std::size_t recv_cells = 0;
};

/// A direct on-rank copy: interior strip `src` of one local block into
/// halo region `dst` of another (or the same, across a periodic seam).
struct HaloCopy {
  HaloStrip src;
  HaloStrip dst;
};

struct HaloPlan {
  std::vector<HaloStrip> zeros;     ///< halos with no neighbor block
  std::vector<HaloCopy> copies;     ///< neighbors owned by this rank
  std::vector<HaloPeerPlan> peers;  ///< ascending peer rank
};

}  // namespace detail

namespace {

using detail::HaloPeerPlan;
using detail::HaloPlan;
using detail::HaloRegion;
using detail::HaloStrip;

using grid::Dir;

Dir opposite(Dir d) {
  switch (d) {
    case Dir::kEast: return Dir::kWest;
    case Dir::kWest: return Dir::kEast;
    case Dir::kNorth: return Dir::kSouth;
    case Dir::kSouth: return Dir::kNorth;
    case Dir::kNorthEast: return Dir::kSouthWest;
    case Dir::kNorthWest: return Dir::kSouthEast;
    case Dir::kSouthEast: return Dir::kNorthWest;
    case Dir::kSouthWest: return Dir::kNorthEast;
    case Dir::kCenter: return Dir::kCenter;
  }
  return Dir::kCenter;
}

constexpr Dir kExchangeDirs[8] = {
    Dir::kEast,      Dir::kWest,      Dir::kNorth,     Dir::kSouth,
    Dir::kNorthEast, Dir::kNorthWest, Dir::kSouthEast, Dir::kSouthWest};

/// Interior strip of (bnx x bny) sent toward direction d.
HaloRegion send_region(Dir d, int bnx, int bny, int h) {
  switch (d) {
    case Dir::kEast: return {bnx - h, 0, h, bny};
    case Dir::kWest: return {0, 0, h, bny};
    case Dir::kNorth: return {0, bny - h, bnx, h};
    case Dir::kSouth: return {0, 0, bnx, h};
    case Dir::kNorthEast: return {bnx - h, bny - h, h, h};
    case Dir::kNorthWest: return {0, bny - h, h, h};
    case Dir::kSouthEast: return {bnx - h, 0, h, h};
    case Dir::kSouthWest: return {0, 0, h, h};
    case Dir::kCenter: break;
  }
  MINIPOP_REQUIRE(false, "send_region(center)");
  return {};
}

/// Halo region (in interior coordinates, so indices may be negative or
/// >= bnx) filled from the neighbor in direction d.
HaloRegion halo_region(Dir d, int bnx, int bny, int h) {
  switch (d) {
    case Dir::kEast: return {bnx, 0, h, bny};
    case Dir::kWest: return {-h, 0, h, bny};
    case Dir::kNorth: return {0, bny, bnx, h};
    case Dir::kSouth: return {0, -h, bnx, h};
    case Dir::kNorthEast: return {bnx, bny, h, h};
    case Dir::kNorthWest: return {-h, bny, h, h};
    case Dir::kSouthEast: return {bnx, -h, h, h};
    case Dir::kSouthWest: return {-h, -h, h, h};
    case Dir::kCenter: break;
  }
  MINIPOP_REQUIRE(false, "halo_region(center)");
  return {};
}

/// A strip fills a halo region cell for cell only when the shapes agree
/// (E/W neighbours share a block row, N/S neighbours a block column).
void require_same_shape(const HaloRegion& src, const HaloRegion& dst) {
  MINIPOP_REQUIRE(src.ni == dst.ni && src.nj == dst.nj,
                  "halo strip " << src.ni << "x" << src.nj
                                << " cannot fill region " << dst.ni << "x"
                                << dst.nj);
}

/// Resolve every neighbor, owner and local-index lookup of one rank's
/// exchange at halo width h. The send list to peer p walks p's blocks in
/// p's local order — exactly how p builds its receive list from this
/// rank — so both ends agree on the wire order without communicating.
HaloPlan build_plan(const grid::Decomposition& d, int rank, int h) {
  std::vector<int> local_of(d.num_active_blocks(), -1);
  const std::vector<int>& mine = d.blocks_of_rank(rank);
  for (std::size_t lb = 0; lb < mine.size(); ++lb)
    local_of[mine[lb]] = static_cast<int>(lb);

  std::vector<HaloPeerPlan> peers(d.nranks());
  HaloPlan plan;
  for (std::size_t lb = 0; lb < mine.size(); ++lb) {
    const auto& b = d.block(mine[lb]);
    for (Dir dir : kExchangeDirs) {
      const HaloStrip dst{static_cast<int>(lb),
                          halo_region(dir, b.nx, b.ny, h)};
      const int nid = d.neighbor(b.id, dir);
      if (nid < 0) {
        plan.zeros.push_back(dst);
        continue;
      }
      const auto& nbk = d.block(nid);
      if (nbk.owner == rank) {
        const HaloStrip src{local_of[nid],
                            send_region(opposite(dir), nbk.nx, nbk.ny, h)};
        require_same_shape(src.r, dst.r);
        plan.copies.push_back({src, dst});
      } else {
        peers[nbk.owner].recv.push_back(dst);
        peers[nbk.owner].recv_cells +=
            static_cast<std::size_t>(dst.r.ni) * dst.r.nj;
      }
    }
  }
  for (int p = 0; p < d.nranks(); ++p) {
    if (p == rank) continue;
    for (int id : d.blocks_of_rank(p)) {
      for (Dir dir : kExchangeDirs) {
        const int nid = d.neighbor(id, dir);
        if (nid < 0 || d.block(nid).owner != rank) continue;
        const auto& b = d.block(id);
        const auto& nbk = d.block(nid);
        const HaloStrip src{local_of[nid],
                            send_region(opposite(dir), nbk.nx, nbk.ny, h)};
        require_same_shape(src.r, halo_region(dir, b.nx, b.ny, h));
        peers[p].send.push_back(src);
        peers[p].send_cells += static_cast<std::size_t>(src.r.ni) * src.r.nj;
      }
    }
  }
  for (int p = 0; p < d.nranks(); ++p) {
    if (peers[p].send.empty() && peers[p].recv.empty()) continue;
    peers[p].rank = p;
    plan.peers.push_back(std::move(peers[p]));
  }
  return plan;
}

// Strips move whole region rows at once: region coordinates have i
// fast, so row j of a width-w region is `ni * w` contiguous elements in
// the padded array (cell column i of a w-member plane starts at element
// i * w; w == 1 is the plane of a single field). Full-width N/S strips
// move as `nj` memcpys of `ni * w` elements each; E/W strips degenerate
// to short rows, same code path.

/// First element of region row j inside the padded array.
double* region_row_w(util::Array2D<double>& padded, int h, int w,
                     const HaloRegion& r, int j) {
  return padded.data() +
         static_cast<std::ptrdiff_t>(r.j0 + j + h) * padded.nx() +
         static_cast<std::ptrdiff_t>(r.i0 + h) * w;
}
const double* region_row_w(const util::Array2D<double>& padded, int h,
                           int w, const HaloRegion& r, int j) {
  return padded.data() +
         static_cast<std::ptrdiff_t>(r.j0 + j + h) * padded.nx() +
         static_cast<std::ptrdiff_t>(r.i0 + h) * w;
}

/// Copy region `r` of `padded` to `out`; returns the end of the copy.
double* pack_w(const util::Array2D<double>& padded, int h, int w,
               const HaloRegion& r, double* out) {
  const std::size_t row = static_cast<std::size_t>(r.ni) * w;
  for (int j = 0; j < r.nj; ++j, out += row)
    std::memcpy(out, region_row_w(padded, h, w, r, j), row * sizeof(double));
  return out;
}

/// Fill region `r` of `padded` from `in`; returns the end of the read.
const double* unpack_w(util::Array2D<double>& padded, int h, int w,
                       const HaloRegion& r, const double* in) {
  const std::size_t row = static_cast<std::size_t>(r.ni) * w;
  for (int j = 0; j < r.nj; ++j, in += row)
    std::memcpy(region_row_w(padded, h, w, r, j), in, row * sizeof(double));
  return in;
}

void copy_w(util::Array2D<double>& padded_dst, const HaloRegion& dst,
            const util::Array2D<double>& padded_src, const HaloRegion& src,
            int h, int w) {
  const std::size_t row = static_cast<std::size_t>(dst.ni) * w;
  for (int j = 0; j < dst.nj; ++j)
    std::memcpy(region_row_w(padded_dst, h, w, dst, j),
                region_row_w(padded_src, h, w, src, j), row * sizeof(double));
}

void zero_region_w(util::Array2D<double>& padded, int h, int w,
                   const HaloRegion& r) {
  const std::size_t row = static_cast<std::size_t>(r.ni) * w;
  for (int j = 0; j < r.nj; ++j) {
    double* p = region_row_w(padded, h, w, r, j);
    std::fill(p, p + row, 0.0);
  }
}

// CRC trailer: one extra double per peer message, carrying the CRC32C
// of the payload bytes in its low four bytes (the rest zero). Encoding
// the checksum as a double keeps the wire format element-typed —
// receivers size buffers in elements — at the cost of four wasted bytes
// per message.

double encode_crc(std::uint32_t crc) {
  double out{};
  std::memcpy(&out, &crc, sizeof(crc));
  return out;
}

std::uint32_t decode_crc(double trailer) {
  std::uint32_t crc;
  std::memcpy(&crc, &trailer, sizeof(crc));
  return crc;
}

}  // namespace

HaloHandle::~HaloHandle() {
  if (!active()) return;
  try {
    finish();
  } catch (...) {
    // Safety-net finish during unwinding (e.g. a poisoned team): drop
    // whatever could not complete. Requests abandon non-blocking.
  }
}

void HaloHandle::finish() {
  if (!active()) return;
  const int h = fields_.front()->halo();
  const int w = fields_.front()->nb();
  // Complete in post order — the same receive order as the blocking
  // exchange, so the unpacked halos are bitwise identical to it.
  for (PendingRecv& p : recvs_) {
    p.request.wait();
    std::span<const double> payload(p.buf);
    if (crc_) {
      // Strip and verify the one-element CRC trailer before the payload
      // touches field memory.
      payload = payload.first(payload.size() - 1);
      const std::uint32_t want = decode_crc(p.buf.back());
      const std::uint32_t got =
          util::crc32c(payload.data(), payload.size_bytes());
      comm_->costs().add_integrity_check(got != want);
      if (got != want) {
        // Wake peers blocked on this rank before unwinding, then let
        // the recovery layer resync the team and restart the solve.
        comm_->declare_desync();
        throw CorruptPayloadError(
            "halo payload failed CRC32C verification (silent wire "
            "corruption detected)");
      }
    }
    // Strip by strip in wire order, each strip's rims in caller order.
    const double* in = payload.data();
    for (const HaloStrip& s : p.peer->recv)
      for (DistFieldBatch* f : fields_)
        in = unpack_w(f->data(s.lb), h, w, s.r, in);
  }
  // One round, refreshing every field's planes: halo latency is paid
  // once for the whole group — the counter the comm-avoiding audits
  // watch.
  comm_->costs().add_halo_exchange(w * static_cast<int>(fields_.size()));
  recvs_.clear();
  fields_.clear();
  comm_ = nullptr;
}

HaloExchanger::HaloExchanger(const grid::Decomposition& decomp)
    : decomp_(&decomp),
      max_halo_(decomp.max_halo_width()),
      plans_(static_cast<std::size_t>(decomp.nranks()) * (max_halo_ + 1)) {}

HaloExchanger::~HaloExchanger() = default;

const HaloPlan& HaloExchanger::plan(int rank, int halo) const {
  MINIPOP_REQUIRE(rank >= 0 && rank < decomp_->nranks() && halo >= 1 &&
                      halo <= max_halo_,
                  "no halo plan for rank " << rank << ", halo " << halo);
  std::lock_guard<std::mutex> lock(plans_mu_);
  std::unique_ptr<const HaloPlan>& slot =
      plans_[static_cast<std::size_t>(rank) * (max_halo_ + 1) + halo];
  if (!slot)
    slot = std::make_unique<const HaloPlan>(build_plan(*decomp_, rank, halo));
  return *slot;
}

HaloHandle HaloExchanger::begin_group(
    Communicator& comm, std::span<DistFieldBatch* const> fields) const {
  MINIPOP_REQUIRE(!fields.empty(), "halo exchange of an empty group");
  const DistFieldBatch& f0 = *fields.front();
  MINIPOP_REQUIRE(&f0.decomposition() == decomp_,
                  "field belongs to a different decomposition");
  for (const DistFieldBatch* f : fields) {
    MINIPOP_REQUIRE(&f->decomposition() == decomp_ &&
                        f->rank() == f0.rank() &&
                        f->halo() == f0.halo() && f->nb() == f0.nb(),
                    "group members must share decomposition, rank, halo "
                    "width and batch width");
  }
  const int h = f0.halo();
  const int w = f0.nb();
  const int my_rank = f0.rank();
  const HaloPlan& plan = this->plan(my_rank, h);
  const int epoch = comm.next_tag_epoch();
  // Within an epoch the source rank is unique per (source, dest) pair.
  const int tag = epoch * Communicator::kTagEpochStride + my_rank;
  // Elements per strip cell: w members of every field.
  const std::size_t scale = static_cast<std::size_t>(w) * fields.size();
  const std::size_t trailer = crc_enabled_ ? 1 : 0;

  HaloHandle handle;
  handle.comm_ = &comm;
  handle.fields_.assign(fields.begin(), fields.end());
  handle.crc_ = crc_enabled_;

  // Phase 1: one eager send per peer (complete at post time), strip by
  // strip in the receiver's order, every field's rim back to back.
  std::vector<double> buf;
  for (const HaloPeerPlan& peer : plan.peers) {
    if (peer.send.empty()) continue;
    const std::size_t payload = peer.send_cells * scale;
    buf.resize(payload + trailer);
    double* out = buf.data();
    for (const HaloStrip& s : peer.send)
      for (const DistFieldBatch* f : fields)
        out = pack_w(f->data(s.lb), h, w, s.r, out);
    // The payload site arms on one-member working batches (width 1): a
    // single solve, or a batch that retirement has compacted down to
    // one survivor — the hook addresses one scalar plane. Members of
    // wider batches recover through per-member sub-batches of the
    // resilient decorator rather than through injected wire corruption.
    if (w == 1) fault::hook_halo_payload(my_rank, buf.data(), payload);
    if (crc_enabled_) {
      // The CRC is taken AFTER hook_halo_payload: that site models
      // memory corruption at pack time, which a wire checksum cannot
      // (and should not) catch. hook_halo_bitflip then fires on the
      // checksummed bytes — wire corruption the verifier must detect.
      buf.back() =
          encode_crc(util::crc32c(buf.data(), payload * sizeof(double)));
      fault::hook_halo_bitflip(my_rank,
                               reinterpret_cast<unsigned char*>(buf.data()),
                               payload * sizeof(double));
    }
    comm.isend(peer.rank, tag, std::span<const double>(buf));
  }

  // Phase 2: one receive per peer, in ascending peer order — the order
  // finish() unpacks in. Each handle owns its landing buffers, so
  // several exchanges can be in flight at once.
  handle.recvs_.reserve(plan.peers.size());
  for (const HaloPeerPlan& peer : plan.peers) {
    if (peer.recv.empty()) continue;
    HaloHandle::PendingRecv& posted = handle.recvs_.emplace_back();
    posted.buf.resize(peer.recv_cells * scale + trailer);
    posted.peer = &peer;
    posted.request =
        comm.irecv(peer.rank, epoch * Communicator::kTagEpochStride +
                                  peer.rank,
                   std::span<double>(posted.buf));
  }

  // Phase 3: zero fills and direct on-rank copies (no communication).
  for (const HaloStrip& z : plan.zeros)
    for (DistFieldBatch* f : fields)
      zero_region_w(f->data(z.lb), h, w, z.r);
  for (const detail::HaloCopy& c : plan.copies)
    for (DistFieldBatch* f : fields)
      copy_w(f->data(c.dst.lb), c.dst.r, f->data(c.src.lb), c.src.r, h, w);

  return handle;
}

std::uint64_t HaloExchanger::bytes_sent_per_exchange(
    const DistFieldBatch& field) const {
  std::uint64_t bytes = 0;
  for (const HaloPeerPlan& peer : plan(field.rank(), field.halo()).peers) {
    if (peer.send.empty()) continue;
    bytes += peer.send_cells * field.nb() * sizeof(double);
    if (crc_enabled_) bytes += sizeof(double);  // CRC trailer element
  }
  return bytes;
}

}  // namespace minipop::comm
