#include "src/comm/halo.hpp"

#include <algorithm>
#include <cstring>
#include <vector>

#include "src/fault/fault_injector.hpp"
#include "src/util/crc32c.hpp"
#include "src/util/error.hpp"

namespace minipop::comm {

namespace {

using grid::Dir;
using detail::HaloRegion;

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

/// Per-exchange message tag: the epoch selects a disjoint tag sub-space
/// so concurrently outstanding exchanges cannot match each other's
/// messages; within an epoch the (source block, direction) pair is
/// unique per exchange.
int message_tag(int epoch, int src_block_id, Dir d) {
  const int local = src_block_id * 9 + static_cast<int>(d);
  MINIPOP_REQUIRE(local < Communicator::kTagEpochStride,
                  "tag overflow for block " << src_block_id);
  return epoch * Communicator::kTagEpochStride + local;
}

// Pack/unpack move whole region rows at once: region coordinates have i
// fast, so row j of a width-w region is `ni * w` contiguous elements in
// the padded array (cell column i of a w-member plane starts at element
// i * w; w == 1 is the plane of a single field). Full-width N/S
// strips (the big messages) move as `nj` memcpys of `ni * w` elements
// each; E/W strips degenerate to short rows, same code path.

/// First element of region row j inside the padded array.
template <typename T>
T* region_row_w(util::Array2D<T>& padded, int h, int w,
                const HaloRegion& r, int j) {
  return padded.data() +
         static_cast<std::ptrdiff_t>(r.j0 + j + h) * padded.nx() +
         static_cast<std::ptrdiff_t>(r.i0 + h) * w;
}
template <typename T>
const T* region_row_w(const util::Array2D<T>& padded, int h, int w,
                      const HaloRegion& r, int j) {
  return padded.data() +
         static_cast<std::ptrdiff_t>(r.j0 + j + h) * padded.nx() +
         static_cast<std::ptrdiff_t>(r.i0 + h) * w;
}

template <typename T>
void pack_w(const util::Array2D<T>& padded, int h, int w,
            const HaloRegion& r, std::vector<T>& out) {
  const std::size_t row = static_cast<std::size_t>(r.ni) * w;
  out.resize(row * r.nj);
  for (int j = 0; j < r.nj; ++j)
    std::memcpy(out.data() + static_cast<std::size_t>(j) * row,
                region_row_w(padded, h, w, r, j), row * sizeof(T));
}

template <typename T>
void unpack_w(util::Array2D<T>& padded, int h, int w, const HaloRegion& r,
              std::span<const T> in) {
  const std::size_t row = static_cast<std::size_t>(r.ni) * w;
  MINIPOP_REQUIRE(in.size() == row * r.nj, "halo unpack size mismatch");
  for (int j = 0; j < r.nj; ++j)
    std::memcpy(region_row_w(padded, h, w, r, j),
                in.data() + static_cast<std::size_t>(j) * row,
                row * sizeof(T));
}

/// pack_w that appends to `out` instead of replacing it — the group
/// exchange concatenates several fields' rims into one message.
template <typename T>
void pack_append_w(const util::Array2D<T>& padded, int h, int w,
                   const HaloRegion& r, std::vector<T>& out) {
  const std::size_t row = static_cast<std::size_t>(r.ni) * w;
  const std::size_t base = out.size();
  out.resize(base + row * r.nj);
  for (int j = 0; j < r.nj; ++j)
    std::memcpy(out.data() + base + static_cast<std::size_t>(j) * row,
                region_row_w(padded, h, w, r, j), row * sizeof(T));
}

template <typename T>
void zero_region_w(util::Array2D<T>& padded, int h, int w,
                   const HaloRegion& r) {
  const std::size_t row = static_cast<std::size_t>(r.ni) * w;
  for (int j = 0; j < r.nj; ++j) {
    T* p = region_row_w(padded, h, w, r, j);
    std::fill(p, p + row, T(0));
  }
}

// CRC trailer: one extra element of T per remote message, carrying the
// CRC32C of the payload bytes in its low four bytes (the rest zero).
// Encoding the checksum as a T keeps the wire format element-typed —
// receivers size buffers in elements — at the cost of four wasted bytes
// per message.

template <typename T>
T encode_crc(std::uint32_t crc) {
  static_assert(sizeof(T) >= sizeof(std::uint32_t));
  T out{};
  std::memcpy(&out, &crc, sizeof(crc));
  return out;
}

template <typename T>
std::uint32_t decode_crc(const T& trailer) {
  std::uint32_t crc;
  std::memcpy(&crc, &trailer, sizeof(crc));
  return crc;
}

}  // namespace

template <typename T>
HaloHandleT<T>::~HaloHandleT() {
  if (!active()) return;
  try {
    finish();
  } catch (...) {
    // Safety-net finish during unwinding (e.g. a poisoned team): drop
    // whatever could not complete. Requests abandon non-blocking.
  }
}

template <typename T>
void HaloHandleT<T>::finish() {
  if (!active()) return;
  const int h = fields_.front()->halo();
  const int w = fields_.front()->nb();
  // Complete in post order — the same receive order as the blocking
  // exchange, so the unpacked halos are bitwise identical to it.
  for (PendingRecv& p : recvs_) {
    p.request.wait();
    std::span<const T> payload(p.buf);
    if (crc_) {
      // Strip and verify the one-element CRC trailer before the payload
      // touches field memory.
      payload = payload.first(payload.size() - 1);
      const std::uint32_t want = decode_crc<T>(p.buf.back());
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
    // Each field's rim is one segment of the message, in caller order.
    const std::size_t seg = static_cast<std::size_t>(p.dst.ni) * w * p.dst.nj;
    for (std::size_t s = 0; s < fields_.size(); ++s)
      unpack_w<T>(fields_[s]->data(p.lb), h, w, p.dst,
                  payload.subspan(s * seg, seg));
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
    : decomp_(&decomp) {}

template <typename T>
HaloHandleT<T> HaloExchanger::begin_group(
    Communicator& comm, std::span<DistFieldBatchT<T>* const> fields) const {
  MINIPOP_REQUIRE(!fields.empty(), "halo exchange of an empty group");
  const DistFieldBatchT<T>& f0 = *fields.front();
  MINIPOP_REQUIRE(&f0.decomposition() == decomp_,
                  "field belongs to a different decomposition");
  for (const DistFieldBatchT<T>* f : fields) {
    MINIPOP_REQUIRE(&f->decomposition() == decomp_ &&
                        f->rank() == f0.rank() &&
                        f->halo() == f0.halo() && f->nb() == f0.nb(),
                    "group members must share decomposition, rank, halo "
                    "width and batch width");
  }
  const int h = f0.halo();
  const int w = f0.nb();
  const int my_rank = f0.rank();
  const int epoch = comm.next_tag_epoch();
  std::vector<T> buf;

  HaloHandleT<T> handle;
  handle.comm_ = &comm;
  handle.fields_.assign(fields.begin(), fields.end());
  handle.crc_ = crc_enabled_;

  // Phase 1: post all remote sends (eager, complete at post time) —
  // ONE message per (block, direction) carrying all w members of every
  // field, the fields' rims back to back in caller order.
  for (int lb = 0; lb < f0.num_local_blocks(); ++lb) {
    const auto& b = f0.info(lb);
    for (Dir d : kExchangeDirs) {
      const int nid = decomp_->neighbor(b.id, d);
      if (nid < 0) continue;
      const int owner = decomp_->block(nid).owner;
      if (owner == my_rank) continue;
      const HaloRegion src = send_region(d, b.nx, b.ny, h);
      buf.clear();
      for (const DistFieldBatchT<T>* f : fields)
        pack_append_w<T>(f->data(lb), h, w, src, buf);
      // The fault sites corrupt a single solve's halos (width 1):
      // members of wider batches recover through per-member sub-batches
      // of the resilient decorator rather than through injected wire
      // corruption.
      if (w == 1) fault::hook_halo_payload(my_rank, buf.data(), buf.size());
      if (crc_enabled_) {
        // The CRC is taken AFTER hook_halo_payload: that site models
        // memory corruption at pack time, which a wire checksum cannot
        // (and should not) catch. hook_halo_bitflip then fires on the
        // checksummed bytes — wire corruption the verifier must detect.
        const std::size_t payload = buf.size();
        buf.push_back(encode_crc<T>(
            util::crc32c(buf.data(), payload * sizeof(T))));
        fault::hook_halo_bitflip(
            my_rank, reinterpret_cast<unsigned char*>(buf.data()),
            payload * sizeof(T));
      }
      comm.isend(owner, message_tag(epoch, b.id, d),
                 std::span<const T>(buf));
    }
  }

  // Phase 2: post all remote receives, each sized for every field (same
  // traversal order as the sends, so finish() unpacks in that order).
  for (int lb = 0; lb < f0.num_local_blocks(); ++lb) {
    const auto& b = f0.info(lb);
    for (Dir d : kExchangeDirs) {
      const int nid = decomp_->neighbor(b.id, d);
      if (nid < 0) continue;
      const auto& nbk = decomp_->block(nid);
      if (nbk.owner == my_rank) continue;
      const HaloRegion dst = halo_region(d, b.nx, b.ny, h);
      typename HaloHandleT<T>::PendingRecv p;
      p.buf.resize(static_cast<std::size_t>(dst.ni) * w * dst.nj *
                       fields.size() +
                   (crc_enabled_ ? 1 : 0));
      p.lb = lb;
      p.dst = dst;
      handle.recvs_.push_back(std::move(p));
      typename HaloHandleT<T>::PendingRecv& posted = handle.recvs_.back();
      posted.request =
          comm.irecv(nbk.owner, message_tag(epoch, nid, opposite(d)),
                     std::span<T>(posted.buf));
    }
  }

  // Phase 3: local copies and zero fills, per field (no communication).
  for (int lb = 0; lb < f0.num_local_blocks(); ++lb) {
    const auto& b = f0.info(lb);
    for (Dir d : kExchangeDirs) {
      const int nid = decomp_->neighbor(b.id, d);
      const HaloRegion dst = halo_region(d, b.nx, b.ny, h);
      if (nid < 0) {
        for (DistFieldBatchT<T>* f : fields)
          zero_region_w<T>(f->data(lb), h, w, dst);
        continue;
      }
      const auto& nbk = decomp_->block(nid);
      if (nbk.owner != my_rank) continue;  // remote: posted in phase 2
      const int nlb = f0.local_index(nid);
      MINIPOP_ASSERT(nlb >= 0);
      const HaloRegion src = send_region(opposite(d), nbk.nx, nbk.ny, h);
      for (DistFieldBatchT<T>* f : fields) {
        pack_w<T>(f->data(nlb), h, w, src, buf);
        unpack_w<T>(f->data(lb), h, w, dst, buf);
      }
    }
  }

  return handle;
}

template <typename T>
std::uint64_t HaloExchanger::bytes_sent_per_exchange(
    const DistFieldBatchT<T>& field) const {
  const int h = field.halo();
  const int my_rank = field.rank();
  std::uint64_t bytes = 0;
  for (int lb = 0; lb < field.num_local_blocks(); ++lb) {
    const auto& b = field.info(lb);
    for (Dir d : kExchangeDirs) {
      const int nid = decomp_->neighbor(b.id, d);
      if (nid < 0) continue;
      if (decomp_->block(nid).owner == my_rank) continue;
      const HaloRegion r = send_region(d, b.nx, b.ny, h);
      bytes += static_cast<std::uint64_t>(r.ni) * field.nb() * r.nj *
               sizeof(T);
      if (crc_enabled_) bytes += sizeof(T);  // CRC trailer element
    }
  }
  return bytes;
}

template class HaloHandleT<double>;

#define MINIPOP_HALO_INSTANTIATE(T)                                        \
  template HaloHandleT<T> HaloExchanger::begin_group<T>(                   \
      Communicator&, std::span<DistFieldBatchT<T>* const>) const;          \
  template std::uint64_t HaloExchanger::bytes_sent_per_exchange<T>(        \
      const DistFieldBatchT<T>&) const;
MINIPOP_HALO_INSTANTIATE(double)
#undef MINIPOP_HALO_INSTANTIATE

}  // namespace minipop::comm
