// Flat slot arena backing the saturation simulators' per-link FIFOs.
//
// The seed simulators kept one std::deque<Packet> per forward link — n * 2^n
// * 2 separately heap-allocated containers — and probed every link's header
// every cycle (the dominant cost at low occupancy).  The arena stores every
// in-flight packet in contiguous slot lanes and threads per-link FIFO chains
// through one shared u32 `next` lane:
//
//   * head cells — `next[link]` is the id of link's front slot, so links and
//     slots share one index space: ids [0, links) are head cells, slot ids
//     start at `links`.  An empty FIFO's tail is its own head cell, so an
//     append is `next[tail] = slot; tail = slot` for every FIFO, empty or
//     not, and an unlink picks the new tail with a select.  No hop branches
//     on emptiness;
//   * link header — {tail, size}, 8 bytes, so a link costs 12 bytes with its
//     head cell.  `size` sits next to `tail` because both change on every
//     push and pop (one cache line per endpoint);
//   * payload lane — (dst, injected_at) as two u32 in one 8-byte slot: dst
//     is a row below 2^30 and injected_at a cycle below 2^32 (the kernel
//     requires both), so a slot costs 12 bytes with its `next` cell;
//   * budget lane — misroute/wrap counters packed into one u64, allocated
//     only for the fault simulator (with_budgets);
//   * flight lane — the flight-recorder handle, allocated only with_flight;
//   * occupancy bitmap — one bit per link, set on push and cleared with a
//     mask on the pop that empties it, so the cycle loop iterates non-empty
//     links with countr_zero instead of probing every FIFO
//     (for_each_occupied).
//
// Freed slots recycle through a free list: once the arena has grown to the
// simulation's peak population, a cycle performs zero heap traffic.
//
// Semantics are exactly deque push_back/pop_front per link (FIFO, one
// container per link), which is what makes the arena engines bit-identical to
// the seed simulators (asserted against the *_reference oracles in tests).
#pragma once

#include <algorithm>
#include <cstddef>
#include <vector>

#include "util/bits.hpp"
#include "util/check.hpp"

namespace bfly {

class PacketArena {
 public:
  /// One in-flight packet.  misroutes/wraps are stored only when the arena
  /// was built with_budgets (the fault simulator); the pristine simulator
  /// reads them back as 0.  `flight` is the packet's flight-recorder handle
  /// (0 = unsampled), stored only when built with_flight — it rides the same
  /// optional-lane scheme as the budgets, so runs without a recorder pay
  /// nothing for it.  dst and injected_at must be below 2^32.
  struct Packet {
    u64 dst = 0;
    u64 injected_at = 0;
    u32 misroutes = 0;
    u32 wraps = 0;
    u64 flight = 0;
  };

  static constexpr u32 kNil = ~u32{0};

  /// An empty arena over `links` FIFOs.  `initial_slots` preallocates packet
  /// capacity; the arena grows geometrically (amortized) beyond it.
  ///
  /// Head cells and slots share the arena's 32-bit index space (kNil is
  /// reserved), so links + slots must stay below kNil: a dimension large
  /// enough to exceed it must fail loudly here rather than wrap deep inside
  /// a run.  The checks run before any allocation — an oversized request
  /// throws without first trying to reserve terabytes.
  explicit PacketArena(u64 links, bool with_budgets = false, bool with_flight = false,
                       std::size_t initial_slots = 4096)
      : with_budgets_(with_budgets), with_flight_(with_flight), links_(static_cast<u32>(links)) {
    BFLY_REQUIRE(links < static_cast<u64>(kNil),
                 "PacketArena: link count exceeds the 32-bit index width");
    BFLY_REQUIRE(initial_slots < static_cast<std::size_t>(kNil),
                 "PacketArena: initial slot count exceeds the 32-bit index width");
    BFLY_REQUIRE(links + initial_slots < static_cast<u64>(kNil),
                 "PacketArena: links plus initial slots exceed the 32-bit index width");
    q_.resize(links);
    for (u32 link = 0; link < links_; ++link) q_[link].tail = link;
    next_.resize(links, kNil);
    occupied_.resize((links + 63) / 64, 0);
    grow(initial_slots);
  }

  bool empty(u64 link) const { return q_[link].size == 0; }
  u64 size(u64 link) const { return q_[link].size; }
  u64 num_links() const { return q_.size(); }

  /// Appends `p` to the back of `link`'s FIFO.
  void push(u64 link, const Packet& p) {
    const u32 slot = alloc();
    const u32 i = slot - links_;
    payload_[i] = Payload{static_cast<u32>(p.dst), static_cast<u32>(p.injected_at)};
    if (with_budgets_) {
      budgets_[i] = static_cast<u64>(p.misroutes) | (static_cast<u64>(p.wraps) << 32);
    }
    if (with_flight_) flight_[i] = p.flight;
    append(link, slot);
  }

  /// dst of the front packet on `link` (must be non-empty).  Lets the
  /// simulators pick the output link before deciding between pop (delivery,
  /// drop, budget mutation) and the payload-invariant move_front fast path.
  u64 front_dst(u64 link) const { return payload_[next_[link] - links_].dst; }

  /// Flight-recorder handle of the front packet on `link` (must be
  /// non-empty); 0 on arenas built without the flight lane, matching the
  /// "unsampled" convention.
  u64 front_flight(u64 link) const {
    return with_flight_ ? flight_[next_[link] - links_] : 0;
  }

  /// Relinks the front slot of `from` (must be non-empty) onto the back of
  /// `to` without touching the payload or the free list.  A normal hop leaves
  /// dst/injected_at/budgets unchanged, so this replaces a pop+push pair —
  /// same FIFO semantics, roughly half the memory traffic.
  void move_front(u64 from, u64 to) {
    BFLY_CHECK(q_[from].size != 0, "PacketArena::move_front on empty link");
    append(to, unlink_front(from));
  }

  /// Pops the front of `link`'s FIFO (must be non-empty) and recycles the
  /// slot.
  Packet pop(u64 link) {
    BFLY_CHECK(q_[link].size != 0, "PacketArena::pop on empty link");
    const u32 slot = unlink_front(link);
    const u32 i = slot - links_;
    Packet p;
    p.dst = payload_[i].dst;
    p.injected_at = payload_[i].injected_at;
    if (with_budgets_) {
      const u64 b = budgets_[i];
      p.misroutes = static_cast<u32>(b);
      p.wraps = static_cast<u32>(b >> 32);
    }
    if (with_flight_) p.flight = flight_[i];
    next_[slot] = free_head_;
    free_head_ = slot;
    return p;
  }

  /// Calls fn(link) for every non-empty link in [begin, end), in increasing
  /// link order.  The occupancy word is snapshotted per 64-link block, so fn
  /// may pop the visited link (or push to links outside the current block)
  /// freely; the simulators' descending-stage sweeps only push into stages
  /// that were already visited, which keeps snapshot and visit-time
  /// occupancy identical.
  template <typename Fn>
  void for_each_occupied(u64 begin, u64 end, Fn&& fn) const {
    const u64 first_word = begin >> 6;
    const u64 last_word = (end + 63) >> 6;
    for (u64 w = first_word; w < last_word; ++w) {
      u64 bits = occupied_[w];
      const u64 base = w << 6;
      if (base < begin) bits &= ~u64{0} << (begin - base);
      if (end - base < 64) bits &= (u64{1} << (end - base)) - 1;
      while (bits != 0) {
        const int bit = lowest_set_bit(bits);
        bits &= bits - 1;
        if (bits != 0) {
          // Hide the scattered front-slot load of the next occupied link
          // behind this link's work (the head cells are dense and stay
          // cached; the payload and slot `next` cells are what miss).
          const u32 ahead = next_[base + static_cast<u64>(lowest_set_bit(bits))];
          BFLY_PREFETCH(&payload_[ahead - links_]);
          BFLY_PREFETCH(&next_[ahead]);
        }
        fn(base + static_cast<u64>(bit));
      }
    }
  }

  /// Total packet slots currently allocated (the denominator of the
  /// telemetry probes' arena_fill channel).  Grows geometrically with the
  /// peak population and never shrinks, so the sequence of capacities a run
  /// passes through is a deterministic function of the packet stream.
  u64 capacity() const { return payload_.size(); }

  /// Largest per-link FIFO size right now (the simulators' end-of-run
  /// max_queue statistic).
  u64 max_size() const {
    u32 m = 0;
    for (const LinkQ& q : q_) m = std::max(m, q.size);
    return m;
  }

 private:
  struct Payload {
    u32 dst;
    u32 injected_at;
  };

  /// Per-link FIFO header; the head lives in the link's `next` cell.  An
  /// empty FIFO has size 0 and its tail at its own head cell.
  struct LinkQ {
    u32 tail = 0;
    u32 size = 0;
  };
  static_assert(sizeof(Payload) == 8 && sizeof(LinkQ) == 8,
                "a pristine link or slot costs 12 bytes with its next cell");

  /// Links `slot` behind `link`'s tail; the FIFO may be empty.
  void append(u64 link, u32 slot) {
    LinkQ& q = q_[link];
    next_[q.tail] = slot;
    q.tail = slot;
    ++q.size;
    occupied_[link >> 6] |= u64{1} << (link & 63);
  }

  /// Unlinks and returns the front slot of the non-empty `link`.  The slot's
  /// own `next` cell is left stale: every reader goes through a head cell
  /// and `size`, so no chain end needs a terminator.
  u32 unlink_front(u64 link) {
    LinkQ& q = q_[link];
    const u32 slot = next_[link];
    next_[link] = next_[slot];
    --q.size;
    const bool now_empty = q.size == 0;
    q.tail = now_empty ? static_cast<u32>(link) : q.tail;
    occupied_[link >> 6] &= ~(u64{now_empty} << (link & 63));
    return slot;
  }

  u32 alloc() {
    if (free_head_ == kNil) grow(payload_.size());
    const u32 slot = free_head_;
    free_head_ = next_[slot];
    return slot;
  }

  void grow(std::size_t add) {
    const std::size_t old = payload_.size();
    const std::size_t grown = old + std::max<std::size_t>(add, 64);
    BFLY_CHECK(links_ + grown < static_cast<std::size_t>(kNil),
               "packet arena slot space exhausted");
    payload_.resize(grown);
    if (with_budgets_) budgets_.resize(grown);
    if (with_flight_) flight_.resize(grown);
    next_.resize(links_ + grown);
    // Chain the new slots onto the free list, lowest id at the head.
    for (std::size_t i = grown; i-- > old;) {
      next_[links_ + i] = free_head_;
      free_head_ = static_cast<u32>(links_ + i);
    }
  }

  bool with_budgets_;
  bool with_flight_;
  u32 links_;  ///< the first slot id (ids below it are head cells)
  // Packet lanes (indexed by slot id - links_).
  std::vector<Payload> payload_;
  std::vector<u64> budgets_;  ///< misroutes | wraps << 32, with_budgets only
  std::vector<u64> flight_;   ///< flight-recorder handle, with_flight only
  /// Indexed by id: a link's head cell (its front slot), a slot's FIFO
  /// successor, or a free slot's free-list successor.
  std::vector<u32> next_;
  // Per-link FIFO state (indexed by dense link id).
  std::vector<LinkQ> q_;
  std::vector<u64> occupied_;  ///< bit (link & 63) of word (link >> 6)
  u32 free_head_ = kNil;
};

}  // namespace bfly
