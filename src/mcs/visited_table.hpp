#pragma once

#include <algorithm>
#include <bit>
#include <cstddef>
#include <cstdint>
#include <vector>

#include "ft/fault_tree.hpp"

namespace sdft {

/// The MOCUS visited set: an exact open-addressing hash set of partial
/// cutsets (paper §IV-B), keyed by the partial's sorted basic events
/// followed by its sorted gates.
///
/// Basic-event and gate indices of one tree are disjoint, so the list
/// names exactly the node set of the partial. Keys live back to back in
/// one flat arena of node_index, each record headed by the key's length
/// and event count; a 16-byte slot holds only the key's 64-bit hash and
/// its arena offset. Inserting a duplicate allocates nothing, and growing
/// rehashes the slots from their stored hashes without touching a key.
/// Equality compares the full lists, so two different partials are never
/// merged whatever their hashes.
class visited_table {
 public:
  /// Hash of the key (events, gates); both lists sorted. Every bit is
  /// mixed: the table probes with the low bits, and a sharded caller may
  /// pick its shard from the high ones.
  static std::uint64_t hash(const std::vector<node_index>& events,
                            const std::vector<node_index>& gates) {
    std::uint64_t h = events.size();
    for (node_index e : events) h = (std::rotl(h, 5) ^ e) * multiplier;
    for (node_index g : gates) h = (std::rotl(h, 5) ^ g) * multiplier;
    // murmur3's 64-bit finaliser.
    h ^= h >> 33;
    h *= 0xff51afd7ed558ccdULL;
    h ^= h >> 33;
    h *= 0xc4ceb9fe1a85ec53ULL;
    h ^= h >> 33;
    return h;
  }

  /// Adds the key; true iff it was not already present.
  bool insert(const std::vector<node_index>& events,
              const std::vector<node_index>& gates) {
    return insert(events, gates, hash(events, gates));
  }

  /// Adds the key under the precomputed hash `h`, normally
  /// hash(events, gates); the parallel driver hashes outside its shard
  /// lock. Any `h` keeps the table exact: equal hashes only cost compares.
  bool insert(const std::vector<node_index>& events,
              const std::vector<node_index>& gates, std::uint64_t h) {
    if ((size_ + 1) * 2 > slots_.size()) grow();
    const std::size_t mask = slots_.size() - 1;
    const auto length = static_cast<node_index>(events.size() + gates.size());
    const auto num_events = static_cast<node_index>(events.size());
    for (std::size_t i = h & mask;; i = (i + 1) & mask) {
      slot& s = slots_[i];
      if (s.offset == empty) {
        s = slot{h, arena_.size()};
        arena_.push_back(length);
        arena_.push_back(num_events);
        arena_.insert(arena_.end(), events.begin(), events.end());
        arena_.insert(arena_.end(), gates.begin(), gates.end());
        ++size_;
        return true;
      }
      if (s.hash == h) {
        const node_index* rec = arena_.data() + s.offset;
        if (rec[0] == length && rec[1] == num_events &&
            std::equal(events.begin(), events.end(), rec + 2) &&
            std::equal(gates.begin(), gates.end(), rec + 2 + num_events)) {
          return false;
        }
      }
    }
  }

  /// Forgets every key, keeping the slot and arena capacity.
  void clear() {
    std::fill(slots_.begin(), slots_.end(), slot{});
    arena_.clear();
    size_ = 0;
  }

  /// Keys held.
  std::size_t size() const { return size_; }

  /// Heap bytes held by the slots and the arena.
  std::size_t bytes() const {
    return slots_.capacity() * sizeof(slot) +
           arena_.capacity() * sizeof(node_index);
  }

 private:
  static constexpr std::uint64_t multiplier = 0x9e3779b97f4a7c15ULL;
  static constexpr std::uint64_t empty = ~std::uint64_t{0};
  static constexpr std::size_t min_slots = 16;

  /// The key's record starts at arena_[offset]: length (events +
  /// gates), event count, then the events and the gates.
  struct slot {
    std::uint64_t hash = 0;
    std::uint64_t offset = empty;  ///< `empty` marks a free slot
  };

  /// Doubles the slot array (load stays at most 1/2) and re-places every
  /// key by its stored hash.
  void grow() {
    std::vector<slot> old(std::max(min_slots, slots_.size() * 2));
    old.swap(slots_);
    const std::size_t mask = slots_.size() - 1;
    for (const slot& s : old) {
      if (s.offset == empty) continue;
      std::size_t i = s.hash & mask;
      while (slots_[i].offset != empty) i = (i + 1) & mask;
      slots_[i] = s;
    }
  }

  std::vector<slot> slots_;
  std::vector<node_index> arena_;
  std::size_t size_ = 0;
};

}  // namespace sdft
