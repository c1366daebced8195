#include "mem/cache.h"

#include <algorithm>
#include <bit>
#include <cassert>
#include <stdexcept>
#include <string>

namespace mapg {

bool CacheConfig::valid() const {
  if (line_bytes == 0 || !std::has_single_bit(line_bytes)) return false;
  if (assoc == 0) return false;
  if (size_bytes == 0 || size_bytes % (static_cast<std::uint64_t>(line_bytes) *
                                       assoc) != 0)
    return false;
  const std::uint64_t sets = num_sets();
  return sets > 0 && std::has_single_bit(sets);
}

Cache::Cache(CacheConfig config) : config_(config) {
  if (!config_.valid())
    throw std::invalid_argument(
        "invalid " + config_.name + " cache geometry: " +
        std::to_string(config_.size_bytes) + " B, " +
        std::to_string(config_.assoc) + "-way, " +
        std::to_string(config_.line_bytes) +
        " B lines (needs a power-of-two line size and a whole, power-of-two "
        "number of sets)");
  line_mask_ = config_.line_bytes - 1;
  line_shift_ = static_cast<std::uint32_t>(std::countr_zero(
      static_cast<std::uint64_t>(config_.line_bytes)));
  set_mask_ = config_.num_sets() - 1;
  const std::size_t slots = config_.num_sets() * config_.assoc;
  tags_.assign(slots, kNoAddr);
  stamps_.assign(slots, 0);
  flags_.assign(slots, 0);
  plru_bits_.assign(slots, 0);
}

std::uint64_t Cache::set_index(Addr addr) const {
  return (addr >> line_shift_) & set_mask_;
}

Addr Cache::tag_of(Addr addr) const {
  return addr >> line_shift_;  // full line number as tag; simple and exact
}

std::uint32_t Cache::find_way(std::size_t base, Addr tag) const {
  const Addr* set_tags = &tags_[base];
  const std::uint32_t assoc = config_.assoc;
  std::uint32_t w = 0;
  while (w < assoc && set_tags[w] != tag) ++w;
  return w;
}

void Cache::touch(std::uint64_t set, std::uint32_t way) {
  stamps_[set * config_.assoc + way] = ++stamp_;
  if (config_.repl == ReplPolicy::kTreePlru) {
    // Walk from the root, flipping each internal node away from this way.
    std::uint8_t* bits = &plru_bits_[set * config_.assoc];
    std::uint32_t node = 0;
    std::uint32_t lo = 0, hi = config_.assoc;
    while (hi - lo > 1) {
      const std::uint32_t mid = lo + (hi - lo) / 2;
      if (way < mid) {
        bits[node] = 1;  // next victim search goes right
        node = 2 * node + 1;
        hi = mid;
      } else {
        bits[node] = 0;  // next victim search goes left
        node = 2 * node + 2;
        lo = mid;
      }
    }
  }
}

std::uint32_t Cache::choose_victim(std::uint64_t set) {
  const std::uint32_t assoc = config_.assoc;
  const std::size_t base = set * assoc;

  if (config_.repl == ReplPolicy::kLru) {
    // One strict-< min-stamp scan.  Invalid ways hold stamp 0 and valid
    // ones >= 1, so this returns the lowest-index invalid way when there is
    // one, and the least recently used way otherwise (see cache.h).
    const std::uint64_t* stamps = &stamps_[base];
    std::uint32_t victim = 0;
    std::uint64_t oldest = stamps[0];
    for (std::uint32_t w = 1; w < assoc; ++w) {
      if (stamps[w] < oldest) {
        oldest = stamps[w];
        victim = w;
      }
    }
    return victim;
  }

  // Invalid ways first for the other policies.
  const std::uint32_t invalid = find_way(base, kNoAddr);
  if (invalid < assoc) return invalid;

  if (config_.repl == ReplPolicy::kTreePlru) {
    const std::uint8_t* bits = &plru_bits_[base];
    std::uint32_t node = 0;
    std::uint32_t lo = 0, hi = assoc;
    while (hi - lo > 1) {
      const std::uint32_t mid = lo + (hi - lo) / 2;
      if (bits[node]) {  // bit set = go right
        node = 2 * node + 2;
        lo = mid;
      } else {
        node = 2 * node + 1;
        hi = mid;
      }
    }
    return lo;
  }
  return static_cast<std::uint32_t>(victim_prng_.below(assoc));
}

Cache::AccessResult Cache::replace(std::size_t i, Addr tag,
                                   std::uint8_t flags) {
  AccessResult result;
  if (tags_[i] != kNoAddr) {
    ++stats_.evictions;
    if (flags_[i] & kDirty) {
      ++stats_.writebacks;
      result.writeback = true;
      result.writeback_addr = tags_[i] << line_shift_;
    }
  }
  tags_[i] = tag;
  flags_[i] = flags;
  return result;
}

Cache::AccessResult Cache::access(Addr addr, bool is_write) {
  const std::uint64_t set = set_index(addr);
  const Addr tag = tag_of(addr);
  const std::size_t base = set * config_.assoc;

  const std::uint32_t way = find_way(base, tag);
  if (way < config_.assoc) {
    std::uint8_t& flags = flags_[base + way];
    touch(set, way);
    if (is_write) {
      ++stats_.write_hits;
      if (config_.write_back) flags |= kDirty;
    } else {
      ++stats_.read_hits;
    }
    AccessResult result{.hit = true};
    if (flags & kPrefetched) {
      flags &= static_cast<std::uint8_t>(~kPrefetched);  // consume re-trigger
      result.hit_on_prefetched = true;
    }
    return result;
  }

  // Miss: allocate (write-allocate for both reads and writes).
  if (is_write)
    ++stats_.write_misses;
  else
    ++stats_.read_misses;

  const std::uint32_t victim = choose_victim(set);
  const AccessResult result =
      replace(base + victim, tag,
              is_write && config_.write_back ? kDirty : std::uint8_t{0});
  touch(set, victim);
  return result;
}

Cache::AccessResult Cache::fill(Addr addr) {
  const std::uint64_t set = set_index(addr);
  const Addr tag = tag_of(addr);
  const std::size_t base = set * config_.assoc;

  if (find_way(base, tag) < config_.assoc)
    return AccessResult{.hit = true};  // already resident: nothing to do

  ++stats_.prefetch_fills;
  const std::uint32_t victim = choose_victim(set);
  const AccessResult result = replace(base + victim, tag, kPrefetched);
  touch(set, victim);
  return result;
}

bool Cache::contains(Addr addr) const {
  return find_way(set_index(addr) * config_.assoc, tag_of(addr)) <
         config_.assoc;
}

void Cache::flush() {
  std::fill(tags_.begin(), tags_.end(), kNoAddr);
  std::fill(stamps_.begin(), stamps_.end(), 0);
  std::fill(flags_.begin(), flags_.end(), 0);
  std::fill(plru_bits_.begin(), plru_bits_.end(), 0);
  stamp_ = 0;
}

Cache::State Cache::export_state() const {
  State s;
  s.lines.resize(tags_.size());
  for (std::size_t i = 0; i < tags_.size(); ++i) {
    if (tags_[i] == kNoAddr) continue;  // invalid: stays Line{}
    Line& l = s.lines[i];
    l.tag = tags_[i];
    l.valid = true;
    l.dirty = (flags_[i] & kDirty) != 0;
    l.prefetched = (flags_[i] & kPrefetched) != 0;
    l.lru_stamp = stamps_[i];
  }
  s.plru_bits = plru_bits_;
  s.stamp = stamp_;
  s.victim_prng = victim_prng_.state();
  s.stats = stats_;
  return s;
}

void Cache::import_state(const State& s) {
  assert(s.lines.size() == tags_.size() &&
         s.plru_bits.size() == plru_bits_.size() &&
         "state was exported under a different CacheConfig");
  for (std::size_t i = 0; i < tags_.size(); ++i) {
    const Line& l = s.lines[i];
    assert((l.valid || l == Line{}) && "invalid line must be Line{}");
    tags_[i] = l.valid ? l.tag : kNoAddr;
    stamps_[i] = l.lru_stamp;
    flags_[i] = static_cast<std::uint8_t>((l.dirty ? kDirty : 0) |
                                          (l.prefetched ? kPrefetched : 0));
  }
  plru_bits_ = s.plru_bits;
  stamp_ = s.stamp;
  victim_prng_.set_state(s.victim_prng);
  stats_ = s.stats;
}

}  // namespace mapg
