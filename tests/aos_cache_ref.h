// Reference oracle for mapg::Cache: the array-of-structs implementation the
// structure-of-arrays cache replaced, kept verbatim in behaviour.  Each line
// carries its own valid bit, the victim search scans invalid ways first for
// every policy, and LRU then takes the minimum stamp.  test_cache_diff.cpp
// drives both with the same random operation sequences and asserts equal
// results, statistics and exported state.  Test-only; not linked into src/.
#pragma once

#include <bit>
#include <cassert>
#include <cstdint>
#include <vector>

#include "common/prng.h"
#include "common/types.h"
#include "mem/cache.h"

namespace mapg::testref {

class AosCache {
 public:
  using Line = Cache::Line;
  using State = Cache::State;
  using AccessResult = Cache::AccessResult;

  explicit AosCache(CacheConfig config) : config_(config) {
    assert(config_.valid() && "invalid cache geometry");
    line_mask_ = config_.line_bytes - 1;
    line_shift_ = static_cast<std::uint32_t>(std::countr_zero(
        static_cast<std::uint64_t>(config_.line_bytes)));
    set_mask_ = config_.num_sets() - 1;
    lines_.resize(config_.num_sets() * config_.assoc);
    plru_bits_.assign(config_.num_sets() * config_.assoc, 0);
  }

  AccessResult access(Addr addr, bool is_write) {
    const std::uint64_t set = set_index(addr);
    const Addr tag = tag_of(addr);
    Line* set_lines = &lines_[set * config_.assoc];
    for (std::uint32_t w = 0; w < config_.assoc; ++w) {
      Line& line = set_lines[w];
      if (line.valid && line.tag == tag) {
        touch(set, w);
        if (is_write) {
          ++stats_.write_hits;
          if (config_.write_back) line.dirty = true;
        } else {
          ++stats_.read_hits;
        }
        AccessResult result{.hit = true};
        if (line.prefetched) {
          line.prefetched = false;
          result.hit_on_prefetched = true;
        }
        return result;
      }
    }
    if (is_write)
      ++stats_.write_misses;
    else
      ++stats_.read_misses;
    const std::uint32_t victim = choose_victim(set);
    Line& line = set_lines[victim];
    AccessResult result = evict(line);
    line.valid = true;
    line.tag = tag;
    line.dirty = is_write && config_.write_back;
    line.prefetched = false;
    touch(set, victim);
    return result;
  }

  AccessResult fill(Addr addr) {
    const std::uint64_t set = set_index(addr);
    const Addr tag = tag_of(addr);
    Line* set_lines = &lines_[set * config_.assoc];
    for (std::uint32_t w = 0; w < config_.assoc; ++w)
      if (set_lines[w].valid && set_lines[w].tag == tag)
        return AccessResult{.hit = true};
    ++stats_.prefetch_fills;
    const std::uint32_t victim = choose_victim(set);
    Line& line = set_lines[victim];
    AccessResult result = evict(line);
    line.valid = true;
    line.tag = tag;
    line.dirty = false;
    line.prefetched = true;
    touch(set, victim);
    return result;
  }

  bool contains(Addr addr) const {
    const std::uint64_t set = set_index(addr);
    const Addr tag = tag_of(addr);
    const Line* set_lines = &lines_[set * config_.assoc];
    for (std::uint32_t w = 0; w < config_.assoc; ++w)
      if (set_lines[w].valid && set_lines[w].tag == tag) return true;
    return false;
  }

  void flush() {
    for (auto& line : lines_) line = Line{};
    plru_bits_.assign(plru_bits_.size(), 0);
    stamp_ = 0;
  }

  State export_state() const {
    State s;
    s.lines = lines_;
    s.plru_bits = plru_bits_;
    s.stamp = stamp_;
    s.victim_prng = victim_prng_.state();
    s.stats = stats_;
    return s;
  }

  void import_state(const State& s) {
    lines_ = s.lines;
    plru_bits_ = s.plru_bits;
    stamp_ = s.stamp;
    victim_prng_.set_state(s.victim_prng);
    stats_ = s.stats;
  }

  const CacheStats& stats() const { return stats_; }

 private:
  std::uint64_t set_index(Addr addr) const {
    return (addr >> line_shift_) & set_mask_;
  }
  Addr tag_of(Addr addr) const { return addr >> line_shift_; }

  AccessResult evict(const Line& line) {
    AccessResult result;
    if (line.valid) {
      ++stats_.evictions;
      if (line.dirty) {
        ++stats_.writebacks;
        result.writeback = true;
        result.writeback_addr = line.tag << line_shift_;
      }
    }
    return result;
  }

  void touch(std::uint64_t set, std::uint32_t way) {
    lines_[set * config_.assoc + way].lru_stamp = ++stamp_;
    if (config_.repl != ReplPolicy::kTreePlru) return;
    std::uint8_t* bits = &plru_bits_[set * config_.assoc];
    std::uint32_t node = 0, lo = 0, hi = config_.assoc;
    while (hi - lo > 1) {
      const std::uint32_t mid = lo + (hi - lo) / 2;
      if (way < mid) {
        bits[node] = 1;
        node = 2 * node + 1;
        hi = mid;
      } else {
        bits[node] = 0;
        node = 2 * node + 2;
        lo = mid;
      }
    }
  }

  std::uint32_t choose_victim(std::uint64_t set) {
    const std::uint32_t assoc = config_.assoc;
    const Line* set_lines = &lines_[set * assoc];
    for (std::uint32_t w = 0; w < assoc; ++w)
      if (!set_lines[w].valid) return w;
    switch (config_.repl) {
      case ReplPolicy::kLru: {
        std::uint32_t victim = 0;
        for (std::uint32_t w = 1; w < assoc; ++w)
          if (set_lines[w].lru_stamp < set_lines[victim].lru_stamp)
            victim = w;
        return victim;
      }
      case ReplPolicy::kTreePlru: {
        const std::uint8_t* bits = &plru_bits_[set * assoc];
        std::uint32_t node = 0, lo = 0, hi = assoc;
        while (hi - lo > 1) {
          const std::uint32_t mid = lo + (hi - lo) / 2;
          if (bits[node]) {
            node = 2 * node + 2;
            lo = mid;
          } else {
            node = 2 * node + 1;
            hi = mid;
          }
        }
        return lo;
      }
      case ReplPolicy::kRandom:
        return static_cast<std::uint32_t>(victim_prng_.below(assoc));
    }
    return 0;
  }

  CacheConfig config_;
  std::uint64_t line_mask_;
  std::uint64_t set_mask_;
  std::uint32_t line_shift_;
  std::vector<Line> lines_;
  std::vector<std::uint8_t> plru_bits_;
  std::uint64_t stamp_ = 0;
  Prng victim_prng_{0xC0FFEEULL};
  CacheStats stats_;
};

}  // namespace mapg::testref
