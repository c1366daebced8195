#include "mem/prefetcher.h"

#include <stdexcept>
#include <string>

namespace mapg {

StreamPrefetcher::StreamPrefetcher(PrefetcherConfig config)
    : config_(config) {
  if (!config_.valid())
    throw std::invalid_argument(
        "invalid prefetcher configuration: degree " +
        std::to_string(config_.degree) + ", " +
        std::to_string(config_.table_entries) +
        " table entries (both must be positive when enabled)");
  table_.resize(config_.table_entries);
}

void StreamPrefetcher::emit_window(Stream& s, Addr demand_line,
                                   std::uint64_t line_bytes,
                                   std::vector<Addr>& out) {
  const Addr span = static_cast<Addr>(config_.degree) * line_bytes;
  if (s.dir > 0) {
    if (s.next_issue == kNoAddr || s.next_issue <= demand_line)
      s.next_issue = demand_line + line_bytes;
    const Addr limit = demand_line + span;  // furthest line in the window
    while (s.next_issue <= limit) {
      out.push_back(s.next_issue);
      ++stats_.issued;
      s.next_issue += line_bytes;
    }
  } else {
    if (s.next_issue == kNoAddr ||
        (s.next_issue != kNoAddr && s.next_issue >= demand_line)) {
      if (demand_line < line_bytes) return;  // at the bottom of memory
      s.next_issue = demand_line - line_bytes;
    }
    const Addr limit = demand_line >= span ? demand_line - span : 0;
    while (s.next_issue >= limit) {
      out.push_back(s.next_issue);
      ++stats_.issued;
      if (s.next_issue < line_bytes) {
        s.next_issue = kNoAddr;  // reached address zero: stream exhausted
        break;
      }
      s.next_issue -= line_bytes;
    }
  }
}

void StreamPrefetcher::observe(Addr line_addr, std::uint64_t line_bytes,
                               std::vector<Addr>& out) {
  if (!config_.enable) return;
  ++tick_;

  // 1. Does this event extend a tracked stream?
  for (Stream& s : table_) {
    if (s.next_demand != line_addr) continue;
    ++stats_.trained;
    ++s.hits;
    s.lru = tick_;
    s.next_demand = s.dir > 0 ? line_addr + line_bytes
                              : (line_addr >= line_bytes
                                     ? line_addr - line_bytes
                                     : kNoAddr);
    if (s.hits >= config_.confirm_after)
      emit_window(s, line_addr, line_bytes, out);
    return;
  }

  // 2. Descending detection: a previous miss allocated an ascending stream
  // expecting line+2; this miss one line BELOW it means a descending sweep.
  for (Stream& s : table_) {
    if (s.next_demand != kNoAddr && s.dir > 0 && s.hits == 0 &&
        line_addr + 2 * line_bytes == s.next_demand) {
      s.dir = -1;
      s.next_demand =
          line_addr >= line_bytes ? line_addr - line_bytes : kNoAddr;
      s.next_issue = kNoAddr;
      s.hits = 1;
      s.lru = tick_;
      ++stats_.trained;
      if (s.hits >= config_.confirm_after)
        emit_window(s, line_addr, line_bytes, out);
      return;
    }
  }

  // 3. New stream: allocate the LRU (or free) entry, assuming ascending.
  Stream* victim = &table_.front();
  for (Stream& s : table_) {
    if (s.next_demand == kNoAddr) {
      victim = &s;
      break;
    }
    if (s.lru < victim->lru) victim = &s;
  }
  ++stats_.streams;
  victim->next_demand = line_addr + line_bytes;
  victim->next_issue = kNoAddr;
  victim->dir = 1;
  victim->hits = 0;
  victim->lru = tick_;
}

}  // namespace mapg
