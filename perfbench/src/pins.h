// Output digests pinned for the default seed (workloads.h kDefaultSeed).
// A cell's digest is FNV-1a of its canonical result JSON (harness.h
// result_digest); a grid or hot set pins FNV-1a of its cells' digests in
// order; a projection pins FNV-1a of every estimate's value and standard
// error bits (sampled.cpp).  A run with the default seed must reproduce
// every one; a run with any other seed checks cross-path identities
// instead.  A change that legitimately moves a simulated statistic must
// re-pin these (each run prints what it observed) and say why.
#pragma once

#include <cstdint>

namespace perfbench {

struct Pin {
  const char* key;
  std::uint64_t digest;
};

inline constexpr Pin kPins[] = {
    {"direct-mem/mcf-like/mapg", 0x61d4c5e42258884fULL},
    {"direct-mem/libquantum-like/mapg", 0x1066d52211778482ULL},
    {"direct-compute/gamess-like/mapg", 0x7c2c422e0865837eULL},
    {"direct-compute/povray-like/mapg", 0xc0ede6ad2923bc77ULL},
    {"sweep-tab1/grid", 0x02bbd085411a9674ULL},
    {"sampled-trace/full/none", 0x0772d035ec94b27fULL},
    {"sampled-trace/full/mapg", 0x21690603f16c3763ULL},
    {"sampled-trace/projection", 0x7804db137793afecULL},
    {"serve-mixed/hot-set", 0x8ecb3accefddfccaULL},
};

}  // namespace perfbench
