#ifndef SPITFIRE_HYMEM_CACHELINE_PAGE_H_
#define SPITFIRE_HYMEM_CACHELINE_PAGE_H_

#include <cstdint>

#include "common/constants.h"
#include "common/macros.h"

namespace spitfire {

// Bitmap over the loading units of one page, used as the `resident` and
// `dirty` masks of a cache-line-grained page (Figure 2a). A page has at
// most kPageSize / 64 = 256 units (when the loading granularity is 64 B),
// so four 64-bit words suffice for any granularity.
class UnitBitmap256 {
 public:
  static constexpr size_t kMaxUnits = 256;

  UnitBitmap256() { Reset(); }

  void Reset() {
    for (auto& w : words_) w = 0;
  }

  void Set(size_t i) {
    SPITFIRE_DCHECK(i < kMaxUnits);
    words_[i >> 6] |= 1ULL << (i & 63);
  }

  bool Test(size_t i) const {
    SPITFIRE_DCHECK(i < kMaxUnits);
    return words_[i >> 6] & (1ULL << (i & 63));
  }

 private:
  uint64_t words_[4];
};

// Unit masks of a cache-line-grained DRAM copy: which loading units have
// been pulled up from the NVM copy, and which were dirtied and must be
// written back. The paper stores these masks in the page header (Figure
// 2a); HymemDram keeps one per DRAM frame in a side table, which is
// equivalent and steals no page payload bytes.
struct CacheLineState {
  UnitBitmap256 resident;
  UnitBitmap256 dirty;

  void Reset() {
    resident.Reset();
    dirty.Reset();
  }
};

}  // namespace spitfire

#endif  // SPITFIRE_HYMEM_CACHELINE_PAGE_H_
