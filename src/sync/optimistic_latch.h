#ifndef SPITFIRE_SYNC_OPTIMISTIC_LATCH_H_
#define SPITFIRE_SYNC_OPTIMISTIC_LATCH_H_

#include <atomic>
#include <cstdint>

#include "common/macros.h"

#if defined(__SANITIZE_THREAD__)
#define SPITFIRE_TSAN 1
#elif defined(__has_feature)
#if __has_feature(thread_sanitizer)
#define SPITFIRE_TSAN 1
#endif
#endif

#ifdef SPITFIRE_TSAN
extern "C" void AnnotateIgnoreReadsBegin(const char* file, int line);
extern "C" void AnnotateIgnoreReadsEnd(const char* file, int line);
#endif

namespace spitfire {

// Marks the unvalidated reads of an optimistic reader. Such reads race
// with writers by design, and every value read is discarded unless the
// version check after them passes. Under ThreadSanitizer the calling
// thread's plain reads go unchecked for the scope's lifetime; atomics, and
// so the happens-before edges of the latch protocol, are still tracked.
// Without it, each write that follows a pin-free read is a report to
// suppress, which made a TSan run of the B+Tree stress tests tens of
// times slower. Elsewhere it compiles to nothing.
// Keep the scope tight: no calls into the buffer manager inside it.
class RacyReadScope {
 public:
#ifdef SPITFIRE_TSAN
  RacyReadScope() { AnnotateIgnoreReadsBegin(__FILE__, __LINE__); }
  ~RacyReadScope() { AnnotateIgnoreReadsEnd(__FILE__, __LINE__); }
#else
  RacyReadScope() {}  // user-provided: no unused-variable warning
#endif
  SPITFIRE_DISALLOW_COPY_AND_MOVE(RacyReadScope);
};

// Optimistic version latch for lock coupling, after Leis et al.,
// "Optimistic Lock Coupling" (IEEE DEB 2019). The 64-bit word packs
// (version << 1 | locked). Readers sample the version, proceed without
// blocking, and validate; writers bump the version on unlock so readers can
// detect interference and restart.
class OptimisticLatch {
 public:
  static constexpr uint64_t kLockedBit = 1ULL;
  // Sentinel returned by ReadLockOrRestart when the latch is write-locked.
  static constexpr uint64_t kRetry = UINT64_MAX;

  OptimisticLatch() = default;
  SPITFIRE_DISALLOW_COPY_AND_MOVE(OptimisticLatch);

  // Returns the current version, or kRetry if a writer holds the latch.
  uint64_t ReadLockOrRestart() const {
    uint64_t v = word_.load(std::memory_order_acquire);
    if (v & kLockedBit) return kRetry;
    return v;
  }

  // Validates that no writer intervened since `version` was sampled.
  bool Validate(uint64_t version) const {
    std::atomic_thread_fence(std::memory_order_acquire);
    return word_.load(std::memory_order_acquire) == version;
  }

  // Upgrades an optimistic read to a write lock; fails (restart) if the
  // version moved.
  bool UpgradeToWriteLock(uint64_t version) {
    return word_.compare_exchange_strong(version, version | kLockedBit,
                                         std::memory_order_acquire,
                                         std::memory_order_relaxed);
  }

  void WriteLock() {
    for (;;) {
      uint64_t v = word_.load(std::memory_order_relaxed);
      if ((v & kLockedBit) == 0 &&
          word_.compare_exchange_weak(v, v | kLockedBit,
                                      std::memory_order_acquire,
                                      std::memory_order_relaxed)) {
        return;
      }
      __builtin_ia32_pause();
    }
  }

  bool TryWriteLock() {
    uint64_t v = word_.load(std::memory_order_relaxed);
    return (v & kLockedBit) == 0 &&
           word_.compare_exchange_strong(v, v | kLockedBit,
                                         std::memory_order_acquire,
                                         std::memory_order_relaxed);
  }

  // Releases the write lock, bumping the version so optimistic readers fail
  // validation.
  void WriteUnlock() {
    uint64_t v = word_.load(std::memory_order_relaxed);
    SPITFIRE_DCHECK(v & kLockedBit);
    word_.store((v & ~kLockedBit) + 2, std::memory_order_release);
  }

  // Releases the write lock without changing the version (no modification
  // was made).
  void WriteUnlockNoBump() {
    uint64_t v = word_.load(std::memory_order_relaxed);
    SPITFIRE_DCHECK(v & kLockedBit);
    word_.store(v & ~kLockedBit, std::memory_order_release);
  }

  bool IsWriteLocked() const {
    return word_.load(std::memory_order_relaxed) & kLockedBit;
  }

  uint64_t RawVersion() const { return word_.load(std::memory_order_relaxed); }

 private:
  std::atomic<uint64_t> word_{0};
};

}  // namespace spitfire

#endif  // SPITFIRE_SYNC_OPTIMISTIC_LATCH_H_
