#ifndef SPITFIRE_HYMEM_ADMISSION_QUEUE_H_
#define SPITFIRE_HYMEM_ADMISSION_QUEUE_H_

#include <cstdint>
#include <deque>
#include <unordered_set>

#include "common/constants.h"
#include "common/macros.h"
#include "sync/spin_latch.h"

namespace spitfire {

// HyMem's NVM admission queue (Section 1 / 6.5). Each time a page evicted
// from DRAM is considered for NVM admission:
//  - if its id is in the queue, it is removed and ADMITTED (second touch);
//  - otherwise its id is enqueued and the page bypasses NVM (first touch).
// The queue is bounded; when full, the oldest entry is dropped. The paper
// found a capacity of half the NVM buffer's page count to work well.
class AdmissionQueue {
 public:
  explicit AdmissionQueue(size_t capacity);
  SPITFIRE_DISALLOW_COPY_AND_MOVE(AdmissionQueue);

  // Returns true if `pid` should be admitted to NVM now (and removes it
  // from the queue); false if it was enqueued for next time.
  bool ShouldAdmit(page_id_t pid);

  // Removes `pid` if queued (e.g. page deleted).
  void Remove(page_id_t pid);

  size_t size() const;
  size_t capacity() const { return capacity_; }

 private:
  void EvictOldestLocked();

  const size_t capacity_;
  mutable SpinLatch latch_;
  std::deque<page_id_t> fifo_;
  std::unordered_set<page_id_t> members_;
};

}  // namespace spitfire

#endif  // SPITFIRE_HYMEM_ADMISSION_QUEUE_H_
