#include "hymem/admission_queue.h"

namespace spitfire {

AdmissionQueue::AdmissionQueue(size_t capacity)
    : capacity_(capacity == 0 ? 1 : capacity) {}

bool AdmissionQueue::ShouldAdmit(page_id_t pid) {
  SpinLatchGuard g(latch_);
  auto it = members_.find(pid);
  if (it != members_.end()) {
    members_.erase(it);
    // Lazy removal from the FIFO: stale ids are skipped during eviction.
    return true;
  }
  members_.insert(pid);
  fifo_.push_back(pid);
  while (members_.size() > capacity_) EvictOldestLocked();
  return false;
}

void AdmissionQueue::Remove(page_id_t pid) {
  SpinLatchGuard g(latch_);
  members_.erase(pid);
}

void AdmissionQueue::EvictOldestLocked() {
  while (!fifo_.empty()) {
    const page_id_t victim = fifo_.front();
    fifo_.pop_front();
    if (members_.erase(victim) != 0) return;  // skip stale entries
  }
}

size_t AdmissionQueue::size() const {
  SpinLatchGuard g(latch_);
  return members_.size();
}

}  // namespace spitfire
