#ifndef BAMBOO_SRC_DB_SUSPEND_H_
#define BAMBOO_SRC_DB_SUSPEND_H_

#include <atomic>
#include <cstdint>

#include "src/db/txn.h"

namespace bamboo {

/// Multi-producer single-consumer ready queue for suspended transactions.
/// Producers are lock-table notification paths (grant / wound / semaphore
/// drain) running TxnCB::susp_fire on whatever thread released the lock;
/// the single consumer is the epoll loop that owns the suspended
/// transactions.
///
/// Structure: a Treiber push stack over the intrusive `TxnCB::ready_next`
/// link. Push never blocks; PopAll exchanges the head to nullptr, so the
/// consumer drains in O(1) and resumes in LIFO order (order is irrelevant
/// -- every popped transaction is independently runnable).
///
/// A transaction is pushed at most once per suspension: susp_fire runs
/// only after Notify's exclusive exchange claims the armed flag, and the
/// flag is armed only while the transaction is *not* enqueued (the driver
/// re-arms, if at all, only after popping it). So `ready_next` can never
/// be overwritten while the node is linked.
///
/// Wakeup: the producer writes the loop's eventfd so its epoll_wait
/// returns. `event_pending_` collapses bursts into one write per drain
/// cycle. A queue with no eventfd installed (unit tests) is polled.
class ResumeQueue {
 public:
  ResumeQueue() = default;
  ResumeQueue(const ResumeQueue&) = delete;
  ResumeQueue& operator=(const ResumeQueue&) = delete;

  /// Install the eventfd to poke on Push / Kick. The queue does not own
  /// the fd. Pass the platform write hook so this header stays free of
  /// <sys/eventfd.h>.
  void SetEventFd(int fd, void (*poke)(int)) {
    event_fd_ = fd;
    event_poke_ = poke;
  }

  /// Producer side; safe from any thread, including under no locks on a
  /// lock-table release path. This is the canonical TxnCB::susp_fire
  /// target (via FireThunk).
  void Push(TxnCB* t) {
    TxnCB* h = head_.load(std::memory_order_relaxed);
    do {
      t->ready_next = h;
    } while (!head_.compare_exchange_weak(h, t, std::memory_order_release,
                                          std::memory_order_relaxed));
    // One eventfd write per drain cycle: the consumer clears the flag after
    // reading the fd, so a burst of fires costs one syscall.
    Kick();
  }

  /// Consumer side: detach the whole stack (LIFO chain via ready_next),
  /// or nullptr when empty. The consumer must read each node's
  /// `ready_next` *before* acting on the node -- resuming it may re-arm
  /// and re-push it, overwriting the link.
  TxnCB* PopAll() { return head_.exchange(nullptr, std::memory_order_acquire); }

  bool Empty() const {
    return head_.load(std::memory_order_acquire) == nullptr;
  }

  /// Wake the consumer without pushing (shutdown, external state change).
  /// Safe from any thread.
  void Kick() {
    if (event_poke_ != nullptr &&
        !event_pending_.exchange(true, std::memory_order_acq_rel)) {
      event_poke_(event_fd_);
    }
  }

  /// Consumer side: call after draining the eventfd so the next Push
  /// issues a fresh write.
  void ClearEventPending() {
    event_pending_.store(false, std::memory_order_release);
  }

  /// Adapter matching the TxnCB::susp_fire signature; expects
  /// `t->susp_ctx` to point at the ResumeQueue.
  static void FireThunk(TxnCB* t) {
    static_cast<ResumeQueue*>(t->susp_ctx)->Push(t);
  }

 private:
  std::atomic<TxnCB*> head_{nullptr};
  std::atomic<bool> event_pending_{false};
  int event_fd_ = -1;
  void (*event_poke_)(int) = nullptr;
};

}  // namespace bamboo

#endif  // BAMBOO_SRC_DB_SUSPEND_H_
