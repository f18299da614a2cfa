// Cooperative cancellation for long-running parallel work.
//
// A CancelToken is a tiny shared flag + optional steady-clock deadline that a
// controller sets once and workers poll cheaply.  It lives in util (below the
// thread pool) so every layer — ThreadPool::run_chunked, the packet engines'
// cycle loops, the exec sweep supervisor — can accept `const CancelToken*`
// without new dependencies.
//
// Contract:
//   * cancelled() is sticky: once it returns true it returns true forever
//     (request_cancel() cannot be undone, and steady_clock never goes back).
//   * Polling is wait-free: one relaxed atomic load, plus a clock read only
//     when a deadline is armed.  Cheap enough for every-few-cycles polls in
//     the packet engines.
//   * Cancellation is cooperative and best-effort: workers observe the token
//     at their own poll points, so work stops within O(one poll interval),
//     not instantly.  Workers that were never handed the token run to
//     completion.
//
// Memory ordering: the token carries no payload — it only answers "should I
// stop?" — so relaxed loads/stores suffice.  Any data handoff around a
// cancellation (e.g. partial results) is synchronized by the thread pool's
// own region completion, not by the token.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>

namespace bfly {

class CancelToken {
 public:
  CancelToken() = default;
  CancelToken(const CancelToken&) = delete;
  CancelToken& operator=(const CancelToken&) = delete;

  /// Requests cancellation.  Sticky; safe from any thread, any number of
  /// times.
  void request_cancel() { cancel_requested_.store(true, std::memory_order_relaxed); }

  /// Arms (or re-arms) a deadline `budget` from now on the steady clock.
  /// After the deadline passes, cancelled() and expired() report true.  A
  /// floating-point budget is converted to clock ticks before the addition,
  /// so the stored time point is an exact integer tick count.
  template <class Rep, class Period>
  void set_deadline_after(std::chrono::duration<Rep, Period> budget) {
    const std::chrono::steady_clock::time_point when =
        std::chrono::steady_clock::now() +
        std::chrono::duration_cast<std::chrono::steady_clock::duration>(budget);
    deadline_ns_.store(when.time_since_epoch().count(), std::memory_order_relaxed);
  }

  /// Removes any armed deadline (an explicit request_cancel still sticks).
  void clear_deadline() { deadline_ns_.store(0, std::memory_order_relaxed); }

  /// Arms the deadline at absolute steady-clock time `when`, but only ever
  /// *later*: an armed deadline earlier than `when` moves out to it, a later
  /// one is kept, and an unarmed token is simply armed.  This is the
  /// coalescing primitive the serving layer's single-flight cache uses — a
  /// request joining an in-flight computation may extend its deadline so the
  /// shared work survives long enough for the most patient waiter, and no
  /// joiner can ever shorten another's budget.  Safe from any thread (CAS-max
  /// loop); callers that mean "no deadline at all" must not call this.
  void extend_deadline_until(std::chrono::steady_clock::time_point when) {
    const std::int64_t ns = when.time_since_epoch().count();
    std::int64_t cur = deadline_ns_.load(std::memory_order_relaxed);
    while (cur == 0 || cur < ns) {
      if (deadline_ns_.compare_exchange_weak(cur, ns, std::memory_order_relaxed)) break;
    }
  }

  /// The armed deadline as a steady-clock time point; meaningful only when
  /// has_deadline().
  bool has_deadline() const { return deadline_ns_.load(std::memory_order_relaxed) != 0; }
  std::chrono::steady_clock::time_point deadline() const {
    return std::chrono::steady_clock::time_point(
        std::chrono::steady_clock::duration(deadline_ns_.load(std::memory_order_relaxed)));
  }

  /// True iff request_cancel() was called (deadline not considered).
  bool cancel_requested() const { return cancel_requested_.load(std::memory_order_relaxed); }

  /// True iff a deadline is armed and has passed.
  bool expired() const {
    const std::int64_t deadline = deadline_ns_.load(std::memory_order_relaxed);
    if (deadline == 0) return false;
    return std::chrono::steady_clock::now().time_since_epoch().count() >= deadline;
  }

  /// The poll: explicit request OR expired deadline.
  bool cancelled() const { return cancel_requested() || expired(); }

  /// Null-tolerant poll for APIs that thread `const CancelToken*` through.
  static bool cancelled(const CancelToken* token) {
    return token != nullptr && token->cancelled();
  }

 private:
  std::atomic<bool> cancel_requested_{false};
  // steady_clock time_since_epoch in the clock's native ticks; 0 = no
  // deadline armed (tick 0 is the clock's epoch, unreachable in practice).
  std::atomic<std::int64_t> deadline_ns_{0};
};

}  // namespace bfly
