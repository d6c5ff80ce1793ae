#ifndef DIALITE_COMMON_CANCEL_H_
#define DIALITE_COMMON_CANCEL_H_

#include <atomic>
#include <chrono>
#include <cstdint>

namespace dialite {

/// Cooperative cancellation: one token per request, polled at safe points
/// inside long-running loops (the discovery cascade's exact-scoring loop,
/// the server's handler stages). A token fires either explicitly (Cancel(),
/// e.g. on client disconnect) or implicitly when its deadline passes.
///
/// Thread-safety: Cancel()/Cancelled() may race freely — both sides are
/// relaxed atomics on one flag. The deadline is set once before the token
/// is shared (SetDeadlineAfter from the request thread, then handed by
/// const pointer into the discovery stack), so it needs no ordering.
///
/// Polling cost: one relaxed load when no deadline is set; one extra
/// steady_clock read when one is. Poll at per-candidate granularity (µs+ of
/// scoring work); per-element loops poll through StridedCancelPoll, which
/// reads the token once every StridedCancelPoll::kStride elements.
class CancelToken {
 public:
  CancelToken() = default;
  CancelToken(const CancelToken&) = delete;
  CancelToken& operator=(const CancelToken&) = delete;

  /// Fires the token. Idempotent; safe from any thread.
  void Cancel() { cancelled_.store(true, std::memory_order_relaxed); }

  /// Arms a deadline `timeout` from now (steady clock). Call before sharing
  /// the token; a zero/negative timeout makes the token fire immediately.
  void SetDeadlineAfter(std::chrono::nanoseconds timeout) {
    deadline_ns_ = NowNs() + timeout.count();
    has_deadline_ = true;
  }

  /// True once Cancel() was called or the deadline passed. A fired token
  /// stays fired (the deadline check latches into the flag).
  [[nodiscard]] bool Cancelled() const {
    if (cancelled_.load(std::memory_order_relaxed)) return true;
    if (has_deadline_ && NowNs() >= deadline_ns_) {
      cancelled_.store(true, std::memory_order_relaxed);
      return true;
    }
    return false;
  }

 private:
  static int64_t NowNs() {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
  }

  mutable std::atomic<bool> cancelled_{false};
  int64_t deadline_ns_ = 0;   ///< steady-clock ns; valid iff has_deadline_
  bool has_deadline_ = false;
};

/// Amortised polling for per-element loops (a bucket scan, a pairwise
/// sweep), where a steady_clock read per element would cost as much as the
/// element itself. Cancelled() reads the token now and restarts the stride;
/// StrideCancelled() reads it only on every kStride-th call, so a fired
/// token is seen within kStride elements — microseconds of work when each
/// element is a short row comparison. One poller per loop nest and thread;
/// a null token never fires.
class StridedCancelPoll {
 public:
  static constexpr uint32_t kStride = 1024;

  explicit StridedCancelPoll(const CancelToken* token) : token_(token) {}

  /// Reads the token now: once per worklist item, round or row.
  [[nodiscard]] bool Cancelled() {
    left_ = kStride;
    return token_ != nullptr && token_->Cancelled();
  }

  /// Per-element poll: reads the token on every kStride-th call only.
  [[nodiscard]] bool StrideCancelled() {
    if (--left_ != 0) return false;
    return Cancelled();
  }

 private:
  const CancelToken* token_;
  uint32_t left_ = kStride;
};

}  // namespace dialite

#endif  // DIALITE_COMMON_CANCEL_H_
