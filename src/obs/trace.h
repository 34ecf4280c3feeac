#ifndef UNCHAINED_OBS_TRACE_H_
#define UNCHAINED_OBS_TRACE_H_

// Scoped tracing spans (docs/observability.md). A span is an RAII scope:
//
//   OBS_SPAN("seminaive.round", {{"round", r}});
//
// records one event — name, wall-clock start/duration in microseconds,
// dense thread id, nesting depth, and up to two integer arguments — into
// a bounded per-thread ring buffer when tracing is enabled. While
// tracing is disabled (the default), constructing a span is one relaxed
// atomic load and a branch; nothing is allocated and no clock is read.
//
// Span names must be string literals (the tracer stores the pointer).
// Typical session: Tracer::Get().Enable() → run the workload →
// Tracer::Get().Disable() → obs::WriteChromeTrace(path) (export.h).
// Enable/Disable are meant for quiescent points — enabling mid-span
// loses the spans in flight, nothing worse.

#include <atomic>
#include <chrono>
#include <cstdint>
#include <initializer_list>
#include <mutex>
#include <string>
#include <vector>

namespace datalog {
namespace obs {

/// One integer-valued span argument; `key` must be a string literal.
struct SpanArg {
  const char* key;
  int64_t value;
};

inline constexpr uint32_t kMaxSpanArgs = 2;

/// A completed span, recorded at scope exit.
struct TraceEvent {
  const char* name = nullptr;
  /// Microseconds since Tracer::Enable.
  int64_t start_us = 0;
  int64_t dur_us = 0;
  /// Dense ring id, assigned in order of first span per thread after the
  /// last Enable (the enabling thread is 0 if it spans first). A tid
  /// names a ring slot, not an OS thread: once a thread exits, its ring
  /// — and so its tid — is handed to the next thread that records, so
  /// the number of tids is bounded by the threads recording at once.
  uint32_t tid = 0;
  /// Nesting depth on the recording thread (0 = thread-root span).
  uint32_t depth = 0;
  /// Per-thread completion sequence number; events with the same tid are
  /// totally ordered by `seq` (the order the ring received them).
  uint64_t seq = 0;
  uint32_t num_args = 0;
  SpanArg args[kMaxSpanArgs] = {};
};

class Tracer {
 public:
  static Tracer& Get();

  /// Starts a fresh tracing session: drops any events from a previous
  /// session and allows up to `events_per_thread` buffered events per
  /// thread (older events are overwritten ring-style beyond that).
  void Enable(size_t events_per_thread = kDefaultCapacity);
  /// Stops recording. Buffered events stay readable until the next
  /// Enable.
  void Disable();
  bool enabled() const { return enabled_.load(std::memory_order_relaxed); }

  /// All buffered events of the current session, from every thread,
  /// oldest-first per thread. Call after Disable (or at a quiescent
  /// point).
  std::vector<TraceEvent> Snapshot() const;
  /// Events that were overwritten because a ring filled up.
  int64_t dropped() const;

  static constexpr size_t kDefaultCapacity = 1 << 16;

  // -- Internal (used by SpanScope) ------------------------------------

  struct Ring {
    explicit Ring(uint32_t tid, size_t capacity)
        : tid(tid), events(capacity) {}
    const uint32_t tid;
    std::vector<TraceEvent> events;
    uint64_t next_seq = 0;   // total events ever pushed
    uint32_t depth = 0;      // current nesting depth on the owner thread
    void Push(const TraceEvent& e) {
      TraceEvent& slot = events[next_seq % events.size()];
      slot = e;
      slot.tid = tid;
      slot.seq = next_seq++;
    }
  };

  /// The calling thread's ring for the current session (on first use
  /// reusing a ring an exited thread released, else creating one), or
  /// nullptr when tracing is disabled.
  Ring* LocalRing();
  /// Called at thread exit: returns the thread's ring (from session
  /// `session`) to the free list; its events stay readable.
  void ReleaseRing(Ring* ring, uint64_t session);
  /// Session id; bumped by Enable so stale thread-local ring pointers
  /// are re-acquired instead of written to.
  uint64_t epoch() const { return epoch_.load(std::memory_order_relaxed); }
  int64_t NowUs() const {
    return std::chrono::duration_cast<std::chrono::microseconds>(
               std::chrono::steady_clock::now() - session_start_)
        .count();
  }

 private:
  Tracer() = default;
  ~Tracer() = delete;  // leaky singleton

  std::atomic<bool> enabled_{false};
  std::atomic<uint64_t> epoch_{0};

  mutable std::mutex mu_;
  std::vector<Ring*> rings_;       // owned; cleared on Enable
  std::vector<Ring*> free_rings_;  // subset of rings_ no thread holds
  size_t capacity_ = kDefaultCapacity;
  std::chrono::steady_clock::time_point session_start_{};
};

/// RAII span scope. Prefer the OBS_SPAN macro, which names the local for
/// you. Captures the tracer state once in the constructor; if tracing is
/// toggled while the scope is open, the event is dropped rather than
/// written into a stale session.
class SpanScope {
 public:
  explicit SpanScope(const char* name) : SpanScope(name, {}) {}

  SpanScope(const char* name, std::initializer_list<SpanArg> args) {
    Tracer& tracer = Tracer::Get();
    if (!tracer.enabled()) return;
    ring_ = tracer.LocalRing();
    if (ring_ == nullptr) return;
    epoch_ = tracer.epoch();
    name_ = name;
    num_args_ = 0;
    for (const SpanArg& a : args) {
      if (num_args_ == kMaxSpanArgs) break;
      args_[num_args_++] = a;
    }
    ++ring_->depth;
    start_us_ = tracer.NowUs();
  }

  ~SpanScope() {
    if (ring_ == nullptr) return;
    Tracer& tracer = Tracer::Get();
    const int64_t end_us = tracer.NowUs();
    if (tracer.epoch() != epoch_) return;  // session changed mid-span
    --ring_->depth;
    TraceEvent e;
    e.name = name_;
    e.start_us = start_us_;
    e.dur_us = end_us - start_us_;
    e.depth = ring_->depth;
    e.num_args = num_args_;
    for (uint32_t i = 0; i < num_args_; ++i) e.args[i] = args_[i];
    ring_->Push(e);
  }

  SpanScope(const SpanScope&) = delete;
  SpanScope& operator=(const SpanScope&) = delete;

 private:
  Tracer::Ring* ring_ = nullptr;
  uint64_t epoch_ = 0;
  const char* name_ = nullptr;
  int64_t start_us_ = 0;
  uint32_t num_args_ = 0;
  SpanArg args_[kMaxSpanArgs] = {};
};

#define OBS_INTERNAL_CONCAT2(a, b) a##b
#define OBS_INTERNAL_CONCAT(a, b) OBS_INTERNAL_CONCAT2(a, b)
/// OBS_SPAN("name") or OBS_SPAN("name", {{"key", value}, ...}) — opens a
/// span covering the rest of the enclosing scope.
#define OBS_SPAN(...) \
  ::datalog::obs::SpanScope OBS_INTERNAL_CONCAT(obs_span_, __LINE__)(__VA_ARGS__)

}  // namespace obs
}  // namespace datalog

#endif  // UNCHAINED_OBS_TRACE_H_
