#include "obs/trace.h"

namespace datalog {
namespace obs {
namespace {

/// Thread-local ring cache. `epoch` says which tracing session the
/// cached pointer belongs to; a stale pointer is never written through —
/// LocalRing re-acquires instead (Enable deleted the old ring). When the
/// thread exits, its ring goes back to the tracer's free list, so the
/// next new thread records into it instead of allocating another.
struct RingCache {
  Tracer::Ring* ring = nullptr;
  uint64_t epoch = 0;
  ~RingCache() {
    if (ring != nullptr) Tracer::Get().ReleaseRing(ring, epoch);
    ring = nullptr;
  }
};

thread_local RingCache tls_ring;

}  // namespace

Tracer& Tracer::Get() {
  // Leaky singleton: span destructors can run during thread teardown,
  // after function-local statics would have been destroyed.
  static Tracer* instance = new Tracer();
  return *instance;
}

void Tracer::Enable(size_t events_per_thread) {
  std::lock_guard<std::mutex> lock(mu_);
  for (Ring* ring : rings_) delete ring;
  rings_.clear();
  free_rings_.clear();
  capacity_ = events_per_thread == 0 ? 1 : events_per_thread;
  session_start_ = std::chrono::steady_clock::now();
  // Publish the new session before allowing recording: a thread that
  // sees enabled_ == true will then re-acquire its ring via the new
  // epoch.
  epoch_.fetch_add(1, std::memory_order_relaxed);
  enabled_.store(true, std::memory_order_release);
}

void Tracer::Disable() {
  enabled_.store(false, std::memory_order_release);
}

Tracer::Ring* Tracer::LocalRing() {
  const uint64_t current = epoch();
  if (tls_ring.ring != nullptr && tls_ring.epoch == current) {
    return tls_ring.ring;
  }
  std::lock_guard<std::mutex> lock(mu_);
  // Re-check under the lock: Enable may have advanced the epoch between
  // the relaxed read above and here; registering against the old epoch
  // would leak a ring into the new session's list.
  if (epoch_.load(std::memory_order_relaxed) != current ||
      !enabled_.load(std::memory_order_relaxed)) {
    return nullptr;
  }
  Ring* ring = nullptr;
  if (!free_rings_.empty()) {
    ring = free_rings_.back();
    free_rings_.pop_back();
  } else {
    ring = new Ring(static_cast<uint32_t>(rings_.size()), capacity_);
    rings_.push_back(ring);
  }
  tls_ring.ring = ring;
  tls_ring.epoch = current;
  return ring;
}

void Tracer::ReleaseRing(Ring* ring, uint64_t session) {
  std::lock_guard<std::mutex> lock(mu_);
  // A ring from an earlier session was already deleted by Enable.
  if (session != epoch_.load(std::memory_order_relaxed)) return;
  ring->depth = 0;
  free_rings_.push_back(ring);
}

std::vector<TraceEvent> Tracer::Snapshot() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<TraceEvent> out;
  for (const Ring* ring : rings_) {
    const size_t cap = ring->events.size();
    const uint64_t total = ring->next_seq;
    const uint64_t first = total > cap ? total - cap : 0;
    for (uint64_t seq = first; seq < total; ++seq) {
      out.push_back(ring->events[seq % cap]);
    }
  }
  return out;
}

int64_t Tracer::dropped() const {
  std::lock_guard<std::mutex> lock(mu_);
  int64_t dropped = 0;
  for (const Ring* ring : rings_) {
    const uint64_t cap = ring->events.size();
    if (ring->next_seq > cap) {
      dropped += static_cast<int64_t>(ring->next_seq - cap);
    }
  }
  return dropped;
}

}  // namespace obs
}  // namespace datalog
