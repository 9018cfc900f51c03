#include "obs/profile.hpp"

#include <algorithm>
#include <cstdio>

namespace qec::obs {

namespace {

std::uint64_t next_profiler_id() {
  static std::atomic<std::uint64_t> counter{0};
  return counter.fetch_add(1, std::memory_order_relaxed) + 1;
}

}  // namespace

const char* stage_name(Stage stage) {
  switch (stage) {
    case Stage::kDispatchAssign: return "dispatch_assign";
    case Stage::kLaneExecute: return "lane_execute";
    case Stage::kReduction: return "reduction";
    case Stage::kTelemetryClose: return "telemetry_close";
    case Stage::kTraceExport: return "trace_export";
  }
  return "unknown";
}

Profiler::ThreadSlot::ThreadSlot(std::size_t ring_capacity)
    : ring_capacity(ring_capacity) {
  for (auto& n : nanos) n.store(0, std::memory_order_relaxed);
  for (auto& c : calls) c.store(0, std::memory_order_relaxed);
  ring.reserve(ring_capacity);
}

Profiler::Profiler(std::size_t sample_ring)
    : epoch_(std::chrono::steady_clock::now()),
      sample_ring_(sample_ring > 0 ? sample_ring : 1),
      id_(next_profiler_id()) {}

Profiler::ThreadSlot& Profiler::register_thread() {
  std::lock_guard<std::mutex> lock(mutex_);
  slots_.push_back(std::make_unique<ThreadSlot>(sample_ring_));
  return *slots_.back();
}

Profiler::ThreadSlot& Profiler::slot() {
  // The cache is keyed by the profiler's process-unique id so a worker
  // thread that outlives one run (the persistent shared pool) re-registers
  // against the next run's profiler instead of writing into a freed slot.
  thread_local std::uint64_t cached_id = 0;
  thread_local ThreadSlot* cached_slot = nullptr;
  if (cached_id != id_) {
    cached_slot = &register_thread();
    cached_id = id_;
  }
  return *cached_slot;
}

void Profiler::record(Stage stage, std::uint64_t start_ns) {
  const std::uint64_t end_ns = now_ns();
  const std::uint64_t dur = end_ns > start_ns ? end_ns - start_ns : 0;
  ThreadSlot& s = slot();
  const auto i = static_cast<std::size_t>(stage);
  // Single-writer accumulation: a relaxed load+store pair compiles to a
  // plain add (no lock-prefixed RMW) and the scheduling thread only reads
  // between joins, so this is race-free and cheap.
  s.nanos[i].store(s.nanos[i].load(std::memory_order_relaxed) + dur,
                   std::memory_order_relaxed);
  s.calls[i].store(s.calls[i].load(std::memory_order_relaxed) + 1,
                   std::memory_order_relaxed);
  WallSample sample{start_ns, dur, stage};
  if (s.ring.size() < s.ring_capacity) {
    s.ring.push_back(sample);
  } else {
    s.ring[s.ring_head] = sample;
  }
  s.ring_head = (s.ring_head + 1) % s.ring_capacity;
}

std::array<StageTotals, kStageCount> Profiler::totals() const {
  std::array<StageTotals, kStageCount> out{};
  std::lock_guard<std::mutex> lock(mutex_);
  for (const auto& slot : slots_) {
    for (int i = 0; i < kStageCount; ++i) {
      const std::uint64_t calls = slot->calls[i].load(std::memory_order_relaxed);
      out[i].calls += calls;
      out[i].nanos += slot->nanos[i].load(std::memory_order_relaxed);
      if (calls > 0) ++out[i].threads;
    }
  }
  return out;
}

std::uint64_t Profiler::take_window_nanos(Stage stage) {
  const auto i = static_cast<std::size_t>(stage);
  std::uint64_t total = 0;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    for (const auto& slot : slots_) {
      total += slot->nanos[i].load(std::memory_order_relaxed);
    }
  }
  const std::uint64_t delta = total - window_consumed_[i];
  window_consumed_[i] = total;
  return delta;
}

int Profiler::threads() const {
  // Slots are created lazily on a thread's first record(), so every slot
  // has recorded at least one scope and slot index == export tid.
  std::lock_guard<std::mutex> lock(mutex_);
  return static_cast<int>(slots_.size());
}

std::vector<WallSample> Profiler::thread_samples(int tid) const {
  std::lock_guard<std::mutex> lock(mutex_);
  if (tid < 0 || static_cast<std::size_t>(tid) >= slots_.size()) return {};
  std::vector<WallSample> out = slots_[tid]->ring;
  // Ring order is scope-close order; nested scopes close inner-first, so
  // sort by start time to keep the exported track monotonic per thread.
  std::stable_sort(out.begin(), out.end(),
                   [](const WallSample& a, const WallSample& b) {
                     return a.start_ns < b.start_ns;
                   });
  return out;
}

bool Profiler::write_csv(const std::string& path) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (!f) return false;
  const auto agg = totals();
  std::fprintf(f, "stage,calls,threads,total_ns,mean_ns\n");
  for (int i = 0; i < kStageCount; ++i) {
    const double mean =
        agg[i].calls > 0
            ? static_cast<double>(agg[i].nanos) / static_cast<double>(agg[i].calls)
            : 0.0;
    std::fprintf(f, "%s,%llu,%d,%llu,%.1f\n", stage_name(static_cast<Stage>(i)),
                 static_cast<unsigned long long>(agg[i].calls), agg[i].threads,
                 static_cast<unsigned long long>(agg[i].nanos), mean);
  }
  // fclose flushes: a full disk surfaces there or in the stream's error
  // flag, never as a silent success.
  const bool written = std::ferror(f) == 0;
  return std::fclose(f) == 0 && written;
}

}  // namespace qec::obs
