#pragma once
/// \file span_trace.hpp
/// In-memory wall-clock spans recorded by the benchmark around its calls
/// into the nestwx layers, and the arithmetic that turns them into
/// per-layer times.
///
/// A span has a name, a start and end (seconds since the tracer's epoch),
/// the span that caused it, the host thread it ran on and the request or
/// member it belongs to. Spans stay in memory until the benchmark writes
/// them out as Chrome/Perfetto trace JSON (the format wrfsim/trace
/// writes) at exit.
///
/// Self time: a layer's self time is its span minus the union of its
/// child spans. Child spans may run concurrently on pool threads; the wall
/// time they overlap is split evenly between them, so the self times of
/// all spans add up exactly to the wall time covered by spans — the
/// property the per-layer breakdown relies on ("layer shares add up to
/// the whole").

#include <atomic>
#include <chrono>
#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "util/mutex.hpp"
#include "util/thread_annotations.hpp"

namespace perfbench {

struct Span {
  int id = 0;
  int parent = -1;        ///< causing span id, -1 for a root
  std::string name;
  double start = 0.0;     ///< seconds since the tracer epoch
  double end = 0.0;
  int tid = 0;            ///< small per-thread index
  std::int64_t op = -1;   ///< request/member id, -1 when none

  double duration() const { return end - start; }
};

class Tracer {
 public:
  /// Sentinel parent: the innermost open span of this tracer on the
  /// calling thread, or the orphan parent when the thread has none.
  static constexpr int kCurrent = -2;

  Tracer();

  /// Seconds since this tracer was created (steady clock).
  double now() const;

  /// RAII span. Records on destruction.
  class Scope {
   public:
    Scope(Tracer& tracer, std::string_view name, std::int64_t op = -1,
          int parent = kCurrent);
    ~Scope();
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

    int id() const { return span_.id; }

   private:
    Tracer& tracer_;
    Span span_;
  };

  /// Parent for spans opened on a thread with no open span of this tracer
  /// (pool threads inside a library call the benchmark cannot see into).
  void set_orphan_parent(int id) { orphan_parent_.store(id); }

  /// Every finished span, ordered by id.
  std::vector<Span> spans() const;

 private:
  void record(Span span);

  std::chrono::steady_clock::time_point epoch_;
  std::atomic<int> next_id_{0};
  std::atomic<int> orphan_parent_{-1};
  mutable nestwx::util::Mutex mu_;
  std::vector<Span> spans_ NESTWX_GUARDED_BY(mu_);
};

/// A Scope when a tracer is given, nothing otherwise — lets one code path
/// serve both the untraced and the traced runs.
class MaybeScope {
 public:
  MaybeScope(Tracer* tracer, std::string_view name, std::int64_t op = -1,
             int parent = Tracer::kCurrent) {
    if (tracer != nullptr) scope_.emplace(*tracer, name, op, parent);
  }
  int id() const { return scope_ ? scope_->id() : -1; }

 private:
  std::optional<Tracer::Scope> scope_;
};

/// Exclusive wall time per span name: every instant covered by at least
/// one span is charged to the innermost spans open at that instant (those
/// with no open descendant), split evenly among them. The values sum to
/// the measure of the union of all spans.
std::map<std::string, double> self_time_by_name(const std::vector<Span>& spans);

/// Durations of every span called `name`, in id order.
std::vector<double> durations_of(const std::vector<Span>& spans,
                                 std::string_view name);

/// Write spans as Chrome trace JSON ("X" complete events, microseconds;
/// span id, parent and op in args) with `metadata` as string-valued
/// "otherData". One event per line.
void write_chrome_trace(const std::string& path, const std::vector<Span>& spans,
                        const std::map<std::string, std::string>& metadata);

/// Read back a file written by write_chrome_trace. Throws nestwx
/// util::Error on a malformed event line.
std::vector<Span> read_chrome_trace(const std::string& path);

}  // namespace perfbench
