#pragma once

#include <cstdint>
#include <iosfwd>
#include <map>
#include <mutex>
#include <string>
#include <vector>

/// \file spans.hpp
/// In-memory span log for the traced benchmark run.  The driver opens one
/// span around every call it makes into the library (parse, Platform
/// construction, run, restore, render, ...); spans are kept in memory and
/// written out once the run ends.  A span's *self* time is its duration
/// minus the part of that interval its children cover; named *parts* carve
/// a span's self time further by the library's own self-profiler phases
/// (e.g. `tlm.bus` inside `tlm.run`).

namespace perfbench {

/// Monotonic host time in nanoseconds.
std::int64_t now_ns();

struct Span {
  std::string name;
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
  int parent = -1;       ///< index of the causing span, -1 for a root
  unsigned run = 0;      ///< workload-run id (repetition index)
  unsigned thread = 0;   ///< 0 = driver, k = sweep worker k (1 = driver)
  /// Sub-layers measured inside this span's self time (ns each).
  std::vector<std::pair<std::string, std::int64_t>> parts;
};

/// Thread-safe span recorder (sweep workers record concurrently).
class SpanLog {
 public:
  int begin(std::string name, int parent, unsigned run, unsigned thread);
  void end(int id);
  void add_part(int id, std::string name, std::int64_t ns);

  std::vector<Span> spans() const;

  /// Chrome trace-event JSON (one complete event per span), loadable in
  /// Perfetto / chrome://tracing.
  void write_json(std::ostream& os) const;

 private:
  mutable std::mutex mu_;
  std::vector<Span> spans_;  // guarded by mu_
};

/// RAII span; a null log makes it a no-op.
class Scope {
 public:
  Scope(SpanLog* log, std::string name, int parent, unsigned run,
        unsigned thread = 0);
  ~Scope();
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;

  int id() const noexcept { return id_; }

 private:
  SpanLog* log_;
  int id_ = -1;
};

/// Self-time accounting of one workload run's spans.
struct SelfTimes {
  /// Layer name -> self time (ns), parts carved out under their own names.
  std::map<std::string, std::int64_t> layer_ns;
  /// Σ over parents of (Σ child durations − union of child intervals):
  /// time counted twice because children ran in parallel.
  std::int64_t overlap_ns = 0;
  /// Duration of the root span(s).
  std::int64_t wall_ns = 0;
};

/// Self times of the spans of run `run`.  Identity that makes the
/// reconciliation exact: Σ layer_ns − overlap_ns == wall_ns.
SelfTimes self_times(const std::vector<Span>& spans, unsigned run);

}  // namespace perfbench
