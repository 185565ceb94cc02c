#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "core/platform.hpp"
#include "obs/stall.hpp"
#include "spans.hpp"
#include "sweep/runner.hpp"

/// \file bench.hpp
/// The benchmark's workload engine.  A workload is a batch job run by one
/// client in a closed loop: the next scenario starts only after the
/// previous one has been rendered.  The engine generates the program's
/// inputs (scenario or sweep *text*) from a seed, then drives the library
/// through its public entry points — scenario::parse, core::Platform,
/// sweep::parse_spec / expand / warm_snapshots / simulate_point,
/// stats::print_report, sweep::aggregate_table / write_point_csv — timing
/// every call, checking every outcome, and digesting every simulated
/// statistic so two builds can be compared exactly.

namespace perfbench {

/// Generator settings of one workload (perfbench/workloads.json).
struct WorkloadSpec {
  std::string name;
  bool sweep = false;        ///< one sweep (else: one run per preset)
  bool both_models = false;  ///< TLM and RTL (else TLM only)
  /// Scenario presets, one run each; for a sweep, the single base preset.
  std::vector<std::string> presets;
  unsigned items = 0;  ///< transactions per master
  /// Sweep axes: dotted scenario key -> comma-separated values.
  std::vector<std::pair<std::string, std::string>> axes;
  std::uint64_t warmup_cycles = 0;  ///< sweep fork point
  unsigned jobs = 1;                ///< sweep worker threads
  /// When non-zero, overrides every scenario's `max_cycles` (self-tests use
  /// it to provoke a run that cannot finish).
  std::uint64_t max_cycles = 0;
};

/// One program input: a scenario text or a sweep text.
struct Input {
  std::string label;
  std::string text;
};

/// The inputs of `w` for `seed`.  Deterministic: the same seed gives
/// byte-identical texts.  Every scenario gets its own seed derived from
/// `seed` and its position.
std::vector<Input> generate(const WorkloadSpec& w, std::uint64_t seed);

/// Simulated counters of one model, summed over a batch.
struct ModelTotals {
  std::uint64_t runs = 0;
  std::uint64_t sim_cycles = 0;  ///< simulated here (forks skip the prefix)
  std::uint64_t ran_cycles = 0;  ///< bus cycles incl. any restored prefix
  std::uint64_t kernel_activity = 0;  ///< over ran_cycles
  double sim_s = 0.0;  ///< host seconds spent simulating (SimResult)
  std::uint64_t grants = 0;
  std::uint64_t bytes = 0;
  std::uint64_t wbuf_absorbed = 0;
  std::uint64_t wbuf_bypassed = 0;
  std::uint64_t row_hits = 0;
  std::uint64_t row_accesses = 0;
  std::array<std::uint64_t, ahbp::obs::kStallClassCount> stalls{};

  void add(const ahbp::core::SimResult& r, std::uint64_t simulated_cycles);
};

/// One closed-loop pass over a workload's inputs.
struct Batch {
  double wall_s = 0.0;   ///< first input text to last rendered report
  double setup_s = 0.0;  ///< text to ready-to-run platforms
  std::size_t attempted = 0;  ///< scenario runs or sweep points
  std::size_t failed = 0;
  std::vector<std::string> failures;  ///< one line per failed run
  /// (scenario/point + model, digest line of every simulated statistic).
  std::vector<std::pair<std::string, std::string>> digests;
  ModelTotals tlm;
  ModelTotals rtl;
  std::uint64_t txns_expanded = 0;  ///< stimulus transactions constructed
  std::vector<double> row_error;    ///< |tlm - rtl| / rtl cycles per row
  std::size_t mismatch_rows = 0;    ///< rows where the models disagree
  std::vector<double> point_s;      ///< traced sweeps: host s per point
  double fanout_s = 0.0;            ///< sweeps: wall time of the fan-out
  std::size_t demoted = 0;          ///< sweep points re-run cold
  std::size_t snapshot_bytes = 0;   ///< warm-up snapshot image size
};

/// Run every input of `w` once.  `log` non-null = traced run: a span
/// around every library call (tagged with `run`) and the library's
/// self-profiler attached to every platform.  Never throws for a failing
/// scenario: the failure is counted and the batch goes on.
Batch run_batch(const WorkloadSpec& w, const std::vector<Input>& inputs,
                SpanLog* log, unsigned run);

/// Why `r` counts as failed ("" when it passed): it did not finish, raised
/// a protocol error, retired fewer than `stimulus_txns` transactions, or a
/// master's stall attribution does not sum to the cycles run.
std::string check_run(const ahbp::core::SimResult& r,
                      std::uint64_t stimulus_txns);

/// The layer a self-profiler phase is carved into: "traffic.expand",
/// "tlm.bus", "tlm.masters", "rtl.arch" or "rtl.detail"; "" keeps the
/// phase in its span's own self time.  An RTL phase is detail only when it
/// comes from the deliberately slow rt-detail or bit-level layers
/// (src/rtl/detail.cpp, src/rtl/bitlevel.cpp); every other RTL process,
/// the fabric's bus multiplexers included, is architecture.
std::string phase_layer(const std::string& phase);

/// Traced counterpart of sweep::simulate_point: the same fork / demote /
/// cold-run decisions and error handling, decomposed so construction,
/// restore, run and result each get a span under `parent`.
ahbp::sweep::PointOutcome traced_point(
    const ahbp::sweep::SweepPoint& pt, ahbp::sweep::Model model,
    const std::vector<std::uint8_t>& warm_tlm,
    const std::vector<std::uint8_t>& warm_rtl, SpanLog& log, int parent,
    unsigned run, unsigned thread);

/// 64-bit digest of every simulated statistic of `r`, rendered with the
/// headline counters: "digest=<hex> cycles=... completed=... ...".
std::string digest_line(const ahbp::core::SimResult& r);

}  // namespace perfbench
