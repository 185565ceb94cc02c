#pragma once

#include <cstdint>
#include <random>
#include <string>
#include <string_view>
#include <vector>

#include "ahb/transaction.hpp"
#include "ahb/types.hpp"
#include "sim/time.hpp"
#include "state/snapshot.hpp"

/// \file generator.hpp
/// Deterministic synthetic traffic.
///
/// Table 1 of the paper varies "the traffic patterns of the masters" — this
/// module provides the pattern archetypes.  A pattern expands to a `Script`
/// (a fixed list of transactions with inter-transaction gaps) *before*
/// simulation, so the TLM and the signal-level model consume bitwise
/// identical stimulus: any cycle-count difference between them is caused by
/// the models, never by the workload.
///
/// Gaps are relative to the completion of the previous transaction of the
/// same master ("think time"), which keeps scripts meaningful across models
/// with slightly different absolute timing.

namespace ahbp::traffic {

/// One scripted transaction: issue `gap` cycles after the previous one
/// completes, then the transaction skeleton itself.
struct TrafficItem {
  sim::Cycle gap = 0;
  ahb::Transaction txn;  ///< timestamps zero; data filled for writes
};

using Script = std::vector<TrafficItem>;

/// Pattern archetypes.  The Table-1 rows (core/workloads.hpp) mix them into
/// the paper's CPU-dominated, DMA-heavy and RT-stream master sets.
enum class PatternKind : std::uint8_t {
  kCpu = 0,      ///< cache-line fills/evictions, locality, think time
  kDma = 1,      ///< long back-to-back bursts sweeping memory
  kRtStream = 2, ///< periodic fixed-size real-time bursts (display/video)
  kRandom = 3,   ///< uniform random mix (stress)
};

std::string to_string(PatternKind k);

/// Inverse of to_string(): parse "cpu" / "dma" / "rt-stream" / "random".
/// Returns false (and leaves `out` untouched) on an unknown name.
bool pattern_from_string(std::string_view name, PatternKind& out);

/// Parameters of one master's traffic.
struct PatternConfig {
  PatternKind kind = PatternKind::kRandom;
  std::uint64_t seed = 1;      ///< stream seed (combined with master id)
  unsigned items = 100;        ///< transactions to generate

  ahb::Addr base = 0;          ///< address window start (in DDR space)
  ahb::Addr span = 1 << 20;    ///< address window size in bytes

  double read_ratio = 0.7;     ///< P(read) where the pattern allows choice
  sim::Cycle period = 64;      ///< kRtStream: target issue period
  sim::Cycle mean_gap = 4;     ///< kCpu/kRandom: mean think time
  unsigned dma_burst_beats = 16;  ///< kDma: 32-bit-reference beats (4/8/16)

  /// Bus beat width in bytes ({1,2,4,8}; HSIZE-encodable).  Set from
  /// `BusConfig::data_width_bytes` by `core::expand_stimulus` so the §3.7 bus
  /// width knob reaches the stimulus: every archetype keeps the *bytes* it
  /// moves per transfer invariant and derives the beat count from this
  /// width — a wider bus needs fewer beats for the same work, a narrower
  /// one more.  The default reproduces the legacy 32-bit scripts exactly.
  unsigned beat_bytes = 4;
};

/// The traffic RNG: an explicitly owned, explicitly seeded engine, one per
/// (seed, master) stream.
///
/// Ownership is the contract here — the engine is constructed *inside* each
/// `make_script` call and never outlives it; there are no function-local
/// statics and no engine is ever shared between masters or threads.  That
/// makes script expansion a pure function of (PatternConfig, master), which
/// the checkpoint layer leans on: a restored platform regenerates its
/// scripts bit-identically, and `--jobs N` sweep workers expanding scripts
/// concurrently can never perturb each other (pinned by the determinism
/// regression tests).
class TrafficRng {
 public:
  TrafficRng(std::uint64_t seed, ahb::MasterId master);

  // UniformRandomBitGenerator, forwarding to the underlying engine so the
  // draw sequence is exactly the historical per-master stream.
  using result_type = std::mt19937_64::result_type;
  static constexpr result_type min() { return std::mt19937_64::min(); }
  static constexpr result_type max() { return std::mt19937_64::max(); }
  result_type operator()() { return engine_(); }

  /// The decorrelated per-master seed the engine was constructed with.
  std::uint64_t stream_seed() const noexcept { return stream_seed_; }

 private:
  std::uint64_t stream_seed_;
  std::mt19937_64 engine_;
};

/// Expand a pattern into its deterministic script for master `master`.
/// The same (config, master) pair always yields the same script, and a
/// script is a prefix of the same config's script with a larger `items` —
/// patterns draw per item from one owned TrafficRng stream (the property
/// warm-up-forked sweeps over `items` axes rely on).
Script make_script(const PatternConfig& cfg, ahb::MasterId master);

/// Total bytes a script will move (for bandwidth accounting in benches).
std::uint64_t script_bytes(const Script& s);

/// Content hash (FNV-1a 64) of the first `items` script entries — gap plus
/// the full transaction identity (master, direction, address, size, burst,
/// beats, lock, write data; timestamps are zero in scripts).  ScriptSource
/// snapshots hash their consumed prefix so a restore can prove the
/// receiving script agrees on everything the snapshotted run already
/// issued; `items` beyond the script length clamps (the items-prefix
/// property makes longer scripts share the prefix hash by construction).
std::uint64_t script_prefix_hash(const Script& s, std::size_t items);

class TraceRecorder;  // stimulus.hpp — capture tap on the master port

/// Script source: hands transactions to a model's master port one at a
/// time.  Both models drive this identically: call `ready(now)` each cycle;
/// when it returns true, `peek()` / `pop(now)` the next transaction.
class ScriptSource {
 public:
  explicit ScriptSource(Script script) : script_(std::move(script)) {}

  /// True when the next transaction's gap has elapsed at cycle `now`.
  bool ready(sim::Cycle now) const noexcept {
    return !done() && now >= earliest_;
  }

  bool done() const noexcept { return index_ >= script_.size(); }

  /// First cycle the next transaction may issue (kNeverCycle when the
  /// script is exhausted) — the idle-skip bound for the owning master.
  sim::Cycle next_ready_at() const noexcept {
    return done() ? sim::kNeverCycle : earliest_;
  }

  const ahb::Transaction& peek() const { return script_[index_].txn; }

  /// Take the next transaction (pre: ready(now)).
  ahb::Transaction pop(sim::Cycle now);

  /// Inform the source the popped transaction completed at `now`; arms the
  /// gap timer for the next item.
  void on_complete(sim::Cycle now);

  std::size_t issued() const noexcept { return index_; }
  std::size_t total() const noexcept { return script_.size(); }

  /// Attach a capture tap (nullptr detaches).  The recorder observes every
  /// pop as an issue and every on_complete as a completion — the single
  /// implementation both models' master ports flow through, so captured
  /// gaps are genuine think-time regardless of model.  Not snapshotted:
  /// capture is an observation tool, not simulation state.
  void set_recorder(TraceRecorder* recorder) noexcept {
    recorder_ = recorder;
  }

  /// Snapshot the replay position (the script itself is configuration:
  /// it is regenerated deterministically from the pattern at restore).
  void save_state(state::StateWriter& w) const;
  void restore_state(state::StateReader& r);

 private:
  Script script_;
  std::size_t index_ = 0;
  sim::Cycle earliest_ = 0;  ///< next item may not issue before this cycle
  bool in_flight_ = false;
  TraceRecorder* recorder_ = nullptr;  ///< optional capture tap
};

}  // namespace ahbp::traffic
