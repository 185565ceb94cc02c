// ahbp_sim — run the AHB+ platform models without writing C++.
//
// The paper's TLM exists so architects can explore the design space early;
// this driver closes the loop: scenarios are small text files (or built-in
// presets), sweeps are scenario files with a [sweep] section of axis lists,
// and both execute through the exact `run_tlm` / `run_rtl` entry points the
// accuracy and speed claims are measured with.
//
//   ahbp_sim list
//   ahbp_sim show <scenario>
//   ahbp_sim run <scenario> [--model tlm|rtl|both] [--items N] [--seed S]
//                           [--vcd FILE] [--capture-trace DIR]
//                           [--trace-format text|bin] [--register NAME]
//                           [--csv] [--quiet] [--timeline FILE]
//                           [--stats-json FILE] [--progress] [--self-profile]
//   ahbp_sim checkpoint <scenario> --at N --out FILE [--model tlm|rtl]
//   ahbp_sim resume <checkpoint> [--vcd FILE] [--csv] [--quiet]
//   ahbp_sim sweep <spec> [--jobs N] [--model tlm|rtl|both] [--csv FILE]
//                         [--warmup-cycles N] [--speed] [--progress]
//                         [--sensitivity] [--max-cycle-error P]
//   ahbp_sim lint <scenario|sweep> [--warmup-cycles N] [--strict]
//   ahbp_sim trace info <file>
//   ahbp_sim trace convert <file> --out FILE [--to text|bin]
//   ahbp_sim trace slice <file> --out FILE --first N [--count K]
//                               [--to text|bin]
//
// Every option is one row of `kOptions` (its name, the commands that take
// it, its value kind and check) and every command one row of `kCommands`;
// `main` is a single parse loop over the two tables.

#include <algorithm>
#include <charconv>
#include <cmath>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <mutex>
#include <sstream>
#include <string>
#include <string_view>
#include <variant>
#include <vector>

#include "core/checkpoint.hpp"
#include "core/platform.hpp"
#include "obs/selfprof.hpp"
#include "obs/timeline.hpp"
#include "scenario/registry.hpp"
#include "scenario/scenario.hpp"
#include "state/snapshot.hpp"
#include "stats/report.hpp"
#include "sweep/analyze.hpp"
#include "sweep/runner.hpp"
#include "sweep/spec.hpp"
#include "traffic/trace.hpp"
#include "traffic/trace_bin.hpp"

namespace {

using namespace ahbp;

int usage(std::ostream& os, int code) {
  os << "usage: ahbp_sim <command> [args]\n"
        "\n"
        "  list                      list built-in scenarios\n"
        "  show <scenario>           print a scenario as a scenario file\n"
        "  run <scenario>            simulate one scenario\n"
        "      --model tlm|rtl|both  model(s) to run (default tlm)\n"
        "      --items N             transactions per master (preset default"
        " otherwise)\n"
        "      --seed S              traffic seed (preset default otherwise)\n"
        "      --vcd FILE            dump RTL waveform (rtl/both only)\n"
        "      --capture-trace DIR   record every master's transaction"
        " stream\n"
        "                            to DIR/masterK.trace + a ready-to-run\n"
        "                            DIR/replay.scenario (single model"
        " only)\n"
        "      --trace-format F      capture trace format: text (default,\n"
        "                            greppable) or bin (seekable, ~10x"
        " faster\n"
        "                            to load; replay auto-detects either)\n"
        "      --register NAME       capture into the captures/ registry:\n"
        "                            traces + replay scenario land under\n"
        "                            captures/NAME/ and 'ahbp_sim run\n"
        "                            workload/NAME' replays them (implies\n"
        "                            --capture-trace; single model only)\n"
        "      --csv                 machine-readable per-master report\n"
        "      --quiet               summary line only\n"
        "      --timeline FILE       write a Chrome-trace-event timeline\n"
        "                            (load in Perfetto / chrome://tracing)\n"
        "      --stats-json FILE     dump every counter, per-master stall\n"
        "                            attribution and violations as JSON\n"
        "      --progress            heartbeat to stderr (cycle, wall time,\n"
        "                            kcycles/s) roughly once a second\n"
        "      --self-profile        table of where the simulator's own wall\n"
        "                            clock went (per kernel component)\n"
        "  checkpoint <scenario>     run to a cycle and snapshot the"
        " platform\n"
        "      --at N                bus cycle to checkpoint at (or the\n"
        "                            scenario's [checkpoint] at_cycle)\n"
        "      --out FILE            checkpoint file (or [checkpoint]"
        " path)\n"
        "      --model tlm|rtl       model to snapshot (default tlm)\n"
        "      --items N / --seed S  as for run\n"
        "  resume <checkpoint>       restore a checkpoint and run to"
        " completion\n"
        "      --vcd FILE            dump RTL waveform from the restore"
        " point\n"
        "      --csv / --quiet       as for run\n"
        "  sweep <spec>              expand and run a sweep file\n"
        "      --jobs N              worker threads (default 1, 0 = all"
        " cores)\n"
          "      --sensitivity         per-axis report after the table: how"
        " far\n"
        "                            cycles moved when only that axis"
        " varied\n"
        "      --model tlm|rtl|both  model(s) per point (default tlm)\n"
        "      --warmup-cycles N     simulate the base config N cycles once\n"
        "                            and fork every point from the snapshot\n"
        "      --csv FILE            write per-point outcomes as CSV\n"
        "      --speed               add kcycles/sec columns (wall-clock"
        " dependent)\n"
        "      --progress            per-point completion heartbeat to"
        " stderr\n"
        "      --max-cycle-error P   with --model both: fail when any"
        " point's\n"
        "                            TLM-vs-RTL cycle error exceeds P"
        " percent\n"
        "  lint <scenario|sweep>     static analysis without simulating:\n"
        "                            parse/validate, pre-validate traces,\n"
        "                            provable timeouts, bandwidth"
        " oversubscription,\n"
        "                            channel imbalance, axis hygiene\n"
        "      --warmup-cycles N     also flag warm-up fork hazards (axes"
        " that\n"
        "                            demote points to cold runs or cannot"
        " fork)\n"
        "      --strict              exit nonzero on warnings too\n"
        "  trace <action> <file>     inspect / transform a recorded trace\n"
        "                            (text or binary — detected by magic):\n"
        "      info                  header + per-record summary\n"
        "      convert               rewrite as the other format (or --to"
        " F);\n"
        "                            needs --out FILE\n"
        "      slice                 extract records [--first N, +--count"
        " K);\n"
        "                            binary inputs seek via the record"
        " index\n"
        "                            instead of parsing the prefix; needs\n"
        "                            --out FILE (--to F overrides the"
        " format)\n"
        "\n"
        "<scenario> is a built-in name (see list) or a scenario file path.\n"
        "A scenario [checkpoint] section (at_cycle, path) makes 'run'"
        " snapshot\n"
        "mid-flight and keep going.  A master with 'pattern = trace' and\n"
        "'trace = FILE' replays a recorded transaction stream; run, sweep,\n"
        "checkpoint and resume all accept trace-driven scenarios.\n";
  return code;
}

// ---------------------------------------------------------------- options --

/// Every option value of one invocation; an option left off keeps the
/// default here.
struct Options {
  std::vector<std::string> positionals;
  std::string model = "tlm";
  std::uint64_t items = 0;  // 0 = the scenario's default
  std::uint64_t seed = 0;   // 0 = the scenario's default
  std::string vcd;
  std::string capture_dir;
  std::string trace_format = "text";  // run --trace-format
  std::string register_name;
  std::string timeline;
  std::string stats_json;
  bool csv = false;  // run/resume: the on-screen report as CSV
  bool quiet = false;
  bool progress = false;
  bool self_profile = false;
  std::uint64_t at = 0;  // 0 = the scenario's [checkpoint] at_cycle
  std::string out;
  std::string to;  // trace --to; empty = the action's default format
  std::uint64_t first = 0;
  std::uint64_t count = ~std::uint64_t{0};
  std::uint64_t jobs = 1;
  std::string csv_path;  // sweep --csv FILE
  bool speed = false;
  bool sensitivity = false;
  double max_cycle_error = -1.0;  // negative = gate off
  std::uint64_t warmup_cycles = 0;
  bool strict = false;
};

/// One bit per command, so an option row can name every command taking it.
enum Cmd : unsigned {
  kList = 1U << 0,
  kHelp = 1U << 1,
  kShow = 1U << 2,
  kRun = 1U << 3,
  kCheckpoint = 1U << 4,
  kResume = 1U << 5,
  kSweep = 1U << 6,
  kLint = 1U << 7,
  kTrace = 1U << 8,
};

/// What follows an option on the command line, and how it is checked.
enum class Kind {
  kFlag,      // nothing
  kUnsigned,  // digits only, at most `max`, nonzero when `error` is set
  kPath,      // a file/directory path or name: not empty, no leading '-'
  kEnum,      // one of `choices`
  kPercent,   // a finite, non-negative number
};

struct OptionRow {
  std::string_view name;
  unsigned commands;  // Cmd bits of the commands that take the option
  Kind kind;
  /// Where the value lands; the member's type follows `kind`.
  std::variant<bool Options::*, std::uint64_t Options::*,
               std::string Options::*, double Options::*>
      field;
  std::uint64_t max;
  std::vector<std::string_view> choices;
  /// kUnsigned: the diagnostic for 0 (null when 0 is accepted).  kPath and
  /// kEnum: the diagnostic for a rejected value, "{}" standing for it.
  const char* error;
};

constexpr std::uint64_t kNoLimit = ~std::uint64_t{0};

OptionRow flag(std::string_view name, unsigned cmds, bool Options::*f) {
  return {name, cmds, Kind::kFlag, f, 0, {}, nullptr};
}
OptionRow number(std::string_view name, unsigned cmds,
                 std::uint64_t Options::*f, std::uint64_t max = kNoLimit,
                 const char* zero_error = nullptr) {
  return {name, cmds, Kind::kUnsigned, f, max, {}, zero_error};
}
OptionRow path(std::string_view name, unsigned cmds, std::string Options::*f,
               const char* error) {
  return {name, cmds, Kind::kPath, f, 0, {}, error};
}
OptionRow choice(std::string_view name, unsigned cmds,
                 std::string Options::*f,
                 std::vector<std::string_view> choices, const char* error) {
  return {name, cmds, Kind::kEnum, f, 0, std::move(choices), error};
}
OptionRow percent(std::string_view name, unsigned cmds, double Options::*f) {
  return {name, cmds, Kind::kPercent, f, 0, {}, nullptr};
}

// A name may have several rows when it means different things to different
// commands (`--csv` is a flag for run/resume and a path for sweep).
const OptionRow kOptions[] = {
    choice("--model", kRun | kSweep, &Options::model, {"tlm", "rtl", "both"},
           "unknown model '{}' (tlm, rtl, both)"),
    choice("--model", kCheckpoint, &Options::model, {"tlm", "rtl"},
           "unknown model '{}' (checkpoint snapshots one model: tlm or rtl)"),
    number("--items", kRun | kCheckpoint, &Options::items, 100'000'000,
           "--items must be nonzero (omit the flag for the scenario's"
           " default)"),
    number("--seed", kRun | kCheckpoint, &Options::seed, kNoLimit,
           "--seed must be nonzero (omit the flag for the scenario's"
           " default)"),
    path("--vcd", kRun | kResume, &Options::vcd,
         "--vcd needs a file path, got '{}'"),
    path("--capture-trace", kRun, &Options::capture_dir,
         "--capture-trace needs a directory path, got '{}'"),
    choice("--trace-format", kRun, &Options::trace_format, {"text", "bin"},
           "--trace-format must be text or bin, got '{}'"),
    path("--register", kRun, &Options::register_name,
         "--register needs a workload name, got '{}'"),
    flag("--csv", kRun | kResume, &Options::csv),
    path("--csv", kSweep, &Options::csv_path,
         "sweep --csv needs a file path, got '{}'"),
    flag("--quiet", kRun | kResume, &Options::quiet),
    path("--timeline", kRun, &Options::timeline,
         "--timeline needs a file path, got '{}'"),
    path("--stats-json", kRun, &Options::stats_json,
         "--stats-json needs a file path, got '{}'"),
    flag("--progress", kRun | kSweep, &Options::progress),
    flag("--self-profile", kRun, &Options::self_profile),
    number("--at", kCheckpoint, &Options::at, kNoLimit,
           "--at must be a nonzero cycle"),
    path("--out", kCheckpoint | kTrace, &Options::out,
         "--out needs a file path, got '{}'"),
    choice("--to", kTrace, &Options::to, {"text", "bin"},
           "--to must be text or bin, got '{}'"),
    number("--first", kTrace, &Options::first),
    number("--count", kTrace, &Options::count),
    number("--jobs", kSweep, &Options::jobs, 4096),
    flag("--speed", kSweep, &Options::speed),
    flag("--sensitivity", kSweep, &Options::sensitivity),
    percent("--max-cycle-error", kSweep, &Options::max_cycle_error),
    number("--warmup-cycles", kSweep | kLint, &Options::warmup_cycles),
    flag("--strict", kLint, &Options::strict),
};

/// The row for `name` that `cmd` takes, else any row for `name` (so its
/// value is still consumed and checked before "does not take" is reported),
/// else null.
const OptionRow* find_option(std::string_view name, unsigned cmd) {
  const OptionRow* any = nullptr;
  for (const OptionRow& row : kOptions) {
    if (row.name == name) {
      if ((row.commands & cmd) != 0) {
        return &row;
      }
      any = any != nullptr ? any : &row;
    }
  }
  return any;
}

/// Print `error` with its "{}" replaced by `value`.
void print_error(std::string_view error, std::string_view value) {
  const std::size_t at = error.find("{}");
  std::cerr << error.substr(0, at) << value << error.substr(at + 2) << "\n";
}

/// Check `value` against `row` and store it in `o`; print the diagnostic
/// and return false when the value is rejected.
bool set_option(const OptionRow& row, const std::string& value, Options& o) {
  switch (row.kind) {
    case Kind::kFlag:
      o.*std::get<bool Options::*>(row.field) = true;
      return true;
    case Kind::kUnsigned: {
      // Digits only: "-1" must not wrap to a huge count and try to
      // generate billions of transactions.
      std::uint64_t x = 0;
      const char* last = value.data() + value.size();
      const auto [end, ec] = std::from_chars(value.data(), last, x);
      if (end != last || ec == std::errc::invalid_argument) {
        std::cerr << row.name << " needs a non-negative integer, got '"
                  << value << "'\n";
        return false;
      }
      if (ec != std::errc{} || x > row.max) {
        std::cerr << row.name << " value out of range: '" << value << "'\n";
        return false;
      }
      if (x == 0 && row.error != nullptr) {
        std::cerr << row.error << "\n";
        return false;
      }
      o.*std::get<std::uint64_t Options::*>(row.field) = x;
      return true;
    }
    case Kind::kPath:
      // `--vcd --quiet` must not write a waveform called "--quiet".
      if (value.empty() || value[0] == '-') {
        print_error(row.error, value);
        return false;
      }
      o.*std::get<std::string Options::*>(row.field) = value;
      return true;
    case Kind::kEnum:
      if (std::find(row.choices.begin(), row.choices.end(), value) ==
          row.choices.end()) {
        print_error(row.error, value);
        return false;
      }
      o.*std::get<std::string Options::*>(row.field) = value;
      return true;
    case Kind::kPercent: {
      // `x >= 0.0` also rejects NaN, which would silently disable the gate
      // (any comparison against NaN is false).
      std::size_t pos = 0;
      double x = -1.0;
      try {
        x = std::stod(value, &pos);
      } catch (const std::exception&) {
        pos = std::string::npos;  // not a number at all
      }
      if (pos != value.size() || !(x >= 0.0) || !std::isfinite(x)) {
        std::cerr << row.name << " needs a non-negative percentage, got '"
                  << value << "'\n";
        return false;
      }
      o.*std::get<double Options::*>(row.field) = x;
      return true;
    }
  }
  return false;
}

/// The validated --model value as a sweep model (run, sweep).
sweep::Model sweep_model(const Options& o) {
  sweep::Model m = sweep::Model::kTlm;
  sweep::model_from_string(o.model, m);  // kOptions admits only valid names
  return m;
}

void print_run(const core::SimResult& r, const Options& o) {
  std::cout << r.model << ": " << (r.finished ? "finished" : "TIMED OUT")
            << " at cycle " << r.cycles << ", " << r.completed
            << " transactions, " << r.protocol_errors << " protocol errors, "
            << r.qos_warnings << " QoS warnings, "
            << stats::fmt_double(core::kcycles_per_sec(r), 0) << " kcycles/s\n";
  if (r.protocol_errors != 0 && !r.first_violations.empty()) {
    std::cout << r.first_violations << "\n";
  }
  if (o.quiet) {
    return;
  }
  std::cout << "\n";
  if (o.csv) {
    stats::print_csv(std::cout, r.profile);
  } else {
    stats::print_report(std::cout, r.profile, r.model + " run profile");
  }
  std::cout << "\n";
}

/// Run `p` up to `at_cycle`, write the self-describing checkpoint to
/// `path`, and report — warning when max_cycles stopped the run short of
/// the requested cycle (the snapshot is then taken earlier than asked).
void run_to_checkpoint(core::Platform& p, const core::PlatformConfig& cfg,
                       sim::Cycle at_cycle, const std::string& path) {
  p.run(at_cycle > p.now() ? at_cycle - p.now() : 0);
  core::write_checkpoint_file(path, p, scenario::serialize(cfg));
  std::cout << "checkpoint written to " << path << " at cycle " << p.now()
            << " (" << core::to_string(p.model()) << ", "
            << (p.finished() ? "workload already drained" : "mid-run")
            << ")\n";
  if (p.now() < at_cycle && !p.finished()) {
    std::cerr << "note: max_cycles (" << cfg.max_cycles
              << ") stopped the run before cycle " << at_cycle << "\n";
  }
}

/// Open `path` for writing into `os`; print the diagnostic when that fails.
bool open_output(std::ofstream& os, const std::string& path) {
  os.open(path);
  if (!os) {
    std::cerr << "cannot open '" << path << "' for writing\n";
  }
  return static_cast<bool>(os);
}

/// Write `script` to `path` in `format` ("text" or "bin").
void write_trace_file(const std::string& path, const std::string& format,
                      const traffic::Script& script) {
  std::ofstream os(path,
                   format == "bin" ? std::ios::binary : std::ios::out);
  if (!os) {
    throw std::runtime_error("cannot open '" + path + "' for writing");
  }
  if (format == "bin") {
    traffic::save_trace_bin(os, script);
  } else {
    traffic::save_trace(os, script);
  }
  if (!os) {
    throw std::runtime_error("error writing '" + path + "'");
  }
}

/// Write every master's captured stream to `dir`/masterK.trace plus a
/// ready-to-run `dir`/replay.scenario whose masters replay the captures.
/// `format` picks the trace encoding ("text" or "bin"); replay
/// auto-detects either, so the scenario is identical in both cases.
void write_capture_dir(const core::Platform& p,
                       const core::PlatformConfig& cfg,
                       const std::string& dir, const std::string& format) {
  namespace fs = std::filesystem;
  fs::create_directories(dir);
  core::PlatformConfig replay = cfg;
  for (std::size_t m = 0; m < cfg.masters.size(); ++m) {
    const std::string path =
        (fs::path(dir) / ("master" + std::to_string(m) + ".trace")).string();
    write_trace_file(path, format,
                     p.capture(static_cast<ahb::MasterId>(m)).captured());
    traffic::StimulusSpec& spec = replay.masters[m].traffic;
    spec.source = traffic::StimulusSource::kTrace;
    spec.trace_path = path;
    spec.trace_text.clear();
  }
  const std::string scn = (fs::path(dir) / "replay.scenario").string();
  std::ofstream os(scn);
  if (!os) {
    throw std::runtime_error("cannot open '" + scn + "' for writing");
  }
  os << scenario::serialize(replay);
  std::cout << "captured " << cfg.masters.size() << " master trace(s) to "
            << dir << "\nreplay with: ahbp_sim run " << scn
            << " [--model tlm|rtl|both]\n";
}

/// Render the self-profiler's per-phase table (sorted by registration
/// order: platform setup first, then kernel components).
void print_self_profile(const obs::SelfProfiler& sp) {
  std::cout << "self-profile ("
            << stats::fmt_double(static_cast<double>(sp.total_ns()) / 1e6, 2)
            << " ms instrumented):\n";
  stats::TextTable t({"phase", "calls", "total ms", "avg us"});
  for (const auto& ph : sp.phases()) {
    const double avg_us =
        ph.calls == 0 ? 0.0
                      : static_cast<double>(ph.ns) / 1e3 /
                            static_cast<double>(ph.calls);
    t.add_row({ph.name, std::to_string(ph.calls),
               stats::fmt_double(static_cast<double>(ph.ns) / 1e6, 2),
               stats::fmt_double(avg_us, 3)});
  }
  t.print(std::cout);
  std::cout << "\n";
}

// --------------------------------------------------------------- commands --

int cmd_help(const Options& /*o*/) { return usage(std::cout, 0); }

int cmd_list(const Options& /*o*/) {
  stats::TextTable t({"name", "description"});
  for (const auto& e : scenario::ScenarioRegistry::builtin().entries()) {
    t.add_row({e.name, e.description});
  }
  t.print(std::cout);
  std::cout << "\nTable-1 rows also answer to letter aliases"
               " (table1/cpu-a == table1/cpu-1).\n";

  // Registered captures: anything `run --register NAME` installed under
  // captures/ in the current directory answers to `run workload/NAME`.
  namespace fs = std::filesystem;
  std::vector<std::string> workloads;
  std::error_code ec;
  for (const auto& entry : fs::directory_iterator("captures", ec)) {
    if (entry.is_directory() &&
        fs::exists(entry.path() / "replay.scenario")) {
      workloads.push_back(entry.path().filename().string());
    }
  }
  if (!workloads.empty()) {
    std::sort(workloads.begin(), workloads.end());
    std::cout << "\nregistered workloads (captures/ in this directory):\n";
    for (const std::string& w : workloads) {
      std::cout << "  workload/" << w << "\n";
    }
  }
  return 0;
}

int cmd_show(const Options& o) {
  std::cout << scenario::serialize(scenario::load_scenario(o.positionals[0]));
  return 0;
}

int cmd_run(const Options& o) {
  const std::string& name = o.positionals[0];
  const sweep::Model model = sweep_model(o);
  std::string capture_dir = o.capture_dir;
  if (!o.register_name.empty()) {
    // A registered workload is just a capture installed at the well-known
    // path `run workload/NAME` resolves (scenario/registry.cpp).
    if (!capture_dir.empty()) {
      std::cerr << "--register picks the capture destination itself"
                   " (captures/" << o.register_name << "); drop"
                   " --capture-trace\n";
      return 2;
    }
    if (o.register_name.find('/') != std::string::npos ||
        o.register_name.find("..") != std::string::npos) {
      std::cerr << "--register needs a plain name (no '/', '..' or leading"
                   " '-'), got '" << o.register_name << "'\n";
      return 2;
    }
    capture_dir = "captures/" + o.register_name;
  }
  const core::PlatformConfig cfg = scenario::load_scenario(
      name, static_cast<unsigned>(o.items), o.seed);
  if (cfg.masters.empty()) {
    std::cerr << "scenario '" << name << "' defines no masters\n";
    return 2;
  }
  if (!o.vcd.empty() && model == sweep::Model::kTlm) {
    std::cerr << "--vcd needs the signal-level model (--model rtl|both)\n";
    return 2;
  }
  if (!capture_dir.empty() && model == sweep::Model::kBoth) {
    // Captured gaps are one model's observed think times; pick whose.
    std::cerr << "--capture-trace records one model's stream: pick --model"
                 " tlm or rtl (the capture replays in both)\n";
    return 2;
  }

  // A scenario [checkpoint] section makes the run snapshot mid-flight and
  // continue; resume later picks the snapshot up.  The timeline and the
  // self-profiler are shared across models: one trace file with a "tlm"
  // and an "rtl" process, one phase table with both prefixes.
  obs::Timeline timeline;
  obs::SelfProfiler profiler;
  // One model's share of the run: checkpoint mid-flight when the scenario
  // asks for it, capture when requested, then run to completion.
  const auto run_model = [&](core::ModelKind kind, std::ostream* vcd_os,
                             const std::string& checkpoint_path) {
    core::Platform p(cfg, kind);
    if (vcd_os != nullptr) {
      p.enable_vcd(*vcd_os);
    }
    if (!capture_dir.empty()) {
      p.enable_capture();
    }
    if (!o.timeline.empty()) {
      p.enable_timeline(timeline);
    }
    if (o.self_profile) {
      p.enable_self_profile(profiler);
    }
    if (o.progress) {
      p.set_progress(&std::cerr);
    }
    if (cfg.checkpoint.enabled()) {
      run_to_checkpoint(p, cfg, cfg.checkpoint.at_cycle, checkpoint_path);
    }
    p.run_to_completion();
    if (!o.timeline.empty()) {
      timeline.finalize(p.now());
    }
    if (!capture_dir.empty()) {
      write_capture_dir(p, cfg, capture_dir, o.trace_format);
    }
    return p.result();
  };

  core::SimResult tlm, rtl;
  const bool ran_tlm = model != sweep::Model::kRtl;
  const bool ran_rtl = model != sweep::Model::kTlm;
  if (ran_tlm) {
    tlm = run_model(core::ModelKind::kTlm, nullptr, cfg.checkpoint.path);
    print_run(tlm, o);
  }
  if (ran_rtl) {
    std::ofstream vcd;
    if (!o.vcd.empty() && !open_output(vcd, o.vcd)) {
      return 2;
    }
    // Both models run from one scenario; keep their snapshots apart.
    const std::string ckpt_path = model == sweep::Model::kBoth
                                      ? cfg.checkpoint.path + ".rtl"
                                      : cfg.checkpoint.path;
    rtl = run_model(core::ModelKind::kRtl, o.vcd.empty() ? nullptr : &vcd,
                    ckpt_path);
    print_run(rtl, o);
    if (!o.vcd.empty()) {
      std::cout << "waveform written to " << o.vcd
                << " (open with gtkwave)\n";
    }
  }

  if (!o.timeline.empty()) {
    std::ofstream os;
    if (!open_output(os, o.timeline)) {
      return 2;
    }
    timeline.write(os);
    std::cout << "timeline written to " << o.timeline
              << " (load in Perfetto or chrome://tracing)\n";
  }
  if (!o.stats_json.empty()) {
    std::ofstream os;
    if (!open_output(os, o.stats_json)) {
      return 2;
    }
    os << "{\"runs\": [";
    if (ran_tlm) {
      core::write_stats_json(os, tlm);
    }
    if (ran_rtl) {
      if (ran_tlm) {
        os << ", ";
      }
      core::write_stats_json(os, rtl);
    }
    os << "]}\n";
    std::cout << "stats written to " << o.stats_json << "\n";
  }
  if (o.self_profile) {
    print_self_profile(profiler);
  }
  if (ran_tlm && ran_rtl && rtl.cycles != 0) {
    std::cout << "tlm vs rtl: " << tlm.cycles << " vs " << rtl.cycles
              << " cycles, error "
              << stats::fmt_percent(sweep::cycle_error(tlm, rtl)) << "\n";
  }

  const bool ok = (!ran_tlm || (tlm.finished && tlm.protocol_errors == 0)) &&
                  (!ran_rtl || (rtl.finished && rtl.protocol_errors == 0));
  if (ok && !o.register_name.empty()) {
    std::cout << "registered workload '" << o.register_name
              << "': replay with `ahbp_sim run workload/" << o.register_name
              << "`\n";
  }
  return ok ? 0 : 1;
}

int cmd_checkpoint(const Options& o) {
  const std::string& name = o.positionals[0];
  core::ModelKind model = core::ModelKind::kTlm;
  core::model_kind_from_string(o.model, model);  // kOptions: tlm or rtl
  const core::PlatformConfig cfg = scenario::load_scenario(
      name, static_cast<unsigned>(o.items), o.seed);
  if (cfg.masters.empty()) {
    std::cerr << "scenario '" << name << "' defines no masters\n";
    return 2;
  }
  const sim::Cycle at_cycle = o.at != 0 ? o.at : cfg.checkpoint.at_cycle;
  const std::string path = !o.out.empty() ? o.out : cfg.checkpoint.path;
  if (at_cycle == 0 || path.empty()) {
    std::cerr << "checkpoint needs --at N and --out FILE (or a scenario"
                 " [checkpoint] section)\n";
    return 2;
  }

  core::Platform p(cfg, model);
  run_to_checkpoint(p, cfg, at_cycle, path);
  return 0;
}

int cmd_resume(const Options& o) {
  const std::string& path = o.positionals[0];
  state::StateReader r = state::StateReader::from_file(path);
  const core::CheckpointInfo info = core::read_checkpoint_header(r);
  core::ModelKind model = core::ModelKind::kTlm;
  if (!core::model_kind_from_string(info.model, model)) {
    std::cerr << "checkpoint names unknown model '" << info.model << "'\n";
    return 2;
  }
  if (!o.vcd.empty() && model != core::ModelKind::kRtl) {
    std::cerr << "--vcd needs an rtl checkpoint\n";
    return 2;
  }
  core::PlatformConfig cfg = scenario::parse(info.scenario_text);
  // Trace-backed masters resume from the embedded capture — the original
  // trace files need not exist anymore (self-describing snapshot).
  core::apply_embedded_traces(cfg, info);

  core::Platform p(cfg, model);
  std::ofstream vcd;
  if (!o.vcd.empty()) {
    if (!open_output(vcd, o.vcd)) {
      return 2;
    }
    p.enable_vcd(vcd);
  }
  p.restore_state(r);
  r.expect_end();
  std::cout << "resumed " << core::to_string(model) << " from cycle "
            << p.now() << " (" << path << ")\n";
  p.run_to_completion();
  const core::SimResult res = p.result();
  print_run(res, o);
  if (!o.vcd.empty()) {
    std::cout << "waveform written to " << o.vcd << " (open with gtkwave)\n";
  }
  return res.finished && res.protocol_errors == 0 ? 0 : 1;
}

int cmd_sweep(const Options& o) {
  const sweep::Model model = sweep_model(o);
  if (o.max_cycle_error >= 0.0 && model != sweep::Model::kBoth) {
    std::cerr << "--max-cycle-error needs --model both\n";
    return 2;
  }
  const sweep::SweepSpec spec = sweep::parse_spec_file(o.positionals[0]);
  const auto points = sweep::expand(spec);
  std::cout << "sweep: " << points.size() << " configurations ("
            << spec.axes.size() << " axes), base '" << spec.base << "'";
  if (o.warmup_cycles > 0) {
    std::cout << ", forked from a " << o.warmup_cycles
              << "-cycle warm-up of the base";
  }
  std::cout << "\n\n";

  sweep::SweepRunner runner(static_cast<unsigned>(o.jobs));
  std::mutex progress_mu;
  if (o.progress) {
    runner.set_progress([&progress_mu](std::size_t done, std::size_t total) {
      const std::lock_guard<std::mutex> lock(progress_mu);
      std::cerr << "# sweep: " << done << "/" << total << " points done\n";
    });
  }
  const std::vector<sweep::PointOutcome> outcomes =
      runner.run(points, model, spec.base_config, o.warmup_cycles);

  stats::TextTable table = sweep::aggregate_table(outcomes, model, o.speed);
  table.print(std::cout);

  if (o.sensitivity) {
    if (spec.axes.empty()) {
      std::cout << "\nsensitivity: the spec has no [sweep] axes — nothing"
                   " varies\n";
    } else {
      for (const bool use_rtl : {false, true}) {
        if ((use_rtl && model == sweep::Model::kTlm) ||
            (!use_rtl && model == sweep::Model::kRtl)) {
          continue;
        }
        std::cout << "\nper-axis sensitivity ("
                  << (use_rtl ? "rtl" : "tlm") << " cycles):\n";
        sweep::sensitivity_table(
            sweep::sensitivity(spec, outcomes, use_rtl))
            .print(std::cout);
      }
    }
  }

  if (!o.csv_path.empty()) {
    std::ofstream csv_os;
    if (!open_output(csv_os, o.csv_path)) {
      return 2;
    }
    sweep::write_point_csv(csv_os, outcomes, model);
    std::cout << "\nper-point outcomes written to " << o.csv_path << "\n";
  }

  int failures = 0;
  for (const auto& pt : outcomes) {
    bool bad =
        !pt.error.empty() ||
        (pt.has_tlm && (!pt.tlm.finished || pt.tlm.protocol_errors != 0)) ||
        (pt.has_rtl && (!pt.rtl.finished || pt.rtl.protocol_errors != 0));
    // Accuracy gate: the Table-1 contract says the TLM tracks the RTL
    // cycle count; a point whose error exceeds the budget is a failure.
    if (!bad && o.max_cycle_error >= 0.0 && pt.has_tlm && pt.has_rtl &&
        pt.cycle_error() * 100.0 > o.max_cycle_error) {
      std::cout << "point " << pt.index << " (" << pt.label
                << "): cycle error " << stats::fmt_percent(pt.cycle_error())
                << " exceeds " << stats::fmt_double(o.max_cycle_error, 2)
                << "%\n";
      bad = true;
    }
    failures += bad ? 1 : 0;
  }
  if (failures != 0) {
    std::cout << "\n" << failures << " of " << outcomes.size()
              << " configurations failed\n";
  }
  return failures == 0 ? 0 : 1;
}

/// Load a trace of either format into a Script.  Binary inputs go through
/// the zero-copy loader; text inputs are parsed from the mapped bytes.
traffic::Script load_any_trace(std::string_view bytes) {
  if (traffic::is_trace_bin(bytes)) {
    return traffic::load_trace_bin(bytes, 0);
  }
  std::istringstream is{std::string(bytes)};
  return traffic::load_trace(is, 0);
}

int cmd_trace(const Options& o) {
  const std::string& action = o.positionals[0];
  const std::string& path = o.positionals[1];
  const std::string& out_path = o.out;
  std::string to_format = o.to;
  if (action != "info" && action != "convert" && action != "slice") {
    std::cerr << "unknown trace action '" << action
              << "' (info, convert, slice)\n";
    return 2;
  }

  // mmap where possible: info/slice on a multi-GB binary trace touch the
  // header, one index entry and the requested records — nothing else.
  const traffic::MappedTrace file(path);
  const std::string_view bytes = file.bytes();
  const bool bin = traffic::is_trace_bin(bytes);

  if (action == "info") {
    std::cout << "file:    " << path << " (" << bytes.size() << " bytes, "
              << (file.zero_copy() ? "mmap" : "buffered") << ")\n";
    traffic::Script script;
    if (bin) {
      const traffic::TraceBinInfo info = traffic::trace_bin_info(bytes);
      std::cout << "format:  binary v" << info.version << " ("
                << (info.indexed() ? "indexed" : "no index") << ", "
                << info.payload_bytes << " payload bytes)\n";
      script = traffic::load_trace_bin(bytes, 0);
    } else {
      std::cout << "format:  text\n";
      script = load_any_trace(bytes);
    }
    std::uint64_t reads = 0, writes = 0, beats = 0, moved = 0, gaps = 0;
    for (const traffic::TrafficItem& item : script) {
      (item.txn.dir == ahb::Dir::kRead ? reads : writes) += 1;
      beats += item.txn.beats;
      moved += item.txn.bytes();
      gaps += item.gap;
    }
    std::cout << "records: " << script.size() << " (" << reads << " reads, "
              << writes << " writes)\n"
              << "beats:   " << beats << " (" << moved << " bytes moved)\n"
              << "gaps:    " << gaps << " think-time cycles\n";
    if (!script.empty()) {
      ahb::Addr lo = script[0].txn.addr, hi = script[0].txn.addr;
      for (const traffic::TrafficItem& item : script) {
        lo = std::min(lo, item.txn.addr);
        hi = std::max(hi, item.txn.addr + item.txn.bytes());
      }
      std::cout << "addresses: [0x" << std::hex << lo << ", 0x" << hi
                << std::dec << ")\n";
    }
    return 0;
  }

  if (out_path.empty()) {
    std::cerr << "trace " << action << " needs --out FILE\n";
    return 2;
  }

  if (action == "convert") {
    // Default: the other format — converting is most often a round trip.
    if (to_format.empty()) {
      to_format = bin ? "text" : "bin";
    }
    const traffic::Script script = load_any_trace(bytes);
    write_trace_file(out_path, to_format, script);
    std::cout << "converted " << script.size() << " record(s): "
              << (bin ? "bin" : "text") << " -> " << to_format << " ("
              << out_path << ")\n";
    return 0;
  }

  // slice: binary inputs seek to record `first` through the index; text
  // inputs have no seekable structure, so the whole file is parsed first.
  if (to_format.empty()) {
    to_format = bin ? "bin" : "text";
  }
  traffic::Script window;
  if (bin) {
    window = traffic::load_trace_bin_window(bytes, 0, o.first, o.count);
  } else {
    traffic::Script all = load_any_trace(bytes);
    const std::uint64_t from = std::min<std::uint64_t>(o.first, all.size());
    const std::uint64_t take =
        std::min<std::uint64_t>(o.count, all.size() - from);
    window.assign(all.begin() + static_cast<std::ptrdiff_t>(from),
                  all.begin() + static_cast<std::ptrdiff_t>(from + take));
    for (std::size_t i = 0; i < window.size(); ++i) {
      window[i].txn.id = i + 1;  // a slice is a standalone script
    }
  }
  write_trace_file(out_path, to_format, window);
  std::cout << "sliced records [" << o.first << ", "
            << o.first + window.size()
            << ") of " << path << " -> " << out_path << " (" << to_format
            << ", " << window.size() << " record(s))\n";
  return 0;
}

int cmd_lint(const Options& o) {
  sweep::LintOptions opts;
  opts.warmup_cycles = o.warmup_cycles;
  const sweep::LintReport report = sweep::lint_ref(o.positionals[0], opts);
  sweep::write_report(std::cout, report);
  if (!report.ok()) {
    return 1;
  }
  return o.strict && report.warnings() != 0 ? 1 : 0;
}

struct Command {
  std::string_view name;
  Cmd bit;
  std::size_t positionals;
  const char* missing;  // what the diagnostic says is missing
  int (*handler)(const Options&);
};

const Command kCommands[] = {
    {"list", kList, 0, "", cmd_list},
    {"help", kHelp, 0, "", cmd_help},
    {"show", kShow, 1, "a scenario argument", cmd_show},
    {"run", kRun, 1, "a scenario argument", cmd_run},
    {"checkpoint", kCheckpoint, 1, "a scenario argument", cmd_checkpoint},
    {"resume", kResume, 1, "a scenario argument", cmd_resume},
    {"sweep", kSweep, 1, "a scenario argument", cmd_sweep},
    {"lint", kLint, 1, "a scenario argument", cmd_lint},
    {"trace", kTrace, 2,
     "an action and a file: trace info|convert|slice <file>", cmd_trace},
};

}  // namespace

int main(int argc, char** argv) {
  const std::vector<std::string> args(argv + 1, argv + argc);
  if (args.empty()) {
    return usage(std::cerr, 2);
  }
  const std::string cmd =
      args[0] == "--help" || args[0] == "-h" ? "help" : args[0];
  const Command* command =
      std::find_if(std::begin(kCommands), std::end(kCommands),
                   [&cmd](const Command& c) { return c.name == cmd; });
  if (command == std::end(kCommands)) {
    std::cerr << "unknown command '" << cmd << "'\n";
    return usage(std::cerr, 2);
  }

  // Values are checked as they are read; an option the command does not
  // take is reported after the loop, so a bad value is reported first.
  Options o;
  const OptionRow* not_taken = nullptr;
  for (std::size_t i = 1; i < args.size(); ++i) {
    const std::string& a = args[i];
    if (a == "--help" || a == "-h") {
      return usage(std::cout, 0);
    }
    if (a.empty() || a[0] != '-') {
      if (o.positionals.size() == command->positionals) {
        std::cerr << "unexpected argument '" << a << "'\n";
        return usage(std::cerr, 2);
      }
      o.positionals.push_back(a);
      continue;
    }
    const OptionRow* row = find_option(a, command->bit);
    if (row == nullptr) {
      std::cerr << "unknown option '" << a << "'\n";
      return usage(std::cerr, 2);
    }
    std::string value;
    if (row->kind != Kind::kFlag) {
      if (i + 1 >= args.size()) {
        std::cerr << a << " needs a value\n";
        return 2;
      }
      value = args[++i];
    }
    if (!set_option(*row, value, o)) {
      return 2;
    }
    if ((row->commands & command->bit) == 0 && not_taken == nullptr) {
      not_taken = row;
    }
  }
  if (o.positionals.size() < command->positionals) {
    std::cerr << cmd << " needs " << command->missing << "\n";
    return o.positionals.empty() ? usage(std::cerr, 2) : 2;
  }
  if (not_taken != nullptr) {
    std::cerr << "'" << cmd << "' does not take " << not_taken->name << "\n";
    return 2;
  }

  try {
    return command->handler(o);
  } catch (const scenario::ScenarioError& e) {
    std::cerr << "error: " << e.what() << "\n";
    return 2;
  } catch (const std::exception& e) {
    std::cerr << "error: " << e.what() << "\n";
    return 1;
  }
}
