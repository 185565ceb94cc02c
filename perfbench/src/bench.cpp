#include "bench.hpp"

#include <atomic>
#include <cstdio>
#include <exception>
#include <map>
#include <memory>
#include <sstream>
#include <thread>

#include "core/checkpoint.hpp"
#include "obs/selfprof.hpp"
#include "scenario/registry.hpp"
#include "scenario/scenario.hpp"
#include "state/snapshot.hpp"
#include "stats/report.hpp"
#include "sweep/runner.hpp"
#include "sweep/spec.hpp"

namespace perfbench {

using namespace ahbp;

namespace {

double seconds(std::int64_t ns) { return static_cast<double>(ns) / 1e9; }

/// splitmix64: decorrelates the per-scenario seeds derived from one seed.
std::uint64_t mix(std::uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

std::uint64_t scenario_seed(std::uint64_t seed, std::size_t index) {
  return mix(mix(seed) + index) % 1'000'000'000ULL + 1;
}

class Fnv {
 public:
  void add(std::uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      h_ ^= (v >> (8 * i)) & 0xffU;
      h_ *= 0x100000001b3ULL;
    }
  }
  void add(const stats::Summary& s) {
    add(s.count());
    add(s.sum());
    add(s.min());
    add(s.max());
  }
  void add(const stats::Log2Histogram& hg) {
    for (unsigned k = 0; k < hg.buckets(); ++k) {
      add(hg.bucket(k));
    }
    add(hg.summary());
  }
  std::uint64_t value() const { return h_; }

 private:
  std::uint64_t h_ = 0xcbf29ce484222325ULL;
};

std::uint64_t stimulus_txns(const core::PlatformConfig& cfg) {
  std::uint64_t n = 0;
  for (const core::MasterSpec& m : cfg.masters) {
    n += m.traffic.items;
  }
  return n;
}

bool ends_with(const std::string& s, const std::string& suffix) {
  return s.size() >= suffix.size() &&
         s.compare(s.size() - suffix.size(), suffix.size(), suffix) == 0;
}

bool all_digits(const std::string& s) {
  return !s.empty() && s.find_first_not_of("0123456789") == std::string::npos;
}

/// Carve the self-profiler's phases into named parts of the spans they ran
/// in: stimulus expansion inside construction, component groups inside the
/// run.  Phases outside these groups stay in the run span's own self time.
void attribute(SpanLog& log, const obs::SelfProfiler& prof, int construct_id,
               int run_id) {
  std::map<std::string, std::int64_t> ns;
  for (const auto& ph : prof.phases()) {
    ns[phase_layer(ph.name)] += static_cast<std::int64_t>(ph.ns);
  }
  log.add_part(construct_id, "traffic.expand", ns["traffic.expand"]);
  if (ns["tlm.bus"] + ns["tlm.masters"] > 0) {
    log.add_part(run_id, "tlm.bus", ns["tlm.bus"]);
    log.add_part(run_id, "tlm.masters", ns["tlm.masters"]);
  }
  if (ns["rtl.arch"] + ns["rtl.detail"] > 0) {
    log.add_part(run_id, "rtl.arch", ns["rtl.arch"]);
    log.add_part(run_id, "rtl.detail", ns["rtl.detail"]);
  }
}

struct ModelRun {
  core::SimResult result;
  double construct_s = 0.0;
};

/// Construct -> [restore] -> run -> result, one span per call.  With a
/// log, the platform's self-profiler splits construction and run further.
ModelRun run_platform(const core::PlatformConfig& cfg, core::ModelKind kind,
                      const std::vector<std::uint8_t>* snapshot, SpanLog* log,
                      int parent, unsigned run, unsigned thread) {
  ModelRun out;
  std::unique_ptr<core::Platform> p;
  int construct_id = -1;
  {
    const std::int64_t t0 = now_ns();
    Scope s(log, "core.construct", parent, run, thread);
    p = std::make_unique<core::Platform>(cfg, kind);
    construct_id = s.id();
    out.construct_s = seconds(now_ns() - t0);
  }
  if (snapshot != nullptr) {
    Scope s(log, "state.restore", parent, run, thread);
    state::StateReader r(snapshot->data(), snapshot->size());
    p->restore_state(r);
  }
  obs::SelfProfiler prof;
  if (log != nullptr) {
    p->enable_self_profile(prof);
  }
  int run_id = -1;
  {
    Scope s(log, kind == core::ModelKind::kTlm ? "tlm.run" : "rtl.run",
            parent, run, thread);
    p->run_to_completion();
    run_id = s.id();
  }
  {
    Scope s(log, "core.result", parent, run, thread);
    out.result = p->result();
  }
  if (log != nullptr) {
    attribute(*log, prof, construct_id, run_id);
  }
  return out;
}

/// Check, digest and total one model's result.
void account(Batch& b, const std::string& label, const core::SimResult& r,
             std::uint64_t stimulus, std::uint64_t simulated_cycles,
             std::string& failure) {
  (r.model == "rtl" ? b.rtl : b.tlm).add(r, simulated_cycles);
  b.digests.emplace_back(label + " " + r.model, digest_line(r));
  const std::string why = check_run(r, stimulus);
  if (!why.empty() && failure.empty()) {
    failure = label + " " + r.model + ": " + why;
  }
}

void fail(Batch& b, std::string why) {
  ++b.failed;
  b.failures.push_back(std::move(why));
}

/// Run fn(i, worker) for i in [0, n) on `jobs` workers (worker 1 is the
/// calling thread) pulling indices from a shared counter — the shape of
/// sweep::SweepRunner.  Workers write only their own index's slot.
template <class Fn>
void parallel_for(std::size_t n, unsigned jobs, const Fn& fn) {
  std::atomic<std::size_t> next{0};
  const auto worker = [&](unsigned id) {
    for (std::size_t i = next.fetch_add(1); i < n; i = next.fetch_add(1)) {
      fn(i, id);
    }
  };
  std::vector<std::jthread> pool;  // joined on every exit path
  for (unsigned t = 1; t < jobs; ++t) {
    pool.emplace_back(worker, t + 1);
  }
  worker(1);
}

/// One scenario: parse, then per model construct, run, render, check.
void run_scenario(Batch& b, const WorkloadSpec& w, const Input& in,
                  SpanLog* log, int root, unsigned run, unsigned thread) {
  ++b.attempted;
  std::int64_t setup_ns = 0;
  std::string failure;
  try {
    core::PlatformConfig cfg;
    {
      const std::int64_t t0 = now_ns();
      Scope s(log, "scenario.parse", root, run, thread);
      cfg = scenario::parse(in.text);
      setup_ns += now_ns() - t0;
    }
    const std::uint64_t stim = stimulus_txns(cfg);
    core::SimResult tlm, rtl;
    const auto one = [&](core::ModelKind kind, core::SimResult& out) {
      ModelRun m = run_platform(cfg, kind, nullptr, log, root, run, thread);
      setup_ns += static_cast<std::int64_t>(m.construct_s * 1e9);
      b.txns_expanded += stim;
      {
        Scope s(log, "stats.render", root, run, thread);
        std::ostringstream os;
        stats::print_report(os, m.result.profile,
                            in.label + " " + m.result.model);
      }
      account(b, in.label, m.result, stim, m.result.ran_cycles, failure);
      out = std::move(m.result);
    };
    one(core::ModelKind::kTlm, tlm);
    if (w.both_models) {
      one(core::ModelKind::kRtl, rtl);
      b.row_error.push_back(sweep::cycle_error(tlm, rtl));
      if (tlm.completed != rtl.completed ||
          tlm.profile.bus.bytes != rtl.profile.bus.bytes ||
          tlm.profile.bus.grants != rtl.profile.bus.grants) {
        ++b.mismatch_rows;
      }
    }
  } catch (const std::exception& e) {
    failure = in.label + ": " + e.what();
  }
  if (!failure.empty()) {
    fail(b, failure);
  }
  b.setup_s += seconds(setup_ns);
}

void run_sweep(Batch& b, const WorkloadSpec& w, const Input& in,
               SpanLog* log, int root, unsigned run) {
  const sweep::Model model =
      w.both_models ? sweep::Model::kBoth : sweep::Model::kTlm;
  const std::int64_t t0 = now_ns();
  sweep::SweepSpec spec;
  std::vector<sweep::SweepPoint> points;
  std::vector<std::uint8_t> warm_tlm, warm_rtl;
  try {
    {
      Scope s(log, "scenario.parse", root, run);
      spec = sweep::parse_spec(in.text);
    }
    {
      Scope s(log, "sweep.expand", root, run);
      points = sweep::expand(spec);
    }
    {
      Scope s(log, "sweep.warm", root, run);
      sweep::warm_snapshots(spec.base_config, model, w.warmup_cycles,
                            warm_tlm, warm_rtl);
    }
  } catch (const std::exception& e) {
    ++b.attempted;
    fail(b, in.label + ": " + e.what());
    return;
  }
  b.setup_s += seconds(now_ns() - t0);
  b.snapshot_bytes = warm_tlm.size() + warm_rtl.size();

  // Fan-out with the warm-up timed apart; results by index.
  std::vector<sweep::PointOutcome> outcomes(points.size());
  if (log != nullptr) {
    b.point_s.assign(points.size(), 0.0);
  }
  {
    const std::int64_t f0 = now_ns();
    Scope fan(log, "sweep.fanout", root, run);
    parallel_for(points.size(), w.jobs, [&](std::size_t i, unsigned thread) {
      if (log == nullptr) {
        outcomes[i] =
            sweep::simulate_point(points[i], model, warm_tlm, warm_rtl);
      } else {
        const std::int64_t p0 = now_ns();
        outcomes[i] = traced_point(points[i], model, warm_tlm, warm_rtl,
                                   *log, fan.id(), run, thread);
        b.point_s[i] = seconds(now_ns() - p0);
      }
    });
    b.fanout_s = seconds(now_ns() - f0);
  }
  {
    Scope s(log, "stats.render", root, run);
    std::ostringstream os;
    sweep::aggregate_table(outcomes, model).print(os);
    sweep::write_point_csv(os, outcomes, model);
  }

  for (std::size_t i = 0; i < outcomes.size(); ++i) {
    const sweep::PointOutcome& o = outcomes[i];
    ++b.attempted;
    const std::string label = in.label + "#" + std::to_string(o.index);
    if (!o.error.empty()) {
      fail(b, label + ": " + o.error);
      continue;
    }
    b.demoted += o.demoted ? 1 : 0;
    const std::uint64_t stim = stimulus_txns(points[i].config);
    b.txns_expanded += stim * ((o.has_tlm ? 1U : 0U) + (o.has_rtl ? 1U : 0U));
    std::string failure;
    const auto simulated = [&](const core::SimResult& r, bool forked) {
      return forked && !o.demoted && r.ran_cycles > w.warmup_cycles
                 ? r.ran_cycles - w.warmup_cycles
                 : r.ran_cycles;
    };
    if (o.has_tlm) {
      account(b, label, o.tlm, stim, simulated(o.tlm, !warm_tlm.empty()),
              failure);
    }
    if (o.has_rtl) {
      account(b, label, o.rtl, stim, simulated(o.rtl, !warm_rtl.empty()),
              failure);
    }
    if (!failure.empty()) {
      fail(b, failure);
    }
  }
}

}  // namespace

void ModelTotals::add(const core::SimResult& r,
                      std::uint64_t simulated_cycles) {
  ++runs;
  sim_cycles += simulated_cycles;
  ran_cycles += r.ran_cycles;
  kernel_activity += r.kernel_activity;
  sim_s += r.wall_seconds;
  grants += r.profile.bus.grants;
  bytes += r.profile.bus.bytes;
  wbuf_absorbed += r.profile.write_buffer.absorbed;
  wbuf_bypassed += r.profile.write_buffer.bypassed;
  const auto& h = r.profile.ddr.hits;
  row_hits += h.row_hits;
  row_accesses += h.row_hits + h.row_misses + h.row_conflicts;
  for (const stats::MasterProfile& m : r.profile.masters) {
    for (unsigned c = 0; c < obs::kStallClassCount; ++c) {
      stalls[c] += m.stalls.cycles[c];
    }
  }
}

std::string phase_layer(const std::string& phase) {
  if (phase == "platform.expand-stimulus") {
    return "traffic.expand";
  }
  if (phase == "tlm.ahb+bus") {
    return "tlm.bus";
  }
  if (phase.rfind("tlm.", 0) == 0 &&
      phase.find("master") != std::string::npos) {
    return "tlm.masters";
  }
  if (phase.rfind("rtl.", 0) != 0) {
    return "";
  }
  // Process names of src/rtl/detail.cpp (rt-detail, dp.*, arb.cone,
  // d<i>.incr) and src/rtl/bitlevel.cpp (pin.*, *.nib<k>, *.blast,
  // *.stepdec).
  const std::string p = phase.substr(4);
  const std::size_t nib = p.rfind(".nib");
  const bool detail =
      p == "rt-detail" || p.rfind("dp.", 0) == 0 || p == "arb.cone" ||
      (p.size() > 6 && p[0] == 'd' && ends_with(p, ".incr") &&
       all_digits(p.substr(1, p.size() - 6))) ||
      p.rfind("pin.", 0) == 0 || ends_with(p, ".blast") ||
      ends_with(p, ".stepdec") ||
      (nib != std::string::npos && all_digits(p.substr(nib + 4)));
  return detail ? "rtl.detail" : "rtl.arch";
}

// Must track sweep::simulate_point and its run_one_model
// (src/sweep/runner.cpp) step for step; the self-tests compare the two
// outcome by outcome.
sweep::PointOutcome traced_point(const sweep::SweepPoint& pt,
                                 sweep::Model model,
                                 const std::vector<std::uint8_t>& warm_tlm,
                                 const std::vector<std::uint8_t>& warm_rtl,
                                 SpanLog& log, int parent, unsigned run,
                                 unsigned thread) {
  sweep::PointOutcome o;
  o.index = pt.index;
  o.label = pt.label;
  Scope ps(&log, "sweep.point", parent, run, thread);
  const auto one = [&](core::ModelKind kind,
                       const std::vector<std::uint8_t>& snap) {
    if (!snap.empty()) {
      try {
        return run_platform(pt.config, kind, &snap, &log, ps.id(), run,
                            thread)
            .result;
      } catch (const state::ForkDivergence&) {
        o.demoted = true;
      }
    }
    return run_platform(pt.config, kind, nullptr, &log, ps.id(), run, thread)
        .result;
  };
  try {
    if (model == sweep::Model::kTlm || model == sweep::Model::kBoth) {
      o.tlm = one(core::ModelKind::kTlm, warm_tlm);
      o.has_tlm = true;
    }
    if (model == sweep::Model::kRtl || model == sweep::Model::kBoth) {
      o.rtl = one(core::ModelKind::kRtl, warm_rtl);
      o.has_rtl = true;
    }
  } catch (const std::exception& e) {
    o.error = e.what();
  } catch (...) {
    o.error = "unknown simulation failure";
  }
  return o;
}

std::vector<Input> generate(const WorkloadSpec& w, std::uint64_t seed) {
  const scenario::ScenarioRegistry& reg = scenario::ScenarioRegistry::builtin();
  std::vector<Input> out;
  if (!w.sweep) {
    for (std::size_t i = 0; i < w.presets.size(); ++i) {
      core::PlatformConfig cfg =
          reg.build(w.presets[i], w.items, scenario_seed(seed, i));
      if (w.max_cycles != 0) {
        cfg.max_cycles = w.max_cycles;
      }
      out.push_back({w.presets[i], scenario::serialize(cfg)});
    }
    return out;
  }
  // A sweep over a registry base, re-seeded master by master exactly as
  // the registry seeds them, so the text stays what a user would write.
  const std::string& base = w.presets.at(0);
  const core::PlatformConfig cfg =
      reg.build(base, w.items, scenario_seed(seed, 0));
  std::ostringstream os;
  os << "base = " << base << "\n";
  if (w.max_cycles != 0) {
    os << "\n[platform]\nmax_cycles = " << w.max_cycles << "\n";
  }
  os << "\n[master *]\nitems = " << w.items << "\n";
  for (std::size_t m = 0; m < cfg.masters.size(); ++m) {
    os << "\n[master " << m << "]\nseed = " << cfg.masters[m].traffic.seed
       << "\n";
  }
  os << "\n[sweep]\n";
  for (const auto& [key, values] : w.axes) {
    os << key << " = " << values << "\n";
  }
  out.push_back({base, os.str()});
  return out;
}

std::string check_run(const core::SimResult& r, std::uint64_t stimulus_txns) {
  if (!r.finished) {
    return "did not finish within max_cycles (ran " +
           std::to_string(r.ran_cycles) + " cycles)";
  }
  if (r.protocol_errors != 0) {
    return std::to_string(r.protocol_errors) + " protocol error(s)";
  }
  if (r.completed < stimulus_txns) {
    return "retired " + std::to_string(r.completed) + " of " +
           std::to_string(stimulus_txns) + " transactions";
  }
  for (const stats::MasterProfile& m : r.profile.masters) {
    if (m.stalls.total() != r.ran_cycles) {
      return "master " + m.name + " stall attribution sums to " +
             std::to_string(m.stalls.total()) + ", not " +
             std::to_string(r.ran_cycles) + " cycles";
    }
  }
  return "";
}

std::string digest_line(const core::SimResult& r) {
  const stats::RunProfile& p = r.profile;
  Fnv h;
  for (const std::uint64_t v :
       {std::uint64_t{r.finished}, r.cycles, r.ran_cycles, r.completed,
        std::uint64_t{r.protocol_errors}, std::uint64_t{r.qos_warnings},
        p.total_cycles, p.completed_txns, p.bus.cycles, p.bus.busy_cycles,
        p.bus.contention_cycles, p.bus.wait_cycles, p.bus.grants,
        p.bus.handovers, p.bus.bytes, p.write_buffer.absorbed,
        p.write_buffer.drained, p.write_buffer.bypassed,
        p.write_buffer.full_stalls, p.write_buffer.forwards,
        p.ddr.commands.activates, p.ddr.commands.reads,
        p.ddr.commands.writes, p.ddr.commands.precharges,
        p.ddr.commands.refreshes, p.ddr.commands.read_beats,
        p.ddr.commands.write_beats, p.ddr.hits.row_hits,
        p.ddr.hits.row_misses, p.ddr.hits.row_conflicts,
        p.ddr.hits.hint_activates, p.ddr.hits.hint_precharges}) {
    h.add(v);
  }
  h.add(p.write_buffer.occupancy);
  std::array<std::uint64_t, obs::kStallClassCount> stalls{};
  for (const stats::MasterProfile& m : p.masters) {
    for (const std::uint64_t v :
         {m.reads, m.writes, m.bytes_read, m.bytes_written, m.buffered_writes,
          m.qos_misses}) {
      h.add(v);
    }
    h.add(m.grant_wait);
    h.add(m.latency);
    for (unsigned c = 0; c < obs::kStallClassCount; ++c) {
      h.add(m.stalls.cycles[c]);
      stalls[c] += m.stalls.cycles[c];
    }
  }
  for (const auto& [rule, n] : p.violation_rules) {
    for (const char ch : rule) {
      h.add(static_cast<std::uint64_t>(static_cast<unsigned char>(ch)));
    }
    h.add(n);
  }
  char hex[17];
  std::snprintf(hex, sizeof hex, "%016llx",
                static_cast<unsigned long long>(h.value()));
  std::ostringstream os;
  os << "digest=" << hex << " cycles=" << r.cycles
     << " ran=" << r.ran_cycles << " completed=" << r.completed
     << " grants=" << p.bus.grants << " bytes=" << p.bus.bytes
     << " wbuf=" << p.write_buffer.absorbed << "/" << p.write_buffer.bypassed
     << " ddr_rw=" << p.ddr.commands.reads << "/" << p.ddr.commands.writes
     << " row_hits=" << p.ddr.hits.row_hits << " stalls=";
  for (unsigned c = 0; c < obs::kStallClassCount; ++c) {
    os << (c ? "/" : "") << stalls[c];
  }
  return os.str();
}

Batch run_batch(const WorkloadSpec& w, const std::vector<Input>& inputs,
                SpanLog* log, unsigned run) {
  Batch b;
  const std::int64_t t0 = now_ns();
  {
    Scope root(log, "workload", -1, run);
    for (const Input& in : inputs) {
      if (w.sweep) {
        run_sweep(b, w, in, log, root.id(), run);
      } else {
        run_scenario(b, w, in, log, root.id(), run, 0);
      }
    }
  }
  b.wall_s = seconds(now_ns() - t0);
  return b;
}

}  // namespace perfbench
