// ahbp_perfbench — the benchmark driver.  Runs one workload in a closed
// loop for a fixed time, checks and digests every simulated outcome, and
// prints one JSON result line last: end-to-end metrics from untraced
// repetitions (--trace 0), per-layer metrics from traced repetitions
// (--trace 1).  The gated times are in seconds of the reference host of
// calib.hpp: between batches the driver runs the calibration loop a few
// times, each untraced batch's host time is divided by the median loop
// time around it and multiplied by the reference loop time, and the run
// reports the interquartile mean of these over its batches.  Load from
// other tenants of a shared host moves host seconds by up to 2x for
// minutes at a time; it moves this ratio far less.
// Workload settings come as flags; perfbench/run.py reads them from
// perfbench/workloads.json.
//
//   ahbp_perfbench --workload NAME --seed N --seconds S --trace 0|1
//                  [--model tlm|both] [--presets a,b,...] [--items N]
//                  [--sweep] [--axis key=v1,v2,...]... [--warmup-cycles N]
//                  [--jobs N] [--spans FILE]

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <iostream>
#include <map>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <tuple>
#include <vector>

#include "bench.hpp"
#include "calib.hpp"
#include "spans.hpp"

namespace {

using perfbench::Batch;

double median(std::vector<double> v) {
  if (v.empty()) {
    return 0.0;
  }
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

/// Mean of the middle half of `v` (all of it when it has under 4 values).
double interquartile_mean(std::vector<double> v) {
  if (v.empty()) {
    return 0.0;
  }
  std::sort(v.begin(), v.end());
  const std::size_t cut = v.size() / 4;
  double sum = 0.0;
  for (std::size_t i = cut; i < v.size() - cut; ++i) {
    sum += v[i];
  }
  return sum / static_cast<double>(v.size() - 2 * cut);
}

double ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

std::vector<std::string> split(const std::string& s, char sep) {
  std::vector<std::string> out;
  std::stringstream ss(s);
  for (std::string item; std::getline(ss, item, sep);) {
    if (!item.empty()) {
      out.push_back(item);
    }
  }
  return out;
}

std::uint64_t to_u64(const std::string& flag, const std::string& v) {
  std::size_t pos = 0;
  const unsigned long long x = std::stoull(v, &pos);
  if (pos != v.size()) {
    throw std::invalid_argument(flag + ": not a number: " + v);
  }
  return x;
}

/// Ordered (name, value, unit) rows.
struct Metrics {
  std::vector<std::tuple<std::string, double, std::string>> rows;
  void add(std::string name, double value, std::string unit) {
    rows.emplace_back(std::move(name), value, std::move(unit));
  }
};

std::string json_number(double v) {
  if (!std::isfinite(v)) {
    return "0";
  }
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.10g", v);
  return buf;
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // KiB on Linux
}

struct Accuracy {
  double err_mean_pct = 0.0;
  double err_max_pct = 0.0;
};

/// Table-1 accuracy of a batch: mean and max |tlm - rtl| / rtl cycles.
Accuracy accuracy(const Batch& b) {
  Accuracy a;
  for (const double e : b.row_error) {
    a.err_mean_pct += e * 100;
    a.err_max_pct = std::max(a.err_max_pct, e * 100);
  }
  if (!b.row_error.empty()) {
    a.err_mean_pct /= static_cast<double>(b.row_error.size());
  }
  return a;
}

/// Per-layer metrics of one traced batch (fixed order and units).
Metrics layer_metrics(const Batch& b, const perfbench::SelfTimes& st,
                      const std::vector<perfbench::Span>& spans, unsigned run,
                      unsigned jobs) {
  Metrics m;
  const auto self_ms = [&](const char* layer) {
    const auto it = st.layer_ns.find(layer);
    return it == st.layer_ns.end() ? 0.0
                                   : static_cast<double>(it->second) / 1e6;
  };
  const auto span_ms = [&](const char* name) {
    double ms = 0.0;
    for (const perfbench::Span& s : spans) {
      if (s.run == run && s.name == name) {
        ms += static_cast<double>(s.end_ns - s.start_ns) / 1e6;
      }
    }
    return ms;
  };
  const auto count = [](std::uint64_t v) { return static_cast<double>(v); };

  m.add("scenario.parse_ms", self_ms("scenario.parse"), "ms");
  m.add("core.construct_ms", span_ms("core.construct"), "ms");
  m.add("traffic.expand_ms", self_ms("traffic.expand"), "ms");
  m.add("traffic.txns_expanded", count(b.txns_expanded), "count");
  m.add("core.result_ms", self_ms("core.result"), "ms");
  m.add("stats.render_ms", self_ms("stats.render"), "ms");

  // Kernel activity counters continue across a restore, so rates per
  // evaluation use the evaluations-per-cycle of the whole run.
  const double tlm_run = span_ms("tlm.run");
  const double tc = count(b.tlm.sim_cycles);
  const double evals_per_cycle =
      ratio(count(b.tlm.kernel_activity), count(b.tlm.ran_cycles));
  m.add("tlm.run_ms", tlm_run, "ms");
  m.add("tlm.ns_per_cycle", ratio(tlm_run * 1e6, tc), "ns");
  m.add("tlm.ns_per_eval", ratio(tlm_run * 1e6, tc * evals_per_cycle), "ns");
  m.add("sim.evals_per_cycle", evals_per_cycle, "count");
  m.add("tlm.bus_self_ms", self_ms("tlm.bus"), "ms");
  m.add("tlm.masters_self_ms", self_ms("tlm.masters"), "ms");
  m.add("tlm.kernel_self_ms", self_ms("tlm.run"), "ms");

  const double rtl_run = span_ms("rtl.run");
  const double rc = count(b.rtl.sim_cycles);
  m.add("rtl.run_ms", rtl_run, "ms");
  m.add("rtl.ns_per_cycle", ratio(rtl_run * 1e6, rc), "ns");
  m.add("rtl.deltas_per_cycle",
        ratio(count(b.rtl.kernel_activity), count(b.rtl.ran_cycles)), "count");
  m.add("rtl.arch_self_ms", self_ms("rtl.arch"), "ms");
  m.add("rtl.detail_self_ms", self_ms("rtl.detail"), "ms");
  m.add("rtl.kernel_self_ms", self_ms("rtl.run"), "ms");

  m.add("sweep.expand_ms", self_ms("sweep.expand"), "ms");
  m.add("sweep.warm_ms", self_ms("sweep.warm"), "ms");
  m.add("state.snapshot_bytes", count(b.snapshot_bytes), "bytes");
  m.add("state.restore_ms", self_ms("state.restore"), "ms");
  double busy = 0.0, worst = 0.0;
  for (const double p : b.point_s) {
    busy += p;
    worst = std::max(worst, p);
  }
  m.add("sweep.point_ms_p50", median(b.point_s) * 1e3, "ms");
  m.add("sweep.point_ms_max", worst * 1e3, "ms");
  m.add("sweep.busy_frac", ratio(busy, b.fanout_s * jobs), "fraction");
  m.add("sweep.demoted", count(b.demoted), "count");

  const Accuracy acc = accuracy(b);
  m.add("table1.err_mean_pct", acc.err_mean_pct, "%");
  m.add("table1.err_max_pct", acc.err_max_pct, "%");
  m.add("xmodel.mismatch_rows", count(b.mismatch_rows), "rows");

  for (const auto* mt : {&b.tlm, &b.rtl}) {
    const std::string p = mt == &b.tlm ? "tlm." : "rtl.";
    m.add(p + "bus_grants", count(mt->grants), "count");
    m.add(p + "bus_bytes", count(mt->bytes), "bytes");
    m.add(p + "wbuf_absorbed", count(mt->wbuf_absorbed), "count");
    m.add(p + "wbuf_bypassed", count(mt->wbuf_bypassed), "count");
    m.add(p + "ddr_row_hit_rate",
          ratio(count(mt->row_hits), count(mt->row_accesses)), "fraction");
    for (unsigned c = 0; c < ahbp::obs::kStallClassCount; ++c) {
      m.add(p + "stall_" +
                std::string(to_string(static_cast<ahbp::obs::StallClass>(c))),
            count(mt->stalls[c]), "cycles");
    }
  }
  return m;
}

/// Spans that stand for the driver's own time between library calls.
bool unattributed(const std::string& span) {
  return span == "workload" || span == "sweep.fanout" || span == "sweep.point";
}

struct Options {
  perfbench::WorkloadSpec w;
  std::uint64_t seed = 2;
  double seconds = 10.0;
  bool trace = false;
  std::string spans_path;
};

Options parse_args(int argc, char** argv) {
  Options o;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    if (a == "--sweep") {
      o.w.sweep = true;
      continue;
    }
    if (i + 1 >= argc) {
      throw std::invalid_argument("missing value after " + a);
    }
    const std::string v = argv[++i];
    if (a == "--workload") {
      o.w.name = v;
    } else if (a == "--seed") {
      o.seed = to_u64(a, v);
    } else if (a == "--seconds") {
      o.seconds = static_cast<double>(to_u64(a, v));
    } else if (a == "--trace") {
      o.trace = v == "1";
    } else if (a == "--model") {
      if (v != "tlm" && v != "both") {
        throw std::invalid_argument("--model must be tlm or both");
      }
      o.w.both_models = v == "both";
    } else if (a == "--presets") {
      o.w.presets = split(v, ',');
    } else if (a == "--items") {
      o.w.items = static_cast<unsigned>(to_u64(a, v));
    } else if (a == "--axis") {
      const std::size_t eq = v.find('=');
      if (eq == std::string::npos) {
        throw std::invalid_argument("--axis needs key=v1,v2,...");
      }
      o.w.axes.emplace_back(v.substr(0, eq), v.substr(eq + 1));
    } else if (a == "--warmup-cycles") {
      o.w.warmup_cycles = to_u64(a, v);
    } else if (a == "--jobs") {
      o.w.jobs = std::max(1U, static_cast<unsigned>(to_u64(a, v)));
    } else if (a == "--spans") {
      o.spans_path = v;
    } else {
      throw std::invalid_argument("unknown flag " + a);
    }
  }
  if (o.w.name.empty() || o.w.presets.empty() || o.w.items == 0) {
    throw std::invalid_argument(
        "need --workload, --presets and --items (see perfbench/run.py)");
  }
  return o;
}

}  // namespace

int main(int argc, char** argv) {
  Options opt;
  try {
    opt = parse_args(argc, argv);
  } catch (const std::exception& e) {
    std::cerr << "ahbp_perfbench: " << e.what() << "\n";
    return 2;
  }
  const perfbench::WorkloadSpec& w = opt.w;
  std::cout << "host nproc=" << std::thread::hardware_concurrency()
            << " compiler=\"" << __VERSION__ << "\" build="
            << PERFBENCH_BUILD_TYPE << " workload=" << w.name
            << " seed=" << opt.seed << " seconds=" << opt.seconds
            << " trace=" << (opt.trace ? 1 : 0) << "\n";

  const std::vector<perfbench::Input> inputs = perfbench::generate(w, opt.seed);

  // Closed loop: batches back to back until the time is up.  A traced run
  // alternates untraced and traced batches so the tracing overhead is
  // measured under the same conditions.  The calibration loop runs before
  // the first batch and after every batch, outside every timed interval;
  // calib[i] and calib[i + 1] are the samples around batch i.
  constexpr int kCalibrationsPerBatch = 4;
  const auto calibrate_group = [&w] {
    std::vector<double> g;
    for (int k = 0; k < kCalibrationsPerBatch; ++k) {
      g.push_back(perfbench::calibrate(w.sweep ? w.jobs : 1));
    }
    return g;
  };
  perfbench::SpanLog log;
  std::vector<Batch> plain, traced;
  std::vector<unsigned> plain_run_ids, traced_run_ids;
  std::vector<std::vector<double>> calib{calibrate_group()};
  const std::int64_t start = perfbench::now_ns();
  // Stop before a batch that would end past the time budget.
  double last_s = 0.0;
  for (unsigned rep = 0;; ++rep) {
    const double elapsed =
        static_cast<double>(perfbench::now_ns() - start) / 1e9;
    const bool enough = !plain.empty() && (!opt.trace || !traced.empty());
    if (enough && elapsed + last_s > opt.seconds) {
      break;
    }
    const bool use_trace = opt.trace && rep % 2 == 1;
    Batch b = perfbench::run_batch(w, inputs, use_trace ? &log : nullptr, rep);
    last_s = b.wall_s;
    calib.push_back(calibrate_group());
    if (use_trace) {
      traced.push_back(std::move(b));
      traced_run_ids.push_back(rep);
    } else {
      plain.push_back(std::move(b));
      plain_run_ids.push_back(rep);
    }
  }

  // Correctness: every repetition, traced or not, must reproduce the first
  // one's digests exactly.
  std::size_t attempted = 0, failed = 0;
  bool digests_stable = true;
  const Batch& first = plain.front();
  for (const auto* set : {&plain, &traced}) {
    for (const Batch& b : *set) {
      attempted += b.attempted;
      failed += b.failed;
      if (b.digests != first.digests) {
        digests_stable = false;
      }
    }
  }
  for (const auto& [key, line] : first.digests) {
    std::cout << "digest " << w.name << " " << key << " " << line << "\n";
  }
  for (const std::string& f : first.failures) {
    std::cout << "FAILED " << f << "\n";
  }
  if (!digests_stable) {
    std::cout << "FAILED digests differ between repetitions\n";
  }
  const bool correct = digests_stable && failed == 0;

  // End-to-end metrics over the untraced repetitions.  A batch's host speed
  // is the median calibration time around it, relative to the reference.
  std::vector<double> all_calib_ms, wall, setup, ref_wall, ref_setup, tlm_k,
      rtl_k, pps;
  for (const std::vector<double>& g : calib) {
    for (const double c : g) {
      all_calib_ms.push_back(c * 1e3);
    }
  }
  for (std::size_t k = 0; k < plain.size(); ++k) {
    const Batch& b = plain[k];
    std::vector<double> around = calib[plain_run_ids[k]];
    const std::vector<double>& after = calib[plain_run_ids[k] + 1];
    around.insert(around.end(), after.begin(), after.end());
    const double to_reference =
        perfbench::kReferenceCalibrationS / median(around);
    wall.push_back(b.wall_s);
    setup.push_back(b.setup_s);
    ref_wall.push_back(b.wall_s * to_reference);
    ref_setup.push_back(b.setup_s * to_reference);
    tlm_k.push_back(ratio(static_cast<double>(b.tlm.sim_cycles),
                          b.tlm.sim_s * 1e3));
    rtl_k.push_back(ratio(static_cast<double>(b.rtl.sim_cycles),
                          b.rtl.sim_s * 1e3));
    pps.push_back(
        ratio(static_cast<double>(b.attempted - b.failed), b.wall_s));
  }
  const auto quartiles = [](std::vector<double> v) {
    std::sort(v.begin(), v.end());
    const auto at = [&](double q) {
      return v[static_cast<std::size_t>(
          std::lround(q * static_cast<double>(v.size() - 1)))];
    };
    std::ostringstream os;
    os << "n=" << v.size() << " min=" << json_number(v.front())
       << " q1=" << json_number(at(0.25)) << " median=" << json_number(median(v))
       << " q3=" << json_number(at(0.75)) << " max=" << json_number(v.back());
    return os.str();
  };
  std::cout << "reps untraced=" << plain.size() << " traced=" << traced.size()
            << " attempted=" << attempted << " failed=" << failed
            << " failed_frac="
            << ratio(static_cast<double>(failed),
                     static_cast<double>(attempted))
            << "\nspread wall_s " << quartiles(wall) << "\nspread setup_s "
            << quartiles(setup) << "\nspread calib_ms "
            << quartiles(all_calib_ms) << "\n";

  // Gated: what a user of every workload waits for or pays, in seconds of
  // the reference host (see the file comment).
  const double calib_ms = median(all_calib_ms);
  const double host_setup_s = interquartile_mean(setup);
  const double host_wall_s = interquartile_mean(wall);
  Metrics e2e;
  e2e.add("setup_s", interquartile_mean(ref_setup), "s");
  e2e.add("wall_s", interquartile_mean(ref_wall), "s");
  e2e.add("peak_rss_mb", peak_rss_mb(), "MB");
  for (const auto& [name, value, unit] : e2e.rows) {
    std::cout << "metric " << name << " " << json_number(value) << " " << unit
              << "\n";
  }
  std::cout << "metric host_setup_s " << json_number(host_setup_s)
            << " s (reported: unscaled)\nmetric host_wall_s "
            << json_number(host_wall_s)
            << " s (reported: unscaled)\nmetric host_slowdown "
            << json_number(calib_ms / (perfbench::kReferenceCalibrationS * 1e3))
            << " x (reported: calibration " << json_number(calib_ms)
            << " ms, reference "
            << json_number(perfbench::kReferenceCalibrationS * 1e3)
            << " ms)\n";
  // Reported beside the gated set, where the workload has them: the
  // paper's section-4 rates and accuracy figures (the latter simulated and
  // deterministic).
  std::cout << "metric points_per_s " << json_number(median(pps))
            << " points/s (reported)\n";
  std::cout << "metric tlm_kcycles_per_s " << json_number(median(tlm_k))
            << " kcycles/s (reported)\n";
  if (first.rtl.runs != 0) {
    const Accuracy acc = accuracy(first);
    std::cout << "metric rtl_kcycles_per_s " << json_number(median(rtl_k))
              << " kcycles/s (reported)\n"
              << "metric tlm_rtl_speed_ratio "
              << json_number(ratio(median(tlm_k), median(rtl_k)))
              << " x (reported)\n"
              << "metric table1_err_mean_pct "
              << json_number(acc.err_mean_pct) << " % (reported)\n"
              << "metric table1_err_max_pct " << json_number(acc.err_max_pct)
              << " % (reported)\n"
              << "metric xmodel_mismatch_rows " << first.mismatch_rows
              << " rows of " << first.row_error.size() << " (reported)\n";
  }

  Metrics out = e2e;
  if (opt.trace) {
    // Per-layer metrics: medians over the traced repetitions.
    const std::vector<perfbench::Span> spans = log.spans();
    std::vector<Metrics> per;
    std::vector<double> traced_wall, unattributed_ms;
    perfbench::SelfTimes last;
    for (std::size_t k = 0; k < traced.size(); ++k) {
      const unsigned run = traced_run_ids[k];
      const perfbench::SelfTimes st = perfbench::self_times(spans, run);
      per.push_back(layer_metrics(traced[k], st, spans, run, w.jobs));
      std::int64_t un = 0;
      for (const auto& [name, ns] : st.layer_ns) {
        un += unattributed(name) ? ns : 0;
      }
      traced_wall.push_back(static_cast<double>(st.wall_ns) / 1e6);
      unattributed_ms.push_back(static_cast<double>(un) / 1e6);
      last = st;
    }
    const double untraced_ms = median(wall) * 1e3;
    const double traced_ms = median(traced_wall);
    out = Metrics{};
    for (std::size_t i = 0; i < per.front().rows.size(); ++i) {
      std::vector<double> v;
      for (const Metrics& m : per) {
        v.push_back(std::get<1>(m.rows[i]));
      }
      out.add(std::get<0>(per.front().rows[i]), median(v),
              std::get<2>(per.front().rows[i]));
    }
    // Simulation rates come from the untraced repetitions: the
    // self-profiler inflates traced run times.
    out.add("points_per_s", median(pps), "points/s");
    out.add("tlm.kcycles_per_s", median(tlm_k), "kcycles/s");
    out.add("rtl.kcycles_per_s", median(rtl_k), "kcycles/s");
    out.add("obs.unattributed_ms", median(unattributed_ms), "ms");
    out.add("obs.traced_wall_ms", traced_ms, "ms");
    out.add("obs.trace_overhead_frac", ratio(traced_ms, untraced_ms) - 1.0,
            "fraction");
    out.add("host.calib_ms", calib_ms, "ms");

    // Reconciliation of the last traced repetition: Σ layer self time +
    // unattributed − parallel overlap = traced wall, by construction.
    std::int64_t layers = 0, un = 0;
    std::ostringstream parts;
    for (const auto& [name, ns] : last.layer_ns) {
      if (unattributed(name)) {
        un += ns;
        continue;
      }
      layers += ns;
      parts << " " << name << "=" << json_number(static_cast<double>(ns) / 1e6);
    }
    std::cout << "reconcile " << w.name << ": layers "
              << json_number(static_cast<double>(layers) / 1e6)
              << " ms + unattributed "
              << json_number(static_cast<double>(un) / 1e6)
              << " ms - parallel overlap "
              << json_number(static_cast<double>(last.overlap_ns) / 1e6)
              << " ms = traced wall "
              << json_number(static_cast<double>(layers + un -
                                                 last.overlap_ns) /
                             1e6)
              << " ms (measured "
              << json_number(static_cast<double>(last.wall_ns) / 1e6)
              << " ms); untraced wall " << json_number(untraced_ms)
              << " ms, trace overhead "
              << json_number((ratio(traced_ms, untraced_ms) - 1.0) * 100)
              << "%\n  layers (ms):" << parts.str() << "\n";
    for (const auto& [name, value, unit] : out.rows) {
      std::cout << "layer " << name << " " << json_number(value) << " " << unit
                << "\n";
    }
    if (!opt.spans_path.empty()) {
      std::ofstream os(opt.spans_path);
      log.write_json(os);
      std::cout << "spans written to " << opt.spans_path << "\n";
    }
  }

  std::cout << "{\"correct\": " << (correct ? "true" : "false")
            << ", \"attempted\": " << attempted << ", \"failed\": " << failed
            << ", \"metrics\": {";
  for (std::size_t i = 0; i < out.rows.size(); ++i) {
    const auto& [name, value, unit] = out.rows[i];
    std::cout << (i ? ", " : "") << "\"" << name << "\": {\"value\": "
              << json_number(value) << ", \"unit\": \"" << unit << "\"}";
  }
  std::cout << "}}" << std::endl;
  return 0;
}
