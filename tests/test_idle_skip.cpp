// Idle-skip correctness: the TLM platform leaps provably idle stretches
// instead of stepping them, and that must change speed only.  For every
// registry preset, cycle counts, retired transactions, per-master stall
// attribution and every other simulated statistic must be bit-identical to
// a TLM assembled by hand here and stepped cycle by cycle with
// CycleKernel::run_until — the reference lives in this test, not the
// library.  Also pins checkpoint restore from the middle of a skipped
// stretch.

#include <gtest/gtest.h>

#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "core/checkpoint.hpp"
#include "core/platform.hpp"
#include "scenario/registry.hpp"
#include "sim/cycle_kernel.hpp"
#include "state/snapshot.hpp"
#include "tlm/bus.hpp"
#include "tlm/ddrc.hpp"
#include "tlm/master.hpp"

namespace {

using namespace ahbp;

/// Canonical form of a run outcome: the full stats JSON (cycle counts,
/// completions, per-master stall attribution, violations) with the
/// host-time fields zeroed.  kernel_activity counts component evaluations,
/// which idle-skip legitimately reduces — everything else must match bit
/// for bit.
std::string canonical(core::SimResult r) {
  r.wall_seconds = 0.0;
  r.kernel_activity = 0;
  std::ostringstream os;
  core::write_stats_json(os, r);
  return os.str();
}

/// The cycle-by-cycle ground truth: the TLM assembled from its parts and
/// run with CycleKernel::run_until, every cycle evaluated.
std::string run_cycle_by_cycle(core::PlatformConfig cfg) {
  core::resolve_stimulus(cfg);
  const unsigned n = static_cast<unsigned>(cfg.masters.size());
  sim::CycleKernel kernel;
  ahb::QosRegisterFile qos(n);
  for (unsigned m = 0; m < n; ++m) {
    qos.program(static_cast<ahb::MasterId>(m), cfg.masters[m].qos);
  }
  tlm::TlmDdrc ddrc(core::ddr_channel_configs(cfg), cfg.interleave,
                    cfg.ddr_base);
  chk::ViolationLog log;
  tlm::AhbPlusBus bus(cfg.bus, qos, ddrc, n,
                      cfg.enable_checkers ? &log : nullptr);
  kernel.add(bus);
  auto scripts = core::expand_stimulus(cfg);
  std::vector<std::unique_ptr<tlm::TlmMaster>> masters;
  sim::Cycle last_completion = 0;
  for (unsigned m = 0; m < n; ++m) {
    masters.push_back(std::make_unique<tlm::TlmMaster>(
        static_cast<ahb::MasterId>(m), bus, std::move(scripts[m])));
    masters[m]->on_complete = [&](const ahb::Transaction&) {
      last_completion = kernel.now();
    };
    kernel.add(*masters[m]);
  }
  const auto done = [&] {
    for (const auto& m : masters) {
      if (!m->finished()) {
        return false;
      }
    }
    return bus.quiescent();
  };
  kernel.run_until(done, cfg.max_cycles);

  core::SimResult r;
  r.model = "tlm";
  r.finished = done();
  r.cycles = last_completion;
  r.ran_cycles = kernel.now();
  for (const auto& m : masters) {
    r.completed += m->completed();
  }
  r.profile.masters = bus.master_profiles();
  r.profile.bus = bus.bus_profile();
  r.profile.bus.grants = bus.arbiter().grants();
  r.profile.write_buffer = bus.write_buffer().profile();
  r.profile.ddr.commands = ddrc.channels().command_counters();
  r.profile.ddr.hits = ddrc.channels().hit_stats();
  r.profile.total_cycles = last_completion;
  r.profile.completed_txns = r.completed;
  r.protocol_errors = log.errors();
  r.qos_warnings = log.warnings();
  r.first_violations = log.to_string();
  r.profile.violation_rules = log.rule_counts();
  return canonical(r);
}

TEST(IdleSkip, MatchesCycleByCycleOnAllPresets) {
  const auto& reg = scenario::ScenarioRegistry::builtin();
  ASSERT_GE(reg.entries().size(), 17u);
  for (const auto& info : reg.entries()) {
    SCOPED_TRACE(info.name);
    const auto cfg = reg.build(info.name, /*items=*/60);
    EXPECT_EQ(run_cycle_by_cycle(cfg), canonical(core::run_tlm(cfg)));
  }
}

TEST(IdleSkip, MatchesCycleByCycleWithFourDdrChannels) {
  const auto& reg = scenario::ScenarioRegistry::builtin();
  auto cfg = reg.build("table1/dma-1", /*items=*/80);
  cfg.interleave.channels = 4;
  EXPECT_EQ(run_cycle_by_cycle(cfg), canonical(core::run_tlm(cfg)));
}

TEST(IdleSkip, CheckpointMidIdleStretchRestoresBitExact) {
  // rt-1 is idle-heavy, so the platform spends most of its time mid-leap;
  // a checkpoint quota of 5003 cycles (prime) forces the save to land
  // inside a skipped stretch.
  const auto& reg = scenario::ScenarioRegistry::builtin();
  const auto cfg = reg.build("table1/rt-1", /*items=*/120);

  const std::string straight = canonical(core::run_tlm(cfg));

  core::Platform warm(cfg, core::ModelKind::kTlm);
  state::StateWriter w;
  warm.checkpoint_at(5003, w);
  ASSERT_EQ(warm.now(), 5003u);
  const auto bytes = w.finish();

  core::Platform fork(cfg, core::ModelKind::kTlm);
  state::StateReader r(bytes.data(), bytes.size());
  fork.restore_state(r);
  ASSERT_EQ(fork.now(), 5003u);
  fork.run_to_completion();
  EXPECT_EQ(straight, canonical(fork.result()));

  // And the resumed run must also equal the cycle-by-cycle ground truth.
  EXPECT_EQ(run_cycle_by_cycle(cfg), canonical(fork.result()));
}

}  // namespace
