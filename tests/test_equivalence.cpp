// Cross-model equivalence — the properties behind Table 1's validity:
// for identical stimulus the two models must retire the same transactions
// with identical read data, keep every protocol checker silent, and stay
// within a bounded cycle divergence.  Parameterized across traffic
// patterns and seeds.

#include <gtest/gtest.h>

#include <map>
#include <sstream>
#include <string>
#include <tuple>

#include "core/compare.hpp"
#include "core/platform.hpp"
#include "core/workloads.hpp"
#include "rtl/fabric.hpp"
#include "scenario/registry.hpp"
#include "sim/cycle_kernel.hpp"
#include "tlm/bus.hpp"
#include "tlm/ddrc.hpp"
#include "tlm/master.hpp"

namespace {

using namespace ahbp;
using namespace ahbp::core;

using Key = std::pair<unsigned, ahb::TxnId>;
using DataMap = std::map<Key, std::vector<ahb::Word>>;

/// Collect per-transaction read data from a TLM run.
DataMap run_tlm_collect(const PlatformConfig& cfg) {
  DataMap out;
  sim::CycleKernel kernel;
  ahb::QosRegisterFile qos(static_cast<unsigned>(cfg.masters.size()));
  for (unsigned m = 0; m < cfg.masters.size(); ++m) {
    qos.program(static_cast<ahb::MasterId>(m), cfg.masters[m].qos);
  }
  tlm::TlmDdrc ddrc(cfg.timing, cfg.geom, cfg.ddr_base);
  chk::ViolationLog log;
  tlm::AhbPlusBus bus(cfg.bus, qos, ddrc,
                      static_cast<unsigned>(cfg.masters.size()), &log);
  kernel.add(bus);
  auto scripts = expand_stimulus(cfg);
  std::vector<std::unique_ptr<tlm::TlmMaster>> masters;
  for (unsigned m = 0; m < cfg.masters.size(); ++m) {
    masters.push_back(std::make_unique<tlm::TlmMaster>(
        static_cast<ahb::MasterId>(m), bus, std::move(scripts[m])));
    masters[m]->on_complete = [&out, m](const ahb::Transaction& t) {
      if (t.dir == ahb::Dir::kRead) {
        out[{m, t.id}] = t.data;
      }
    };
    kernel.add(*masters[m]);
  }
  kernel.run_until(
      [&] {
        for (const auto& m : masters) {
          if (!m->finished()) {
            return false;
          }
        }
        return bus.quiescent();
      },
      cfg.max_cycles);
  EXPECT_EQ(log.errors(), 0u) << log.to_string();
  return out;
}

/// Collect per-transaction read data from an RTL run.
DataMap run_rtl_collect(const PlatformConfig& cfg) {
  DataMap out;
  rtl::RtlFabricConfig fc;
  fc.bus = cfg.bus;
  fc.timing = cfg.timing;
  fc.geom = cfg.geom;
  fc.ddr_base = cfg.ddr_base;
  for (const auto& m : cfg.masters) {
    fc.qos.push_back(m.qos);
  }
  rtl::RtlFabric fabric(fc, expand_stimulus(cfg));
  for (unsigned m = 0; m < cfg.masters.size(); ++m) {
    fabric.set_on_complete(m, [&out, m](const ahb::Transaction& t) {
      if (t.dir == ahb::Dir::kRead) {
        out[{m, t.id}] = t.data;
      }
    });
  }
  fabric.run(cfg.max_cycles);
  EXPECT_TRUE(fabric.finished()) << fabric.dump_state();
  EXPECT_EQ(fabric.violations().errors(), 0u)
      << fabric.violations().to_string();
  return out;
}

class EquivalenceSweep
    : public ::testing::TestWithParam<
          std::tuple<traffic::PatternKind, std::uint64_t>> {};

TEST_P(EquivalenceSweep, IdenticalReadDataAndBoundedCycleGap) {
  const auto [kind, seed] = GetParam();
  PlatformConfig cfg = default_platform(3, seed, 40);
  for (auto& m : cfg.masters) {
    m.traffic.kind = kind;
  }
  cfg.max_cycles = 400000;

  const DataMap tlm_data = run_tlm_collect(cfg);
  const DataMap rtl_data = run_rtl_collect(cfg);

  ASSERT_EQ(tlm_data.size(), rtl_data.size());
  for (const auto& [key, data] : tlm_data) {
    const auto it = rtl_data.find(key);
    ASSERT_NE(it, rtl_data.end())
        << "master " << key.first << " txn " << key.second;
    EXPECT_EQ(it->second, data)
        << "read data differs: master " << key.first << " txn " << key.second;
  }

  // Cycle divergence bound (loose; the bench reports exact percentages).
  const SimResult t = run_tlm(cfg);
  const SimResult r = run_rtl(cfg);
  ASSERT_TRUE(t.finished && r.finished);
  const double err =
      std::abs(static_cast<double>(t.cycles) - static_cast<double>(r.cycles)) /
      static_cast<double>(r.cycles);
  EXPECT_LT(err, 0.15) << "tlm=" << t.cycles << " rtl=" << r.cycles;
}

INSTANTIATE_TEST_SUITE_P(
    PatternsAndSeeds, EquivalenceSweep,
    ::testing::Combine(::testing::Values(traffic::PatternKind::kCpu,
                                         traffic::PatternKind::kDma,
                                         traffic::PatternKind::kRandom),
                       ::testing::Values(1ull, 17ull, 99ull)));

TEST(Equivalence, CompletedCountsMatchOnTable1Rows) {
  // Cheap subset of Table 1 (first row of each group) at low item count.
  auto rows = table1_workloads(15, 5);
  for (const auto idx : {0u, 4u, 8u}) {
    auto w = rows[idx];
    const SimResult t = run_tlm(w.config);
    const SimResult r = run_rtl(w.config);
    ASSERT_TRUE(t.finished) << w.name;
    ASSERT_TRUE(r.finished) << w.name;
    EXPECT_EQ(t.completed, r.completed) << w.name;
    EXPECT_EQ(t.protocol_errors, 0u) << w.name << "\n" << t.first_violations;
    EXPECT_EQ(r.protocol_errors, 0u) << w.name << "\n" << r.first_violations;
  }
}

TEST(Equivalence, SingleMasterModelsAgreeTightly) {
  // With no contention the fixed grant/handover latencies are not hidden
  // by pipelining, so the single-master gap runs a little above the
  // contended Table-1 average (the TLM's calibration targets the paper's
  // multi-master workloads).
  auto w = single_master_workload(60, 21);
  w.config.max_cycles = 400000;
  const SimResult t = run_tlm(w.config);
  const SimResult r = run_rtl(w.config);
  ASSERT_TRUE(t.finished && r.finished);
  const double err =
      std::abs(static_cast<double>(t.cycles) - static_cast<double>(r.cycles)) /
      static_cast<double>(r.cycles);
  EXPECT_LT(err, 0.12) << "tlm=" << t.cycles << " rtl=" << r.cycles;
}

TEST(Equivalence, ProfilesAgreeOnWorkConserved) {
  // Same stimulus means the same bytes moved and the same grant counts
  // (timing differs, work does not).
  PlatformConfig cfg = default_platform(2, 31, 30);
  const SimResult t = run_tlm(cfg);
  const SimResult r = run_rtl(cfg);
  ASSERT_TRUE(t.finished && r.finished);
  for (unsigned m = 0; m < 2; ++m) {
    EXPECT_EQ(t.profile.masters[m].reads, r.profile.masters[m].reads);
    EXPECT_EQ(t.profile.masters[m].writes, r.profile.masters[m].writes);
    EXPECT_EQ(t.profile.masters[m].bytes_read,
              r.profile.masters[m].bytes_read);
    EXPECT_EQ(t.profile.masters[m].bytes_written,
              r.profile.masters[m].bytes_written);
  }
}

TEST(Equivalence, QosMissesSimilarUnderLoad) {
  // An RT master under heavy NRT load: both models must service it within
  // the same order of QoS quality (exact misses may differ slightly).
  auto rows = table1_workloads(25, 3);
  auto w = rows[9];  // rt-2: tight period
  const SimResult t = run_tlm(w.config);
  const SimResult r = run_rtl(w.config);
  ASSERT_TRUE(t.finished && r.finished);
  const auto t_miss = t.profile.masters[0].qos_misses;
  const auto r_miss = r.profile.masters[0].qos_misses;
  EXPECT_LE(t_miss, r_miss + 5);
  EXPECT_LE(r_miss, t_miss + 5);
}

/// Stats JSON with the host-dependent fields (wall time, kernel activity)
/// zeroed: what must match when two configurations mean the same platform.
std::string canonical_stats(SimResult r) {
  r.wall_seconds = 0.0;
  r.kernel_activity = 0;
  std::ostringstream os;
  write_stats_json(os, r);
  return os.str();
}

TEST(Equivalence, DepthZeroWriteBufferIsBufferOff) {
  // A zero-entry write buffer cannot hold anything: with `write_buffer =
  // on` it must behave, and be accounted (no bypasses, no full stalls, no
  // wbuf_full cycles), exactly like `write_buffer = off` in both models.
  auto on0 = scenario::ScenarioRegistry::builtin().build("table1/dma-2", 60);
  on0.bus.write_buffer_enabled = true;
  on0.bus.write_buffer_depth = 0;
  auto off = on0;
  off.bus.write_buffer_enabled = false;

  const SimResult t = run_tlm(on0);
  const SimResult r = run_rtl(on0);
  ASSERT_TRUE(t.finished && r.finished);
  EXPECT_EQ(canonical_stats(t), canonical_stats(run_tlm(off)));
  EXPECT_EQ(canonical_stats(r), canonical_stats(run_rtl(off)));
}

}  // namespace
