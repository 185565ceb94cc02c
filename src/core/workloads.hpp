#pragma once

#include <string>
#include <vector>

#include "core/platform.hpp"

/// \file workloads.hpp
/// Named workloads, including the Table-1 suite.
///
/// The paper's Table 1 "modeled and simulated a target system by changing
/// the traffic patterns of the masters" over a 4-master platform.  The
/// original master mixes are not public, so this is a reconstruction: three
/// traffic classes (CPU-dominated, DMA-heavy, RT-stream mix), four parameter
/// variations each — twelve rows, matching the table's shape (3 groups x 4
/// rows + summary).  workloads.cpp lists each row's masters and knobs.

namespace ahbp::core {

struct Workload {
  std::string name;
  PlatformConfig config;
};

/// A sensible default 4-master platform (all filters on, write buffer 4
/// deep, DDR-266, 8MB of DDR behind the controller).
PlatformConfig default_platform(unsigned masters, std::uint64_t seed = 1,
                                unsigned items_per_master = 400);

/// The twelve Table-1 rows.
/// `items_per_master` scales run length (tests use small values, the bench
/// uses the default for stable percentages).
std::vector<Workload> table1_workloads(unsigned items_per_master = 400,
                                       std::uint64_t seed = 1);

/// Single-master workload used for the paper's 456 Kcycles/s data point.
Workload single_master_workload(unsigned items = 2000, std::uint64_t seed = 1);

}  // namespace ahbp::core
