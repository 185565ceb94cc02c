#pragma once

/// \file calib.hpp
/// Host-speed calibration.  On a shared host, other tenants' load slows
/// this process for seconds to minutes at a time, mostly through the
/// shared caches and memory; a workload's host time can double with no
/// change to the program.  The driver therefore runs a fixed loop, frozen
/// here and independent of the library, around every batch, and expresses
/// the gated times in seconds of a host on which that loop takes
/// kReferenceCalibrationS.  A slower program still reads slower by the
/// same factor; a slower host slows the loop and the workload together.

namespace perfbench {

/// Calibration-loop time of the reference host: a round figure just below
/// the fastest loop times seen on a 4-vCPU KVM guest (Xeon, 2.0 GHz
/// nominal, GCC 12.2, RelWithDebInfo).  It only sets the unit: parent and
/// change are both scaled by it.
inline constexpr double kReferenceCalibrationS = 0.0065;

/// Run the calibration loop once on each of `threads` threads at the same
/// time (a workload running that many threads needs that many cores);
/// returns the mean of their host seconds.  The loop is a small
/// cycle-stepped bus model (eight request rings, round-robin arbitration,
/// a 256 KiB open-row table per thread) that does the same work on every
/// call.
double calibrate(unsigned threads);

}  // namespace perfbench
