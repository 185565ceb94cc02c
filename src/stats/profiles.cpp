#include "stats/profiles.hpp"

#include <cstdio>

#include "obs/timeline.hpp"

namespace ahbp::stats {

namespace {

std::string txn_label(const ahb::Transaction& t, bool buffered) {
  char buf[48];
  const char* kind = t.dir == ahb::Dir::kRead ? "rd"
                     : buffered               ? "wr(buf)"
                                              : "wr";
  std::snprintf(buf, sizeof(buf), "%s@0x%llx x%u", kind,
                static_cast<unsigned long long>(t.addr), t.beats);
  return buf;
}

}  // namespace

std::string master_name(unsigned m) {
  // Appending (rather than `"M" + std::to_string(m)`) sidesteps a GCC 12
  // -Wrestrict false positive at -O3.
  std::string name = "M";
  name += std::to_string(m);
  return name;
}

void MasterProfile::record(const ahb::Transaction& t, bool buffered) {
  if (t.dir == ahb::Dir::kRead) {
    ++reads;
    bytes_read += t.bytes();
  } else {
    ++writes;
    bytes_written += t.bytes();
    if (buffered) {
      ++buffered_writes;
    }
  }
  grant_wait.add(t.wait());
  latency.add(t.latency());
  if (timeline != nullptr) {
    if (buffered) {
      // Posted write: the master observes instant completion; the drain
      // shows up later on the bus/write-buffer tracks.
      timeline->instant(timeline_track, t.granted_at, txn_label(t, true));
    } else {
      if (t.granted_at > t.issued_at) {
        timeline->begin(timeline_track, t.issued_at, "wait");
        timeline->end(timeline_track, t.granted_at);
      }
      timeline->begin(timeline_track, t.granted_at, txn_label(t, false));
      timeline->end(timeline_track, t.finished_at);
    }
  }
}

void BusProfile::sample(unsigned requesters, bool busy, unsigned moved_bytes) {
  ++cycles;
  if (busy) {
    ++busy_cycles;
  }
  if (requesters > 1) {
    ++contention_cycles;
  }
  if (requesters >= 1 && !busy) {
    ++wait_cycles;
  }
  bytes += moved_bytes;
}

void MasterProfile::save_state(state::StateWriter& w) const {
  // `name` is configuration (assigned at platform assembly), not state.
  w.put_u64(reads);
  w.put_u64(writes);
  w.put_u64(bytes_read);
  w.put_u64(bytes_written);
  w.put_u64(buffered_writes);
  grant_wait.save_state(w);
  latency.save_state(w);
  w.put_u64(qos_misses);
  stalls.save_state(w);
}

void MasterProfile::restore_state(state::StateReader& r) {
  reads = r.get_u64();
  writes = r.get_u64();
  bytes_read = r.get_u64();
  bytes_written = r.get_u64();
  buffered_writes = r.get_u64();
  grant_wait.restore_state(r);
  latency.restore_state(r);
  qos_misses = r.get_u64();
  stalls.restore_state(r);
}

void BusProfile::save_state(state::StateWriter& w) const {
  w.put_u64(cycles);
  w.put_u64(busy_cycles);
  w.put_u64(contention_cycles);
  w.put_u64(wait_cycles);
  w.put_u64(grants);
  w.put_u64(handovers);
  w.put_u64(bytes);
}

void BusProfile::restore_state(state::StateReader& r) {
  cycles = r.get_u64();
  busy_cycles = r.get_u64();
  contention_cycles = r.get_u64();
  wait_cycles = r.get_u64();
  grants = r.get_u64();
  handovers = r.get_u64();
  bytes = r.get_u64();
}

void WriteBufferProfile::save_state(state::StateWriter& w) const {
  w.put_u64(absorbed);
  w.put_u64(drained);
  w.put_u64(bypassed);
  w.put_u64(full_stalls);
  w.put_u64(forwards);
  occupancy.save_state(w);
}

void WriteBufferProfile::restore_state(state::StateReader& r) {
  absorbed = r.get_u64();
  drained = r.get_u64();
  bypassed = r.get_u64();
  full_stalls = r.get_u64();
  forwards = r.get_u64();
  occupancy.restore_state(r);
}

}  // namespace ahbp::stats
