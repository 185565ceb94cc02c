#include "calib.hpp"

#include <algorithm>
#include <array>
#include <cstdint>
#include <thread>
#include <vector>

#include "spans.hpp"

namespace perfbench {

namespace {

volatile std::uint64_t g_sink;  // keeps the loop's result observable

std::uint64_t xorshift(std::uint64_t& x) {
  x ^= x << 13;
  x ^= x >> 7;
  x ^= x << 17;
  return x;
}

/// One pass of the loop on the calling thread; returns its host seconds.
double loop_once() {
  constexpr unsigned kMasters = 8;
  constexpr unsigned kDepth = 16;
  constexpr unsigned kCycles = 120'000;
  thread_local std::vector<std::uint32_t> open_row(1U << 16, 0);

  const std::int64_t t0 = now_ns();
  std::fill(open_row.begin(), open_row.end(), 0U);
  std::array<std::array<std::uint32_t, kDepth>, kMasters> ring{};
  std::array<unsigned, kMasters> head{}, tail{};
  std::uint64_t x = 0x9e3779b97f4a7c15ULL, done = 0;
  unsigned next = 0, busy = 0;
  for (unsigned cycle = 0; cycle < kCycles; ++cycle) {
    for (unsigned m = 0; m < kMasters; ++m) {
      const std::uint64_t r = xorshift(x);
      if ((r & 7) < 2 && tail[m] - head[m] < kDepth) {
        ring[m][tail[m]++ % kDepth] = static_cast<std::uint32_t>(r >> 20);
      }
    }
    if (busy != 0) {
      --busy;
      continue;
    }
    for (unsigned k = 0; k < kMasters; ++k) {
      const unsigned m = (next + k) % kMasters;
      if (head[m] != tail[m]) {
        const std::uint32_t addr = ring[m][head[m]++ % kDepth];
        std::uint32_t& row = open_row[(addr >> 4) & 0xffffU];
        busy = row == (addr >> 20) ? 1 : 3;
        row = addr >> 20;
        next = m + 1;
        ++done;
        break;
      }
    }
  }
  g_sink = done;
  return static_cast<double>(now_ns() - t0) / 1e9;
}

}  // namespace

double calibrate(unsigned threads) {
  std::vector<double> s(threads < 1 ? 1 : threads, 0.0);
  {
    std::vector<std::jthread> pool;  // joined on every exit path
    for (std::size_t t = 1; t < s.size(); ++t) {
      pool.emplace_back([&s, t] { s[t] = loop_once(); });
    }
    s[0] = loop_once();
  }
  double sum = 0.0;
  for (const double v : s) {
    sum += v;
  }
  return sum / static_cast<double>(s.size());
}

}  // namespace perfbench
