#include "spans.hpp"

#include <algorithm>
#include <chrono>
#include <ostream>

#include "obs/json.hpp"

namespace perfbench {

std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

int SpanLog::begin(std::string name, int parent, unsigned run,
                   unsigned thread) {
  Span s;
  s.name = std::move(name);
  s.parent = parent;
  s.run = run;
  s.thread = thread;
  const std::lock_guard<std::mutex> lock(mu_);
  s.start_ns = now_ns();
  spans_.push_back(std::move(s));
  return static_cast<int>(spans_.size() - 1);
}

void SpanLog::end(int id) {
  const std::int64_t t = now_ns();
  const std::lock_guard<std::mutex> lock(mu_);
  spans_[static_cast<std::size_t>(id)].end_ns = t;
}

void SpanLog::add_part(int id, std::string name, std::int64_t ns) {
  const std::lock_guard<std::mutex> lock(mu_);
  spans_[static_cast<std::size_t>(id)].parts.emplace_back(std::move(name),
                                                          ns);
}

std::vector<Span> SpanLog::spans() const {
  const std::lock_guard<std::mutex> lock(mu_);
  return spans_;
}

void SpanLog::write_json(std::ostream& os) const {
  const std::vector<Span> all = spans();
  const std::int64_t t0 = all.empty() ? 0 : all.front().start_ns;
  os << "{\"traceEvents\": [";
  for (std::size_t i = 0; i < all.size(); ++i) {
    const Span& s = all[i];
    os << (i ? ",\n" : "\n") << "{\"name\": \"" << ahbp::obs::json_escape(s.name)
       << "\", \"ph\": \"X\", \"ts\": "
       << static_cast<double>(s.start_ns - t0) / 1e3
       << ", \"dur\": " << static_cast<double>(s.end_ns - s.start_ns) / 1e3
       << ", \"pid\": " << s.run << ", \"tid\": " << s.thread
       << ", \"args\": {\"id\": " << i << ", \"parent\": " << s.parent;
    for (const auto& [name, ns] : s.parts) {
      os << ", \"" << ahbp::obs::json_escape(name) << "_us\": "
         << static_cast<double>(ns) / 1e3;
    }
    os << "}}";
  }
  os << "\n]}\n";
}

Scope::Scope(SpanLog* log, std::string name, int parent, unsigned run,
             unsigned thread)
    : log_(log) {
  if (log_ != nullptr) {
    id_ = log_->begin(std::move(name), parent, run, thread);
  }
}

Scope::~Scope() {
  if (log_ != nullptr) {
    log_->end(id_);
  }
}

SelfTimes self_times(const std::vector<Span>& spans, unsigned run) {
  std::vector<std::vector<std::size_t>> children(spans.size());
  SelfTimes out;
  for (std::size_t i = 0; i < spans.size(); ++i) {
    if (spans[i].run != run) {
      continue;
    }
    if (spans[i].parent < 0) {
      out.wall_ns += spans[i].end_ns - spans[i].start_ns;
    } else {
      children[static_cast<std::size_t>(spans[i].parent)].push_back(i);
    }
  }
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const Span& s = spans[i];
    if (s.run != run) {
      continue;
    }
    // Union of the children's intervals (they may overlap when they ran
    // on parallel workers).
    std::vector<std::pair<std::int64_t, std::int64_t>> iv;
    std::int64_t child_sum = 0;
    for (const std::size_t c : children[i]) {
      iv.emplace_back(spans[c].start_ns, spans[c].end_ns);
      child_sum += spans[c].end_ns - spans[c].start_ns;
    }
    std::sort(iv.begin(), iv.end());
    std::int64_t covered = 0;
    std::int64_t lo = 0, hi = 0;
    bool open = false;
    for (const auto& [a, b] : iv) {
      if (open && a <= hi) {
        hi = std::max(hi, b);
        continue;
      }
      if (open) {
        covered += hi - lo;
      }
      lo = a;
      hi = b;
      open = true;
    }
    if (open) {
      covered += hi - lo;
    }
    out.overlap_ns += child_sum - covered;

    std::int64_t self = s.end_ns - s.start_ns - covered;
    for (const auto& [name, ns] : s.parts) {
      out.layer_ns[name] += ns;
      self -= ns;
    }
    out.layer_ns[s.name] += self;
  }
  return out;
}

}  // namespace perfbench
