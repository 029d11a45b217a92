// In-memory span recorder for the benchmark's traced run.
//
// A span is one timed call into a layer of libdhc: name, start, end, the
// span that was open when it began (its parent), and the trial it belongs
// to.  Spans are kept in memory and written out as NDJSON once the run ends,
// so recording costs two steady_clock reads and a vector append per span.
// The benchmark is single-threaded, so spans nest strictly: a span's self
// time is its duration minus the durations of its direct children.
#pragma once

#include <chrono>
#include <cstdint>
#include <ostream>
#include <stdexcept>
#include <string>
#include <vector>

namespace perfbench {

class SpanRecorder {
 public:
  using Clock = std::chrono::steady_clock;

  struct Span {
    std::string name;
    double start_s = 0.0;  ///< since the recorder was created
    double end_s = 0.0;
    std::int32_t parent = -1;  ///< index into spans(), -1 for a root span
    std::int64_t trial = -1;   ///< trial id, -1 outside a trial
    double child_s = 0.0;      ///< summed durations of the direct children
  };

  std::int32_t open(std::string name, std::int64_t trial = -1) {
    Span s;
    s.name = std::move(name);
    s.parent = open_.empty() ? -1 : open_.back();
    s.trial = trial >= 0 || s.parent < 0 ? trial : spans_[s.parent].trial;
    s.start_s = now();
    spans_.push_back(std::move(s));
    open_.push_back(static_cast<std::int32_t>(spans_.size() - 1));
    return open_.back();
  }

  void close(std::int32_t id) {
    if (open_.empty() || open_.back() != id) throw std::logic_error("span closed out of order");
    open_.pop_back();
    Span& s = spans_[id];
    s.end_s = now();
    if (s.parent >= 0) spans_[s.parent].child_s += duration(s);
  }

  /// Runs fn() inside a span called `name` and returns the span's duration.
  template <class Fn>
  double timed(std::string name, Fn&& fn, std::int64_t trial = -1) {
    const std::int32_t id = open(std::move(name), trial);
    try {
      fn();
    } catch (...) {
      close(id);
      throw;
    }
    close(id);
    return duration(spans_[id]);
  }

  static double duration(const Span& s) { return s.end_s - s.start_s; }
  static double self(const Span& s) { return duration(s) - s.child_s; }

  const std::vector<Span>& spans() const { return spans_; }

  /// One JSON object per span, in opening order.
  void write_ndjson(std::ostream& os) const {
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      os << "{\"id\":" << i << ",\"name\":\"" << s.name << "\",\"start_s\":" << s.start_s
         << ",\"end_s\":" << s.end_s << ",\"self_s\":" << self(s) << ",\"parent\":" << s.parent
         << ",\"trial\":" << s.trial << "}\n";
    }
  }

 private:
  double now() const { return std::chrono::duration<double>(Clock::now() - origin_).count(); }

  Clock::time_point origin_ = Clock::now();
  std::vector<Span> spans_;
  std::vector<std::int32_t> open_;
};

}  // namespace perfbench
