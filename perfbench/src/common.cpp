#include "common.h"

#include <sched.h>
#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <iostream>
#include <limits>
#include <sstream>

namespace perfbench {

int availableCpus() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof(set), &set) == 0) {
    return std::max(1, CPU_COUNT(&set));
  }
  return 1;
}

double peakRssMb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss: KiB
}

double Samples::sum() const {
  double total = 0.0;
  for (double v : values_) total += v;
  return total;
}

double Samples::mean() const {
  return values_.empty() ? 0.0 : sum() / static_cast<double>(values_.size());
}

double Samples::percentile(double q) const {
  if (values_.empty()) return 0.0;
  std::vector<double> sorted = values_;
  std::sort(sorted.begin(), sorted.end());
  const double rank = std::ceil(q / 100.0 * static_cast<double>(sorted.size()));
  const std::size_t index =
      static_cast<std::size_t>(std::clamp(rank, 1.0, double(sorted.size()))) -
      1;
  return sorted[index];
}

double Samples::tailPercentile() const {
  double best = 0.0;
  for (double q : {90.0, 99.0, 99.9}) {
    const double beyond = (1.0 - q / 100.0) * static_cast<double>(size());
    if (beyond >= 10.0) best = q;
  }
  return best;
}

Tracer::Tracer(bool enabled) : enabled_(enabled), origin_(Clock::now()) {}

namespace {

/// Open spans of the calling thread, innermost last: the parent of a new
/// span is the innermost open one.
thread_local std::vector<std::uint64_t> open_spans;

int threadIndex() {
  static std::mutex mutex;
  static int next = 0;
  thread_local int index = -1;
  if (index < 0) {
    std::lock_guard<std::mutex> lock(mutex);
    index = ++next;
  }
  return index;
}

double microseconds(Clock::time_point from, Clock::time_point to) {
  return std::chrono::duration<double, std::micro>(to - from).count();
}

std::string layerOf(const std::string& name) {
  return name.substr(0, name.find('.'));
}

}  // namespace

std::uint64_t Tracer::open() {
  std::uint64_t id = 0;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    id = next_id_++;
  }
  open_spans.push_back(id);
  return id;
}

void Tracer::close(std::uint64_t id, const char* name, std::uint64_t request,
                   Clock::time_point start, Clock::time_point stop) {
  open_spans.pop_back();
  Span span;
  span.id = id;
  span.parent = open_spans.empty() ? 0 : open_spans.back();
  span.request = request;
  span.name = name;
  span.start_us = microseconds(origin_, start);
  span.end_us = microseconds(origin_, stop);
  span.thread = threadIndex();
  std::lock_guard<std::mutex> lock(mutex_);
  spans_.push_back(std::move(span));
}

std::map<std::string, double> Tracer::layerSelfSeconds() const {
  // Children close before their parents and sit inside them on the same
  // thread, so a child's whole duration is covered by its parent.
  std::map<std::uint64_t, double> child_us;
  for (const Span& span : spans_) {
    if (span.parent != 0) child_us[span.parent] += span.end_us - span.start_us;
  }
  std::map<std::string, double> self;
  for (const Span& span : spans_) {
    const double own = span.end_us - span.start_us - child_us[span.id];
    self[layerOf(span.name)] += own * 1e-6;
  }
  return self;
}

bool Tracer::write(const std::string& path) const {
  std::ofstream out(path);
  if (!out) return false;
  out << "{\"traceEvents\":[";
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    out << (i == 0 ? "\n" : ",\n") << "{\"name\":\"" << s.name
        << "\",\"cat\":\"" << layerOf(s.name)
        << "\",\"ph\":\"X\",\"pid\":1,\"tid\":" << s.thread
        << ",\"ts\":" << s.start_us << ",\"dur\":" << s.end_us - s.start_us
        << ",\"args\":{\"id\":" << s.id << ",\"parent\":" << s.parent
        << ",\"request\":" << s.request << "}}";
  }
  out << "\n]}\n";
  return static_cast<bool>(out);
}

void Result::fail(const std::string& why) {
  ++failed_;
  if (failed_ <= 20) std::cerr << "perfbench: FAILED: " << why << "\n";
}

void Result::set(const std::string& name, double value,
                 const std::string& unit) {
  if (!std::isfinite(value)) fail("metric " + name + " is not finite");
  metrics_[name] = {value, unit};
}

void Result::report(const std::string& name, const std::string& unit,
                    const Samples& samples, double scale) {
  const double tail = samples.tailPercentile();
  std::printf("  %-34s median %12.6g %-10s", name.c_str(),
              samples.median() * scale, unit.c_str());
  if (tail > 0.0) {
    std::printf(" p%-4g %12.6g %-10s", tail, samples.percentile(tail) * scale,
                unit.c_str());
  } else {
    std::printf(" %-29s", "(too few samples for a tail)");
  }
  std::printf(" n=%zu\n", samples.size());
}

void Result::report(const std::string& name, const std::string& unit,
                    double value, std::size_t count) {
  std::printf("  %-34s value  %12.6g %-10s n=%zu\n", name.c_str(), value,
              unit.c_str(), count);
}

std::string Result::json() const {
  std::ostringstream out;
  out.precision(std::numeric_limits<double>::max_digits10);
  out << "{\"correct\": " << (failed_ == 0 ? "true" : "false")
      << ", \"attempted\": " << attempted_ << ", \"failed\": " << failed_
      << ", \"metrics\": {";
  bool first = true;
  for (const auto& [name, metric] : metrics_) {
    // A failed serve request is an infinite latency; JSON has no infinity.
    const double value =
        std::isfinite(metric.first) ? metric.first
                                    : std::numeric_limits<double>::max();
    out << (first ? "" : ", ") << "\"" << name << "\": {\"value\": " << value
        << ", \"unit\": \"" << metric.second << "\"}";
    first = false;
  }
  out << "}}";
  return out.str();
}

}  // namespace perfbench
