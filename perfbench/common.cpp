#include "common.hpp"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <fstream>
#include <map>
#include <sstream>
#include <string>

#include "util/json_writer.hpp"

namespace perfbench {

namespace {

const auto process_start = std::chrono::steady_clock::now();

}  // namespace

double now_ms() {
  return std::chrono::duration<double, std::milli>(
             std::chrono::steady_clock::now() - process_start)
      .count();
}

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

double percentile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const auto idx = static_cast<std::size_t>(
      std::floor(q / 100.0 * static_cast<double>(v.size() - 1)));
  return v[std::min(idx, v.size() - 1)];
}

int tail_percentile(std::size_t n) {
  // Samples beyond index i: n - 1 - i. Need at least ten.
  for (int q = 99; q > 50; --q) {
    const auto idx = static_cast<std::size_t>(
        std::floor(q / 100.0 * static_cast<double>(n - 1)));
    if (n >= 11 && idx + 11 <= n) return q;
  }
  return 50;
}

void add_latency_metrics(report& r, const std::vector<double>& latencies_ms,
                         double phase_seconds) {
  const std::size_t n = latencies_ms.size();
  r.add("latency_p50_ms", median(latencies_ms), "ms", n);
  const int q = tail_percentile(n);
  r.add("latency_tail_ms",
        q == 50 ? median(latencies_ms) : percentile(latencies_ms, q), "ms", n,
        "p" + std::to_string(q) +
            (q == 50 ? " (too few samples for a higher one: median)" : ""));
  r.add("throughput_rps",
        phase_seconds > 0 ? static_cast<double>(n) / phase_seconds : 0.0,
        "1/s", n);
}

void reset_peak_rss() {
  std::ofstream out("/proc/self/clear_refs");
  out << "5";
}

double peak_rss_mb() {
  std::ifstream in("/proc/self/status");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      std::istringstream fields(line.substr(6));
      double kib = 0;
      fields >> kib;
      return kib / 1024.0;
    }
  }
  return 0.0;
}

int span_log::open(const std::string& name, int parent,
                   std::uint64_t request) {
  const double start = now_ms();
  std::lock_guard<std::mutex> lock(mutex_);
  spans_.push_back({name, start, start, parent, request, false});
  return static_cast<int>(spans_.size() - 1);
}

void span_log::close(int id) {
  const double end = now_ms();
  std::lock_guard<std::mutex> lock(mutex_);
  spans_[static_cast<std::size_t>(id)].end_ms = end;
}

int span_log::add(const std::string& name, double start_ms, double end_ms,
                  int parent, std::uint64_t request, bool program_reported) {
  std::lock_guard<std::mutex> lock(mutex_);
  spans_.push_back({name, start_ms, end_ms, parent, request, program_reported});
  return static_cast<int>(spans_.size() - 1);
}

std::vector<std::pair<std::string, double>> span_log::self_ms_by_name() const {
  std::lock_guard<std::mutex> lock(mutex_);
  // Children per parent, clipped to the parent's interval; siblings of
  // one parent never overlap (each layer is called once at a time per
  // request), so their clipped durations add up.
  std::vector<double> covered(spans_.size(), 0.0);
  for (const span& s : spans_) {
    if (s.parent == none) continue;
    const span& p = spans_[static_cast<std::size_t>(s.parent)];
    const double lo = std::max(s.start_ms, p.start_ms);
    const double hi = std::min(s.end_ms, p.end_ms);
    if (hi > lo) covered[static_cast<std::size_t>(s.parent)] += hi - lo;
  }
  std::map<std::string, double> self;
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const double d = spans_[i].end_ms - spans_[i].start_ms;
    self[spans_[i].name] += std::max(0.0, d - covered[i]);
  }
  return {self.begin(), self.end()};
}

std::string span_log::to_json() const {
  std::lock_guard<std::mutex> lock(mutex_);
  sdft::json::writer w;
  w.begin_array();
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const span& s = spans_[i];
    w.begin_object();
    w.key("id").integer(i);
    w.key("name").string(s.name);
    w.key("start_ms").number(s.start_ms);
    w.key("end_ms").number(s.end_ms);
    if (s.parent == none) {
      w.key("parent").null();
    } else {
      w.key("parent").integer(static_cast<std::size_t>(s.parent));
    }
    w.key("request").integer(s.request);
    w.key("program_reported").boolean(s.program_reported);
    w.end_object();
  }
  w.end_array();
  return w.str();
}

void summarise_layers(report& r, const span_log& log) {
  std::map<std::string, double> by_layer;
  for (const auto& [name, ms] : log.self_ms_by_name()) {
    by_layer[name.substr(0, name.find('.'))] += ms;
  }
  r.layer_self_ms.assign(by_layer.begin(), by_layer.end());
  std::sort(r.layer_self_ms.begin(), r.layer_self_ms.end(),
            [](const auto& a, const auto& b) { return a.second > b.second; });
  if (!r.layer_self_ms.empty()) r.dominant_layer = r.layer_self_ms.front().first;
}

}  // namespace perfbench
