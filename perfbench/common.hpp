#pragma once

// Shared pieces of the benchmark: the run configuration, the
// report every workload fills in, sample statistics, peak-RSS probes and
// the in-memory span log of the traced run.

#include <cstddef>
#include <cstdint>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

namespace perfbench {

/// Input size of a run: the benchmark's own sizes, or the tiny sizes the
/// self-test uses to run every workload in seconds.
enum class scale { bench, tiny };

struct run_config {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;  ///< length of the timed phase
  bool trace = false;     ///< the separate traced run (per-layer metrics)
  scale size = scale::bench;
  std::string trace_file;  ///< where the traced run writes its spans
};

/// One reported metric. `samples` is the number of measurements behind
/// the value; `note` says how it was derived (percentile used, or that
/// the program itself reported it rather than a benchmark span).
struct metric {
  std::string name;
  double value = 0;
  std::string unit;
  std::size_t samples = 0;
  std::string note;
};

struct report {
  std::string description;  ///< the generated inputs, in words
  std::size_t attempted = 0;
  std::size_t failed = 0;  ///< failed + refused + wrong answers
  std::vector<std::string> problems;
  std::vector<metric> metrics;
  /// Traced run: self time per layer, and the layer with the most.
  std::vector<std::pair<std::string, double>> layer_self_ms;
  std::string dominant_layer;

  void fail(const std::string& why) {
    ++failed;
    problems.push_back(why);
  }
  void add(std::string name, double value, std::string unit,
           std::size_t samples, std::string note = {}) {
    metrics.push_back({std::move(name), value, std::move(unit), samples,
                       std::move(note)});
  }
  bool correct() const { return failed == 0 && problems.empty(); }
};

/// Milliseconds on the steady clock since the process started timing.
double now_ms();

/// Median (mean of the two middle values for even counts); 0 when empty.
double median(std::vector<double> v);

/// Value at percentile q (0..100) with index floor(q/100 * (n-1)).
double percentile(std::vector<double> v, double q);

/// The highest whole percentile that still has at least ten samples
/// beyond it; the median (50) when there are too few samples for that.
int tail_percentile(std::size_t n);

/// Adds the latency and throughput metrics of one timed phase.
void add_latency_metrics(report& r, const std::vector<double>& latencies_ms,
                         double phase_seconds);

/// The latencies of a timed phase in which the request under test and its
/// single-thread baseline alternate.
struct interleaved_phase {
  std::vector<double> main_ms;
  std::vector<double> single_ms;
  double main_seconds = 0;  ///< wall time spent in the main requests
};

/// Runs a timed phase of `seconds`: after each main request, single-thread
/// requests follow until their summed time catches up with the main
/// requests'. Both medians so cover the whole phase, and a slow stretch of
/// a shared host weighs on both alike rather than on whichever phase it
/// fell in. Each callable runs one request and returns its latency in ms.
/// At least `min_main` and `min_single` requests of each kind are run.
template <class Main, class Single>
interleaved_phase interleave(double seconds, std::size_t min_main,
                             std::size_t min_single,
                             Main&& main, Single&& single) {
  interleaved_phase out;
  double single_total = 0;
  const double start = now_ms();
  while (now_ms() - start < seconds * 1e3 || out.main_ms.size() < min_main) {
    out.main_ms.push_back(main());
    out.main_seconds += out.main_ms.back() / 1e3;
    while (single_total < out.main_seconds * 1e3) {
      out.single_ms.push_back(single());
      single_total += out.single_ms.back();
    }
  }
  while (out.single_ms.size() < min_single) {
    out.single_ms.push_back(single());
  }
  return out;
}

/// Forgets the process's peak RSS so far (Linux clear_refs 5 resets
/// VmHWM), so the next read covers only what follows.
void reset_peak_rss();

/// VmHWM in MiB.
double peak_rss_mb();

/// Spans of the traced run: name, start, end, parent and request id, kept
/// in memory and written out when the run ends. Thread-safe.
class span_log {
 public:
  static constexpr int none = -1;

  struct span {
    std::string name;
    double start_ms = 0;
    double end_ms = 0;
    int parent = none;
    std::uint64_t request = 0;
    /// The interval was reported by the program (a duration out of its
    /// engine_stats or a response), not bracketed by the benchmark.
    bool program_reported = false;
  };

  /// Opens a span starting now; close() stamps its end.
  int open(const std::string& name, int parent, std::uint64_t request);
  void close(int id);

  /// Records a complete span.
  int add(const std::string& name, double start_ms, double end_ms, int parent,
          std::uint64_t request, bool program_reported);

  /// Self time per span name: each span's duration minus the part of its
  /// interval its children cover, summed over spans of that name.
  std::vector<std::pair<std::string, double>> self_ms_by_name() const;

  /// Every span as a JSON array.
  std::string to_json() const;

 private:
  mutable std::mutex mutex_;
  std::vector<span> spans_;
};

/// Opens a span on construction and closes it on destruction.
class span_scope {
 public:
  span_scope(span_log* log, const std::string& name, int parent,
             std::uint64_t request)
      : log_(log), id_(log ? log->open(name, parent, request) : -1) {}
  ~span_scope() {
    if (log_ != nullptr) log_->close(id_);
  }
  span_scope(const span_scope&) = delete;
  span_scope& operator=(const span_scope&) = delete;

  int id() const { return id_; }

 private:
  span_log* log_;
  int id_;
};

/// Fills the report's per-layer self times from `log` — a layer is the
/// part of a span name before the first '.' — and names the layer with
/// the largest self time.
void summarise_layers(report& r, const span_log& log);

}  // namespace perfbench
