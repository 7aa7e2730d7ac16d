#include "obs/obs.hpp"

#include <algorithm>
#include <cstdio>
#include <map>
#include <memory>
#include <mutex>
#include <ostream>

namespace sdft::obs {

#if SDFT_OBS

namespace {

std::atomic<bool> g_enabled{false};
std::atomic<std::uint64_t> g_next_span_id{1};
std::atomic<std::uint64_t> g_ambient_parent{0};
std::atomic<std::uint32_t> g_next_tid{1};

/// Innermost live span on this thread (0 when none).
thread_local std::uint64_t tls_current_span = 0;

using clock = std::chrono::steady_clock;

std::int64_t to_ns(clock::time_point t) {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             t.time_since_epoch())
      .count();
}

std::uint64_t ns_between(clock::time_point from, clock::time_point to) {
  const auto d =
      std::chrono::duration_cast<std::chrono::nanoseconds>(to - from).count();
  return d > 0 ? static_cast<std::uint64_t>(d) : 0;
}

/// Recorder epoch in steady-clock nanoseconds; an atomic so finishing
/// spans never touch the global recorder mutex.
std::atomic<std::int64_t> g_epoch_ns{to_ns(clock::now())};

/// Per-thread span sink. The owner appends under the buffer's own mutex
/// (never contended unless a snapshot is in flight), so threads never
/// serialise against each other while recording.
struct thread_buffer {
  mutable std::mutex mutex;
  std::vector<span_record> spans;
  std::uint32_t tid = 0;
  std::string label;
};

struct recorder_state {
  mutable std::mutex mutex;  ///< guards the buffer list
  std::vector<std::shared_ptr<thread_buffer>> buffers;
};

recorder_state& state() {
  static recorder_state* s = new recorder_state();  // leaked: outlives threads
  return *s;
}

thread_buffer& local_buffer() {
  thread_local std::shared_ptr<thread_buffer> buf = [] {
    auto b = std::make_shared<thread_buffer>();
    b->tid = g_next_tid.fetch_add(1, std::memory_order_relaxed);
    std::lock_guard lock(state().mutex);
    state().buffers.push_back(b);
    return b;
  }();
  return *buf;
}

void json_escape(std::ostream& out, const std::string& s) {
  for (char c : s) {
    switch (c) {
      case '"':
        out << "\\\"";
        break;
      case '\\':
        out << "\\\\";
        break;
      case '\n':
        out << "\\n";
        break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof buf, "\\u%04x", c);
          out << buf;
        } else {
          out << c;
        }
    }
  }
}

}  // namespace

bool enabled() { return g_enabled.load(std::memory_order_relaxed); }

void set_enabled(bool on) { g_enabled.store(on, std::memory_order_relaxed); }

// ---------------------------------------------------------------------------
// span_scope

span_scope::span_scope(const char* name, const char* category)
    : span_scope(name, category, /*parent=*/0) {}

span_scope::span_scope(const char* name, const char* category,
                       std::uint64_t parent) {
  if (!enabled()) return;
  active_ = true;
  rec_.name = name;
  rec_.category = category;
  rec_.id = g_next_span_id.fetch_add(1, std::memory_order_relaxed);
  if (parent != 0) {
    rec_.parent = parent;
  } else if (tls_current_span != 0) {
    rec_.parent = tls_current_span;
  } else {
    rec_.parent = g_ambient_parent.load(std::memory_order_acquire);
  }
  saved_current_ = tls_current_span;
  tls_current_span = rec_.id;
  start_ = std::chrono::steady_clock::now();
}

span_scope::~span_scope() {
  if (!active_) return;
  const auto end = std::chrono::steady_clock::now();
  tls_current_span = saved_current_;
  thread_buffer& buf = local_buffer();
  rec_.tid = buf.tid;
  const std::int64_t since_epoch =
      to_ns(start_) - g_epoch_ns.load(std::memory_order_relaxed);
  rec_.start_ns = since_epoch > 0 ? static_cast<std::uint64_t>(since_epoch) : 0;
  rec_.duration_ns = ns_between(start_, end);
  std::lock_guard lock(buf.mutex);
  buf.spans.push_back(rec_);
}

// ---------------------------------------------------------------------------
// ambient parent

ambient_parent_scope::ambient_parent_scope(std::uint64_t parent)
    : saved_(g_ambient_parent.exchange(parent, std::memory_order_acq_rel)) {}

ambient_parent_scope::~ambient_parent_scope() {
  g_ambient_parent.store(saved_, std::memory_order_release);
}

void set_thread_label(const std::string& label) {
  thread_buffer& buf = local_buffer();
  std::lock_guard lock(buf.mutex);
  buf.label = label;
}

// ---------------------------------------------------------------------------
// trace_recorder

trace_recorder& trace_recorder::instance() {
  static trace_recorder r;
  return r;
}

void trace_recorder::clear() {
  recorder_state& s = state();
  std::lock_guard lock(s.mutex);
  for (auto& buf : s.buffers) {
    std::lock_guard buf_lock(buf->mutex);
    buf->spans.clear();
  }
  g_epoch_ns.store(to_ns(clock::now()), std::memory_order_relaxed);
}

std::vector<span_record> trace_recorder::snapshot() const {
  recorder_state& s = state();
  std::vector<span_record> out;
  {
    std::lock_guard lock(s.mutex);
    for (const auto& buf : s.buffers) {
      std::lock_guard buf_lock(buf->mutex);
      out.insert(out.end(), buf->spans.begin(), buf->spans.end());
    }
  }
  std::sort(out.begin(), out.end(),
            [](const span_record& a, const span_record& b) {
              return a.start_ns != b.start_ns ? a.start_ns < b.start_ns
                                              : a.id < b.id;
            });
  return out;
}

std::vector<std::pair<std::uint32_t, std::string>>
trace_recorder::thread_labels() const {
  recorder_state& s = state();
  std::vector<std::pair<std::uint32_t, std::string>> out;
  std::lock_guard lock(s.mutex);
  for (const auto& buf : s.buffers) {
    std::lock_guard buf_lock(buf->mutex);
    if (!buf->label.empty()) out.emplace_back(buf->tid, buf->label);
  }
  return out;
}

std::size_t trace_recorder::size() const {
  recorder_state& s = state();
  std::size_t n = 0;
  std::lock_guard lock(s.mutex);
  for (const auto& buf : s.buffers) {
    std::lock_guard buf_lock(buf->mutex);
    n += buf->spans.size();
  }
  return n;
}

void trace_recorder::write_chrome_json(std::ostream& out) const {
  const std::vector<span_record> spans = snapshot();
  const auto labels = thread_labels();
  out << "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[";
  bool first = true;
  for (const auto& [tid, label] : labels) {
    if (!first) out << ",";
    first = false;
    out << "{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":1,\"tid\":" << tid
        << ",\"args\":{\"name\":\"";
    json_escape(out, label);
    out << "\"}}";
  }
  out.precision(3);
  out << std::fixed;
  for (const auto& s : spans) {
    if (!first) out << ",";
    first = false;
    out << "{\"name\":\"";
    json_escape(out, s.name);
    out << "\",\"cat\":\"";
    json_escape(out, s.category);
    out << "\",\"ph\":\"X\",\"pid\":1,\"tid\":" << s.tid
        << ",\"ts\":" << static_cast<double>(s.start_ns) / 1e3
        << ",\"dur\":" << static_cast<double>(s.duration_ns) / 1e3
        << ",\"id\":\"" << s.id << "\",\"args\":{\"span_id\":" << s.id
        << ",\"parent_id\":" << s.parent;
    for (std::size_t i = 0; i < s.args.count; ++i) {
      out << ",\"";
      json_escape(out, s.args.keys[i]);
      out << "\":" << std::defaultfloat << s.args.values[i] << std::fixed;
    }
    out << "}}";
  }
  out << "]}";
}

#else  // SDFT_OBS == 0

void trace_recorder::write_chrome_json(std::ostream& out) const {
  out << "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[]}";
}

#endif  // SDFT_OBS

// ---------------------------------------------------------------------------
// histogram

void histogram::observe(double v) {
  if (v < 0.0) v = 0.0;
  count_.fetch_add(1, std::memory_order_relaxed);
  double expected = sum_.load(std::memory_order_relaxed);
  while (!sum_.compare_exchange_weak(expected, expected + v,
                                     std::memory_order_relaxed)) {
  }
  // min/max start at +/-infinity, so plain monotone CAS loops are exact
  // under concurrent observers.
  double lo = min_.load(std::memory_order_relaxed);
  while (v < lo &&
         !min_.compare_exchange_weak(lo, v, std::memory_order_relaxed)) {
  }
  double hi = max_.load(std::memory_order_relaxed);
  while (v > hi &&
         !max_.compare_exchange_weak(hi, v, std::memory_order_relaxed)) {
  }
  std::size_t bucket = 0;
  while (bucket + 1 < num_buckets &&
         v >= static_cast<double>(std::uint64_t{1} << bucket)) {
    ++bucket;
  }
  buckets_[bucket].fetch_add(1, std::memory_order_relaxed);
}

double histogram::min() const {
  return count() == 0 ? 0.0 : min_.load(std::memory_order_relaxed);
}

double histogram::max() const {
  return count() == 0 ? 0.0 : max_.load(std::memory_order_relaxed);
}

double histogram::mean() const {
  const std::uint64_t n = count();
  return n == 0 ? 0.0 : sum() / static_cast<double>(n);
}

void histogram::reset() {
  count_.store(0, std::memory_order_relaxed);
  sum_.store(0.0, std::memory_order_relaxed);
  min_.store(std::numeric_limits<double>::infinity(),
             std::memory_order_relaxed);
  max_.store(-std::numeric_limits<double>::infinity(),
             std::memory_order_relaxed);
  for (auto& b : buckets_) b.store(0, std::memory_order_relaxed);
}

// ---------------------------------------------------------------------------
// metrics_registry

struct metrics_registry::impl {
  mutable std::mutex mutex;
  // node-based maps: references into the mapped values are stable.
  std::map<std::string, counter> counters;
  std::map<std::string, gauge> gauges;
  std::map<std::string, histogram> histograms;
  std::map<std::string, std::string> labels;
};

metrics_registry::metrics_registry() : impl_(new impl()) {}

metrics_registry::~metrics_registry() { delete impl_; }

metrics_registry& metrics_registry::global() {
  static metrics_registry* r = new metrics_registry();  // leaked on purpose
  return *r;
}

counter& metrics_registry::get_counter(const std::string& name) {
  std::lock_guard lock(impl_->mutex);
  return impl_->counters[name];
}

gauge& metrics_registry::get_gauge(const std::string& name) {
  std::lock_guard lock(impl_->mutex);
  return impl_->gauges[name];
}

histogram& metrics_registry::get_histogram(const std::string& name) {
  std::lock_guard lock(impl_->mutex);
  return impl_->histograms[name];
}

void metrics_registry::set_label(const std::string& name,
                                 const std::string& value) {
  std::lock_guard lock(impl_->mutex);
  impl_->labels[name] = value;
}

std::string metrics_registry::label(const std::string& name) const {
  std::lock_guard lock(impl_->mutex);
  const auto it = impl_->labels.find(name);
  return it == impl_->labels.end() ? std::string() : it->second;
}

void metrics_registry::reset() {
  std::lock_guard lock(impl_->mutex);
  for (auto& [name, c] : impl_->counters) c.reset();
  for (auto& [name, g] : impl_->gauges) g.reset();
  for (auto& [name, h] : impl_->histograms) h.reset();
  impl_->labels.clear();
}

std::vector<std::string> metrics_registry::names() const {
  std::lock_guard lock(impl_->mutex);
  std::vector<std::string> out;
  for (const auto& [name, v] : impl_->counters) out.push_back(name);
  for (const auto& [name, v] : impl_->gauges) out.push_back(name);
  for (const auto& [name, v] : impl_->histograms) out.push_back(name);
  for (const auto& [name, v] : impl_->labels) out.push_back(name);
  std::sort(out.begin(), out.end());
  return out;
}

std::string metrics_registry::to_json() const {
  std::lock_guard lock(impl_->mutex);
  std::string out = "{";
  bool first = true;
  char buf[64];
  const auto key = [&](const std::string& name) {
    if (!first) out += ",";
    first = false;
    out += "\"";
    out += name;  // metric names are plain identifiers; no escaping needed
    out += "\":";
  };
  for (const auto& [name, c] : impl_->counters) {
    key(name);
    std::snprintf(buf, sizeof buf, "%llu",
                  static_cast<unsigned long long>(c.value()));
    out += buf;
  }
  for (const auto& [name, g] : impl_->gauges) {
    key(name);
    std::snprintf(buf, sizeof buf, "%.17g", g.value());
    out += buf;
  }
  for (const auto& [name, h] : impl_->histograms) {
    key(name);
    // One number per snprintf: five %.17g fields (up to 24 bytes each)
    // would not fit one buffer.
    std::snprintf(buf, sizeof buf, "{\"count\":%llu",
                  static_cast<unsigned long long>(h.count()));
    out += buf;
    for (const auto& [field, v] :
         {std::pair<const char*, double>{"sum", h.sum()},
          {"min", h.min()},
          {"max", h.max()},
          {"mean", h.mean()}}) {
      std::snprintf(buf, sizeof buf, ",\"%s\":%.17g", field, v);
      out += buf;
    }
    out += "}";
  }
  for (const auto& [name, value] : impl_->labels) {
    key(name);
    out += "\"";
    out += value;  // labels are backend names etc.; no escaping needed
    out += "\"";
  }
  out += "}";
  return out;
}

}  // namespace sdft::obs
