// whatif_serve: the resident service under a what-if request stream. The
// model is loaded once into an in-process serve_tcp on loopback; client
// threads of this process send the seeded stream over TCP, closed loop.

#include <algorithm>
#include <atomic>
#include <bit>
#include <chrono>
#include <cstdint>
#include <memory>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include "engine/sweep.hpp"
#include "inputs.hpp"
#include "sdft/parser.hpp"
#include "serve/service.hpp"
#include "serve/transport.hpp"
#include "sim/stream_rng.hpp"
#include "util/error.hpp"
#include "util/json.hpp"
#include "util/thread_pool.hpp"
#include "workloads.hpp"

namespace perfbench {

using namespace sdft;

namespace {

constexpr std::size_t connections = 3;

/// One NDJSON connection to the service.
class connection {
 public:
  explicit connection(int port) : fd_(::socket(AF_INET, SOCK_STREAM, 0)) {
    if (fd_ < 0) throw error("whatif: socket failed");
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(static_cast<std::uint16_t>(port));
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    if (::connect(fd_, reinterpret_cast<sockaddr*>(&addr), sizeof addr) != 0) {
      ::close(fd_);
      throw error("whatif: cannot connect to the service");
    }
  }
  ~connection() { ::close(fd_); }
  connection(const connection&) = delete;
  connection& operator=(const connection&) = delete;

  /// Sends one request line and returns the response line.
  std::string request(const std::string& line) {
    std::string framed = line + "\n";
    std::size_t sent = 0;
    while (sent < framed.size()) {
      const ssize_t n =
          ::send(fd_, framed.data() + sent, framed.size() - sent, MSG_NOSIGNAL);
      if (n <= 0) throw error("whatif: send failed");
      sent += static_cast<std::size_t>(n);
    }
    while (true) {
      const std::size_t eol = buffer_.find('\n');
      if (eol != std::string::npos) {
        std::string response = buffer_.substr(0, eol);
        buffer_.erase(0, eol + 1);
        return response;
      }
      char chunk[4096];
      const ssize_t n = ::recv(fd_, chunk, sizeof chunk, 0);
      if (n <= 0) throw error("whatif: connection closed mid-response");
      buffer_.append(chunk, static_cast<std::size_t>(n));
    }
  }

 private:
  int fd_;
  std::string buffer_;
};

/// The service with its TCP front end on an ephemeral loopback port.
/// Shuts the server down and joins it on destruction.
class server {
 public:
  server(const analysis_options& options, const std::string& model_text)
      : service_(options) {
    service_.load_text("plant", model_text);
    thread_ = std::thread([this] {
      try {
        serve::serve_tcp(service_, 0, log_, &port_);
      } catch (const std::exception&) {
        failed_.store(true);
      }
    });
    while (port_.load() == 0 && !failed_.load()) {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    if (failed_.load()) {
      thread_.join();
      throw error("whatif: the service could not listen");
    }
  }
  ~server() {
    try {
      connection(port_.load()).request(R"({"op":"shutdown"})");
    } catch (const std::exception&) {
      // The listener is gone already; joining below still ends the thread.
    }
    thread_.join();
  }
  server(const server&) = delete;
  server& operator=(const server&) = delete;

  int port() const { return port_.load(); }
  serve::analysis_service& service() { return service_; }

 private:
  serve::analysis_service service_;
  std::ostringstream log_;
  std::atomic<int> port_{0};
  std::atomic<bool> failed_{false};
  std::thread thread_;
};

/// What came back for one request of the stream.
struct reply {
  std::size_t index = 0;
  double latency_ms = 0;
  double server_ms = 0;  ///< the response's own "seconds"
  double prime_ms = 0;   ///< sweeps: the envelope prime
  std::size_t bytes = 0;
  bool ok = false;
  bool cache_hit = false;
  std::vector<double> probabilities;  ///< one, or one per sweep point
  std::vector<std::size_t> cutsets;
  double start_ms = 0;
  double end_ms = 0;
};

reply parse_reply(std::size_t index, const std::string& line) {
  reply out;
  out.index = index;
  out.bytes = line.size();
  const json::value v = json::parse(line);
  out.ok = v.contains("ok") && v.at("ok").as_bool();
  if (!out.ok) return out;
  out.server_ms = v.at("seconds").as_number() * 1e3;
  if (v.contains("points")) {
    out.prime_ms = v.at("prime_seconds").as_number() * 1e3;
    for (const json::value& p : v.at("points").as_array()) {
      out.probabilities.push_back(p.at("probability").as_number());
      out.cutsets.push_back(
          static_cast<std::size_t>(p.at("cutsets").as_number()));
    }
  } else {
    out.cache_hit = v.at("struct_cache_hit").as_bool();
    out.probabilities.push_back(v.at("probability").as_number());
    out.cutsets.push_back(
        static_cast<std::size_t>(v.at("cutsets").as_number()));
  }
  return out;
}

/// Open connections to the service, kept across the phases of a run as a
/// client would keep them.
using connections_t = std::vector<std::unique_ptr<connection>>;

connections_t connect(int port, std::size_t count) {
  connections_t out;
  for (std::size_t c = 0; c < count; ++c) {
    out.push_back(std::make_unique<connection>(port));
  }
  return out;
}

/// Closed-loop load: each connection sends the next request of the stream
/// as soon as its previous reply arrived, until `seconds` have passed (or
/// `max_requests` were sent). Returns the replies in completion order per
/// connection, concatenated.
std::vector<reply> drive(connections_t& conns,
                         const std::vector<whatif_request>& stream,
                         std::atomic<std::size_t>& next, double seconds,
                         std::size_t max_requests, double& phase_seconds) {
  const std::size_t clients = conns.size();
  std::vector<std::vector<reply>> per_client(clients);
  std::vector<std::string> errors(clients);
  const std::size_t last = std::min(stream.size(), next.load() + max_requests);
  const double start = now_ms();
  std::vector<std::thread> threads;
  for (std::size_t c = 0; c < clients; ++c) {
    threads.emplace_back([&, c] {
      try {
        connection& conn = *conns[c];
        while (now_ms() - start < seconds * 1e3) {
          const std::size_t i = next.fetch_add(1);
          if (i >= last) break;
          const double t0 = now_ms();
          const std::string line = conn.request(stream[i].line);
          const double t1 = now_ms();
          reply r = parse_reply(i, line);
          r.latency_ms = t1 - t0;
          r.start_ms = t0;
          r.end_ms = t1;
          per_client[c].push_back(std::move(r));
        }
      } catch (const std::exception& e) {
        errors[c] = e.what();
      }
    });
  }
  for (std::thread& t : threads) t.join();
  phase_seconds = (now_ms() - start) / 1e3;
  for (const std::string& e : errors) {
    if (!e.empty()) throw error(e);
  }
  std::vector<reply> all;
  for (auto& v : per_client) {
    all.insert(all.end(), std::make_move_iterator(v.begin()),
               std::make_move_iterator(v.end()));
  }
  return all;
}

/// Checks what each reply can show on its own: the service answered, and
/// an analyze request hit or missed the structure cache as designed.
void check_replies(report& r, const std::vector<reply>& replies,
                   const std::vector<whatif_request>& stream) {
  for (const reply& q : replies) {
    ++r.attempted;
    const whatif_request& req = stream[q.index];
    if (!q.ok) {
      r.fail("request " + std::to_string(q.index) + " refused");
    } else if (req.type == whatif_request::kind::hit && !q.cache_hit) {
      r.fail("request " + std::to_string(q.index) +
             " lowered an event but missed the structure cache");
    } else if (req.type == whatif_request::kind::escape && q.cache_hit) {
      r.fail("request " + std::to_string(q.index) +
             " escaped the envelope but hit the structure cache");
    }
  }
}

std::size_t count_escapes(const std::vector<reply>& replies,
                          const std::vector<whatif_request>& stream) {
  return static_cast<std::size_t>(
      std::count_if(replies.begin(), replies.end(), [&](const reply& q) {
        return stream[q.index].type == whatif_request::kind::escape;
      }));
}

/// Compares a seeded sample of replies — every escape, a share of the
/// hits and sweeps — with one-shot analyze() runs of the same perturbed
/// tree, bit for bit (the service prints %.17g, which round-trips).
/// Returns the number of one-shot analyses run.
std::size_t verify_against_oneshots(report& r, const std::vector<reply>& replies,
                             const std::vector<whatif_request>& stream,
                             const sd_fault_tree& tree,
                             const analysis_options& options,
                             std::uint64_t seed) {
  struct job {
    const reply* answer;
    std::size_t point;  ///< sweep point, 0 for analyze
    sd_fault_tree perturbed;
  };
  std::vector<job> jobs;
  for (const reply& q : replies) {
    if (!q.ok) continue;
    const whatif_request& req = stream[q.index];
    rng pick = sim::substream(seed, 0x5a17u, q.index);
    const double u = pick.uniform();
    if (req.type == whatif_request::kind::escape ||
        (req.type == whatif_request::kind::hit && u < 0.05)) {
      sd_fault_tree t = tree;
      t.structure().set_probability(t.structure().find(req.event), req.value);
      jobs.push_back({&q, 0, std::move(t)});
    } else if (req.type == whatif_request::kind::sweep && u < 0.05) {
      const sweep_spec spec =
          resolve_sweep(parse_sweep_value(json::parse(req.line)), tree);
      for (std::size_t p = 0; p < spec.points.size(); ++p) {
        sd_fault_tree t = tree;
        for (const auto& [e, v] : spec.points[p].overrides) {
          t.structure().set_probability(e, v);
        }
        jobs.push_back({&q, p, std::move(t)});
      }
    }
  }
  analysis_options one = options;
  one.inline_execution = true;
  std::vector<char> mismatch(jobs.size(), 0);
  thread_pool pool(4);
  parallel_for(pool, jobs.size(), [&](std::size_t j) {
    const analysis_result a = analyze(jobs[j].perturbed, one);
    const reply& q = *jobs[j].answer;
    mismatch[j] =
        jobs[j].point >= q.probabilities.size() ||
        std::bit_cast<std::uint64_t>(a.failure_probability) !=
            std::bit_cast<std::uint64_t>(q.probabilities[jobs[j].point]) ||
        a.num_cutsets != q.cutsets[jobs[j].point];
  });
  // One failure per wrong reply, however many of its sweep points differ.
  const reply* last_failed = nullptr;
  for (std::size_t j = 0; j < jobs.size(); ++j) {
    if (mismatch[j] == 0 || jobs[j].answer == last_failed) continue;
    last_failed = jobs[j].answer;
    r.fail("request " + std::to_string(last_failed->index) + " point " +
           std::to_string(jobs[j].point) +
           " differs from its one-shot analyze()");
  }
  return jobs.size();
}

/// Every escape sent must have been exactly one structure-cache miss.
void check_misses(report& r, std::size_t misses, std::size_t escapes) {
  if (misses != escapes) {
    r.fail("structure-cache misses " + std::to_string(misses) +
           " != escapes sent " + std::to_string(escapes));
  }
}

std::vector<double> latencies_of(const std::vector<reply>& replies) {
  std::vector<double> out;
  for (const reply& q : replies) out.push_back(q.latency_ms);
  return out;
}

}  // namespace

report run_whatif(const run_config& cfg) {
  report r;
  // Enough stream for the longest phase at well above the service's rate.
  const std::size_t stream_length =
      static_cast<std::size_t>(400.0 * cfg.seconds) + 2000;

  const std::size_t setup_passes = cfg.trace ? 1 : 3;
  std::vector<double> setup_s;
  analysis_input in;
  std::vector<whatif_request> stream;
  std::unique_ptr<server> srv;
  for (std::size_t k = 0; k < setup_passes; ++k) {
    srv.reset();
    const double t0 = now_ms();
    in = make_whatif(cfg.seed, cfg.size);
    const std::string text = write_sd_fault_tree(in.tree);
    // The checks analyse exactly the tree the service holds.
    in.tree = parse_sd_fault_tree_string(text);
    stream = make_whatif_stream(in, cfg.seed, stream_length);
    srv = std::make_unique<server>(in.options, text);
    const reply warm = parse_reply(
        0, connection(srv->port())
               .request(R"({"op":"analyze","model":"plant","id":"warm-up"})"));
    ++r.attempted;
    if (!warm.ok) r.fail("warm-up analyze refused");
    setup_s.push_back((now_ms() - t0) / 1e3);
  }
  r.add("setup_s", median(setup_s), "s", setup_s.size(),
        "input generation + FV ranking + load + listen + cold analyze");
  r.description = in.description + "; stream 80 % hit / 10 % escape / 10 % "
                  "sweep over " + std::to_string(connections) +
                  " connections";

  structure_cache& structures = srv->service().engine().structures();
  quantification_cache& quant = srv->service().engine().cache();
  std::atomic<std::size_t> next{0};
  connections_t clients = connect(srv->port(), connections);
  const auto verify = [&](const std::vector<reply>& replies) {
    const std::size_t n = verify_against_oneshots(r, replies, stream, in.tree,
                                                  in.options, cfg.seed);
    r.description += "; " + std::to_string(n) + " one-shot analyze() checks";
  };

  if (!cfg.trace) {
    // The timed phase in blocks: the stream over all connections, each
    // block followed by the single-connection baseline — the same stream
    // with one request in flight (each request already runs on one thread
    // inside the service) — so that both cover the whole phase.
    constexpr std::size_t blocks = 4;
    constexpr std::size_t single_per_block = 20;
    connections_t one = connect(srv->port(), 1);
    reset_peak_rss();
    const std::size_t misses_before = structures.misses();
    std::vector<reply> timed, single;
    double phase_s = 0;
    const auto append = [](std::vector<reply>& to, std::vector<reply> from) {
      to.insert(to.end(), std::make_move_iterator(from.begin()),
                std::make_move_iterator(from.end()));
    };
    for (std::size_t b = 0; b < blocks; ++b) {
      double block_s = 0;
      append(timed, drive(clients, stream, next, cfg.seconds / blocks,
                          stream.size(), block_s));
      phase_s += block_s;
      append(single, drive(one, stream, next, cfg.seconds,
                           single_per_block, block_s));
    }
    r.add("peak_rss_mb", peak_rss_mb(), "MiB", 1, "VmHWM, timed phase only");
    check_replies(r, timed, stream);
    add_latency_metrics(r, latencies_of(timed), phase_s);
    check_replies(r, single, stream);
    r.add("latency_1t_p50_ms", median(latencies_of(single)), "ms",
          single.size(), "one connection, between the timed blocks");
    std::vector<reply> all = timed;
    all.insert(all.end(), single.begin(), single.end());
    check_misses(r, structures.misses() - misses_before,
                 count_escapes(all, stream));
    verify(all);
    return r;
  }

  // Traced run: half the time untraced, half traced, same stream.
  double untraced_s = 0;
  const std::vector<reply> untraced =
      drive(clients, stream, next, cfg.seconds / 2, stream.size(), untraced_s);
  check_replies(r, untraced, stream);
  const std::size_t struct_hits0 = structures.hits();
  const std::size_t struct_misses0 = structures.misses();
  const std::size_t quant_hits0 = quant.hits();
  const std::size_t quant_misses0 = quant.misses();
  double traced_s = 0;
  const std::vector<reply> traced =
      drive(clients, stream, next, cfg.seconds / 2, stream.size(), traced_s);
  check_replies(r, traced, stream);
  const std::size_t struct_hits = structures.hits() - struct_hits0;
  const std::size_t struct_misses = structures.misses() - struct_misses0;
  const std::size_t quant_hits = quant.hits() - quant_hits0;
  const std::size_t quant_misses = quant.misses() - quant_misses0;
  check_misses(r, struct_misses, count_escapes(traced, stream));
  verify(traced);

  // Spans: the client round trip, and inside it the handling time the
  // service reported, attributed to what the request exercised.
  span_log log;
  std::vector<double> handle, wait, bytes, regenerate, point;
  for (const reply& q : traced) {
    const int root =
        log.add("client.request", q.start_ms, q.end_ms, span_log::none,
                q.index, false);
    const double h0 = q.end_ms - std::min(q.server_ms, q.latency_ms);
    const int h = log.add("serve.handle", h0, q.end_ms, root, q.index, true);
    handle.push_back(q.server_ms);
    wait.push_back(q.latency_ms - q.server_ms);
    bytes.push_back(static_cast<double>(q.bytes));
    switch (stream[q.index].type) {
      case whatif_request::kind::hit:
        log.add("struct_cache.hit", h0, q.end_ms, h, q.index, true);
        break;
      case whatif_request::kind::escape:
        log.add("struct_cache.regenerate", h0, q.end_ms, h, q.index, true);
        regenerate.push_back(q.server_ms);
        break;
      case whatif_request::kind::sweep:
        log.add("sweep.prime", h0, h0 + q.prime_ms, h, q.index, true);
        log.add("sweep.points", h0 + q.prime_ms, q.end_ms, h, q.index, true);
        point.push_back((q.server_ms - q.prime_ms) /
                        static_cast<double>(q.probabilities.size()));
        break;
    }
  }
  const std::size_t n = traced.size();
  const std::size_t lookups = struct_hits + struct_misses;
  r.add("struct_cache.hit_ratio",
        lookups > 0 ? static_cast<double>(struct_hits) /
                          static_cast<double>(lookups)
                    : 0.0,
        "ratio", lookups, "program-reported: structure-cache counters");
  r.add("struct_cache.regenerate_ms", median(regenerate), "ms",
        regenerate.size(), "program-reported: seconds of escape requests");
  r.add("sweep.point_ms", median(point), "ms", point.size(),
        "program-reported: (seconds - prime_seconds) / points");
  r.add("serve.handle_ms_p50", median(handle), "ms", n,
        "program-reported: response seconds");
  r.add("serve.wait_ms_p50", median(wait), "ms", n,
        "client latency - response seconds");
  r.add("serve.response_bytes", median(bytes), "bytes", n);
  const std::size_t quant_lookups = quant_hits + quant_misses;
  r.add("quant.solves", static_cast<double>(quant_misses), "count",
        quant_lookups, "program-reported: quantification-cache misses");
  r.add("quant.hit_ratio",
        quant_lookups > 0 ? static_cast<double>(quant_hits) /
                                static_cast<double>(quant_lookups)
                          : 0.0,
        "ratio", quant_lookups, "program-reported");
  r.add("trace.overhead_ratio",
        median(latencies_of(traced)) / median(latencies_of(untraced)),
        "ratio", n, "traced / untraced median latency");
  summarise_layers(r, log);
  write_spans(r, cfg.trace_file, {{"connections_3", &log}});
  return r;
}

}  // namespace perfbench
