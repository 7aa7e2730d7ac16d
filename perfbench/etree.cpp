// etree_uq: what one `sdft etree --uq-samples N --seed i` call does —
// compile the event-tree scenario, then run it with the cutset column on
// and parameter uncertainty sampled from seed i (the request index).

#include <algorithm>
#include <bit>
#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "engine/scenario.hpp"
#include "inputs.hpp"
#include "sim/stream_rng.hpp"
#include "workloads.hpp"

namespace perfbench {

using namespace sdft;

namespace {

constexpr std::size_t request_threads = 4;

/// Every number a request returns, flattened for bit-for-bit comparison:
/// `exact` holds what does not depend on the UQ seed (exact and
/// cutset-column probabilities, cutset counts), `bands` the UQ bands.
struct answer {
  std::vector<std::uint64_t> exact;
  std::vector<std::uint64_t> bands;
};

void put(std::vector<std::uint64_t>& out, double v) {
  out.push_back(std::bit_cast<std::uint64_t>(v));
}

void put_band(std::vector<std::uint64_t>& out, const uncertainty_band& b) {
  for (const double v : {b.mean, b.p05, b.p50, b.p95}) put(out, v);
}

answer answer_of(const scenario_result& res) {
  answer a;
  for (const auto& s : res.sequences) {
    put(a.exact, s.probability);
    put(a.exact, s.mcs_probability);
    a.exact.push_back(s.num_cutsets);
    put_band(a.bands, s.uq);
  }
  for (const auto& e : res.end_states) {
    put(a.exact, e.probability);
    put(a.exact, e.mcs_probability);
    a.exact.push_back(e.num_cutsets);
    put_band(a.bands, e.uq);
  }
  return a;
}

struct request_result {
  answer result;
  engine_stats stats;
  double ms = 0;
  double compile_ms = 0;
  double run_start_ms = 0;
  int run_span = span_log::none;
};

/// One request: compile, then run with seed = request index. At one
/// thread it runs inline, as the reference path does.
request_result etree_request(const etree_input& in, std::size_t threads,
                             std::uint64_t index, span_log* log) {
  scenario_options opts;
  opts.analysis = in.options;
  opts.analysis.threads = threads;
  opts.analysis.inline_execution = threads == 1;
  opts.uq_samples = in.uq_samples;
  request_result out;
  const double t0 = now_ms();
  span_scope root(log, "request", span_log::none, index);
  std::optional<scenario_engine> engine;
  {
    span_scope compile(log, "scenario.compile", root.id(), index);
    engine.emplace(in.model, opts);
  }
  out.compile_ms = now_ms() - t0;
  scenario_result res;
  out.run_start_ms = now_ms();
  {
    span_scope run(log, "scenario.run", root.id(), index);
    out.run_span = run.id();
    res = engine->run(in.uq_samples, index);
  }
  out.ms = now_ms() - t0;
  out.result = answer_of(res);
  out.stats = res.stats;
  return out;
}

}  // namespace

report run_etree(const run_config& cfg) {
  report r;
  const std::size_t setup_passes = cfg.trace ? 1 : 3;
  std::vector<double> setup_s;
  etree_input in;
  std::vector<answer> warm;
  for (std::size_t k = 0; k < setup_passes; ++k) {
    const double t0 = now_ms();
    in = make_etree(cfg.seed, cfg.size);
    warm.push_back(etree_request(in, request_threads, 0, nullptr).result);
    setup_s.push_back((now_ms() - t0) / 1e3);
  }
  r.add("setup_s", median(setup_s), "s", setup_s.size(),
        "input generation + warm-up request (compile + run)");
  r.description = in.description;
  for (const answer& a : warm) {
    ++r.attempted;
    if (a.exact != warm.front().exact || a.bands != warm.front().bands) {
      r.fail("warm-up requests disagree");
    }
  }

  // Requests 1, 2, ... of the timed phase; each answer is kept so the
  // one-thread reruns below can compare it.
  std::vector<request_result> timed;
  const auto timed_request = [&](span_log* log) {
    const std::uint64_t index = timed.size() + 1;
    timed.push_back(etree_request(in, request_threads, index, log));
    ++r.attempted;
    if (timed.back().result.exact != warm.front().exact) {
      r.fail("request " + std::to_string(index) +
             ": exact or cutset column differs from the warm-up request");
    }
    return timed.back().ms;
  };
  const auto timed_phase = [&](double seconds, span_log* log) {
    std::vector<double> latencies;
    const double start = now_ms();
    while (now_ms() - start < seconds * 1e3 || latencies.size() < 2) {
      latencies.push_back(timed_request(log));
    }
    return latencies;
  };
  // Reruns a seeded pick of the timed requests so far inline at one
  // thread: the UQ bands (and everything else) must match bit for bit.
  rng pick = sim::substream(cfg.seed, 0xe7u);
  const auto rerun_1t = [&] {
    const std::size_t i = pick.below(timed.size());
    const request_result one = etree_request(in, 1, i + 1, nullptr);
    ++r.attempted;
    if (one.result.exact != timed[i].result.exact ||
        one.result.bands != timed[i].result.bands) {
      r.fail("request " + std::to_string(i + 1) +
             " differs from its 1-thread inline rerun");
    }
    return one.ms;
  };

  if (!cfg.trace) {
    // The timed phase, with the 1-thread reruns interleaved, half the
    // time each.
    reset_peak_rss();
    const interleaved_phase phase =
        interleave(cfg.seconds, 2, cfg.size == scale::bench ? 3 : 1,
                   [&] { return timed_request(nullptr); }, rerun_1t);
    r.add("peak_rss_mb", peak_rss_mb(), "MiB", 1, "VmHWM, timed phase only");
    add_latency_metrics(r, phase.main_ms, phase.main_seconds);
    r.add("latency_1t_p50_ms", median(phase.single_ms), "ms",
          phase.single_ms.size(),
          "inline reruns of timed requests, interleaved with them");
    return r;
  }

  const std::vector<double> untraced = timed_phase(cfg.seconds / 2, nullptr);
  const std::size_t first_traced = timed.size();
  span_log log;
  const std::vector<double> traced = timed_phase(cfg.seconds / 2, &log);
  rerun_1t();

  // Inside scenario_engine::run the split has no public call: its stages
  // come from the program's engine_stats, laid end to end in run()'s own
  // order (exact quantification, cutset column, UQ sampling).
  std::vector<double> compile, quantify, cutsets, uq;
  for (std::size_t i = first_traced; i < timed.size(); ++i) {
    const request_result& q = timed[i];
    const engine_stats& st = q.stats;
    compile.push_back(q.compile_ms);
    quantify.push_back(st.scenario_quantify_seconds * 1e3);
    cutsets.push_back(st.scenario_cutset_seconds * 1e3);
    uq.push_back(st.uq_seconds * 1e3 / static_cast<double>(in.uq_samples));
  }
  for (std::size_t i = first_traced; i < timed.size(); ++i) {
    const request_result& q = timed[i];
    double t = q.run_start_ms;
    const std::uint64_t index = i + 1;
    for (const auto& [name, seconds] :
         {std::pair<const char*, double>{"scenario.quantify",
                                         q.stats.scenario_quantify_seconds},
          {"scenario.cutsets", q.stats.scenario_cutset_seconds},
          {"uq.sample", q.stats.uq_seconds}}) {
      log.add(name, t, t + seconds * 1e3, q.run_span, index, true);
      t += seconds * 1e3;
    }
  }
  const request_result& last = timed.back();
  const engine_stats& st = last.stats;
  const std::size_t n = traced.size();
  const char* reported = "program-reported: engine_stats";
  r.add("scenario.compile_ms", median(compile), "ms", n);
  r.add("scenario.bdd_nodes", static_cast<double>(st.scenario_bdd_nodes),
        "count", 1, reported);
  r.add("scenario.quantify_ms", median(quantify), "ms", n, reported);
  r.add("scenario.cutsets_ms", median(cutsets), "ms", n, reported);
  r.add("scenario.sequence_cutsets",
        static_cast<double>(st.scenario_sequence_cutsets), "count", 1,
        reported);
  r.add("uq.sample_ms", median(uq), "ms", n, reported);
  // The cutset column runs the analysis engine once per demanded gate;
  // its accumulated counters are the stage-2 and prep numbers here.
  r.add("mcs.partials", static_cast<double>(st.source_partials), "count", 1,
        reported);
  r.add("mcs.subset_tests", static_cast<double>(st.subset_tests), "count", 1,
        reported);
  r.add("mcs.cutsets", static_cast<double>(st.num_cutsets), "count", 1,
        reported);
  r.add("mcs.generate_ms", st.generate_seconds * 1e3, "ms", 1, reported);
  r.add("prep.preprocess_ms", st.prep_seconds * 1e3, "ms", 1, reported);
  r.add("prep.nodes_eliminated", static_cast<double>(st.prep_nodes_eliminated),
        "count", 1, reported);
  r.add("prep.modules", static_cast<double>(st.prep_modules), "count", 1,
        reported);
  r.add("sdft.translate_ms", st.translate_seconds * 1e3, "ms", 1, reported);
  r.add("quant.quantify_ms", st.quantify_seconds * 1e3, "ms", 1, reported);
  r.add("engine.sum_ms", st.sum_seconds * 1e3, "ms", 1, reported);
  r.add("trace.overhead_ratio", median(traced) / median(untraced), "ratio", n,
        "traced / untraced median latency");
  summarise_layers(r, log);
  write_spans(r, cfg.trace_file, {{"threads_4", &log}});
  return r;
}

}  // namespace perfbench
