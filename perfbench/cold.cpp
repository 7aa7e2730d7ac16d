// plant_cold and dynamic_cold: every request is one fresh
// analysis_engine::run on the whole model — what `sdft analyze` does.

#include <algorithm>
#include <atomic>
#include <bit>
#include <chrono>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "engine/engine.hpp"
#include "engine/modular.hpp"
#include "engine/quantifier.hpp"
#include "inputs.hpp"
#include "prep/prep.hpp"
#include "sdft/translate.hpp"
#include "util/thread_pool.hpp"
#include "workloads.hpp"

namespace perfbench {

using namespace sdft;

namespace {

constexpr std::size_t request_threads = 4;

/// What a cold request is checked on: the rare-event probability (bit for
/// bit) and the number of relevant minimal cutsets.
struct answer {
  double probability = 0;
  std::size_t cutsets = 0;

  bool operator==(const answer& o) const {
    return std::bit_cast<std::uint64_t>(probability) ==
               std::bit_cast<std::uint64_t>(o.probability) &&
           cutsets == o.cutsets;
  }
};

answer answer_of(const analysis_result& r) {
  return {r.failure_probability, r.num_cutsets};
}

analysis_options with_threads(analysis_options o, std::size_t threads) {
  o.threads = threads;
  return o;
}

/// One request through the public entry point, timed in ms.
answer engine_request(const analysis_input& in, std::size_t threads,
                      double& ms) {
  const double t0 = now_ms();
  analysis_engine engine(with_threads(in.options, threads));
  const answer a = answer_of(engine.run(in.tree));
  ms = now_ms() - t0;
  return a;
}

/// The per-layer measurements of one traced request.
struct layer_sample {
  answer result;
  double total_ms = 0;
  double translate_ms = 0;
  double prep_ms = 0;
  double generate_ms = 0;
  double quantify_ms = 0;
  double busy_ms = 0;  ///< summed per-cutset quantify() time, all workers
  double sum_ms = 0;
  std::size_t partials = 0;
  std::size_t subset_tests = 0;
  std::size_t nodes_eliminated = 0;
  std::size_t modules = 0;
  std::size_t solves = 0;  ///< quantification-cache misses
  std::size_t cache_hits = 0;
  std::size_t chain_states = 0;  ///< states of every chain actually solved
  std::size_t failed = 0;
  std::size_t steals = 0;
  double occupancy = 0;
};

/// Runs `fn` inside a span and stores the span's duration in `ms`.
template <class F>
auto bracket(span_log& log, const char* name, int parent,
             std::uint64_t request, double& ms, F&& fn) {
  const double t0 = now_ms();
  span_scope span(&log, name, parent, request);
  auto out = fn();
  ms = now_ms() - t0;
  return out;
}

/// The traced request: the engine's stages called one by one through
/// their public functions, in the engine's order and with its options —
/// translate, preprocess, modular generation on the pool, per-cutset
/// quantification through a fresh quantification cache, canonical-order
/// sum. Must reproduce analysis_engine::run's answer bit for bit.
layer_sample traced_request(const analysis_input& in, std::size_t threads,
                            span_log& log, std::uint64_t request) {
  const analysis_options& opt = in.options;
  layer_sample s;
  const double t0 = now_ms();
  span_scope root(&log, "request", span_log::none, request);
  thread_pool pool(threads);

  const static_translation translation =
      bracket(log, "sdft.translate", root.id(), request, s.translate_ms, [&] {
        return translate_to_static(in.tree, opt.horizon, opt.epsilon,
                                   opt.reference_cutoff);
      });
  const prep_result prep =
      bracket(log, "prep.preprocess", root.id(), request, s.prep_ms,
              [&] { return preprocess(translation.ft_bar, opt.prep); });
  s.nodes_eliminated = prep.stats.nodes_eliminated();
  s.modules = prep.stats.modules_found;

  const std::unique_ptr<cutset_source> source =
      make_cutset_source(opt.backend, opt.bdd_ordering);
  const pool_counters before = pool.counters();
  modular_generation generated =
      bracket(log, "mcs.generate", root.id(), request, s.generate_ms, [&] {
        return generate_modular(prep, translation, *source, opt.cutoff,
                                &pool);
      });
  const pool_counters after = pool.counters();
  s.partials = generated.generation.partials_processed;
  s.subset_tests = generated.generation.subset_tests;
  s.steals = after.stolen - before.stolen;
  s.occupancy = after.occupancy_since(before);

  std::vector<cutset>& cutsets = generated.generation.cutsets;
  quantification_cache cache(opt.quant_cache_entries);
  std::atomic<std::int64_t> busy_ns{0};
  const std::vector<cutset_result> quantified =
      bracket(log, "quant.quantify", root.id(), request, s.quantify_ms, [&] {
        quantify_options q;
        q.horizon = opt.horizon;
        q.epsilon = opt.epsilon;
        q.max_product_states = opt.max_product_states;
        q.mode = opt.mode;
        q.lump_symmetry = opt.lump_symmetry;
        q.packed_state_keys = opt.packed_state_keys;
        q.transient_early_termination = opt.transient_early_termination;
        const static_product_quantifier static_q(in.tree);
        const product_chain_quantifier chain_q(
            in.tree, translation, q,
            opt.cache_quantifications ? &cache : nullptr);
        std::vector<cutset_result> out(cutsets.size());
        parallel_for(pool, cutsets.size(), [&](std::size_t i) {
          const auto start = std::chrono::steady_clock::now();
          cutset c = std::move(cutsets[i]);
          const quantifier& qz =
              static_q.handles(c) ? static_cast<const quantifier&>(static_q)
                                  : chain_q;
          out[i] = qz.quantify(std::move(c));
          busy_ns.fetch_add(
              std::chrono::duration_cast<std::chrono::nanoseconds>(
                  std::chrono::steady_clock::now() - start)
                  .count(),
              std::memory_order_relaxed);
        });
        return out;
      });
  s.busy_ms = static_cast<double>(busy_ns.load()) / 1e6;
  s.solves = cache.misses();
  s.cache_hits = cache.hits();
  for (const cutset_result& q : quantified) {
    if (!q.error.empty()) ++s.failed;
    if (q.dynamic && !q.cache_hit) s.chain_states += q.chain_states;
  }

  s.result.cutsets = quantified.size();
  s.result.probability =
      bracket(log, "engine.sum", root.id(), request, s.sum_ms, [&] {
        double p = 0.0;
        for (const cutset_result& q : quantified) {
          if (opt.cutoff > 0.0 && q.probability <= opt.cutoff) continue;
          p += q.probability;
        }
        return p;
      });
  s.total_ms = now_ms() - t0;
  return s;
}

template <class F>
std::vector<double> field(const std::vector<layer_sample>& v, F&& get) {
  std::vector<double> out;
  out.reserve(v.size());
  for (const layer_sample& s : v) out.push_back(static_cast<double>(get(s)));
  return out;
}

void check(report& r, const answer& got, const answer& want,
           const std::string& what) {
  ++r.attempted;
  if (!(got == want)) {
    r.fail(what + ": p=" + std::to_string(got.probability) + " with " +
           std::to_string(got.cutsets) + " cutsets, reference p=" +
           std::to_string(want.probability) + " with " +
           std::to_string(want.cutsets));
  }
}

}  // namespace

report run_cold(const run_config& cfg, bool dynamic) {
  report r;
  const auto make = dynamic ? make_dynamic : make_plant;

  // Set-up: generate the inputs and warm up (one request on the timed
  // configuration), several times when the set-up time is reported.
  const std::size_t setup_passes = cfg.trace ? 1 : 3;
  std::vector<double> setup_s;
  analysis_input in;
  std::vector<answer> warm;
  for (std::size_t k = 0; k < setup_passes; ++k) {
    const double t0 = now_ms();
    in = make(cfg.seed, cfg.size);
    double ms = 0;
    warm.push_back(engine_request(in, request_threads, ms));
    setup_s.push_back((now_ms() - t0) / 1e3);
  }
  r.add("setup_s", median(setup_s), "s", setup_s.size(),
        "input generation + FV ranking + annotation + warm-up request");
  r.description = in.description;

  // The one-thread reference every answer is compared with.
  double reference_ms = 0;
  const answer reference = engine_request(in, 1, reference_ms);
  for (const answer& a : warm) check(r, a, reference, "warm-up request");

  if (!cfg.trace) {
    // The timed phase: 4-thread requests with the single-thread baseline
    // (the same request at threads = 1) interleaved, half the time each.
    reset_peak_rss();
    std::size_t n = 0;
    const interleaved_phase phase = interleave(
        cfg.seconds, 3, cfg.size == scale::bench ? 4 : 2,
        [&] {
          double ms = 0;
          check(r, engine_request(in, request_threads, ms), reference,
                "request " + std::to_string(n++));
          return ms;
        },
        [&] {
          double ms = 0;
          check(r, engine_request(in, 1, ms), reference, "1-thread request");
          return ms;
        });
    r.add("peak_rss_mb", peak_rss_mb(), "MiB", 1, "VmHWM, timed phase only");
    add_latency_metrics(r, phase.main_ms, phase.main_seconds);
    r.add("latency_1t_p50_ms", median(phase.single_ms), "ms",
          phase.single_ms.size(), "interleaved with the 4-thread requests");
    return r;
  }

  // Traced run: half the time untraced requests, half traced requests on
  // the same configuration, then one traced request at one thread for
  // counts that repeat exactly.
  std::vector<double> untraced;
  double start = now_ms();
  while (now_ms() - start < cfg.seconds * 500.0 || untraced.size() < 2) {
    double ms = 0;
    check(r, engine_request(in, request_threads, ms), reference,
          "untraced request");
    untraced.push_back(ms);
  }
  span_log log;
  std::vector<layer_sample> traced;
  start = now_ms();
  while (now_ms() - start < cfg.seconds * 500.0 || traced.size() < 2) {
    traced.push_back(
        traced_request(in, request_threads, log, traced.size()));
    check(r, traced.back().result, reference, "traced request");
  }
  span_log log_1t;
  const layer_sample one = traced_request(in, 1, log_1t, 0);
  check(r, one.result, reference, "traced 1-thread request");

  const std::size_t n = traced.size();
  const auto med = [&](auto get) { return median(field(traced, get)); };
  r.add("mcs.generate_ms", med([](auto& s) { return s.generate_ms; }), "ms", n);
  r.add("mcs.generate_1t_ms", one.generate_ms, "ms", 1);
  r.add("mcs.partials", static_cast<double>(one.partials), "count", 1,
        "1-thread pass");
  r.add("mcs.subset_tests", static_cast<double>(one.subset_tests), "count", 1,
        "1-thread pass");
  r.add("mcs.cutsets", static_cast<double>(one.result.cutsets), "count", 1);
  r.add("pool.generate_occupancy", med([](auto& s) { return s.occupancy; }),
        "ratio", n);
  r.add("pool.generate_steals", med([](auto& s) { return s.steals; }),
        "count", n);
  r.add("prep.preprocess_ms", med([](auto& s) { return s.prep_ms; }), "ms", n);
  r.add("prep.nodes_eliminated", static_cast<double>(one.nodes_eliminated),
        "count", 1);
  r.add("prep.modules", static_cast<double>(one.modules), "count", 1);
  r.add("sdft.translate_ms", med([](auto& s) { return s.translate_ms; }), "ms",
        n);
  r.add("quant.quantify_ms", med([](auto& s) { return s.quantify_ms; }), "ms",
        n);
  r.add("quant.busy_ms", med([](auto& s) { return s.busy_ms; }), "ms", n);
  r.add("quant.solves", static_cast<double>(one.solves), "count", 1,
        "1-thread pass: exact");
  const std::size_t lookups = one.solves + one.cache_hits;
  r.add("quant.hit_ratio",
        lookups > 0 ? static_cast<double>(one.cache_hits) /
                          static_cast<double>(lookups)
                    : 0.0,
        "ratio", 1, "1-thread pass: exact");
  r.add("quant.chain_states", static_cast<double>(one.chain_states), "count",
        1, "1-thread pass");
  r.add("quant.failed", static_cast<double>(one.failed), "count", 1);
  r.add("engine.sum_ms", med([](auto& s) { return s.sum_ms; }), "ms", n);
  const std::vector<double> solves_4t =
      field(traced, [](auto& s) { return s.solves; });
  r.add("quant.solves_4t_spread",
        *std::max_element(solves_4t.begin(), solves_4t.end()) -
            *std::min_element(solves_4t.begin(), solves_4t.end()),
        "count", n,
        "max - min over 4-thread passes (concurrent misses on one key both "
        "solve); unfit as a claim basis");
  r.add("trace.overhead_ratio",
        med([](auto& s) { return s.total_ms; }) / median(untraced), "ratio", n,
        "traced / untraced median latency");
  summarise_layers(r, log);
  write_spans(r, cfg.trace_file, {{"threads_4", &log}, {"threads_1", &log_1t}});
  return r;
}

}  // namespace perfbench
