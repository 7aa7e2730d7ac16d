#include "engine/scenario.hpp"

#include <algorithm>
#include <cmath>
#include <iterator>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "obs/obs.hpp"
#include "sim/stream_rng.hpp"
#include "util/error.hpp"
#include "util/stopwatch.hpp"
#include "util/thread_pool.hpp"

namespace sdft {

namespace {

/// sigma = ln(EF) / z_0.95 — the PSA lognormal convention (EF = p95 /
/// median), shared with core/risk_measures.cpp.
constexpr double z95 = 1.6448536269514722;
constexpr double two_pi = 6.283185307179586;

/// Recombination guard: a sequence whose cartesian product of per-gate
/// MCS lists grows past this is rejected with a pointer at the cutoff.
constexpr std::size_t max_recombined_cutsets = std::size_t{1} << 20;

std::vector<ccf_group> resolve_ccf_groups(
    const std::vector<ccf_group_description>& groups, const fault_tree& ft) {
  std::vector<ccf_group> resolved;
  resolved.reserve(groups.size());
  for (const auto& d : groups) {
    ccf_group g;
    g.name = d.name;
    g.model = d.model;
    g.beta = d.beta;
    g.alpha = d.alpha;
    g.members.reserve(d.members.size());
    for (const auto& member : d.members) {
      const node_index e = ft.find(member);
      require_model(e != fault_tree::npos,
                    "scenario: CCF group '" + d.name + "' member '" + member +
                        "' is not a node of the tree");
      g.members.push_back(e);
    }
    resolved.push_back(std::move(g));
  }
  return resolved;
}

double clamp_probability(double p) {
  return std::min(std::max(p, 0.0), 1.0);
}

}  // namespace

scenario_engine::scenario_engine(scenario_model model, scenario_options options)
    : model_(std::move(model)),
      options_(std::move(options)),
      engine_(options_.analysis) {
  obs::span_scope span("scenario.compile", "scenario");
  stopwatch timer;
  const scenario_description& sc = model_.scenario;

  const auto dynamic = model_.tree.dynamic_events();
  require_model(dynamic.empty(),
                "scenario: the scenario engine requires a static fault tree (" +
                    std::to_string(dynamic.size()) +
                    " dynamic events present)");
  const fault_tree& original = model_.tree.structure();

  // CCF groups expand before anything else sees the tree, so the event
  // tree, the BDD and the per-gate cutset lists all work on the expanded
  // model — CCF events show up in cutsets like any other basic event.
  expanded_ = expand_ccf_traced(original, resolve_ccf_groups(sc.ccf, original));

  const node_index ie = expanded_.tree.find(sc.initiating_event);
  require_model(ie != fault_tree::npos,
                "scenario: unknown initiating event '" + sc.initiating_event +
                    (original.find(sc.initiating_event) != fault_tree::npos
                         ? "' (CCF group members cannot initiate)"
                         : "'"));
  et_.emplace(expanded_.tree, ie, sc.name);
  for (const auto& f : sc.functional) {
    const node_index gate = expanded_.tree.find(f.gate);
    require_model(gate != fault_tree::npos,
                  "scenario: functional event '" + f.name +
                      "' references unknown gate '" + f.gate + "'");
    et_->add_functional_event(f.name, gate);
  }
  for (const auto& s : sc.sequences) et_->add_sequence(s.outcomes, s.end_state);
  et_->validate();

  // One shared multi-root compilation. sequence()/end_state() mutate the
  // manager, so every root is compiled here, before run()/evaluate_points()
  // fan concurrent probability reads out over the frozen structure.
  compiled_.emplace(*et_);
  for (std::size_t s = 0; s < et_->num_sequences(); ++s) {
    roots_.push_back(compiled_->sequence(s));
    const std::string& es = et_->end_state(s);
    if (std::find(es_names_.begin(), es_names_.end(), es) == es_names_.end()) {
      es_names_.push_back(es);
    }
  }
  for (const auto& es : es_names_) roots_.push_back(compiled_->end_state(es));

  base_expanded_probs_ = expanded_probs(original_probs());

  dists_.reserve(sc.distributions.size());
  for (const auto& d : sc.distributions) {
    const node_index e = original.find(d.event);
    require_model(e != fault_tree::npos && original.is_basic(e),
                  "scenario: distribution over unknown basic event '" +
                      d.event + "'");
    dists_.emplace_back(e, d);
  }
  compile_seconds_ = timer.seconds();
}

std::vector<double> scenario_engine::original_probs() const {
  const fault_tree& ft = model_.tree.structure();
  std::vector<double> probs(ft.size(), 0.0);
  for (node_index i = 0; i < ft.size(); ++i) {
    if (ft.is_basic(i)) probs[i] = ft.node(i).probability;
  }
  return probs;
}

std::vector<double> scenario_engine::expanded_probs(
    const std::vector<double>& original) const {
  std::vector<double> probs(expanded_.tree.size(), 0.0);
  for (node_index e = 0; e < expanded_.tree.size(); ++e) {
    if (!expanded_.tree.is_basic(e)) continue;
    const ccf_trace_entry& t = expanded_.trace[e];
    probs[e] = t.source == fault_tree::npos
                   ? expanded_.tree.node(e).probability
                   : clamp_probability(t.scale * original[t.source]);
  }
  return probs;
}

void scenario_engine::for_each_index(
    std::size_t n, const std::function<void(std::size_t)>& fn) const {
  if (options_.analysis.inline_execution || n <= 1) {
    for (std::size_t i = 0; i < n; ++i) fn(i);
    return;
  }
  thread_pool pool(options_.analysis.threads);
  parallel_for(pool, n, fn);
}

scenario_result scenario_engine::run() {
  return run(options_.uq_samples, options_.uq_seed);
}

scenario_result scenario_engine::run(std::size_t uq_samples,
                                     std::uint64_t uq_seed) {
  obs::span_scope span("scenario.run", "scenario");
  stopwatch total;
  scenario_result out;
  engine_stats& stats = out.stats;

  const std::size_t num_seq = et_->num_sequences();
  const std::size_t num_es = es_names_.size();
  out.sequences.resize(num_seq);
  out.end_states.resize(num_es);
  out.initiating_probability = base_expanded_probs_[et_->initiating_event()];
  for (std::size_t s = 0; s < num_seq; ++s) {
    out.sequences[s].label = "SEQ" + std::to_string(s);
    out.sequences[s].end_state = et_->end_state(s);
  }
  for (std::size_t e = 0; e < num_es; ++e) {
    out.end_states[e].name = es_names_[e];
    for (std::size_t s = 0; s < num_seq; ++s) {
      if (et_->end_state(s) == es_names_[e]) ++out.end_states[e].num_sequences;
    }
  }

  {
    // Exact quantification: one pass over the frozen BDD values every
    // sequence and end state — bit-identical to one-shot compilations
    // (BDD canonicity) and independent of the thread count.
    obs::span_scope quantify_span("scenario.quantify", "scenario");
    stopwatch timer;
    const std::vector<double> p =
        compiled_->probabilities(roots_, base_expanded_probs_);
    for (std::size_t s = 0; s < num_seq; ++s) {
      out.sequences[s].probability = p[s];
    }
    for (std::size_t e = 0; e < num_es; ++e) {
      out.end_states[e].probability = p[num_seq + e];
    }
    stats.scenario_quantify_seconds = timer.seconds();
  }

  if (options_.quantify_cutsets &&
      options_.analysis.backend != cutset_backend::mc) {
    quantify_cutsets(out);
  }
  if (uq_samples > 0) propagate_uncertainty(out, uq_samples, uq_seed);

  stats.scenario_compile_seconds = compile_seconds_;
  stats.scenario_sequences = num_seq;
  stats.scenario_end_states = num_es;
  stats.scenario_functional_events = et_->num_functional_events();
  stats.scenario_bdd_nodes = compiled_->nodes();
  stats.scenario_gates_compiled = compiled_->gates_compiled();
  stats.scenario_prefix_hits = compiled_->prefix_hits();
  stats.ccf_groups = model_.scenario.ccf.size();
  stats.ccf_events_added = expanded_.events_added;
  stats.ccf_members_expanded = expanded_.members_expanded;
  if (stats.backend.empty()) stats.backend = "bdd";  // the multi-root path
  stats.scenario_total_seconds = total.seconds();
  if (options_.analysis.publish_metrics) {
    stats.publish(obs::metrics_registry::global());
  }
  return out;
}

void scenario_engine::quantify_cutsets(scenario_result& out) {
  obs::span_scope span("scenario.cutsets", "scenario");
  stopwatch timer;
  engine_stats& stats = out.stats;
  const std::size_t num_seq = et_->num_sequences();

  // Per-gate minimal-cutset lists: each distinct gate demanded as a
  // failure anywhere in the tree is analysed exactly once through the
  // engine — and thus through the structure cache across run() calls.
  analysis_options gate_options = options_.analysis;
  gate_options.keep_cutset_details = true;
  gate_options.exact_static = false;
  gate_options.publish_metrics = false;
  const std::size_t num_fe = et_->num_functional_events();
  std::vector<char> demanded(num_fe, 0);
  for (std::size_t s = 0; s < num_seq; ++s) {
    const auto& outcomes = et_->sequence_outcomes(s);
    for (std::size_t i = 0; i < num_fe; ++i) {
      if (outcomes[i] == branch_outcome::failure) demanded[i] = 1;
    }
  }
  std::unordered_map<node_index, std::vector<cutset>> gate_cutsets;
  for (std::size_t i = 0; i < num_fe; ++i) {
    const node_index gate = et_->functional_gate(i);
    if (demanded[i] == 0 || gate_cutsets.count(gate) > 0) continue;
    fault_tree sub = expanded_.tree;
    sub.set_top(gate);
    const sd_fault_tree sub_tree(std::move(sub));
    const analysis_result r = engine_.run(sub_tree, gate_options);
    std::vector<cutset> list;
    list.reserve(r.cutsets.size());
    for (const auto& c : r.cutsets) list.push_back(c.events);
    stats.accumulate(r.stats);
    gate_cutsets.emplace(gate, std::move(list));
  }

  // Recombination: {IE} x the failed gates' lists, cutoff-pruned as the
  // product grows (a partial product below the cutoff can only shrink),
  // then minimized. Success branches are dropped — the same conservative
  // delete-term-free treatment end_state_fault_tree() uses.
  //
  // Pruning bound: an event of functional event i's list is private when
  // no other demanded functional event's list holds it and it is not the
  // IE. A base b built from the IE and other lists never holds a private
  // event of a, so p(b ∪ a) <= p(b) * bound(a), bound(a) being the product
  // of a's private events. With each list sorted by decreasing bound, a
  // base's scan stops at the first a whose bound cannot clear the cutoff
  // (the 1e-9 slack absorbs rounding); every union still built passes the
  // exact cutoff test. A gate two functional events reference counts as
  // two lists, so its events are private to neither.
  const double cutoff = options_.analysis.cutoff;
  const double prune_below = cutoff * (1.0 - 1e-9);
  const node_index ie = et_->initiating_event();
  std::vector<std::size_t> lists_holding(expanded_.tree.size(), 0);
  std::vector<std::size_t> last_list(expanded_.tree.size(), num_fe);
  for (std::size_t i = 0; i < num_fe; ++i) {
    if (demanded[i] == 0) continue;
    for (const cutset& c : gate_cutsets.at(et_->functional_gate(i))) {
      for (const node_index e : c) {
        if (last_list[e] == i) continue;
        last_list[e] = i;
        ++lists_holding[e];
      }
    }
  }
  // Per demanded functional event: (bound, cutset) by decreasing bound.
  std::vector<std::vector<std::pair<double, const cutset*>>> ranked(num_fe);
  for (std::size_t i = 0; i < num_fe; ++i) {
    if (demanded[i] == 0) continue;
    for (const cutset& a : gate_cutsets.at(et_->functional_gate(i))) {
      double bound = 1.0;
      for (const node_index e : a) {
        if (lists_holding[e] == 1 && e != ie) {
          bound *= expanded_.tree.node(e).probability;
        }
      }
      ranked[i].emplace_back(bound, &a);
    }
    std::stable_sort(
        ranked[i].begin(), ranked[i].end(),
        [](const auto& x, const auto& y) { return x.first > y.first; });
  }

  // Shared prefixes: sequences demanding the same failures up to
  // functional event i share one list, keyed (prefix list, i) as in
  // event_tree_bdd's prefix cache. Each list is minimized before it is
  // extended — exact, since a non-minimal base only yields unions that a
  // minimal base's unions subsume or repeat (and those clear the cutoff
  // whenever the superset does).
  std::vector<std::vector<cutset>> prefix_lists{{cutset{ie}}};
  std::unordered_map<std::uint64_t, std::size_t> prefix_ids;
  std::vector<std::size_t> seq_list(num_seq, 0);
  cutset unioned;
  std::size_t unions = 0;
  for (std::size_t s = 0; s < num_seq; ++s) {
    std::size_t id = 0;
    const auto& outcomes = et_->sequence_outcomes(s);
    for (std::size_t i = 0; i < num_fe; ++i) {
      if (outcomes[i] != branch_outcome::failure) continue;
      const std::uint64_t key = (static_cast<std::uint64_t>(id) << 32) | i;
      if (auto it = prefix_ids.find(key); it != prefix_ids.end()) {
        id = it->second;
        continue;
      }
      std::vector<cutset> next;
      for (const cutset& base : prefix_lists[id]) {
        const double p_base =
            cutoff > 0.0 ? cutset_probability(expanded_.tree, base) : 1.0;
        for (const auto& [bound, add] : ranked[i]) {
          if (p_base * bound < prune_below) break;
          unioned.clear();
          std::set_union(base.begin(), base.end(), add->begin(), add->end(),
                         std::back_inserter(unioned));
          ++unions;
          if (cutoff > 0.0 &&
              cutset_probability(expanded_.tree, unioned) < cutoff) {
            continue;
          }
          next.push_back(unioned);
        }
        require_model(next.size() <= max_recombined_cutsets,
                      "scenario: sequence " + std::to_string(s) +
                          " recombines to more than " +
                          std::to_string(max_recombined_cutsets) +
                          " cutsets; set a relevance cutoff");
      }
      prefix_lists.push_back(minimize_cutsets(std::move(next)));
      id = prefix_lists.size() - 1;
      prefix_ids.emplace(key, id);
    }
    seq_list[s] = id;
  }
  stats.scenario_cutset_unions += unions;
  const auto seq_cutsets = [&](std::size_t s) -> const std::vector<cutset>& {
    return prefix_lists[seq_list[s]];
  };

  for (std::size_t s = 0; s < num_seq; ++s) {
    out.sequences[s].num_cutsets = seq_cutsets(s).size();
    out.sequences[s].mcs_probability =
        rare_event_probability(expanded_.tree, seq_cutsets(s));
    stats.scenario_sequence_cutsets += seq_cutsets(s).size();
  }
  for (std::size_t e = 0; e < es_names_.size(); ++e) {
    std::vector<cutset> merged;
    for (std::size_t s = 0; s < num_seq; ++s) {
      if (et_->end_state(s) != es_names_[e]) continue;
      merged.insert(merged.end(), seq_cutsets(s).begin(),
                    seq_cutsets(s).end());
    }
    merged = minimize_cutsets(std::move(merged));
    out.end_states[e].num_cutsets = merged.size();
    out.end_states[e].mcs_probability =
        rare_event_probability(expanded_.tree, merged);
  }
  stats.scenario_cutset_seconds = timer.seconds();
}

void scenario_engine::propagate_uncertainty(scenario_result& out,
                                            std::size_t samples,
                                            std::uint64_t seed) {
  obs::span_scope span("scenario.uq", "scenario");
  stopwatch timer;
  const std::size_t num_seq = et_->num_sequences();
  const std::size_t num_es = es_names_.size();
  const std::vector<double> base = original_probs();

  // One row per sample. Every draw comes from the substream keyed by
  // (seed, sample, parameter) — independent of scheduling, so the matrix
  // (and every band below) is bit-identical at any thread count.
  std::vector<double> seq_samples(samples * num_seq);
  std::vector<double> es_samples(samples * num_es);
  for_each_index(samples, [&](std::size_t k) {
    std::vector<double> drawn = base;
    for (std::size_t p = 0; p < dists_.size(); ++p) {
      const auto& [node, dist] = dists_[p];
      rng stream = sim::substream(seed, k, p);
      switch (dist.model) {
        case parameter_distribution::kind::point:
          break;
        case parameter_distribution::kind::lognormal: {
          // Median = the tree's base probability; Box-Muller as in
          // core/risk_measures.cpp so both UQ layers agree draw-for-draw.
          const double sigma = std::log(dist.error_factor) / z95;
          const double u1 = stream.uniform();
          const double u2 = stream.uniform();
          const double z =
              std::sqrt(-2.0 * std::log(1.0 - u1)) * std::cos(two_pi * u2);
          drawn[node] = clamp_probability(drawn[node] * std::exp(sigma * z));
          break;
        }
        case parameter_distribution::kind::uniform:
          drawn[node] = stream.uniform(dist.lo, dist.hi);
          break;
      }
    }
    const std::vector<double> values =
        compiled_->probabilities(roots_, expanded_probs(drawn));
    std::copy(values.begin(), values.begin() + num_seq,
              seq_samples.begin() + k * num_seq);
    std::copy(values.begin() + num_seq, values.end(),
              es_samples.begin() + k * num_es);
  });

  const auto band = [samples](std::vector<double> column) {
    uncertainty_band b;
    double sum = 0.0;
    for (double v : column) sum += v;
    b.mean = sum / static_cast<double>(samples);
    std::sort(column.begin(), column.end());
    const auto at = [&](double q) {
      // floor(q * (n - 1)): the percentile convention of
      // core/risk_measures.hpp.
      return column[static_cast<std::size_t>(
          q * static_cast<double>(samples - 1))];
    };
    b.p05 = at(0.05);
    b.p50 = at(0.50);
    b.p95 = at(0.95);
    return b;
  };
  std::vector<double> column(samples);
  for (std::size_t s = 0; s < num_seq; ++s) {
    for (std::size_t k = 0; k < samples; ++k) {
      column[k] = seq_samples[k * num_seq + s];
    }
    out.sequences[s].uq = band(column);
  }
  for (std::size_t e = 0; e < num_es; ++e) {
    for (std::size_t k = 0; k < samples; ++k) {
      column[k] = es_samples[k * num_es + e];
    }
    out.end_states[e].uq = band(column);
  }
  out.stats.uq_seconds = timer.seconds();
  out.stats.uq_samples = samples;
  out.stats.uq_parameters = dists_.size();
}

std::vector<scenario_point_result> scenario_engine::evaluate_points(
    const sweep_description& points) {
  obs::span_scope span("scenario.points", "scenario");
  const sweep_spec spec = resolve_sweep(points, model_.tree);
  const std::vector<double> base = original_probs();
  std::vector<scenario_point_result> out(spec.points.size());
  for_each_index(spec.points.size(), [&](std::size_t i) {
    const sweep_point& point = spec.points[i];
    std::vector<double> drawn = base;
    for (const auto& [node, p] : point.overrides) drawn[node] = p;
    // Overrides address the ORIGINAL tree: a perturbed CCF member flows
    // through the expansion trace, rescaling every derived CCF event.
    const std::vector<double> values =
        compiled_->probabilities(roots_, expanded_probs(drawn));
    const auto es_begin = values.begin() + et_->num_sequences();
    scenario_point_result& r = out[i];
    r.label = point.label;
    r.sequence_probabilities.assign(values.begin(), es_begin);
    r.end_state_probabilities.assign(es_begin, values.end());
  });
  return out;
}

scenario_result run_scenario(scenario_model model,
                             const scenario_options& options) {
  scenario_engine engine(std::move(model), options);
  return engine.run();
}

}  // namespace sdft
