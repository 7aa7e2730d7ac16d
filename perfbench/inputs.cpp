#include "inputs.hpp"

#include <algorithm>
#include <cctype>
#include <cmath>
#include <numbers>
#include <unordered_set>

#include "bench_common.hpp"
#include "mcs/importance.hpp"
#include "mcs/mocus.hpp"
#include "sim/stream_rng.hpp"
#include "util/json_writer.hpp"

namespace perfbench {

using namespace sdft;

namespace {

std::uint64_t fnv1a(const std::string& s) {
  std::uint64_t h = 1469598103934665603ULL;
  for (const unsigned char c : s) {
    h ^= c;
    h *= 1099511628211ULL;
  }
  return h;
}

/// The event's redundancy slot: its name with the train part ("_T<k>")
/// removed, so SYS3_T0_C2_FIO and SYS3_T1_C2_FIO share one key.
std::string slot_key(const std::string& name) {
  std::string out;
  for (std::size_t i = 0; i < name.size();) {
    if (name.compare(i, 2, "_T") == 0 && i + 2 < name.size() &&
        std::isdigit(static_cast<unsigned char>(name[i + 2])) != 0) {
      i += 2;
      while (i < name.size() &&
             std::isdigit(static_cast<unsigned char>(name[i])) != 0) {
        ++i;
      }
      continue;
    }
    out += name[i++];
  }
  return out;
}

double standard_normal(rng& r) {
  const double u1 = r.uniform();
  const double u2 = r.uniform();
  return std::sqrt(-2.0 * std::log(1.0 - u1)) *
         std::cos(2.0 * std::numbers::pi * u2);
}

analysis_input annotated(const industrial_options& gen, std::uint64_t seed,
                         const annotation_options& an) {
  const industrial_model model = jittered_model(gen, seed);
  analysis_input in;
  in.ranked = rank_by_engine(model.ft, bench::paper_cutoff);
  in.tree = annotate_dynamic(model, in.ranked, an);
  in.options.threads = 4;
  in.options.publish_metrics = false;
  return in;
}

std::string describe(const analysis_input& in) {
  const fault_tree& ft = in.tree.structure();
  return std::to_string(ft.num_basic_events()) + " BE / " +
         std::to_string(ft.num_gates()) + " gates, " +
         std::to_string(in.tree.dynamic_events().size()) + " dynamic";
}

}  // namespace

industrial_model jittered_model(const industrial_options& options,
                                std::uint64_t seed) {
  industrial_model model = generate_industrial(options);
  fault_tree& ft = model.ft;
  for (node_index n = 0; n < ft.size(); ++n) {
    if (!ft.is_basic(n)) continue;
    rng r = sim::substream(seed, fnv1a(slot_key(ft.node(n).name)));
    const double factor = std::exp(jitter_sigma * standard_normal(r));
    const auto rate = model.fio_rate.find(n);
    if (rate != model.fio_rate.end()) {
      rate->second *= factor;
      ft.set_probability(n, 1.0 - std::exp(-rate->second * options.horizon));
    } else {
      ft.set_probability(n, std::min(1.0, ft.node(n).probability * factor));
    }
  }
  return model;
}

std::vector<node_index> rank_by_engine(const fault_tree& ft, double cutoff) {
  analysis_options opts;
  opts.cutoff = cutoff;
  opts.threads = 4;
  opts.publish_metrics = false;
  const analysis_result result = analyze(sd_fault_tree(ft), opts);
  std::vector<cutset> cutsets;
  cutsets.reserve(result.cutsets.size());
  for (const cutset_result& c : result.cutsets) cutsets.push_back(c.events);
  return rank_by_fussell_vesely(ft, cutsets);
}

std::vector<node_index> rank_by_raw_mocus(const fault_tree& ft,
                                          double cutoff) {
  mocus_options opts;
  opts.cutoff = cutoff;
  return rank_by_fussell_vesely(ft, mocus(ft, opts).cutsets);
}

analysis_input make_plant(std::uint64_t seed, scale size) {
  analysis_input in =
      annotated(bench::model1_options(size == scale::bench), seed, {});
  in.options.horizon = 24.0;
  in.options.cutoff = bench::paper_cutoff;
  in.description = "Model 1 " + describe(in) + ", 24 h, cutoff 1e-15";
  return in;
}

analysis_input make_dynamic(std::uint64_t seed, scale size) {
  industrial_options gen = bench::model2_options(false);
  if (size == scale::tiny) {
    gen.num_frontline_systems = 6;
    gen.num_initiating_events = 5;
    gen.sequences_per_ie = 4;
  }
  annotation_options an;
  an.dynamic_fraction = 0.6;
  an.trigger_fraction = 0.3;
  analysis_input in = annotated(gen, seed, an);
  in.options.horizon = 96.0;
  in.options.cutoff = bench::paper_cutoff;
  in.description = "Model 2 " + describe(in) + ", 96 h, cutoff 1e-15";
  return in;
}

analysis_input make_whatif(std::uint64_t seed, scale size) {
  annotation_options an;
  an.repair_rate = 0.01;
  analysis_input in =
      annotated(bench::model1_options(size == scale::bench), seed, an);
  in.options.horizon = 24.0;
  in.options.cutoff = 1e-12;
  in.description = "Model 1 with repairs " + describe(in) + ", cutoff 1e-12";
  return in;
}

etree_input make_etree(std::uint64_t seed, scale size) {
  const int systems = size == scale::bench ? 6 : 4;
  const industrial_model model =
      jittered_model(bench::model1_options(false), seed);
  const fault_tree& ft = model.ft;

  scenario_description sc;
  sc.name = "PLANT";
  sc.initiating_event = "IE0";
  for (int k = 0; k < systems; ++k) {
    sc.functional.push_back(
        {"F" + std::to_string(k), "SYS" + std::to_string(k) + "_F"});
  }
  // Every F/S combination is a sequence; core damage when two or more
  // front-line systems fail.
  for (std::size_t mask = 0; mask < (std::size_t{1} << systems); ++mask) {
    scenario_description::sequence s;
    int failures = 0;
    for (int k = 0; k < systems; ++k) {
      const bool failed = ((mask >> k) & 1u) != 0;
      failures += failed ? 1 : 0;
      s.outcomes.push_back(failed ? branch_outcome::failure
                                  : branch_outcome::success);
    }
    s.end_state = failures >= 2 ? "CD" : "OK";
    sc.sequences.push_back(std::move(s));
  }

  // A few lognormal parameters: failure-to-start events of the first
  // train of seeded systems, with seeded error factors.
  rng r = sim::substream(seed, fnv1a("etree.distributions"));
  const double error_factors[] = {3.0, 5.0, 10.0};
  std::unordered_set<std::string> chosen;
  while (chosen.size() < 4) {
    const auto sys = r.below(static_cast<std::uint64_t>(systems));
    const auto comp = r.below(3);
    const std::string event = "SYS" + std::to_string(sys) + "_T0_C" +
                              std::to_string(comp) + "_FTS";
    if (ft.find(event) == fault_tree::npos || !chosen.insert(event).second) {
      continue;
    }
    parameter_distribution d;
    d.event = event;
    d.model = parameter_distribution::kind::lognormal;
    d.error_factor = error_factors[r.below(3)];
    sc.distributions.push_back(d);
  }

  etree_input in;
  in.model = {sd_fault_tree(ft), std::move(sc)};
  in.options.threads = 4;
  in.options.cutoff = bench::paper_cutoff;
  in.options.publish_metrics = false;
  in.uq_samples = size == scale::bench ? 32 : 8;
  in.description = "bench-size Model 1 (" +
                   std::to_string(ft.num_basic_events()) + " BE / " +
                   std::to_string(ft.num_gates()) + " gates), IE0 + " +
                   std::to_string(systems) + " systems, " +
                   std::to_string(std::size_t{1} << systems) +
                   " sequences, 4 lognormal parameters, " +
                   std::to_string(in.uq_samples) + " UQ samples";
  return in;
}

std::vector<whatif_request> make_whatif_stream(const analysis_input& in,
                                               std::uint64_t seed,
                                               std::size_t count) {
  const fault_tree& ft = in.tree.structure();
  // Static events under the top that a ×10 raise lifts strictly
  // (p < 0.1), by importance: raising any of them leaves the cached
  // generation envelope. Hits and sweeps perturb the most important ones,
  // so every answer moves; escapes walk the whole list, one new event
  // each.
  std::vector<bool> reachable(ft.size(), false);
  std::vector<node_index> todo{ft.top()};
  reachable[ft.top()] = true;
  while (!todo.empty()) {
    const node_index n = todo.back();
    todo.pop_back();
    for (const node_index c : ft.node(n).inputs) {
      if (!reachable[c]) {
        reachable[c] = true;
        todo.push_back(c);
      }
    }
  }
  std::vector<node_index> statics;
  for (node_index e : in.ranked) {
    if (reachable[e] && in.tree.is_static(e) &&
        ft.node(e).probability < 0.1) {
      statics.push_back(e);
    }
  }
  const std::size_t hot = std::min<std::size_t>(64, statics.size());
  std::vector<whatif_request> out;
  out.reserve(count);
  std::size_t escapes = 0;
  for (std::size_t i = 0; i < count; ++i) {
    rng r = sim::substream(seed, fnv1a("whatif.stream"), i);
    const double u = r.uniform();
    whatif_request q;
    const std::string id = std::to_string(i);
    if (u < 0.8) {
      const node_index e = statics[r.below(hot)];
      q.type = whatif_request::kind::hit;
      q.event = ft.node(e).name;
      q.value = ft.node(e).probability * r.uniform(0.1, 0.9);
    } else if (u < 0.9) {
      const node_index e = statics[escapes++ % statics.size()];
      q.type = whatif_request::kind::escape;
      q.event = ft.node(e).name;
      q.value = std::min(1.0, ft.node(e).probability * 10.0);
    } else {
      const node_index e = statics[r.below(hot)];
      q.type = whatif_request::kind::sweep;
      q.event = ft.node(e).name;
      q.value = ft.node(e).probability * 0.9;
    }
    if (q.type == whatif_request::kind::sweep) {
      q.line = R"({"op":"sweep","model":"plant","id":)" + id +
               R"(,"params":[{"name":")" + q.event +
               R"(","lo":)" + json::number(q.value / 100.0) +
               R"(,"hi":)" + json::number(q.value) +
               R"(,"n":8,"scale":"log"}]})";
    } else {
      q.line = R"({"op":"analyze","model":"plant","id":)" + id +
               R"(,"overrides":{")" + q.event +
               R"(":)" + json::number(q.value) + "}}";
    }
    out.push_back(std::move(q));
  }
  return out;
}

}  // namespace perfbench
