#pragma once

// The scenario engine's MCS column as the plain cartesian recombination
// it started as: per-gate lists through a fresh analysis_engine, then
// {IE} x every failed branch's list with the cutoff applied to each union
// after it is built, then minimized. Kept as the differential reference
// for the bound-pruned, prefix-shared recombination in
// engine/scenario.cpp, the way minimize_cutsets_reference is kept for the
// packed-bitset kernel.

#include <algorithm>
#include <string>
#include <unordered_map>
#include <vector>

#include "engine/engine.hpp"
#include "engine/scenario.hpp"
#include "mcs/cutset.hpp"
#include "util/error.hpp"

namespace sdft::testing {

struct cutset_column {
  std::vector<std::vector<cutset>> sequences;   ///< minimal, per sequence
  std::vector<std::vector<cutset>> end_states;  ///< end_state_names() order
};

inline cutset_column cutset_column_reference(const scenario_engine& engine) {
  constexpr std::size_t max_recombined_cutsets = std::size_t{1} << 20;
  const fault_tree& tree = engine.expanded_tree();
  const event_tree& et = engine.compiled_event_tree();
  const std::size_t num_seq = et.num_sequences();

  analysis_options gate_options = engine.options().analysis;
  gate_options.keep_cutset_details = true;
  gate_options.exact_static = false;
  gate_options.publish_metrics = false;
  analysis_engine gate_engine(gate_options);
  std::unordered_map<node_index, std::vector<cutset>> gate_cutsets;
  for (std::size_t i = 0; i < et.num_functional_events(); ++i) {
    const node_index gate = et.functional_gate(i);
    if (gate_cutsets.find(gate) != gate_cutsets.end()) continue;
    bool demanded = false;
    for (std::size_t s = 0; s < num_seq && !demanded; ++s) {
      demanded = et.sequence_outcomes(s)[i] == branch_outcome::failure;
    }
    if (!demanded) continue;
    fault_tree sub = tree;
    sub.set_top(gate);
    const sd_fault_tree sub_tree(std::move(sub));
    const analysis_result r = gate_engine.run(sub_tree, gate_options);
    std::vector<cutset> list;
    list.reserve(r.cutsets.size());
    for (const auto& c : r.cutsets) list.push_back(c.events);
    gate_cutsets.emplace(gate, std::move(list));
  }

  const double cutoff = engine.options().analysis.cutoff;
  cutset_column out;
  out.sequences.resize(num_seq);
  for (std::size_t s = 0; s < num_seq; ++s) {
    std::vector<cutset> combos{{et.initiating_event()}};
    const auto& outcomes = et.sequence_outcomes(s);
    for (std::size_t i = 0; i < outcomes.size(); ++i) {
      if (outcomes[i] != branch_outcome::failure) continue;
      const auto& gate_list = gate_cutsets.at(et.functional_gate(i));
      std::vector<cutset> next;
      next.reserve(combos.size());
      for (const auto& base : combos) {
        for (const auto& add : gate_list) {
          cutset merged = base;
          merged.insert(merged.end(), add.begin(), add.end());
          std::sort(merged.begin(), merged.end());
          merged.erase(std::unique(merged.begin(), merged.end()),
                       merged.end());
          if (cutoff > 0.0 && cutset_probability(tree, merged) < cutoff) {
            continue;
          }
          next.push_back(std::move(merged));
        }
        require_model(next.size() <= max_recombined_cutsets,
                      "scenario: sequence " + std::to_string(s) +
                          " recombines to more than " +
                          std::to_string(max_recombined_cutsets) +
                          " cutsets; set a relevance cutoff");
      }
      combos = std::move(next);
    }
    out.sequences[s] = minimize_cutsets(std::move(combos));
  }

  for (const std::string& es : engine.end_state_names()) {
    std::vector<cutset> merged;
    for (std::size_t s = 0; s < num_seq; ++s) {
      if (et.end_state(s) != es) continue;
      merged.insert(merged.end(), out.sequences[s].begin(),
                    out.sequences[s].end());
    }
    out.end_states.push_back(minimize_cutsets(std::move(merged)));
  }
  return out;
}

}  // namespace sdft::testing
