#pragma once

// Seeded random event trees over small fault trees, shared by the exact
// state-enumeration oracle (etree_test) and the MCS-column differential
// oracle (scenario_test): at most 12 basic events (IE included),
// functional gates drawn from AND/OR/atleast over shared subtrees, and
// failure/success/bypass branches.

#include <algorithm>
#include <cstdint>
#include <string>
#include <vector>

#include "etree/event_tree.hpp"
#include "ft/fault_tree.hpp"
#include "util/rng.hpp"

namespace sdft::testing {

struct random_event_tree {
  fault_tree ft;
  node_index ie = fault_tree::npos;
  std::vector<node_index> functional;  ///< backing gates, in demand order
  struct sequence {
    std::vector<branch_outcome> outcomes;
    std::string end_state;
  };
  std::vector<sequence> sequences;  ///< distinct outcome vectors
};

inline random_event_tree make_random_event_tree(std::uint64_t seed) {
  rng random(seed);
  random_event_tree out;
  fault_tree& ft = out.ft;
  out.ie = ft.add_basic_event("IE", random.uniform(0.2, 0.9));
  std::vector<node_index> pool;
  const auto num_events = random.between(4, 11);
  for (std::int64_t i = 0; i < num_events; ++i) {
    pool.push_back(ft.add_basic_event("e" + std::to_string(i),
                                      random.uniform(0.05, 0.6)));
  }
  std::vector<node_index> gates;
  for (int g = 0; g < 8; ++g) {
    std::vector<node_index> inputs;
    for (std::int64_t i = 0, n = random.between(2, 4); i < n; ++i) {
      inputs.push_back(pool[random.below(pool.size())]);
    }
    std::sort(inputs.begin(), inputs.end());
    inputs.erase(std::unique(inputs.begin(), inputs.end()), inputs.end());
    const std::string name = "g" + std::to_string(g);
    switch (random.between(0, 2)) {
      case 0:
        gates.push_back(ft.add_gate(name, gate_type::and_gate, inputs));
        break;
      case 1:
        gates.push_back(ft.add_gate(name, gate_type::or_gate, inputs));
        break;
      default: {
        const auto k = static_cast<std::uint32_t>(random.between(
            1, static_cast<std::int64_t>(inputs.size())));
        gates.push_back(ft.add_atleast_gate(name, k, inputs));
      }
    }
    pool.push_back(gates.back());  // later gates share earlier subtrees
  }
  ft.set_top(ft.add_gate("ANY", gate_type::or_gate, gates));

  out.functional = gates;
  std::vector<node_index>& functional = out.functional;
  for (std::size_t i = functional.size(); i > 1; --i) {
    std::swap(functional[i - 1], functional[random.below(i)]);
  }
  functional.resize(static_cast<std::size_t>(random.between(2, 4)));
  const char* end_states[] = {"OK", "CD", "LOCA"};
  for (std::int64_t s = 0, n = random.between(3, 8); s < n; ++s) {
    std::vector<branch_outcome> outcomes;
    for (std::size_t i = 0; i < functional.size(); ++i) {
      outcomes.push_back(static_cast<branch_outcome>(random.between(0, 2)));
    }
    if (std::any_of(out.sequences.begin(), out.sequences.end(),
                    [&](const auto& q) { return q.outcomes == outcomes; })) {
      continue;
    }
    out.sequences.push_back({outcomes, end_states[random.below(3)]});
  }
  return out;
}

}  // namespace sdft::testing
