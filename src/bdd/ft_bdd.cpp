#include "bdd/ft_bdd.hpp"

#include <algorithm>
#include <functional>

#include "ft/modules.hpp"
#include "util/error.hpp"

namespace sdft {

namespace {
/// Sifting is quadratic in the variable count with a BDD transform per
/// swap; above this many variables the expected ordering gain no longer
/// pays for it, so sift mode falls back to its DFS starting order.
constexpr std::uint32_t sift_variable_limit = 128;
}  // namespace

ft_bdd::ft_bdd(const fault_tree& ft, const std::vector<node_index>& roots,
               const std::unordered_set<node_index>& variable_gates)
    : ft_(ft) {
  const auto is_variable = [&](node_index n) {
    return ft_.is_basic(n) ||
           (variable_gates.count(n) > 0 &&
            std::find(roots.begin(), roots.end(), n) == roots.end());
  };
  // DFS first-visit discovery order over the roots: the default ordering
  // and the starting point (or tie-break) of the others. A gate is walked
  // once — re-walking a shared gate discovers nothing new, and on a
  // ladder-shaped DAG every level would double the walk.
  std::unordered_set<node_index> walked;
  const std::function<void(node_index)> discover = [&](node_index n) {
    if (is_variable(n)) {
      if (event_to_var_.emplace(n, var_to_event_.size()).second) {
        var_to_event_.push_back(n);
      }
      return;
    }
    if (!walked.insert(n).second) return;
    for (node_index child : ft_.node(n).inputs) discover(child);
  };
  for (node_index root : roots) {
    require_model(root < ft_.size(), "ft_bdd: no root node");
    discover(root);
  }
}

ft_bdd::ft_bdd(const fault_tree& ft, node_index root, bdd_ordering ordering)
    : ft_bdd(ft, std::vector<node_index>{root == fault_tree::npos ? ft.top()
                                                                 : root}) {
  if (root == fault_tree::npos) root = ft.top();
  ordering_ = ordering;
  switch (ordering) {
    case bdd_ordering::dfs:
    case bdd_ordering::sift:  // sifting refines the DFS order post-compile
      break;
    case bdd_ordering::natural:
      std::sort(var_to_event_.begin(), var_to_event_.end());
      break;
    case bdd_ordering::weight: {
      // Top-down weight propagation: the root carries 1, every gate splits
      // its accumulated weight evenly among its inputs, events sum over all
      // paths. Reverse topological order finalises each node's weight
      // before it is spread (the DAG may share gates).
      std::vector<double> weight(ft_.size(), 0.0);
      weight[root] = 1.0;
      const std::vector<node_index> topo = ft_.topo_order();
      for (auto it = topo.rbegin(); it != topo.rend(); ++it) {
        const node_index n = *it;
        if (!ft_.is_gate(n) || weight[n] == 0.0) continue;
        const auto& inputs = ft_.node(n).inputs;
        if (inputs.empty()) continue;
        const double share = weight[n] / static_cast<double>(inputs.size());
        for (node_index child : inputs) weight[child] += share;
      }
      // Descending weight; stable sort keeps the DFS rank as tie-break.
      std::stable_sort(
          var_to_event_.begin(), var_to_event_.end(),
          [&](node_index a, node_index b) { return weight[a] > weight[b]; });
      break;
    }
  }
  for (std::uint32_t v = 0; v < var_to_event_.size(); ++v) {
    event_to_var_[var_to_event_[v]] = v;
  }

  root_ref_ = compile(root);
  if (ordering == bdd_ordering::sift) {
    sift();
    memo_.clear();  // compaction invalidated every memoised ref
  }
}

bdd_ref ft_bdd::compile(node_index n) {
  auto it = memo_.find(n);
  if (it != memo_.end()) return it->second;
  bdd_ref ref;
  if (auto var = event_to_var_.find(n); var != event_to_var_.end()) {
    ref = manager_.var(var->second);
  } else {
    require_model(n < ft_.size() && ft_.is_gate(n),
                  "ft_bdd: node is not below any root");
    ++gates_compiled_;
    const auto& gate = ft_.node(n);
    if (gate.type == gate_type::atleast_gate) {
      // Threshold DP over the inputs: at_least[j] after i children is
      // "at least j of the first i are failed". Polynomial in k * N,
      // no C(N, k) expansion.
      std::vector<bdd_ref> at_least(gate.k + 1, manager_.zero());
      at_least[0] = manager_.one();
      for (node_index child : gate.inputs) {
        const bdd_ref c = compile(child);
        for (std::uint32_t j = gate.k; j >= 1; --j) {
          at_least[j] = manager_.bdd_or(at_least[j],
                                        manager_.bdd_and(c, at_least[j - 1]));
        }
      }
      ref = at_least[gate.k];
    } else {
      const bool is_and = gate.type == gate_type::and_gate;
      ref = is_and ? manager_.one() : manager_.zero();
      for (node_index child : gate.inputs) {
        const bdd_ref c = compile(child);
        ref = is_and ? manager_.bdd_and(ref, c) : manager_.bdd_or(ref, c);
      }
    }
  }
  memo_.emplace(n, ref);
  return ref;
}

void ft_bdd::swap_positions(std::uint32_t p) {
  root_ref_ = manager_.swap_adjacent(root_ref_, p);
  std::swap(var_to_event_[p], var_to_event_[p + 1]);
  event_to_var_[var_to_event_[p]] = p;
  event_to_var_[var_to_event_[p + 1]] = p + 1;
  ++sift_swaps_;
}

void ft_bdd::sift() {
  const auto n = static_cast<std::uint32_t>(var_to_event_.size());
  if (n < 3 || n > sift_variable_limit) return;
  // One pass of Rudell sifting. Variables are processed by identity in
  // their initial (DFS) order — a deterministic schedule, so the final
  // order is a pure function of the input tree.
  const std::vector<node_index> schedule = var_to_event_;
  for (const node_index ev : schedule) {
    std::uint32_t cur = event_to_var_.at(ev);
    const std::size_t start_size = manager_.live_nodes(root_ref_);
    std::size_t best_size = start_size;
    std::uint32_t best_pos = cur;
    // Down sweep to the bottom, then up sweep to the top, recording the
    // smallest BDD seen. Abort a sweep once the BDD doubles.
    while (cur + 1 < n) {
      swap_positions(cur);
      ++cur;
      const std::size_t size = manager_.live_nodes(root_ref_);
      if (size < best_size) {
        best_size = size;
        best_pos = cur;
      }
      if (size > 2 * start_size) break;
    }
    while (cur > 0) {
      swap_positions(cur - 1);
      --cur;
      const std::size_t size = manager_.live_nodes(root_ref_);
      if (size < best_size) {
        best_size = size;
        best_pos = cur;
      }
      if (size > 2 * start_size) break;
    }
    // Settle at the best position seen and reclaim the swap garbage.
    while (cur < best_pos) swap_positions(cur++);
    while (cur > best_pos) swap_positions(--cur);
    root_ref_ = manager_.compact(root_ref_);
  }
}

double ft_bdd::probability() const {
  return probability({});
}

double ft_bdd::probability(
    const std::unordered_map<node_index, double>& overrides) const {
  std::vector<double> probs(var_to_event_.size(), 0.0);
  for (std::uint32_t v = 0; v < var_to_event_.size(); ++v) {
    const node_index b = var_to_event_[v];
    auto it = overrides.find(b);
    probs[v] = it != overrides.end() ? it->second : ft_.node(b).probability;
  }
  return manager_.probability(root_ref_, probs);
}

std::vector<double> ft_bdd::probabilities(
    const std::vector<bdd_ref>& roots,
    const std::vector<double>& node_probs) const {
  std::vector<double> probs(var_to_event_.size());
  for (std::uint32_t v = 0; v < var_to_event_.size(); ++v) {
    const node_index n = var_to_event_[v];
    require_model(n < node_probs.size(),
                  "ft_bdd: probability vector does not cover the variables");
    probs[v] = node_probs[n];
  }
  return manager_.probabilities(roots, probs);
}

double ft_bdd::probability(bdd_ref f,
                           const std::vector<double>& node_probs) const {
  return probabilities({f}, node_probs).front();
}

std::vector<cutset> ft_bdd::minimal_cutsets() const {
  const bdd_ref minsol = manager_.minimal_solutions(root_ref_);
  std::vector<cutset> out;
  for (const auto& product : manager_.enumerate_products(minsol)) {
    cutset c;
    c.reserve(product.size());
    for (std::uint32_t v : product) c.push_back(var_to_event_[v]);
    std::sort(c.begin(), c.end());
    out.push_back(std::move(c));
  }
  std::sort(out.begin(), out.end(), [](const cutset& a, const cutset& b) {
    return a.size() != b.size() ? a.size() < b.size() : a < b;
  });
  return out;
}

double modular_probability(const fault_tree& ft) {
  const auto module_roots = find_modules(ft);
  const std::unordered_set<node_index> modules(module_roots.begin(),
                                               module_roots.end());
  std::vector<double> node_probs(ft.size());
  for (node_index n = 0; n < ft.size(); ++n) {
    node_probs[n] = ft.node(n).probability;
  }
  // Topological order solves nested modules first; each module's own
  // compilation keeps its variable space module-sized.
  for (node_index n : ft.topo_order()) {
    if (!modules.count(n)) continue;
    ft_bdd compiled(ft, std::vector<node_index>{n}, modules);
    node_probs[n] = compiled.probability(compiled.compile(n), node_probs);
  }
  return node_probs[ft.top()];
}

}  // namespace sdft
