#pragma once

#include <cstdint>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "bdd/bdd.hpp"
#include "bdd/ordering.hpp"
#include "ft/fault_tree.hpp"
#include "mcs/cutset.hpp"

namespace sdft {

/// A fault tree compiled to a BDD — the one fault-tree→BDD compiler of the
/// code base (the event-tree scenario engine and modular_probability are
/// its callers).
///
/// Variables are assigned to basic events according to the selected
/// bdd_ordering (DFS discovery order by default). Owns its bdd_manager.
/// Gates are compiled lazily and memoised, so nodes shared between roots
/// or gates are compiled once.
class ft_bdd {
 public:
  /// Compiles the structure under `root`; root defaults to the top gate.
  explicit ft_bdd(const fault_tree& ft, node_index root = fault_tree::npos,
                  bdd_ordering ordering = bdd_ordering::dfs);

  /// Multi-root form: assigns variables in DFS first-visit order over
  /// `roots` in the order given and compiles nothing yet — compile() does,
  /// on demand. Gates in `variable_gates` found below a root are not
  /// expanded but become variables of their own (a root itself is always
  /// expanded); their probabilities come from the node_probs overload of
  /// probability().
  ft_bdd(const fault_tree& ft, const std::vector<node_index>& roots,
         const std::unordered_set<node_index>& variable_gates = {});

  /// BDD of node `n` (a root or any node below one), compiled on first
  /// request and memoised. Mutates the manager: not thread-safe.
  bdd_ref compile(node_index n);

  /// The manager holding every compiled BDD, for callers composing
  /// compiled nodes further (the event-tree layer's sequence products).
  bdd_manager& manager() { return manager_; }

  /// Exact probability that the root of the single-root form fails, from
  /// the basic events' probabilities (no rare-event approximation).
  double probability() const;

  /// Exact root probability (single-root form) with overridden per-event
  /// probabilities (indexed by node_index; events absent use their tree
  /// probability).
  double probability(
      const std::unordered_map<node_index, double>& overrides) const;

  /// Exact probabilities of `roots` with per-node probabilities indexed by
  /// node_index (only the variables' entries are read; the vector must
  /// cover each of them), in one pass of bdd_manager::probabilities().
  /// Const: safe to call concurrently once compilation is done.
  std::vector<double> probabilities(
      const std::vector<bdd_ref>& roots,
      const std::vector<double>& node_probs) const;

  /// One-root form of probabilities().
  double probability(bdd_ref f, const std::vector<double>& node_probs) const;

  /// All minimal cutsets of the single-root form's root, as basic-event
  /// indices. The list is canonical (each cutset sorted, ordered by (size,
  /// content)) and thus identical for every variable ordering.
  std::vector<cutset> minimal_cutsets() const;

  /// Number of BDD nodes held by the manager. After sifting this is the
  /// compacted (live) count.
  std::size_t node_count() const { return manager_.size(); }

  std::size_t num_variables() const { return var_to_event_.size(); }

  /// Gates compiled so far (each at most once; variable gates excluded).
  std::size_t gates_compiled() const { return gates_compiled_; }

  bdd_ordering ordering() const { return ordering_; }

  /// Adjacent-variable swaps performed by sifting (0 unless
  /// bdd_ordering::sift ran).
  std::size_t sift_swaps() const { return sift_swaps_; }

 private:
  /// Rudell sifting on the compiled BDD: move every variable to its
  /// locally best position, compacting the manager between variables.
  void sift();

  /// Swaps variable positions p and p+1 (BDD transform + event maps).
  void swap_positions(std::uint32_t p);

  const fault_tree& ft_;
  mutable bdd_manager manager_;
  bdd_ref root_ref_ = 0;
  bdd_ordering ordering_ = bdd_ordering::dfs;
  std::size_t sift_swaps_ = 0;
  std::size_t gates_compiled_ = 0;
  std::vector<node_index> var_to_event_;            // BDD var -> node_index
  std::unordered_map<node_index, std::uint32_t> event_to_var_;
  std::unordered_map<node_index, bdd_ref> memo_;
};

/// Exact top-gate failure probability by modular decomposition: each
/// module (ft/modules.hpp find_modules) is compiled through its own ft_bdd
/// with nested modules as variables carrying their already-computed
/// probability. Equal to ft_bdd(ft).probability() but with BDDs only ever
/// as large as one module.
double modular_probability(const fault_tree& ft);

}  // namespace sdft
