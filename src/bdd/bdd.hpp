#pragma once

#include <cstdint>
#include <unordered_map>
#include <utility>
#include <vector>

namespace sdft {

/// Reference to a BDD node within a bdd_manager.
using bdd_ref = std::uint32_t;

/// A reduced ordered binary decision diagram manager.
///
/// Implements the classic unique-table + operation-cache design (Bryant).
/// Variables are dense integers ordered by their numeric value. The manager
/// also implements Rauzy's minimal-solutions operator for coherent
/// functions, which is what turns a fault-tree BDD into its minimal
/// cutsets; this is the engine commercial tools like RiskSpectrum pair with
/// MOCUS and serves here as an independent oracle for the MOCUS module.
///
/// Nodes are never garbage collected: managers are built per analysis and
/// dropped wholesale, which matches every use in this code base.
class bdd_manager {
 public:
  bdd_manager();

  bdd_ref zero() const { return 0; }
  bdd_ref one() const { return 1; }

  /// The projection function of variable `var`.
  bdd_ref var(std::uint32_t var);

  bdd_ref bdd_and(bdd_ref f, bdd_ref g);
  bdd_ref bdd_or(bdd_ref f, bdd_ref g);
  bdd_ref bdd_not(bdd_ref f);

  /// f with variable `var` fixed to `value`.
  bdd_ref restrict_var(bdd_ref f, std::uint32_t var, bool value);

  /// Probability that each of `roots` evaluates to true when variable v is
  /// independently true with probability probs[v]. Exact (Shannon
  /// decomposition) in one flat pass: the nodes reachable from the roots
  /// are marked, then valued in ascending ref order — children always
  /// precede their parents, because make() and compact() append a node
  /// only after its children exist. Each node is valued once, however many
  /// roots share it. Const: uses only call-local buffers, so concurrent
  /// evaluations of an already compiled diagram are safe.
  std::vector<double> probabilities(const std::vector<bdd_ref>& roots,
                                    const std::vector<double>& probs) const;

  /// One-root form of probabilities().
  double probability(bdd_ref f, const std::vector<double>& probs) const;

  /// The children of a non-terminal node: (low, high). Both refs are
  /// smaller than f.
  std::pair<bdd_ref, bdd_ref> children(bdd_ref f) const {
    return {nodes_[f].low, nodes_[f].high};
  }

  /// Rauzy's minimal-solutions operator for a coherent f: the result
  /// encodes exactly the minimal satisfying products of f.
  bdd_ref minimal_solutions(bdd_ref f);

  /// Enumerates the products of a minimal-solutions BDD: each inner vector
  /// is the set of variables taken positively on a 1-path with a "high"
  /// edge, in variable order. For minimal_solutions(f) of coherent f these
  /// are exactly the minimal cutsets.
  std::vector<std::vector<std::uint32_t>> enumerate_products(bdd_ref f) const;

  /// Returns f with the roles of the adjacent variables v and v+1
  /// exchanged: the result, read with the two variables' external meanings
  /// swapped, denotes the same function. This is the elementary step of
  /// sifting-based reordering. Purely functional — new nodes are created
  /// through the unique table, old ones become garbage until compact();
  /// existing refs and operation caches stay structurally valid.
  bdd_ref swap_adjacent(bdd_ref f, std::uint32_t v);

  /// Number of nodes reachable from f, terminals included — the size
  /// objective of sifting (size() also counts reordering garbage).
  std::size_t live_nodes(bdd_ref f) const;

  /// Rebuilds the manager retaining only the nodes reachable from `root`
  /// and returns the new root. Every other ref and all operation caches
  /// are invalidated; used to reclaim reordering garbage.
  bdd_ref compact(bdd_ref root);

  /// Number of allocated nodes (including both terminals and any
  /// reordering garbage; see live_nodes()).
  std::size_t size() const { return nodes_.size(); }

 private:
  struct node {
    std::uint32_t var;
    bdd_ref low;
    bdd_ref high;
  };

  struct unique_key {
    std::uint32_t var;
    bdd_ref low;
    bdd_ref high;
    bool operator==(const unique_key&) const = default;
  };
  struct unique_key_hash {
    std::size_t operator()(const unique_key& k) const;
  };

  bdd_ref make(std::uint32_t var, bdd_ref low, bdd_ref high);
  bdd_ref apply(int op, bdd_ref f, bdd_ref g);
  bdd_ref without(bdd_ref f, bdd_ref g);

  std::uint32_t var_of(bdd_ref f) const { return nodes_[f].var; }
  bool is_terminal(bdd_ref f) const { return f <= 1; }

  static constexpr std::uint32_t terminal_var = 0xffffffffU;

  std::vector<node> nodes_;
  std::unordered_map<unique_key, bdd_ref, unique_key_hash> unique_;
  std::unordered_map<std::uint64_t, bdd_ref> op_cache_;
  std::unordered_map<std::uint64_t, bdd_ref> without_cache_;
  std::unordered_map<bdd_ref, bdd_ref> minsol_cache_;
};

}  // namespace sdft
