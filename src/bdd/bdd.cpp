#include "bdd/bdd.hpp"

#include <algorithm>
#include <functional>
#include <unordered_set>

#include "util/error.hpp"

namespace sdft {

namespace {
constexpr int op_and = 1;
constexpr int op_or = 2;
constexpr int op_not = 3;

std::uint64_t pair_key(bdd_ref a, bdd_ref b) {
  return (static_cast<std::uint64_t>(a) << 32) | b;
}
}  // namespace

std::size_t bdd_manager::unique_key_hash::operator()(
    const unique_key& k) const {
  std::size_t h = k.var;
  h = h * 0x9e3779b97f4a7c15ULL + k.low;
  h = h * 0x9e3779b97f4a7c15ULL + k.high;
  return h;
}

bdd_manager::bdd_manager() {
  nodes_.push_back({terminal_var, 0, 0});  // zero
  nodes_.push_back({terminal_var, 1, 1});  // one
}

bdd_ref bdd_manager::make(std::uint32_t var, bdd_ref low, bdd_ref high) {
  if (low == high) return low;
  const unique_key key{var, low, high};
  auto it = unique_.find(key);
  if (it != unique_.end()) return it->second;
  const auto ref = static_cast<bdd_ref>(nodes_.size());
  nodes_.push_back({var, low, high});
  unique_.emplace(key, ref);
  return ref;
}

bdd_ref bdd_manager::var(std::uint32_t v) {
  require_model(v != terminal_var, "bdd: variable id reserved for terminals");
  return make(v, zero(), one());
}

bdd_ref bdd_manager::apply(int op, bdd_ref f, bdd_ref g) {
  if (op == op_and) {
    if (f == zero() || g == zero()) return zero();
    if (f == one()) return g;
    if (g == one()) return f;
    if (f == g) return f;
  } else {
    if (f == one() || g == one()) return one();
    if (f == zero()) return g;
    if (g == zero()) return f;
    if (f == g) return f;
  }
  if (f > g) std::swap(f, g);  // both ops are commutative
  const std::uint64_t key =
      static_cast<std::uint64_t>(op) | (static_cast<std::uint64_t>(f) << 2) |
      (static_cast<std::uint64_t>(g) << 33);
  auto it = op_cache_.find(key);
  if (it != op_cache_.end()) return it->second;

  const std::uint32_t xf = var_of(f);
  const std::uint32_t xg = var_of(g);
  const std::uint32_t x = std::min(xf, xg);
  const bdd_ref f0 = xf == x ? nodes_[f].low : f;
  const bdd_ref f1 = xf == x ? nodes_[f].high : f;
  const bdd_ref g0 = xg == x ? nodes_[g].low : g;
  const bdd_ref g1 = xg == x ? nodes_[g].high : g;
  const bdd_ref result = make(x, apply(op, f0, g0), apply(op, f1, g1));
  op_cache_.emplace(key, result);
  return result;
}

bdd_ref bdd_manager::bdd_and(bdd_ref f, bdd_ref g) {
  return apply(op_and, f, g);
}

bdd_ref bdd_manager::bdd_or(bdd_ref f, bdd_ref g) { return apply(op_or, f, g); }

bdd_ref bdd_manager::bdd_not(bdd_ref f) {
  if (f == zero()) return one();
  if (f == one()) return zero();
  const std::uint64_t key = static_cast<std::uint64_t>(op_not) |
                            (static_cast<std::uint64_t>(f) << 2);
  auto it = op_cache_.find(key);
  if (it != op_cache_.end()) return it->second;
  const bdd_ref result = make(var_of(f), bdd_not(nodes_[f].low),
                              bdd_not(nodes_[f].high));
  op_cache_.emplace(key, result);
  return result;
}

bdd_ref bdd_manager::restrict_var(bdd_ref f, std::uint32_t var, bool value) {
  std::unordered_map<bdd_ref, bdd_ref> memo;
  const std::function<bdd_ref(bdd_ref)> rec = [&](bdd_ref g) -> bdd_ref {
    if (is_terminal(g) || var_of(g) > var) return g;
    auto it = memo.find(g);
    if (it != memo.end()) return it->second;
    bdd_ref result;
    if (var_of(g) == var) {
      result = value ? nodes_[g].high : nodes_[g].low;
    } else {
      result = make(var_of(g), rec(nodes_[g].low), rec(nodes_[g].high));
    }
    memo.emplace(g, result);
    return result;
  };
  return rec(f);
}

std::vector<double> bdd_manager::probabilities(
    const std::vector<bdd_ref>& roots, const std::vector<double>& probs) const {
  // Mark the nodes reachable from the roots; only refs up to the largest
  // one reached need a value slot.
  std::vector<bool> reached(nodes_.size(), false);
  std::vector<bdd_ref> stack;
  bdd_ref top = one();
  for (const bdd_ref r : roots) {
    if (reached[r]) continue;
    reached[r] = true;
    stack.push_back(r);
    while (!stack.empty()) {
      const bdd_ref g = stack.back();
      stack.pop_back();
      top = std::max(top, g);
      if (is_terminal(g)) continue;
      for (const bdd_ref child : {nodes_[g].low, nodes_[g].high}) {
        if (!reached[child]) {
          reached[child] = true;
          stack.push_back(child);
        }
      }
    }
  }
  std::vector<double> value(top + 1, 0.0);
  value[one()] = 1.0;
  for (bdd_ref g = 2; g <= top; ++g) {
    if (!reached[g]) continue;
    const std::uint32_t v = var_of(g);
    require_model(v < probs.size(), "bdd: probability vector too small");
    value[g] = probs[v] * value[nodes_[g].high] +
               (1.0 - probs[v]) * value[nodes_[g].low];
  }
  std::vector<double> out;
  out.reserve(roots.size());
  for (const bdd_ref r : roots) out.push_back(value[r]);
  return out;
}

double bdd_manager::probability(bdd_ref f,
                                const std::vector<double>& probs) const {
  return probabilities({f}, probs).front();
}

bdd_ref bdd_manager::without(bdd_ref f, bdd_ref g) {
  if (g == one() || f == zero() || f == g) return zero();
  if (g == zero() || f == one()) return f;
  const std::uint64_t key = pair_key(f, g);
  auto it = without_cache_.find(key);
  if (it != without_cache_.end()) return it->second;

  const std::uint32_t xf = var_of(f);
  const std::uint32_t xg = var_of(g);
  bdd_ref result;
  if (xf == xg) {
    // Products of f containing x survive only if unsubsumed by g's products
    // with x (compare the x-cofactors) and by g's products without x.
    const bdd_ref high =
        without(without(nodes_[f].high, nodes_[g].high), nodes_[g].low);
    const bdd_ref low = without(nodes_[f].low, nodes_[g].low);
    result = make(xf, low, high);
  } else if (xf < xg) {
    result = make(xf, without(nodes_[f].low, g), without(nodes_[f].high, g));
  } else {
    // Products of f never contain xg, so only g-products without xg
    // (the low cofactor) can subsume them.
    result = without(f, nodes_[g].low);
  }
  without_cache_.emplace(key, result);
  return result;
}

bdd_ref bdd_manager::minimal_solutions(bdd_ref f) {
  if (is_terminal(f)) return f;
  auto it = minsol_cache_.find(f);
  if (it != minsol_cache_.end()) return it->second;
  const bdd_ref m0 = minimal_solutions(nodes_[f].low);
  const bdd_ref m1 = minimal_solutions(nodes_[f].high);
  // A minimal solution taking x must not subsume one that does not need x.
  const bdd_ref result = make(var_of(f), m0, without(m1, m0));
  minsol_cache_.emplace(f, result);
  return result;
}

bdd_ref bdd_manager::swap_adjacent(bdd_ref f, std::uint32_t v) {
  const std::uint32_t upper = v;
  const std::uint32_t lower = v + 1;
  std::unordered_map<bdd_ref, bdd_ref> memo;
  // Cofactor of h with respect to `var`, valid when var_of(h) >= var.
  const auto cof = [this](bdd_ref h, std::uint32_t var, bool high) {
    if (is_terminal(h) || var_of(h) != var) return h;
    return high ? nodes_[h].high : nodes_[h].low;
  };
  const std::function<bdd_ref(bdd_ref)> rec = [&](bdd_ref g) -> bdd_ref {
    // Nodes strictly below the swapped pair keep both their label and
    // their meaning.
    if (is_terminal(g) || var_of(g) > lower) return g;
    auto it = memo.find(g);
    if (it != memo.end()) return it->second;
    bdd_ref result;
    if (var_of(g) < upper) {
      result = make(var_of(g), rec(nodes_[g].low), rec(nodes_[g].high));
    } else if (var_of(g) == lower) {
      // Reached without an `upper` node above it: the function here does
      // not depend on `upper`, so the `lower` dependence simply moves up.
      result = make(upper, nodes_[g].low, nodes_[g].high);
    } else {
      // var_of(g) == upper. With f_ab = g cofactored at (upper=a,
      // lower=b), the swapped node is h(a, b) = f_ba.
      const bdd_ref g0 = nodes_[g].low;
      const bdd_ref g1 = nodes_[g].high;
      const bdd_ref f00 = cof(g0, lower, false);
      const bdd_ref f01 = cof(g0, lower, true);
      const bdd_ref f10 = cof(g1, lower, false);
      const bdd_ref f11 = cof(g1, lower, true);
      result = make(upper, make(lower, f00, f10), make(lower, f01, f11));
    }
    memo.emplace(g, result);
    return result;
  };
  return rec(f);
}

std::size_t bdd_manager::live_nodes(bdd_ref f) const {
  std::vector<bdd_ref> stack{f};
  std::unordered_set<bdd_ref> seen{f};
  while (!stack.empty()) {
    const bdd_ref g = stack.back();
    stack.pop_back();
    if (is_terminal(g)) continue;
    for (const bdd_ref child : {nodes_[g].low, nodes_[g].high}) {
      if (seen.insert(child).second) stack.push_back(child);
    }
  }
  // Both terminals always exist even if unreachable from f.
  for (bdd_ref t : {zero(), one()}) seen.insert(t);
  return seen.size();
}

bdd_ref bdd_manager::compact(bdd_ref root) {
  bdd_manager fresh;
  std::unordered_map<bdd_ref, bdd_ref> map{{zero(), zero()}, {one(), one()}};
  const std::function<bdd_ref(bdd_ref)> rec = [&](bdd_ref g) -> bdd_ref {
    auto it = map.find(g);
    if (it != map.end()) return it->second;
    const bdd_ref r =
        fresh.make(var_of(g), rec(nodes_[g].low), rec(nodes_[g].high));
    map.emplace(g, r);
    return r;
  };
  const bdd_ref new_root = rec(root);
  *this = std::move(fresh);
  return new_root;
}

std::vector<std::vector<std::uint32_t>> bdd_manager::enumerate_products(
    bdd_ref f) const {
  std::vector<std::vector<std::uint32_t>> out;
  std::vector<std::uint32_t> path;
  const std::function<void(bdd_ref)> rec = [&](bdd_ref g) {
    if (g == zero()) return;
    if (g == one()) {
      out.push_back(path);
      return;
    }
    rec(nodes_[g].low);
    path.push_back(var_of(g));
    rec(nodes_[g].high);
    path.pop_back();
  };
  rec(f);
  return out;
}

}  // namespace sdft
