#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>

#include "bdd/bdd.hpp"
#include "bdd/ft_bdd.hpp"
#include "etree/event_tree.hpp"
#include "mcs/mocus.hpp"
#include "test_models.hpp"
#include "util/error.hpp"
#include "util/rng.hpp"

namespace sdft {
namespace {

TEST(Bdd, TerminalAndVarBasics) {
  bdd_manager m;
  EXPECT_NE(m.zero(), m.one());
  const bdd_ref x = m.var(0);
  EXPECT_EQ(m.var(0), x);  // unique table canonicalises
  EXPECT_EQ(m.bdd_and(x, m.one()), x);
  EXPECT_EQ(m.bdd_and(x, m.zero()), m.zero());
  EXPECT_EQ(m.bdd_or(x, m.zero()), x);
  EXPECT_EQ(m.bdd_or(x, m.one()), m.one());
}

TEST(Bdd, AndOrAreCanonical) {
  bdd_manager m;
  const bdd_ref x = m.var(0);
  const bdd_ref y = m.var(1);
  EXPECT_EQ(m.bdd_and(x, y), m.bdd_and(y, x));
  EXPECT_EQ(m.bdd_or(x, y), m.bdd_or(y, x));
  // Distributivity: x & (y | x) == x.
  EXPECT_EQ(m.bdd_and(x, m.bdd_or(y, x)), x);
}

TEST(Bdd, NotIsInvolutive) {
  bdd_manager m;
  const bdd_ref x = m.var(0);
  const bdd_ref y = m.var(1);
  const bdd_ref f = m.bdd_or(m.bdd_and(x, y), m.bdd_not(y));
  EXPECT_EQ(m.bdd_not(m.bdd_not(f)), f);
  EXPECT_EQ(m.bdd_or(f, m.bdd_not(f)), m.one());
  EXPECT_EQ(m.bdd_and(f, m.bdd_not(f)), m.zero());
}

TEST(Bdd, RestrictFixesVariables) {
  bdd_manager m;
  const bdd_ref x = m.var(0);
  const bdd_ref y = m.var(1);
  const bdd_ref f = m.bdd_and(x, y);
  EXPECT_EQ(m.restrict_var(f, 0, true), y);
  EXPECT_EQ(m.restrict_var(f, 0, false), m.zero());
  EXPECT_EQ(m.restrict_var(f, 1, true), x);
}

TEST(Bdd, ProbabilityShannon) {
  bdd_manager m;
  const bdd_ref x = m.var(0);
  const bdd_ref y = m.var(1);
  const std::vector<double> p{0.3, 0.5};
  EXPECT_NEAR(m.probability(m.bdd_and(x, y), p), 0.15, 1e-15);
  EXPECT_NEAR(m.probability(m.bdd_or(x, y), p), 0.65, 1e-15);
  EXPECT_NEAR(m.probability(m.one(), p), 1.0, 1e-15);
  EXPECT_NEAR(m.probability(m.zero(), p), 0.0, 1e-15);
}

/// Every non-terminal node's children precede it: the order the one-pass
/// probabilities() sweep relies on.
void expect_children_precede_parents(const bdd_manager& m) {
  for (bdd_ref g = 2; g < m.size(); ++g) {
    const auto [low, high] = m.children(g);
    EXPECT_LT(low, g);
    EXPECT_LT(high, g);
  }
}

/// P[f] by enumerating every assignment of `num_vars` variables, each
/// evaluated by restricting f down to a terminal.
double brute_force_probability(bdd_manager& m, bdd_ref f,
                               const std::vector<double>& probs) {
  const auto num_vars = static_cast<std::uint32_t>(probs.size());
  double total = 0.0;
  for (std::uint32_t mask = 0; mask < (1U << num_vars); ++mask) {
    bdd_ref g = f;
    double weight = 1.0;
    for (std::uint32_t v = 0; v < num_vars; ++v) {
      const bool on = ((mask >> v) & 1U) != 0;
      g = m.restrict_var(g, v, on);
      weight *= on ? probs[v] : 1.0 - probs[v];
    }
    if (g == m.one()) total += weight;
  }
  return total;
}

class BddSweep : public ::testing::TestWithParam<int> {};

TEST_P(BddSweep, ProbabilitiesMatchPerRootAndBruteForce) {
  rng random(0x5eed + static_cast<std::uint64_t>(GetParam()));
  bdd_manager m;
  const auto num_vars = static_cast<std::uint32_t>(random.between(3, 7));
  std::vector<double> probs;
  std::vector<bdd_ref> pool;
  for (std::uint32_t v = 0; v < num_vars; ++v) {
    probs.push_back(random.uniform(0.01, 0.99));
    pool.push_back(m.var(v));
  }
  // Random and/or/not combinations over shared subfunctions; the roots
  // are the last few built.
  for (int k = 0; k < 24; ++k) {
    const bdd_ref a = pool[random.below(pool.size())];
    const bdd_ref b = pool[random.below(pool.size())];
    switch (random.between(0, 2)) {
      case 0:
        pool.push_back(m.bdd_and(a, b));
        break;
      case 1:
        pool.push_back(m.bdd_or(a, b));
        break;
      default:
        pool.push_back(m.bdd_not(a));
    }
  }
  std::vector<bdd_ref> roots(pool.end() - 6, pool.end());
  roots.push_back(m.zero());
  roots.push_back(m.one());
  expect_children_precede_parents(m);

  const std::vector<double> swept = m.probabilities(roots, probs);
  ASSERT_EQ(swept.size(), roots.size());
  for (std::size_t r = 0; r < roots.size(); ++r) {
    EXPECT_EQ(swept[r], m.probability(roots[r], probs)) << "root " << r;
    EXPECT_NEAR(swept[r], brute_force_probability(m, roots[r], probs), 1e-12)
        << "root " << r;
  }

  // Sifting's elementary step: the swapped diagram, read with the two
  // variables' probabilities exchanged, denotes the same function.
  const std::uint32_t v = static_cast<std::uint32_t>(
      random.below(num_vars - 1));
  const bdd_ref swapped = m.swap_adjacent(roots.front(), v);
  expect_children_precede_parents(m);
  std::vector<double> swapped_probs = probs;
  std::swap(swapped_probs[v], swapped_probs[v + 1]);
  EXPECT_NEAR(m.probabilities({swapped}, swapped_probs).front(), swept.front(),
              1e-12);

  // compact() renumbers the kept nodes but keeps the diagram: the sweep
  // must still see children first and give the same bits.
  const bdd_ref kept = m.compact(roots.front());
  expect_children_precede_parents(m);
  EXPECT_EQ(m.probabilities({kept}, probs).front(), swept.front());
}

INSTANTIATE_TEST_SUITE_P(Seeds, BddSweep, ::testing::Range(0, 30));

TEST(FtBdd, SweepAfterSiftingMatchesBruteForce) {
  // ft_bdd's sift ordering swaps and compacts the compiled diagram; its
  // probability goes through the same one-pass sweep.
  rng random(0x51f7);
  std::size_t swaps = 0;
  for (int trial = 0; trial < 10; ++trial) {
    fault_tree ft;
    std::vector<node_index> pool;
    for (int e = 0; e < 8; ++e) {
      pool.push_back(ft.add_basic_event("e" + std::to_string(e),
                                        random.uniform(0.05, 0.5)));
    }
    node_index last = fault_tree::npos;
    for (int g = 0; g < 6; ++g) {
      std::vector<node_index> inputs;
      for (int i = 0; i < 3; ++i) {
        inputs.push_back(pool[random.below(pool.size())]);
      }
      std::sort(inputs.begin(), inputs.end());
      inputs.erase(std::unique(inputs.begin(), inputs.end()), inputs.end());
      last = ft.add_gate("g" + std::to_string(g),
                         random.chance(0.5) ? gate_type::and_gate
                                            : gate_type::or_gate,
                         inputs);
      pool.push_back(last);
    }
    ft.set_top(last);
    const ft_bdd sifted(ft, fault_tree::npos, bdd_ordering::sift);
    EXPECT_NEAR(sifted.probability(), ft.probability_brute_force(), 1e-12)
        << "trial " << trial;
    swaps += sifted.sift_swaps();
  }
  EXPECT_GT(swaps, 0u);
}

TEST(Bdd, MinimalSolutionsOfRedundantFunction) {
  bdd_manager m;
  const bdd_ref x = m.var(0);
  const bdd_ref y = m.var(1);
  // f = x | (x & y): the only minimal solution is {x}.
  const bdd_ref f = m.bdd_or(x, m.bdd_and(x, y));
  const auto products = m.enumerate_products(m.minimal_solutions(f));
  ASSERT_EQ(products.size(), 1u);
  EXPECT_EQ(products[0], (std::vector<std::uint32_t>{0}));
}

TEST(FtBdd, ExactProbabilityMatchesBruteForce) {
  const fault_tree ft = testing::example1_static();
  const ft_bdd compiled(ft);
  EXPECT_NEAR(compiled.probability(), ft.probability_brute_force(), 1e-15);
}

TEST(FtBdd, ProbabilityWithOverrides) {
  const fault_tree ft = testing::example1_static();
  const ft_bdd compiled(ft);
  // Setting the tank to certainty makes the system fail with certainty.
  EXPECT_NEAR(compiled.probability({{ft.find("e"), 1.0}}), 1.0, 1e-15);
  // Setting it to zero leaves only the pump contribution.
  const double p_pump =
      1.0 - (1.0 - testing::p_fts) * (1.0 - testing::p_fio);
  EXPECT_NEAR(compiled.probability({{ft.find("e"), 0.0}}), p_pump * p_pump,
              1e-15);
}

TEST(FtBdd, MinimalCutsetsMatchMocus) {
  const fault_tree ft = testing::example1_static();
  const ft_bdd compiled(ft);
  EXPECT_EQ(compiled.minimal_cutsets(), mocus(ft).cutsets);
}

TEST(FtBdd, CompilesFromSubtreeRoot) {
  const fault_tree ft = testing::example1_static();
  const ft_bdd pump1(ft, ft.find("PUMP1"));
  const double expected =
      1.0 - (1.0 - testing::p_fts) * (1.0 - testing::p_fio);
  EXPECT_NEAR(pump1.probability(), expected, 1e-15);
}

TEST(FtBdd, MultiRootDiscoversInRootOrderAndCompilesLazily) {
  fault_tree ft;
  const node_index a = ft.add_basic_event("a", 0.1);
  const node_index b = ft.add_basic_event("b", 0.2);
  const node_index c = ft.add_basic_event("c", 0.3);
  const node_index shared = ft.add_gate("shared", gate_type::or_gate, {b, c});
  const node_index r1 = ft.add_gate("r1", gate_type::and_gate, {shared, a});
  const node_index r2 = ft.add_atleast_gate("r2", 2, {a, b, shared});
  ft.set_top(ft.add_gate("top", gate_type::or_gate, {r1, r2}));

  ft_bdd compiled(ft, std::vector<node_index>{r2, r1});
  // DFS first-visit order over r2 then r1: a, b, then c under `shared`.
  EXPECT_EQ(compiled.num_variables(), 3u);
  EXPECT_EQ(compiled.gates_compiled(), 0u);
  const bdd_ref f1 = compiled.compile(r1);
  EXPECT_EQ(compiled.gates_compiled(), 2u);  // r1 and shared
  const bdd_ref f2 = compiled.compile(r2);
  EXPECT_EQ(compiled.gates_compiled(), 3u);  // shared is memoised
  EXPECT_EQ(compiled.compile(r1), f1);

  std::vector<double> probs(ft.size(), 0.0);
  for (node_index n : ft.basic_events()) probs[n] = ft.node(n).probability;
  EXPECT_NEAR(compiled.probability(f1, probs),
              ft_bdd(ft, r1).probability(), 1e-15);
  EXPECT_NEAR(compiled.probability(f2, probs),
              ft_bdd(ft, r2).probability(), 1e-15);
  // The probability vector must cover every variable.
  EXPECT_THROW(compiled.probability(f1, std::vector<double>(c, 0.5)),
               model_error);
  EXPECT_THROW(compiled.compile(fault_tree::npos), model_error);
}

TEST(FtBdd, VariableGatesStandInForTheirSubtree) {
  // `sub` is a module of `top`: compiled as a variable carrying its own
  // exact probability, the top's probability is unchanged.
  fault_tree ft;
  const node_index a = ft.add_basic_event("a", 0.1);
  const node_index b = ft.add_basic_event("b", 0.2);
  const node_index c = ft.add_basic_event("c", 0.3);
  const node_index sub = ft.add_gate("sub", gate_type::and_gate, {b, c});
  const node_index top = ft.add_gate("top", gate_type::or_gate, {a, sub});
  ft.set_top(top);

  ft_bdd compiled(ft, std::vector<node_index>{top}, {sub, top});
  EXPECT_EQ(compiled.num_variables(), 2u);  // a and sub; the root expands
  const bdd_ref f = compiled.compile(top);
  EXPECT_EQ(compiled.gates_compiled(), 1u);
  std::vector<double> probs(ft.size(), 0.0);
  probs[a] = 0.1;
  probs[sub] = 0.2 * 0.3;
  EXPECT_NEAR(compiled.probability(f, probs), ft.probability_brute_force(),
              1e-15);
}

TEST(FtBdd, LadderDagCompilesWithoutPathExplosion) {
  // g_i = AND(g_{i-1}, OR(g_{i-1}, e_i)) with g_0 = e0: every level doubles
  // the number of paths to e0 (2^64 here), while absorption keeps the
  // function equal to e0. A discovery walking every path instead of every
  // node hangs beyond ~30 levels.
  fault_tree ft;
  const node_index ie = ft.add_basic_event("IE", 0.5);
  node_index prev = ft.add_basic_event("e0", 0.125);
  for (int i = 1; i <= 64; ++i) {
    const node_index e =
        ft.add_basic_event("e" + std::to_string(i), 0.01 * (i % 50 + 1));
    const node_index o = ft.add_gate("o" + std::to_string(i),
                                     gate_type::or_gate, {prev, e});
    prev = ft.add_gate("g" + std::to_string(i), gate_type::and_gate,
                       {prev, o});
  }
  ft.set_top(prev);

  const auto start = std::chrono::steady_clock::now();
  EXPECT_DOUBLE_EQ(ft_bdd(ft).probability(), 0.125);
  EXPECT_DOUBLE_EQ(modular_probability(ft), 0.125);
  event_tree et(ft, ie, "LADDER");
  et.add_functional_event("F", prev);
  et.add_sequence({branch_outcome::failure}, "CD");
  et.add_sequence({branch_outcome::success}, "OK");
  EXPECT_DOUBLE_EQ(sequence_probability_exact(et, 0), 0.5 * 0.125);
  EXPECT_DOUBLE_EQ(sequence_probability_exact(et, 1), 0.5 * 0.875);
  EXPECT_LT(std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                          start)
                .count(),
            1.0);
}

fault_tree random_tree(rng& random, int num_events, int num_gates) {
  fault_tree ft;
  std::vector<node_index> pool;
  for (int i = 0; i < num_events; ++i) {
    pool.push_back(ft.add_basic_event("e" + std::to_string(i),
                                      random.uniform(0.05, 0.4)));
  }
  node_index last = fault_tree::npos;
  for (int g = 0; g < num_gates; ++g) {
    std::vector<node_index> inputs;
    for (int i = 0, n = static_cast<int>(random.between(2, 4)); i < n; ++i) {
      inputs.push_back(pool[random.below(pool.size())]);
    }
    last = ft.add_gate("g" + std::to_string(g),
                       random.chance(0.5) ? gate_type::and_gate
                                          : gate_type::or_gate,
                       inputs);
    pool.push_back(last);
  }
  ft.set_top(last);
  return ft;
}

class BddRandomTrees : public ::testing::TestWithParam<int> {};

TEST_P(BddRandomTrees, AgreesWithBruteForceAndMocus) {
  rng random(0xb00 + static_cast<std::uint64_t>(GetParam()));
  const fault_tree ft = random_tree(random, 9, 7);
  const ft_bdd compiled(ft);
  EXPECT_NEAR(compiled.probability(), ft.probability_brute_force(), 1e-12);
  EXPECT_EQ(compiled.minimal_cutsets(), mocus(ft).cutsets);
}

INSTANTIATE_TEST_SUITE_P(Seeds, BddRandomTrees, ::testing::Range(0, 25));

}  // namespace
}  // namespace sdft
