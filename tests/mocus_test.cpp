#include <gtest/gtest.h>

#include <algorithm>

#include "ft/fault_tree.hpp"
#include "mcs/cutset.hpp"
#include "mcs/mocus.hpp"
#include "mcs/visited_table.hpp"
#include "test_models.hpp"
#include "util/error.hpp"
#include "util/rng.hpp"
#include "util/thread_pool.hpp"

namespace sdft {
namespace {

std::vector<cutset> named(const fault_tree& ft,
                          std::vector<std::vector<std::string>> names) {
  std::vector<cutset> out;
  for (auto& set : names) {
    cutset c;
    for (auto& n : set) c.push_back(ft.find(n));
    std::sort(c.begin(), c.end());
    out.push_back(std::move(c));
  }
  return minimize_cutsets(std::move(out));
}

TEST(Mocus, Example7MinimalCutsets) {
  const fault_tree ft = testing::example1_static();
  const auto result = mocus(ft);
  const auto expected =
      named(ft, {{"e"}, {"a", "c"}, {"a", "d"}, {"b", "c"}, {"b", "d"}});
  EXPECT_EQ(result.cutsets, expected);
  EXPECT_TRUE(are_minimal_cutsets(ft, result.cutsets));
}

TEST(Mocus, MatchesBruteForceOnExample1) {
  const fault_tree ft = testing::example1_static();
  EXPECT_EQ(mocus(ft).cutsets, minimal_cutsets_brute_force(ft));
}

TEST(Mocus, CutoffDiscardsSmallCutsets) {
  const fault_tree ft = testing::example1_static();
  mocus_options opt;
  opt.cutoff = 1e-5;  // keeps {e}? no: 3e-6 < 1e-5. keeps pairs? ~1e-5..9e-6
  const auto result = mocus(ft, opt);
  for (const auto& c : result.cutsets) {
    EXPECT_GE(cutset_probability(ft, c), opt.cutoff);
  }
  EXPECT_GT(result.cutoff_discarded, 0u);
  EXPECT_LT(result.cutsets.size(), 5u);
}

TEST(Mocus, MaxOrderLimitsCutsetSize) {
  const fault_tree ft = testing::example1_static();
  mocus_options opt;
  opt.max_order = 1;
  const auto result = mocus(ft, opt);
  ASSERT_EQ(result.cutsets.size(), 1u);
  EXPECT_EQ(ft.node(result.cutsets[0][0]).name, "e");
}

TEST(Mocus, SubsumptionOnSharedStructure) {
  // top = OR(x, AND(x, y)): {x} subsumes {x, y}.
  fault_tree ft;
  const node_index x = ft.add_basic_event("x", 0.1);
  const node_index y = ft.add_basic_event("y", 0.1);
  const node_index g = ft.add_gate("g", gate_type::and_gate, {x, y});
  ft.set_top(ft.add_gate("top", gate_type::or_gate, {x, g}));
  const auto result = mocus(ft);
  ASSERT_EQ(result.cutsets.size(), 1u);
  EXPECT_EQ(result.cutsets[0], cutset{x});
}

TEST(Mocus, AssumeFailedConditionsEventsAway) {
  const fault_tree ft = testing::example1_static();
  mocus_options opt;
  opt.assume_failed = {ft.find("a")};
  const auto result = mocus(ft, opt);
  // With a certainly failed: {e}, {c}, {d} remain ({b,*} subsumed).
  const auto expected = named(ft, {{"e"}, {"c"}, {"d"}});
  EXPECT_EQ(result.cutsets, expected);
}

TEST(Mocus, AssumeWorkingPrunesBranches) {
  const fault_tree ft = testing::example1_static();
  mocus_options opt;
  opt.assume_working = {ft.find("e"), ft.find("b"), ft.find("d")};
  const auto result = mocus(ft, opt);
  const auto expected = named(ft, {{"a", "c"}});
  EXPECT_EQ(result.cutsets, expected);
}

TEST(Mocus, EmptyCutsetWhenRootForcedFailed) {
  // Root = OR(a, b) with a assumed failed: the empty set is the only MCS.
  fault_tree ft;
  const node_index a = ft.add_basic_event("a", 0.1);
  const node_index b = ft.add_basic_event("b", 0.1);
  ft.set_top(ft.add_gate("top", gate_type::or_gate, {a, b}));
  mocus_options opt;
  opt.assume_failed = {a};
  const auto result = mocus(ft, opt);
  ASSERT_EQ(result.cutsets.size(), 1u);
  EXPECT_TRUE(result.cutsets[0].empty());
}

TEST(Mocus, NoCutsetsWhenRootCannotFail) {
  fault_tree ft;
  const node_index a = ft.add_basic_event("a", 0.1);
  ft.set_top(ft.add_gate("top", gate_type::or_gate, {a}));
  mocus_options opt;
  opt.assume_working = {a};
  EXPECT_TRUE(mocus(ft, opt).cutsets.empty());
}

TEST(Mocus, FromSubtreeRoot) {
  const fault_tree ft = testing::example1_static();
  const auto result = mocus_from(ft, ft.find("PUMP1"));
  const auto expected = named(ft, {{"a"}, {"b"}});
  EXPECT_EQ(result.cutsets, expected);
}

TEST(Mocus, FromBasicEventRoot) {
  const fault_tree ft = testing::example1_static();
  const auto result = mocus_from(ft, ft.find("a"));
  ASSERT_EQ(result.cutsets.size(), 1u);
  EXPECT_EQ(result.cutsets[0], cutset{ft.find("a")});
}

TEST(Mocus, PartialLimitThrows) {
  const fault_tree ft = testing::example1_static();
  mocus_options opt;
  opt.max_partials = 2;
  EXPECT_THROW(mocus(ft, opt), numeric_error);
}

TEST(Mocus, TinyDedupLimitStaysCorrectAndBounded) {
  // Regression for the dedup_limit clearing edge: a bare visited.clear()
  // also forgot the partials still awaiting expansion, so a shared subtree
  // could re-admit a live stack partial (in the worst case the seed) and
  // re-expand its whole region once per clear. The clear now re-primes the
  // visited set with the live stack keys, so arbitrarily small limits must
  // yield the identical cutset list with bounded duplicate work.
  fault_tree ft;  // AND of shared ORs: every pair path reaches shared partials
  std::vector<node_index> ors;
  std::vector<node_index> events;
  for (int i = 0; i < 4; ++i) {
    events.push_back(
        ft.add_basic_event("x" + std::to_string(i), 0.1 + 0.01 * i));
  }
  for (int g = 0; g < 3; ++g) {
    ors.push_back(ft.add_gate("or" + std::to_string(g), gate_type::or_gate,
                              {events[g], events[g + 1]}));
  }
  ft.set_top(ft.add_gate("top", gate_type::and_gate, ors));

  const mocus_result baseline = mocus(ft);
  ASSERT_GT(baseline.cutsets.size(), 0u);
  for (const std::size_t limit : {1, 2, 3, 8}) {
    mocus_options opt;
    opt.dedup_limit = limit;
    const mocus_result limited = mocus(ft, opt);
    EXPECT_EQ(limited.cutsets, baseline.cutsets) << "dedup_limit " << limit;
    // Clears may re-expand partials whose keys were forgotten, but never
    // re-admit live stack work: the blowup stays a small constant factor.
    EXPECT_LE(limited.partials_processed, 20 * baseline.partials_processed)
        << "dedup_limit " << limit;
  }

  // Same contract for the sharded parallel driver.
  thread_pool pool(4);
  mocus_options par;
  par.dedup_limit = 2;
  par.pool = &pool;
  const mocus_result parallel = mocus(ft, par);
  EXPECT_EQ(parallel.cutsets, baseline.cutsets);
}

TEST(Mocus, TinyDedupLimitOnRandomTrees) {
  for (const std::uint64_t seed : {2u, 9u, 17u}) {
    const sd_fault_tree tree = testing::make_random_static_tree(seed, 9, 5);
    const fault_tree& ft = tree.structure();
    const std::vector<cutset> expected = mocus(ft).cutsets;
    mocus_options opt;
    opt.dedup_limit = 1;
    EXPECT_EQ(mocus(ft, opt).cutsets, expected) << "seed " << seed;
  }
}

using index_list = std::vector<node_index>;

TEST(VisitedTable, RejectsDuplicates) {
  visited_table table;
  EXPECT_TRUE(table.insert({1, 4}, {9}));
  EXPECT_FALSE(table.insert({1, 4}, {9}));
  EXPECT_TRUE(table.insert({1, 4}, {}));   // shorter key
  EXPECT_TRUE(table.insert({1}, {4, 9}));  // same nodes, other split
  EXPECT_TRUE(table.insert({}, {}));       // the empty partial
  EXPECT_FALSE(table.insert({}, {}));
  EXPECT_FALSE(table.insert({1}, {4, 9}));
  EXPECT_EQ(table.size(), 4u);
  EXPECT_GT(table.bytes(), 0u);
}

TEST(VisitedTable, ClearForgetsAndReprimes) {
  visited_table table;
  for (node_index i = 0; i < 100; ++i) EXPECT_TRUE(table.insert({i}, {}));
  const std::size_t bytes = table.bytes();
  table.clear();
  EXPECT_EQ(table.size(), 0u);
  EXPECT_EQ(table.bytes(), bytes);  // capacity kept for the re-prime
  // Re-priming with a few live keys: exactly those are known again.
  for (node_index i = 0; i < 10; ++i) EXPECT_TRUE(table.insert({i}, {}));
  for (node_index i = 0; i < 10; ++i) EXPECT_FALSE(table.insert({i}, {}));
  for (node_index i = 10; i < 100; ++i) EXPECT_TRUE(table.insert({i}, {}));
  EXPECT_EQ(table.size(), 100u);
}

TEST(VisitedTable, GrowsOverManyInserts) {
  visited_table table;
  const auto key = [](node_index i) {
    // Varying lengths, so arena offsets are not a multiple of anything.
    index_list events;
    for (node_index k = 0; k <= i % 5; ++k) events.push_back(i * 8 + k);
    return events;
  };
  constexpr node_index n = 50'000;
  for (node_index i = 0; i < n; ++i) {
    ASSERT_TRUE(table.insert(key(i), {n * 8 + i % 7})) << i;
  }
  EXPECT_EQ(table.size(), n);
  for (node_index i = 0; i < n; ++i) {
    ASSERT_FALSE(table.insert(key(i), {n * 8 + i % 7})) << i;
    ASSERT_TRUE(table.insert(key(i), {n * 8 + 7})) << i;
  }
  EXPECT_EQ(table.size(), 2 * n);
}

TEST(VisitedTable, EqualHashesStayDistinct) {
  // Every key forced onto one hash: the table must still admit each
  // different key once and reject only true duplicates, across growth.
  visited_table table;
  constexpr std::uint64_t h = 0x5eed;
  for (node_index i = 0; i < 200; ++i) {
    EXPECT_TRUE(table.insert({i}, {1000 + i}, h)) << i;
    EXPECT_TRUE(table.insert({i}, {}, h)) << i;
  }
  for (node_index i = 0; i < 200; ++i) {
    EXPECT_FALSE(table.insert({i}, {1000 + i}, h)) << i;
    EXPECT_FALSE(table.insert({i}, {}, h)) << i;
  }
  EXPECT_EQ(table.size(), 400u);
}

TEST(VisitedTable, HashDependsOnContentAndSplit) {
  EXPECT_EQ(visited_table::hash({1, 2}, {7}), visited_table::hash({1, 2}, {7}));
  EXPECT_NE(visited_table::hash({1, 2}, {7}), visited_table::hash({1, 2}, {8}));
  EXPECT_NE(visited_table::hash({1, 2}, {7}), visited_table::hash({1}, {2, 7}));
}

TEST(MinimizeCutsets, RemovesSupersetsAndDuplicates) {
  std::vector<cutset> sets{{1, 2, 3}, {1, 2}, {1, 2}, {2, 3}, {3}};
  const auto minimal = minimize_cutsets(std::move(sets));
  EXPECT_EQ(minimal, (std::vector<cutset>{{3}, {1, 2}}));
}

TEST(MinimizeCutsets, EmptySetSubsumesEverything) {
  std::vector<cutset> sets{{1, 2}, {}, {3}};
  const auto minimal = minimize_cutsets(std::move(sets));
  ASSERT_EQ(minimal.size(), 1u);
  EXPECT_TRUE(minimal[0].empty());
}

TEST(CutsetQuantities, RareEventAndMcub) {
  const fault_tree ft = testing::example1_static();
  const auto cuts = mocus(ft).cutsets;
  const double rea = rare_event_probability(ft, cuts);
  const double mcub = min_cut_upper_bound(ft, cuts);
  const double exact = ft.probability_brute_force();
  EXPECT_GE(rea, exact - 1e-18);
  EXPECT_GE(mcub, exact - 1e-18);
  EXPECT_LE(mcub, rea + 1e-18);
  // Expected rare-event value: p_e + 2*(p_a*p_c-ish products).
  const double expected = testing::p_tank +
                          testing::p_fts * testing::p_fts +
                          2 * testing::p_fts * testing::p_fio +
                          testing::p_fio * testing::p_fio;
  EXPECT_NEAR(rea, expected, 1e-15);
}

/// Random coherent fault tree for property testing.
fault_tree random_tree(rng& random, int num_events, int num_gates) {
  fault_tree ft;
  std::vector<node_index> pool;
  for (int i = 0; i < num_events; ++i) {
    pool.push_back(ft.add_basic_event("e" + std::to_string(i),
                                      random.uniform(0.01, 0.3)));
  }
  node_index last = pool[0];
  for (int g = 0; g < num_gates; ++g) {
    const auto type =
        random.chance(0.5) ? gate_type::and_gate : gate_type::or_gate;
    std::vector<node_index> inputs;
    const int arity = static_cast<int>(random.between(2, 3));
    for (int i = 0; i < arity; ++i) {
      inputs.push_back(pool[random.below(pool.size())]);
    }
    last = ft.add_gate("g" + std::to_string(g), type, inputs);
    pool.push_back(last);
  }
  ft.set_top(last);
  return ft;
}

class MocusRandomTrees : public ::testing::TestWithParam<int> {};

TEST_P(MocusRandomTrees, MatchesBruteForce) {
  rng random(static_cast<std::uint64_t>(GetParam()));
  const fault_tree ft = random_tree(random, 8, 6);
  const auto via_mocus = mocus(ft).cutsets;
  const auto via_brute = minimal_cutsets_brute_force(ft);
  EXPECT_EQ(via_mocus, via_brute);
  EXPECT_TRUE(are_minimal_cutsets(ft, via_mocus));
}

INSTANTIATE_TEST_SUITE_P(Seeds, MocusRandomTrees, ::testing::Range(0, 25));

}  // namespace
}  // namespace sdft
