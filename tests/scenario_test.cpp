// Scenario-engine tests: the .etree parser (round trip, line-numbered
// errors), bit-agreement of the one-pass engine with per-sequence one-shot
// compilations, the CCF beta/alpha closed forms (exact and MCS-approx),
// the UQ layer's seed/thread determinism, point re-evaluation off the
// compiled structure, and the MCS column against the plain cartesian
// recombination it replaced (tests/scenario_cutsets_reference.hpp).

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <string>
#include <vector>

#include "engine/scenario.hpp"
#include "etree/event_tree.hpp"
#include "etree/scenario.hpp"
#include "ft/ccf.hpp"
#include "mcs/cutset.hpp"
#include "random_event_tree.hpp"
#include "scenario_cutsets_reference.hpp"
#include "util/error.hpp"

namespace sdft {
namespace {

/// The small demo scenario most tests share: IE, then two redundant pumps
/// behind an AND, then a backup system. No CCF / UQ unless a test adds it.
std::string demo_text(const std::string& extra = "") {
  return R"(be IE 1e-2
be PUMP_A 2e-3
be PUMP_B 2e-3
be BACKUP 5e-3
be VALVE 1e-3
and SYS1_F PUMP_A PUMP_B
or SYS2_F BACKUP VALVE
or TOP SYS1_F SYS2_F
top TOP

etree DEMO
initiating IE
functional S1 SYS1_F
functional S2 SYS2_F
sequence OK S -
sequence OK F S
sequence CD F F
)" + extra;
}

TEST(ScenarioParser, RoundTrip) {
  const scenario_model m = parse_scenario_string(demo_text(
      "ccf-beta PUMPS 0.1 PUMP_A PUMP_B\n"
      "dist BACKUP lognormal 3\n"
      "dist VALVE uniform 1e-4 1e-2\n"
      "dist IE point\n"));
  EXPECT_EQ(m.scenario.name, "DEMO");
  EXPECT_EQ(m.scenario.initiating_event, "IE");
  ASSERT_EQ(m.scenario.functional.size(), 2u);
  EXPECT_EQ(m.scenario.functional[0].name, "S1");
  EXPECT_EQ(m.scenario.functional[1].gate, "SYS2_F");
  ASSERT_EQ(m.scenario.sequences.size(), 3u);
  EXPECT_EQ(m.scenario.sequences[2].end_state, "CD");
  EXPECT_EQ(m.scenario.sequences[0].outcomes,
            (std::vector<branch_outcome>{branch_outcome::success,
                                         branch_outcome::bypass}));
  ASSERT_EQ(m.scenario.ccf.size(), 1u);
  EXPECT_EQ(m.scenario.ccf[0].members,
            (std::vector<std::string>{"PUMP_A", "PUMP_B"}));
  ASSERT_EQ(m.scenario.distributions.size(), 3u);
  EXPECT_EQ(m.scenario.distributions[0].model,
            parameter_distribution::kind::lognormal);
  EXPECT_NE(m.tree.structure().find("SYS1_F"), fault_tree::npos);
}

TEST(ScenarioParser, ErrorsCarryLineNumbers) {
  const auto expect_error = [](const std::string& text,
                               const std::string& fragment) {
    try {
      (void)parse_scenario_string(text);
      FAIL() << "expected model_error containing '" << fragment << "'";
    } catch (const model_error& e) {
      EXPECT_NE(std::string(e.what()).find("scenario parse error"),
                std::string::npos)
          << e.what();
      EXPECT_NE(std::string(e.what()).find(fragment), std::string::npos)
          << e.what();
    }
  };
  // Bad outcome token: the sequence sits on line 8 of this text.
  expect_error(
      "be IE 1e-2\nbe B 1e-3\nor G B\ntop G\n\netree T\ninitiating IE\n"
      "functional F G\nsequence CD X\n",
      "outcome must be F, S or -");
  expect_error(
      "be IE 1e-2\nbe B 1e-3\nor G B\ntop G\n\netree T\ninitiating IE\n"
      "functional F G\nsequence CD X\n",
      "line 9");
  expect_error("be IE 1e-2\nbe B 1e-3\nor G B\ntop G\n\netree T\nfrobnicate\n",
               "line 7");
  expect_error("be IE 1e-2\nbe B 1e-3\nor G B\ntop G\n",
               "missing 'etree");
}

TEST(ScenarioEngine, MatchesPerSequenceOneShots) {
  // The shared multi-root compilation must not move a single bit relative
  // to one event_tree_bdd per sequence (BDD operations are canonical).
  const scenario_model m = parse_scenario_string(demo_text());
  const fault_tree& ft = m.tree.structure();

  event_tree et(ft, ft.find("IE"), "DEMO");
  et.add_functional_event("S1", ft.find("SYS1_F"));
  et.add_functional_event("S2", ft.find("SYS2_F"));
  for (const auto& s : m.scenario.sequences) {
    et.add_sequence(s.outcomes, s.end_state);
  }

  const scenario_result r = run_scenario(m);
  ASSERT_EQ(r.sequences.size(), 3u);
  for (std::size_t s = 0; s < 3; ++s) {
    EXPECT_EQ(r.sequences[s].probability, sequence_probability_exact(et, s))
        << "sequence " << s;
  }
  ASSERT_EQ(r.end_states.size(), 2u);
  EXPECT_EQ(r.end_states[0].name, "OK");
  EXPECT_EQ(r.end_states[0].probability,
            end_state_probability_exact(et, "OK"));
  EXPECT_EQ(r.end_states[1].probability,
            end_state_probability_exact(et, "CD"));
  EXPECT_EQ(r.initiating_probability, 1e-2);
  // Sequences partition {IE occurs}.
  EXPECT_NEAR(r.sequences[0].probability + r.sequences[1].probability +
                  r.sequences[2].probability,
              1e-2, 1e-15);
  EXPECT_EQ(r.stats.scenario_sequences, 3u);
  EXPECT_GE(r.stats.scenario_prefix_hits, 1u);
}

TEST(ScenarioEngine, CcfBetaFactorClosedForm) {
  // Beta-factor on the redundant pumps: each member splits into an
  // independent part (1-beta)Q and the shared group event beta*Q, so
  //   P(SYS1_F) = p_ccf + (1 - p_ccf) * p_i^2.
  scenario_model m = parse_scenario_string(
      demo_text("ccf-beta PUMPS 0.25 PUMP_A PUMP_B\n"));
  const scenario_result r = run_scenario(std::move(m));

  const double q = 2e-3, beta = 0.25;
  const double p_i = (1 - beta) * q, p_ccf = beta * q;
  const double p_sys1 = p_ccf + (1 - p_ccf) * p_i * p_i;
  const double p_sys2 = 1 - (1 - 5e-3) * (1 - 1e-3);
  // Sequence CD = IE and SYS1_F and SYS2_F; the two systems share no
  // events, so the exact probability factorizes.
  EXPECT_NEAR(r.sequences[2].probability, 1e-2 * p_sys1 * p_sys2,
              1e-18);
  EXPECT_EQ(r.stats.ccf_groups, 1u);
  EXPECT_EQ(r.stats.ccf_events_added, 1u);
  EXPECT_EQ(r.stats.ccf_members_expanded, 2u);

  // MCS column: the recombined cutsets of CD are {IE, x, y} for x a SYS1
  // contributor (PUMPS_CCF or the pair of independents) and y a SYS2 one;
  // the rare-event sum is the product of per-system rare-event sums times
  // p(IE).
  const double res1 = p_ccf + p_i * p_i;
  const double res2 = 5e-3 + 1e-3;
  EXPECT_NEAR(r.sequences[2].mcs_probability, 1e-2 * res1 * res2, 1e-18);
  EXPECT_GT(r.sequences[2].num_cutsets, 0u);
}

TEST(ScenarioEngine, CcfAlphaFactorClosedForm) {
  // Alpha-factor, n = 2, non-staggered: Q1 = alpha1/alpha_t * Q and
  // Q2 = 2 alpha2/alpha_t * Q with alpha_t = alpha1 + 2 alpha2.
  scenario_model m = parse_scenario_string(
      demo_text("ccf-alpha PUMPS 0.95,0.05 PUMP_A PUMP_B\n"));
  const scenario_result r = run_scenario(std::move(m));

  const double q = 2e-3, a1 = 0.95, a2 = 0.05;
  const double at = a1 + 2 * a2;
  const double q1 = a1 / at * q, q2 = 2 * a2 / at * q;
  const double p_sys1 = q2 + (1 - q2) * q1 * q1;
  const double p_sys2 = 1 - (1 - 5e-3) * (1 - 1e-3);
  EXPECT_NEAR(r.sequences[2].probability, 1e-2 * p_sys1 * p_sys2, 1e-18);
  EXPECT_NEAR(r.sequences[2].mcs_probability,
              1e-2 * (q2 + q1 * q1) * (5e-3 + 1e-3), 1e-18);
}

TEST(ScenarioEngine, CcfExactVsMcsApproxOrdering) {
  // The rare-event MCS sum must dominate the exact sequence probability
  // (success branches dropped, rare-event >= exact union on positive
  // products) while staying close for these small probabilities.
  scenario_model m = parse_scenario_string(
      demo_text("ccf-beta PUMPS 0.1 PUMP_A PUMP_B\n"));
  const scenario_result r = run_scenario(std::move(m));
  for (const auto& s : r.sequences) {
    if (s.end_state != "CD") continue;
    EXPECT_GE(s.mcs_probability, s.probability - 1e-18) << s.label;
    EXPECT_LT(s.mcs_probability, s.probability * 1.01) << s.label;
  }
}

TEST(ScenarioEngine, UncertaintyIsSeedAndThreadDeterministic) {
  const std::string text = demo_text(
      "dist BACKUP lognormal 3\n"
      "dist PUMP_A uniform 1e-4 1e-2\n");

  scenario_options opts;
  opts.uq_samples = 128;
  opts.uq_seed = 42;
  opts.analysis.threads = 8;
  const scenario_result a =
      run_scenario(parse_scenario_string(text), opts);
  const scenario_result b =
      run_scenario(parse_scenario_string(text), opts);

  scenario_options serial = opts;
  serial.analysis.threads = 1;
  serial.analysis.inline_execution = true;
  const scenario_result c =
      run_scenario(parse_scenario_string(text), serial);

  ASSERT_EQ(a.sequences.size(), 3u);
  for (std::size_t s = 0; s < a.sequences.size(); ++s) {
    // Same seed -> identical bands; counter-based substreams make the
    // draws independent of scheduling, so serial == 8 threads bit for bit.
    EXPECT_EQ(a.sequences[s].uq.mean, b.sequences[s].uq.mean);
    EXPECT_EQ(a.sequences[s].uq.p50, b.sequences[s].uq.p50);
    EXPECT_EQ(a.sequences[s].uq.mean, c.sequences[s].uq.mean);
    EXPECT_EQ(a.sequences[s].uq.p05, c.sequences[s].uq.p05);
    EXPECT_EQ(a.sequences[s].uq.p50, c.sequences[s].uq.p50);
    EXPECT_EQ(a.sequences[s].uq.p95, c.sequences[s].uq.p95);
    // Bands are ordered and non-degenerate on the perturbed sequences.
    EXPECT_LE(a.sequences[s].uq.p05, a.sequences[s].uq.p50);
    EXPECT_LE(a.sequences[s].uq.p50, a.sequences[s].uq.p95);
  }
  // The CD sequence depends on PUMP_A: its band must actually spread.
  EXPECT_LT(a.sequences[2].uq.p05, a.sequences[2].uq.p95);
  EXPECT_EQ(a.stats.uq_samples, 128u);
  EXPECT_EQ(a.stats.uq_parameters, 2u);

  // A different seed must move the bands.
  scenario_options reseeded = opts;
  reseeded.uq_seed = 43;
  const scenario_result d =
      run_scenario(parse_scenario_string(text), reseeded);
  EXPECT_NE(a.sequences[2].uq.mean, d.sequences[2].uq.mean);
}

TEST(ScenarioEngine, UncertaintyCoversCcfParameters) {
  // A distribution on a CCF member propagates through the trace: both the
  // independent parts and the shared event scale with the drawn Q, so the
  // CD band spreads even though the expanded events are derived.
  const std::string text = demo_text(
      "ccf-beta PUMPS 0.1 PUMP_A PUMP_B\n"
      "dist PUMP_A lognormal 5\n");
  scenario_options opts;
  opts.uq_samples = 64;
  const scenario_result r = run_scenario(parse_scenario_string(text), opts);
  EXPECT_LT(r.sequences[2].uq.p05, r.sequences[2].uq.p95);
}

TEST(ScenarioEngine, EvaluatePointsMatchesRebuiltModel) {
  scenario_engine engine(parse_scenario_string(demo_text()));

  sweep_description desc;
  sweep_description::named_point pt;
  pt.overrides.emplace_back("BACKUP", 2e-2);
  desc.points.push_back(pt);
  const auto points = engine.evaluate_points(desc);
  ASSERT_EQ(points.size(), 1u);
  ASSERT_EQ(points[0].sequence_probabilities.size(), 3u);

  // A model rebuilt with the overridden probability must agree bit for
  // bit: point evaluation only swaps leaf probabilities under the same
  // compiled structure.
  const scenario_result rebuilt = run_scenario(parse_scenario_string(
      "be IE 1e-2\nbe PUMP_A 2e-3\nbe PUMP_B 2e-3\nbe BACKUP 2e-2\n"
      "be VALVE 1e-3\nand SYS1_F PUMP_A PUMP_B\nor SYS2_F BACKUP VALVE\n"
      "or TOP SYS1_F SYS2_F\ntop TOP\n\netree DEMO\ninitiating IE\n"
      "functional S1 SYS1_F\nfunctional S2 SYS2_F\nsequence OK S -\n"
      "sequence OK F S\nsequence CD F F\n"));
  for (std::size_t s = 0; s < 3; ++s) {
    EXPECT_EQ(points[0].sequence_probabilities[s],
              rebuilt.sequences[s].probability)
        << "sequence " << s;
  }
  ASSERT_EQ(points[0].end_state_probabilities.size(), 2u);
  EXPECT_EQ(points[0].end_state_probabilities[1],
            rebuilt.end_states[1].probability);
}

TEST(ScenarioEngine, RejectsBrokenModels) {
  const auto expect_model_error = [](const std::string& text,
                                     const std::string& fragment) {
    try {
      scenario_engine engine(parse_scenario_string(text));
      FAIL() << "expected model_error containing '" << fragment << "'";
    } catch (const model_error& e) {
      EXPECT_NE(std::string(e.what()).find(fragment), std::string::npos)
          << e.what();
    }
  };
  expect_model_error(
      "be IE 1e-2\nbe B 1e-3\nor G B\ntop G\n\netree T\ninitiating NOPE\n"
      "functional F G\nsequence CD F\n",
      "unknown initiating event");
  expect_model_error(
      "be IE 1e-2\nbe B 1e-3\nor G B\ntop G\n\netree T\ninitiating IE\n"
      "functional F NOPE\nsequence CD F\n",
      "unknown gate");
  expect_model_error(demo_text("ccf-beta PUMPS 0.1 PUMP_A NOPE\n"),
                     "is not a node");
  expect_model_error(demo_text("dist NOPE lognormal 3\n"),
                     "unknown basic event");
  // CCF members lose their basic-event identity after expansion, so they
  // cannot initiate.
  expect_model_error(
      "be IE 1e-2\nbe A 1e-3\nbe B 1e-3\nand G A B\ntop G\n\netree T\n"
      "initiating A\nfunctional F G\nsequence CD F\n"
      "ccf-beta GRP 0.1 A B\n",
      "CCF group members cannot initiate");
}

TEST(ScenarioEngine, BackendAndThreadMatrixIsBitIdentical) {
  // The scenario dimension of the determinism matrix: exact and MCS
  // probabilities must be bit-identical across thread counts and cutset
  // backends (the exact column never touches the backend; the MCS column
  // goes through the engine whose lists are canonical either way).
  const std::string text =
      demo_text("ccf-beta PUMPS 0.1 PUMP_A PUMP_B\n");

  scenario_options ref_opts;
  ref_opts.analysis.threads = 1;
  ref_opts.analysis.inline_execution = true;
  ref_opts.analysis.backend = cutset_backend::mocus;
  const scenario_result reference =
      run_scenario(parse_scenario_string(text), ref_opts);

  for (std::size_t threads : {std::size_t{1}, std::size_t{2}, std::size_t{8}}) {
    for (cutset_backend backend :
         {cutset_backend::mocus, cutset_backend::bdd}) {
      scenario_options opts;
      opts.analysis.threads = threads;
      opts.analysis.backend = backend;
      const scenario_result r =
          run_scenario(parse_scenario_string(text), opts);
      const std::string label = std::string(to_string(backend)) +
                                " threads=" + std::to_string(threads);
      ASSERT_EQ(r.sequences.size(), reference.sequences.size()) << label;
      for (std::size_t s = 0; s < r.sequences.size(); ++s) {
        EXPECT_EQ(r.sequences[s].probability,
                  reference.sequences[s].probability)
            << label << " sequence " << s;
        EXPECT_EQ(r.sequences[s].mcs_probability,
                  reference.sequences[s].mcs_probability)
            << label << " sequence " << s;
        EXPECT_EQ(r.sequences[s].num_cutsets,
                  reference.sequences[s].num_cutsets)
            << label << " sequence " << s;
      }
      for (std::size_t e = 0; e < r.end_states.size(); ++e) {
        EXPECT_EQ(r.end_states[e].probability,
                  reference.end_states[e].probability)
            << label << " end state " << e;
      }
    }
  }
}

/// A scenario over a tests/random_event_tree.hpp draw, with a
/// beta-factor CCF group over e0 and e1 (the draw always has them; e1
/// takes e0's probability, as a group's members must share one). On even
/// seeds the last functional event re-uses the first one's gate: one
/// gate, two lists, so its events are private to neither.
scenario_model random_scenario(int seed) {
  testing::random_event_tree drawn = testing::make_random_event_tree(
      0x5ce0 + static_cast<std::uint64_t>(seed));
  fault_tree& ft = drawn.ft;
  ft.set_probability(ft.find("e1"), ft.node(ft.find("e0")).probability);
  scenario_description sc;
  sc.name = "ORACLE";
  sc.initiating_event = ft.node(drawn.ie).name;
  for (std::size_t i = 0; i < drawn.functional.size(); ++i) {
    sc.functional.push_back(
        {"F" + std::to_string(i), ft.node(drawn.functional[i]).name});
  }
  if (seed % 2 == 0) sc.functional.back().gate = sc.functional.front().gate;
  for (const auto& q : drawn.sequences) {
    sc.sequences.push_back({q.end_state, q.outcomes});
  }
  ccf_group_description group;
  group.name = "CCF";
  group.beta = 0.2;
  group.members = {"e0", "e1"};
  sc.ccf.push_back(group);
  return {sd_fault_tree(std::move(drawn.ft)), std::move(sc)};
}

/// Bit-for-bit agreement of one engine's MCS column with the reference.
void expect_matches_reference(const scenario_engine& engine,
                              const scenario_result& r,
                              const std::string& label) {
  const testing::cutset_column ref = testing::cutset_column_reference(engine);
  const fault_tree& tree = engine.expanded_tree();
  ASSERT_EQ(r.sequences.size(), ref.sequences.size()) << label;
  for (std::size_t s = 0; s < r.sequences.size(); ++s) {
    EXPECT_EQ(r.sequences[s].num_cutsets, ref.sequences[s].size())
        << label << " sequence " << s;
    EXPECT_EQ(r.sequences[s].mcs_probability,
              rare_event_probability(tree, ref.sequences[s]))
        << label << " sequence " << s;
  }
  ASSERT_EQ(r.end_states.size(), ref.end_states.size()) << label;
  for (std::size_t e = 0; e < r.end_states.size(); ++e) {
    EXPECT_EQ(r.end_states[e].num_cutsets, ref.end_states[e].size())
        << label << " end state " << e;
    EXPECT_EQ(r.end_states[e].mcs_probability,
              rare_event_probability(tree, ref.end_states[e]))
        << label << " end state " << e;
  }
}

class ScenarioCutsetOracle : public ::testing::TestWithParam<int> {};

TEST_P(ScenarioCutsetOracle, MatchesCartesianRecombination) {
  const scenario_model model = random_scenario(GetParam());
  const auto engine_at = [&](double cutoff, std::size_t threads) {
    scenario_options opts;
    opts.analysis.cutoff = cutoff;
    opts.analysis.threads = threads;
    opts.analysis.inline_execution = threads == 1;
    opts.analysis.publish_metrics = false;
    return std::make_unique<scenario_engine>(model, opts);
  };

  // A cutoff exactly at the probability of the median sequence cutset,
  // and one ulp to either side: the bound's slack must not move it.
  const auto unpruned = engine_at(0.0, 1);
  std::vector<double> cutset_probs;
  for (const auto& list :
       testing::cutset_column_reference(*unpruned).sequences) {
    for (const cutset& c : list) {
      cutset_probs.push_back(
          cutset_probability(unpruned->expanded_tree(), c));
    }
  }
  ASSERT_FALSE(cutset_probs.empty());
  std::sort(cutset_probs.begin(), cutset_probs.end());
  const double at = cutset_probs[cutset_probs.size() / 2];

  for (const double cutoff : {0.0, 1e-3, at, std::nextafter(at, 0.0),
                              std::nextafter(at, 1.0)}) {
    for (const std::size_t threads : {std::size_t{1}, std::size_t{4}}) {
      const auto engine = engine_at(cutoff, threads);
      const scenario_result r = engine->run();
      char label[96];
      std::snprintf(label, sizeof label, "seed %d cutoff %a threads %zu",
                    GetParam(), cutoff, threads);
      expect_matches_reference(*engine, r, label);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, ScenarioCutsetOracle, ::testing::Range(0, 24));

TEST(ScenarioEngine, RecombinationGuardNamesTheSequence) {
  // Three functional events on OR gates of 102 events each: at cutoff 0
  // the all-failed sequence recombines to 102^3 = 1,061,208 cutsets, past
  // the 2^20 guard. A cutoff that no full union clears keeps it quiet.
  std::string text = "be IE 1e-2\n";
  for (const char* sys : {"A", "B", "C"}) {
    std::string gate = std::string("or ") + sys + "_F";
    for (int i = 0; i < 102; ++i) {
      const std::string event = sys + std::to_string(i);
      text += "be " + event + " 1e-3\n";
      gate += " " + event;
    }
    text += gate + "\n";
  }
  text +=
      "or TOP A_F B_F C_F\ntop TOP\n\netree WIDE\ninitiating IE\n"
      "functional FA A_F\nfunctional FB B_F\nfunctional FC C_F\n"
      "sequence OK S - -\nsequence OK F S -\nsequence OK F F S\n"
      "sequence CD F F F\n";

  scenario_options opts;
  opts.analysis.cutoff = 0.0;
  opts.analysis.publish_metrics = false;
  scenario_engine wide(parse_scenario_string(text), opts);
  try {
    (void)wide.run();
    FAIL() << "expected the recombination guard to fire";
  } catch (const model_error& e) {
    EXPECT_NE(std::string(e.what()).find("sequence 3 recombines to more than "
                                         "1048576 cutsets"),
              std::string::npos)
        << e.what();
  }

  // At 1e-10 every full union (1e-11) is pruned: the {IE} x A_F and
  // then x B_F lists are built once each (102 + 102^2 unions, shared by
  // the sequences through their common prefix), and each base of the
  // latter stops its C_F scan at once.
  opts.analysis.cutoff = 1e-10;
  const scenario_result pruned =
      run_scenario(parse_scenario_string(text), opts);
  EXPECT_EQ(pruned.sequences[2].num_cutsets, 102u * 102u);
  EXPECT_EQ(pruned.sequences[3].num_cutsets, 0u);
  EXPECT_EQ(pruned.stats.scenario_cutset_unions, 102u + 102u * 102u);
}

}  // namespace
}  // namespace sdft
