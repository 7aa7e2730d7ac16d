#pragma once

// Seeded input generation. Every workload's inputs come from the
// benchmark seed; the program only ever sees the generated trees,
// scenarios and request lines.

#include <cstdint>
#include <string>
#include <vector>

#include "common.hpp"
#include "engine/engine.hpp"
#include "etree/scenario.hpp"
#include "gen/industrial.hpp"
#include "sdft/sd_fault_tree.hpp"

namespace perfbench {

/// Relative spread of the seeded parameter jitter. Small on purpose: the
/// seed varies the data, not the amount of work, so runs with different
/// seeds measure the same job (a 10 % jitter moves the cutset count of
/// the plant model by ±8 %).
inline constexpr double jitter_sigma = 0.005;

/// The synthetic plant study of `options` (structure fixed by its own
/// generator seed) with every redundancy slot's failure data scaled by a
/// lognormal factor drawn from `seed`. Parallel trains keep sharing their
/// data, so symmetric structure — and the quantification cache's sharing
/// — is what the generator made it.
sdft::industrial_model jittered_model(const sdft::industrial_options& options,
                                      std::uint64_t seed);

/// Basic events by decreasing Fussell–Vesely importance, from the minimal
/// cutsets of an analysis_engine run on the static tree (prep, modular
/// generation on four threads).
std::vector<sdft::node_index> rank_by_engine(const sdft::fault_tree& ft,
                                             double cutoff);

/// The same ranking from raw serial mocus() — the slow path the older
/// bench harness takes; kept for the self-test's equality check.
std::vector<sdft::node_index> rank_by_raw_mocus(const sdft::fault_tree& ft,
                                                double cutoff);

/// A dynamic model plus the options of the analyses run on it.
struct analysis_input {
  sdft::sd_fault_tree tree;
  sdft::analysis_options options;
  std::vector<sdft::node_index> ranked;  ///< static FV ranking
  std::string description;
};

/// plant_cold: Model 1, 30 % dynamic / 10 % triggered, 24 h, cutoff 1e-15.
analysis_input make_plant(std::uint64_t seed, scale size);

/// dynamic_cold: bench-size Model 2, 60 % dynamic / 30 % triggered, 96 h.
analysis_input make_dynamic(std::uint64_t seed, scale size);

/// whatif_serve: Model 1 with repairs (rate 0.01/h), cutoff 1e-12.
analysis_input make_whatif(std::uint64_t seed, scale size);

/// etree_uq: an event tree over bench-size Model 1 (IE0, `systems`
/// front-line system gates, every F/S combination a sequence) with a few
/// lognormal parameters chosen by the seed.
struct etree_input {
  sdft::scenario_model model;
  sdft::analysis_options options;
  std::size_t uq_samples = 32;
  std::string description;
};
etree_input make_etree(std::uint64_t seed, scale size);

/// One request of the what-if stream.
struct whatif_request {
  enum class kind { hit, escape, sweep } type = kind::hit;
  std::string event;
  double value = 0;     ///< override (hit/escape) or sweep upper end
  std::string line;     ///< the NDJSON request
};

/// The seeded what-if request stream: 80 % analyze requests lowering one
/// static event (dominated by the cached envelope), 10 % raising a
/// not-yet-raised event ×10 (envelope escape), 10 % 8-point sweeps below
/// an event's base value. Request i depends only on (seed, i) and on how
/// many escapes precede it.
std::vector<whatif_request> make_whatif_stream(const analysis_input& in,
                                               std::uint64_t seed,
                                               std::size_t count);

}  // namespace perfbench
