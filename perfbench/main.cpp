// perfbench — the repository benchmark (see BENCHMARK.json).
//
//   perfbench --workload NAME --seed N --seconds S --trace 0|1
//             [--trace-file PATH]
//     Runs one workload. Human-readable lines first (every metric with
//     its unit, sample count and how it was derived), then one JSON line:
//     {"correct", "attempted", "failed", "metrics"} — the end-to-end
//     metrics with --trace 0, the per-layer metrics of the traced run with
//     --trace 1. Exits 1 when any answer was wrong or refused.
//
//   perfbench --selftest
//     Every workload at tiny sizes, untraced and traced, correctness
//     checks included; plus the equality of the engine-based and the raw
//     mocus() Fussell-Vesely rankings at bench size.
//
//   perfbench --list
//     The workloads and metrics as JSON (run.py --selftest checks them
//     against BENCHMARK.json).

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <fstream>
#include <string>
#include <vector>

#include "bench_common.hpp"
#include "inputs.hpp"
#include "util/json_writer.hpp"
#include "workloads.hpp"

namespace perfbench {

namespace {

struct metric_spec {
  const char* name;
  const char* unit;
};

/// The end-to-end metrics, in BENCHMARK.json order. ok_ratio is the
/// complement of the failed share, so that no metric reads 0 on a clean
/// run.
constexpr metric_spec end_to_end[] = {
    {"setup_s", "s"},
    {"latency_p50_ms", "ms"},
    {"latency_tail_ms", "ms"},
    {"latency_1t_p50_ms", "ms"},
    {"throughput_rps", "1/s"},
    {"peak_rss_mb", "MiB"},
    {"ok_ratio", "ratio"},
};

/// The per-layer metrics of the traced run, grouped by layer.
constexpr metric_spec per_layer[] = {
    {"mcs.generate_ms", "ms"},
    {"mcs.generate_1t_ms", "ms"},
    {"mcs.partials", "count"},
    {"mcs.subset_tests", "count"},
    {"mcs.cutsets", "count"},
    {"pool.generate_occupancy", "ratio"},
    {"pool.generate_steals", "count"},
    {"prep.preprocess_ms", "ms"},
    {"prep.nodes_eliminated", "count"},
    {"prep.modules", "count"},
    {"sdft.translate_ms", "ms"},
    {"quant.quantify_ms", "ms"},
    {"quant.busy_ms", "ms"},
    {"quant.solves", "count"},
    {"quant.solves_4t_spread", "count"},
    {"quant.hit_ratio", "ratio"},
    {"quant.chain_states", "count"},
    {"quant.failed", "count"},
    {"engine.sum_ms", "ms"},
    {"struct_cache.hit_ratio", "ratio"},
    {"struct_cache.regenerate_ms", "ms"},
    {"sweep.point_ms", "ms"},
    {"serve.handle_ms_p50", "ms"},
    {"serve.wait_ms_p50", "ms"},
    {"serve.response_bytes", "bytes"},
    {"scenario.compile_ms", "ms"},
    {"scenario.bdd_nodes", "count"},
    {"scenario.quantify_ms", "ms"},
    {"scenario.cutsets_ms", "ms"},
    {"scenario.sequence_cutsets", "count"},
    {"uq.sample_ms", "ms"},
    {"trace.overhead_ratio", "ratio"},
};

constexpr const char* workloads[] = {"plant_cold", "dynamic_cold",
                                     "whatif_serve", "etree_uq"};

const metric* find(const report& r, const char* name) {
  for (const metric& m : r.metrics) {
    if (m.name == name) return &m;
  }
  return nullptr;
}

report run_workload(const run_config& cfg) {
  if (cfg.workload == "plant_cold") return run_cold(cfg, false);
  if (cfg.workload == "dynamic_cold") return run_cold(cfg, true);
  if (cfg.workload == "whatif_serve") return run_whatif(cfg);
  if (cfg.workload == "etree_uq") return run_etree(cfg);
  throw std::invalid_argument("unknown workload '" + cfg.workload + "'");
}

/// Completes the report to exactly the metric set of the run: ok_ratio on
/// the untraced run; on the traced run, 0 for layers this workload does
/// not exercise. Returns the set.
std::vector<metric> select_metrics(report& r, bool trace) {
  if (!trace) {
    r.add("ok_ratio",
          r.attempted > 0 ? static_cast<double>(r.attempted - r.failed) /
                                static_cast<double>(r.attempted)
                          : 0.0,
          "ratio", r.attempted, "(attempted - failed) / attempted");
  }
  std::vector<metric> out;
  const auto take = [&](const auto& specs) {
    for (const metric_spec& s : specs) {
      const metric* m = find(r, s.name);
      if (m != nullptr) {
        metric copy = *m;
        copy.unit = s.unit;
        out.push_back(copy);
      } else if (trace) {
        out.push_back({s.name, 0.0, s.unit, 0, "not exercised by this workload"});
      } else {
        r.problems.push_back(std::string("missing metric ") + s.name);
      }
    }
  };
  if (trace) {
    take(per_layer);
  } else {
    take(end_to_end);
  }
  return out;
}

void print_report(const run_config& cfg, const report& r,
                  const std::vector<metric>& metrics) {
  std::printf("# perfbench %s seed %llu (%s run, %.0f s): %s\n",
              cfg.workload.c_str(), static_cast<unsigned long long>(cfg.seed),
              cfg.trace ? "traced" : "untraced", cfg.seconds,
              r.description.c_str());
  for (const metric& m : metrics) {
    std::printf("#   %-28s %14.6g %-6s n=%-5zu %s\n", m.name.c_str(), m.value,
                m.unit.c_str(), m.samples, m.note.c_str());
  }
  if (!r.layer_self_ms.empty()) {
    double total = 0.0;
    for (const auto& entry : r.layer_self_ms) total += entry.second;
    std::printf("# self time by layer (dominant: %s)\n",
                r.dominant_layer.c_str());
    for (const auto& [layer, ms] : r.layer_self_ms) {
      std::printf("#   %-28s %14.3f ms  %5.1f %%\n", layer.c_str(), ms,
                  total > 0.0 ? 100.0 * ms / total : 0.0);
    }
  }
  for (const std::string& p : r.problems) std::printf("# FAILED: %s\n", p.c_str());
  sdft::json::writer w;
  w.begin_object();
  w.key("correct").boolean(r.correct());
  w.key("attempted").integer(r.attempted);
  w.key("failed").integer(r.failed);
  w.key("metrics").begin_object();
  for (const metric& m : metrics) {
    w.key(m.name).begin_object();
    w.key("value").number(m.value);
    w.key("unit").string(m.unit);
    w.end_object();
  }
  w.end_object();
  w.end_object();
  std::printf("%s\n", w.str().c_str());
  std::fflush(stdout);
}

int selftest() {
  int failures = 0;
  const auto expect = [&](bool ok, const std::string& what) {
    std::printf("%s %s\n", ok ? "ok  " : "FAIL", what.c_str());
    if (!ok) ++failures;
  };

  // Fussell-Vesely ranking from the engine equals the raw mocus() one.
  for (const auto& [label, gen] :
       {std::pair{"Model 1", sdft::bench::model1_options(false)},
        std::pair{"Model 2", sdft::bench::model2_options(false)}}) {
    const sdft::industrial_model model = jittered_model(gen, 1);
    expect(rank_by_engine(model.ft, sdft::bench::paper_cutoff) ==
               rank_by_raw_mocus(model.ft, sdft::bench::paper_cutoff),
           std::string("engine FV ranking == raw mocus() ranking, bench-size ") +
               label);
  }

  for (const char* name : workloads) {
    for (const bool trace : {false, true}) {
      run_config cfg;
      cfg.workload = name;
      cfg.seed = 7;
      cfg.seconds = 0.5;
      cfg.trace = trace;
      cfg.size = scale::tiny;
      report r = run_workload(cfg);
      const std::vector<metric> metrics = select_metrics(r, trace);
      const std::string what = std::string(name) + (trace ? " traced" : "");
      expect(r.correct() && r.attempted > 0, what + ": correct");
      for (const std::string& p : r.problems) std::printf("     %s\n", p.c_str());
      bool all_positive = true;
      for (const metric& m : metrics) {
        if (!trace && !(m.value > 0.0 && std::isfinite(m.value))) {
          all_positive = false;
          std::printf("     %s = %g\n", m.name.c_str(), m.value);
        }
      }
      const std::size_t want =
          trace ? std::size(per_layer) : std::size(end_to_end);
      expect(metrics.size() == want && all_positive,
             what + ": every metric present" +
                 (trace ? "" : " and positive"));
      if (trace) {
        expect(!r.dominant_layer.empty(),
               what + ": dominant layer " + r.dominant_layer);
      }
    }
  }
  std::printf("%d failure(s)\n", failures);
  return failures == 0 ? 0 : 1;
}

int list() {
  sdft::json::writer w;
  w.begin_object();
  w.key("workloads").begin_array();
  for (const char* name : workloads) w.string(name);
  w.end_array();
  const auto put = [&](const char* key, const auto& specs) {
    w.key(key).begin_array();
    for (const metric_spec& s : specs) {
      w.begin_object().key("name").string(s.name).key("unit").string(s.unit);
      w.end_object();
    }
    w.end_array();
  };
  put("end_to_end", end_to_end);
  put("per_layer", per_layer);
  w.end_object();
  std::printf("%s\n", w.str().c_str());
  return 0;
}

int usage() {
  std::fprintf(stderr,
               "usage: perfbench --workload NAME --seed N --seconds S "
               "--trace 0|1 [--trace-file PATH]\n"
               "       perfbench --selftest | --list\n");
  return 2;
}

}  // namespace

void write_spans(report& r, const std::string& path,
                 const std::vector<std::pair<std::string, const span_log*>>&
                     logs) {
  if (path.empty()) return;
  std::ofstream out(path);
  out << "{";
  for (std::size_t i = 0; i < logs.size(); ++i) {
    out << (i > 0 ? "," : "") << "\"" << logs[i].first
        << "\":" << logs[i].second->to_json();
  }
  out << "}\n";
  if (!out) r.problems.push_back("cannot write spans to " + path);
}

}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  run_config cfg;
  bool have_workload = false;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    if (a == "--selftest") return selftest();
    if (a == "--list") return list();
    if (i + 1 >= argc) return usage();
    const char* v = argv[++i];
    if (a == "--workload") {
      cfg.workload = v;
      have_workload = true;
    } else if (a == "--seed") {
      cfg.seed = std::strtoull(v, nullptr, 10);
    } else if (a == "--seconds") {
      cfg.seconds = std::atof(v);
    } else if (a == "--trace") {
      cfg.trace = std::strcmp(v, "0") != 0;
    } else if (a == "--trace-file") {
      cfg.trace_file = v;
    } else {
      return usage();
    }
  }
  if (!have_workload || !(cfg.seconds > 0.0)) return usage();
  try {
    report r = run_workload(cfg);
    const std::vector<metric> metrics = select_metrics(r, cfg.trace);
    print_report(cfg, r, metrics);
    return r.correct() ? 0 : 1;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 1;
  }
}
