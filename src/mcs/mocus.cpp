#include "mcs/mocus.hpp"

#include <algorithm>
#include <array>
#include <atomic>
#include <cstdint>
#include <deque>
#include <mutex>
#include <utility>

#include "mcs/visited_table.hpp"
#include "obs/obs.hpp"
#include "util/error.hpp"
#include "util/sorted_set.hpp"
#include "util/stopwatch.hpp"
#include "util/thread_pool.hpp"

namespace sdft {

namespace {

/// A partial cutset: basic events already chosen plus gates still to fail
/// (paper §IV-B). Both sets are kept sorted; together they are the
/// partial's visited-table key.
struct partial_cutset {
  std::vector<node_index> events;
  std::vector<node_index> gates;
  double probability = 1.0;  // product over chosen events, in sorted order
};

enum class event_mode : char { free_event, forced_failed, forced_working };

/// The expansion core shared by the serial and the parallel driver: the
/// forced-event modes, the cutoff/order pruning and the single-gate
/// expansion step. Stateless apart from the read-only inputs, so the
/// parallel driver calls it from every worker without synchronisation.
struct expansion {
  const fault_tree& ft;
  const mocus_options& opt;
  std::vector<event_mode> mode;

  expansion(const fault_tree& tree, const mocus_options& options)
      : ft(tree), opt(options), mode(tree.size(), event_mode::free_event) {
    for (node_index b : opt.assume_failed) {
      require_model(b < ft.size() && ft.is_basic(b),
                    "mocus: assume_failed entry is not a basic event");
      mode[b] = event_mode::forced_failed;
    }
    for (node_index b : opt.assume_working) {
      require_model(b < ft.size() && ft.is_basic(b),
                    "mocus: assume_working entry is not a basic event");
      require_model(mode[b] != event_mode::forced_failed,
                    "mocus: event both assumed failed and assumed working");
      mode[b] = event_mode::forced_working;
    }
  }

  /// Canonical probability of an event set: the product in sorted-index
  /// order. Recomputed from scratch on every insertion so the value (and
  /// thus every cutoff decision) depends only on the set, never on the
  /// expansion path that assembled it — the keystone of the bit-identical
  /// serial/parallel guarantee.
  double event_product(const std::vector<node_index>& events) const {
    double p = 1.0;
    for (node_index b : events) p *= ft.node(b).probability;
    return p;
  }

  /// Adds `child` (a basic event) to the partial; returns false if the
  /// partial dies (forced-working child of an AND, cutoff, order).
  bool add_event(partial_cutset& p, node_index child,
                 std::size_t& discarded) const {
    switch (mode[child]) {
      case event_mode::forced_failed:
        return true;  // satisfied for free
      case event_mode::forced_working:
        return false;
      case event_mode::free_event:
        break;
    }
    if (sorted_set::contains(p.events, child)) return true;
    sorted_set::insert(p.events, child);
    p.probability = event_product(p.events);
    if (p.events.size() > opt.max_order ||
        (opt.cutoff > 0.0 && p.probability < opt.cutoff)) {
      ++discarded;
      return false;
    }
    return true;
  }

  /// Expands one partial with a non-empty gate set by one gate, appending
  /// the surviving children to `out`.
  void expand(partial_cutset&& p, std::vector<partial_cutset>& out,
              std::size_t& discarded) const {
    // Expand an AND gate if available (it only constrains, never branches,
    // so the cutoff prunes earlier); otherwise the first OR gate.
    std::size_t pick = 0;
    for (std::size_t i = 0; i < p.gates.size(); ++i) {
      if (ft.node(p.gates[i]).type == gate_type::and_gate) {
        pick = i;
        break;
      }
    }
    const node_index g = p.gates[pick];
    p.gates.erase(p.gates.begin() + static_cast<std::ptrdiff_t>(pick));
    const ft_node& gate = ft.node(g);

    if (gate.type == gate_type::and_gate) {
      bool alive = true;
      for (node_index child : gate.inputs) {
        if (ft.is_basic(child)) {
          if (!add_event(p, child, discarded)) {
            alive = false;
            break;
          }
        } else {
          sorted_set::insert(p.gates, child);
        }
      }
      if (alive) out.push_back(std::move(p));
    } else {
      // If any input is certainly failed the gate is satisfied outright;
      // branching would only create subsumed supersets.
      for (node_index child : gate.inputs) {
        if (ft.is_basic(child) && mode[child] == event_mode::forced_failed) {
          out.push_back(std::move(p));
          return;
        }
      }
      for (std::size_t i = 0; i < gate.inputs.size(); ++i) {
        const node_index child = gate.inputs[i];
        // The last branch takes the parent's storage instead of a copy.
        partial_cutset branch =
            i + 1 < gate.inputs.size() ? p : std::move(p);
        if (ft.is_basic(child)) {
          if (!add_event(branch, child, discarded)) continue;
        } else {
          sorted_set::insert(branch.gates, child);
        }
        out.push_back(std::move(branch));
      }
    }
  }

  /// Builds the seed partial for `root`. Returns false when the root can
  /// never fail (no cutsets at all); `*seed` is valid only on true.
  bool seed(node_index root, partial_cutset* out) const {
    partial_cutset seed;
    if (ft.is_basic(root)) {
      switch (mode[root]) {
        case event_mode::free_event:
          seed.events.push_back(root);
          seed.probability = ft.node(root).probability;
          break;
        case event_mode::forced_failed:
          break;  // empty cutset: root already failed
        case event_mode::forced_working:
          return false;
      }
    } else {
      seed.gates.push_back(root);
    }
    if (seed.probability < opt.cutoff && opt.cutoff != 0.0) return false;
    *out = std::move(seed);
    return true;
  }
};

/// The original single-threaded driver: an explicit DFS stack and one
/// visited table cleared at dedup_limit.
mocus_result run_serial(const expansion& ex, partial_cutset seed) {
  obs::span_scope span("mocus.serial", "mocus");
  mocus_result result;
  std::vector<partial_cutset> stack;
  visited_table visited;
  std::vector<cutset> raw_cutsets;

  visited.insert(seed.events, seed.gates);
  stack.push_back(std::move(seed));

  std::vector<partial_cutset> children;
  while (!stack.empty()) {
    partial_cutset p = std::move(stack.back());
    stack.pop_back();
    ++result.partials_processed;
    if (result.partials_processed > ex.opt.max_partials) {
      throw numeric_error("mocus: partial cutset limit exceeded");
    }

    if (p.gates.empty()) {
      raw_cutsets.push_back(std::move(p.events));
      continue;
    }
    children.clear();
    ex.expand(std::move(p), children, result.cutoff_discarded);
    for (auto& c : children) {
      if (visited.size() >= ex.opt.dedup_limit) {
        // Clearing at the bound keeps memory flat, but a bare clear also
        // forgets the partials still awaiting expansion: a shared subtree
        // reached again would re-admit a partial that is already on the
        // stack (in the worst case the seed itself) and re-expand its
        // whole region once per clear. Re-priming with the live stack
        // keys makes a clear forget only *finished* work.
        result.visited_entries =
            std::max(result.visited_entries, visited.size());
        visited.clear();
        for (const partial_cutset& live : stack) {
          visited.insert(live.events, live.gates);
        }
      }
      if (visited.insert(c.events, c.gates)) stack.push_back(std::move(c));
    }
  }
  result.visited_entries = std::max(result.visited_entries, visited.size());
  result.visited_bytes = visited.bytes();

  span.arg("partials", static_cast<double>(result.partials_processed));
  span.arg("cutsets", static_cast<double>(raw_cutsets.size()));
  minimize_stats min_stats;
  result.cutsets = minimize_cutsets(std::move(raw_cutsets), &min_stats);
  result.subset_tests = min_stats.subset_tests;
  return result;
}

/// The parallel driver: the pool's work-stealing deques act as the shared
/// frontier of partial cutsets. Each task runs a local DFS, spilling
/// breadth-side partials back to the pool for thieves; duplicates are
/// filtered through a sharded visited cache; results and discard counters
/// accumulate in per-worker buffers merged after wait_idle(). The raw
/// cutset *set* is identical to the serial driver's (dedup and scheduling
/// only affect which duplicates get re-expanded), and minimize_cutsets()
/// canonicalises the final order, so the output is bit-identical to the
/// serial path for every thread count.
class parallel_mocus {
 public:
  parallel_mocus(const expansion& ex, thread_pool& pool)
      : ex_(ex),
        pool_(pool),
        shard_limit_(std::max<std::size_t>(1, ex.opt.dedup_limit / num_shards)),
        locals_(pool.size()) {}

  mocus_result run(partial_cutset seed) {
    mocus_result result;
    mark_visited(seed);
    pool_.submit([this, p = std::move(seed)]() mutable { run_task(std::move(p)); });
    pool_.wait_idle();  // rethrows the numeric_error of a tripped valve

    std::vector<cutset> raw;
    for (local_buffers& local : locals_) {
      result.cutoff_discarded += local.discarded;
      raw.insert(raw.end(), std::make_move_iterator(local.raw.begin()),
                 std::make_move_iterator(local.raw.end()));
    }
    for (visited_shard& shard : shards_) {
      result.visited_entries += shard.peak_entries;
      result.visited_bytes += shard.table.bytes();
    }
    result.partials_processed = processed_.load(std::memory_order_relaxed);
    result.threads_used = pool_.size();
    minimize_stats min_stats;
    result.cutsets = minimize_cutsets(std::move(raw), &min_stats);
    result.subset_tests = min_stats.subset_tests;
    return result;
  }

 private:
  static constexpr unsigned shard_bits = 6;
  static constexpr std::size_t num_shards = std::size_t{1} << shard_bits;
  /// Partials kept on the local run before breadth-side work is spilled to
  /// the pool for stealing.
  static constexpr std::size_t spill_threshold = 4;

  struct alignas(64) visited_shard {
    std::mutex mutex;
    visited_table table;
    std::size_t peak_entries = 0;
  };

  struct alignas(64) local_buffers {
    std::vector<cutset> raw;
    std::size_t discarded = 0;
  };

  bool mark_visited(const partial_cutset& p) {
    // Hash outside the lock. The shard comes from the high bits: the
    // table probes with the low ones, and a shard whose keys all shared
    // their low bits would cluster.
    const std::uint64_t h = visited_table::hash(p.events, p.gates);
    visited_shard& shard = shards_[h >> (64 - shard_bits)];
    std::lock_guard lock(shard.mutex);
    // A shard clear can re-admit partials still queued on other workers'
    // deques (they are unreachable from here); unlike the serial driver
    // the duplicate work is bounded by shard_limit_ re-expansions and the
    // result set is unaffected — minimize_cutsets() dedups.
    if (shard.table.size() >= shard_limit_) shard.table.clear();
    if (!shard.table.insert(p.events, p.gates, h)) return false;
    shard.peak_entries = std::max(shard.peak_entries, shard.table.size());
    return true;
  }

  void run_task(partial_cutset p) {
    obs::span_scope span("mocus.task", "mocus");
    std::size_t batch_partials = 0;
    std::size_t batch_spilled = 0;
    local_buffers& local = locals_[pool_.worker_index()];
    std::deque<partial_cutset> todo;
    todo.push_back(std::move(p));
    std::vector<partial_cutset> children;
    while (!todo.empty()) {
      if (aborted_.load(std::memory_order_relaxed)) return;
      partial_cutset cur = std::move(todo.back());
      todo.pop_back();
      ++batch_partials;
      if (processed_.fetch_add(1, std::memory_order_relaxed) >=
          ex_.opt.max_partials) {
        aborted_.store(true, std::memory_order_relaxed);
        throw numeric_error("mocus: partial cutset limit exceeded");
      }
      if (cur.gates.empty()) {
        local.raw.push_back(std::move(cur.events));
        continue;
      }
      children.clear();
      ex_.expand(std::move(cur), children, local.discarded);
      for (auto& c : children) {
        if (mark_visited(c)) todo.push_back(std::move(c));
      }
      // Keep the depth-side tail local; hand the breadth side (the oldest,
      // largest unexplored partials) to the pool for other workers.
      while (todo.size() > spill_threshold) {
        pool_.submit([this, sp = std::move(todo.front())]() mutable {
          run_task(std::move(sp));
        });
        todo.pop_front();
        ++batch_spilled;
      }
    }
    span.arg("partials", static_cast<double>(batch_partials));
    span.arg("spilled", static_cast<double>(batch_spilled));
  }

  const expansion& ex_;
  thread_pool& pool_;
  const std::size_t shard_limit_;
  std::array<visited_shard, num_shards> shards_;
  std::vector<local_buffers> locals_;
  std::atomic<std::size_t> processed_{0};
  std::atomic<bool> aborted_{false};
};

}  // namespace

mocus_result mocus_from(const fault_tree& ft, node_index root,
                        const mocus_options& opt) {
  require_model(root < ft.size(), "mocus: root index out of range");
  for (node_index n = 0; n < ft.size(); ++n) {
    require_model(!ft.is_gate(n) ||
                      ft.node(n).type != gate_type::atleast_gate,
                  "mocus: tree contains atleast gate '" + ft.node(n).name +
                      "'; lower voting gates first (prep normalization or "
                      "add_voting_gate)");
  }
  const stopwatch timer;
  const expansion ex(ft, opt);

  partial_cutset seed;
  if (!ex.seed(root, &seed)) {
    mocus_result result;
    result.seconds = timer.seconds();
    return result;
  }

  // The parallel driver needs a pool with at least two workers and must not
  // be entered from a job already running on that pool (its wait_idle()
  // would stall the worker the caller occupies).
  thread_pool* pool = opt.pool;
  const bool parallel =
      pool != nullptr && pool->size() > 1 && pool->worker_index() == thread_pool::npos;

  mocus_result result = parallel ? parallel_mocus(ex, *pool).run(std::move(seed))
                                 : run_serial(ex, std::move(seed));
  result.seconds = timer.seconds();
  return result;
}

mocus_result mocus(const fault_tree& ft, const mocus_options& opt) {
  require_model(ft.top() != fault_tree::npos, "mocus: fault tree has no top");
  return mocus_from(ft, ft.top(), opt);
}

}  // namespace sdft
