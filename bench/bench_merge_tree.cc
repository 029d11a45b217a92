// EXP-L8 (+ Fig. 3): DHC2's merge tree level by level.
//
// Lemmas 8/9: every one of the ⌈log₂ K⌉ merge levels succeeds whp, with the
// failure probability shrinking as cycles grow.  Per level we report the
// bridges built (must equal the number of cycle pairs) and the bridge
// candidates discovered (growing with cycle size — the slack behind
// Lemma 8's "very high probability").
//
// The instances come from the runner (runner::make_trial_instance over an
// expanded Scenario): the graphs a `dhc_run --algos=dhc2` sweep solves.
//
// Flags: --n=..., --seeds=N, --c=X, --delta=X.
#include "bench_util.h"
#include "core/dhc2.h"
#include "runner/trial_runner.h"

int main(int argc, char** argv) {
  using namespace dhc;
  const support::Cli cli(argc, argv);
  const auto seeds = static_cast<std::uint64_t>(cli.get_int("seeds", 3));
  const double c = cli.get_double("c", 2.5);
  const double delta = cli.get_double("delta", 0.5);
  const auto n = static_cast<graph::NodeId>(cli.get_int("n", 4096));
  runner::Scenario scenario;
  scenario.sizes = {n};
  scenario.deltas = {delta};
  scenario.cs = {c};
  scenario.seeds = seeds;
  scenario.base_seed = 40;

  bench::banner("EXP-L8 / Fig. 3",
                "Lemmas 8/9: all O(log n) merge levels succeed whp; "
                "candidate bridges grow with cycle size",
                "n = " + std::to_string(n) + ", delta = " + support::Table::num(delta, 2) +
                    ", c = " + support::Table::num(c, 1) + ", seeds = " + std::to_string(seeds));

  // Accumulate per-level medians.
  std::vector<std::vector<double>> bridges_by_level;
  std::vector<std::vector<double>> cands_by_level;
  int successes = 0;
  double expected_levels = 0;
  for (const auto& t : runner::expand(scenario)) {
    const auto g = runner::make_trial_instance(t);
    core::Dhc2Config cfg;
    cfg.delta = delta;
    const auto r = core::run_dhc2(g, t.algo_seed, cfg);
    expected_levels = r.stat("merge_levels");
    if (!r.success) continue;
    ++successes;
    const auto it = r.series.find("bridges_per_level");
    const auto ct = r.series.find("candidates_per_level");
    if (it == r.series.end() || ct == r.series.end()) continue;
    bridges_by_level.resize(std::max(bridges_by_level.size(), it->second.size()));
    cands_by_level.resize(std::max(cands_by_level.size(), ct->second.size()));
    for (std::size_t l = 0; l < it->second.size(); ++l) bridges_by_level[l].push_back(it->second[l]);
    for (std::size_t l = 0; l < ct->second.size(); ++l) cands_by_level[l].push_back(ct->second[l]);
  }

  support::Table table({"level", "pairs to merge", "median bridges", "median candidates",
                        "candidates/bridge"});
  const auto k = static_cast<std::uint32_t>(
      std::llround(std::pow(static_cast<double>(n), 1.0 - delta)));
  std::uint32_t cycles = k;
  bool all_merged = successes > 0;
  for (std::size_t l = 0; l < bridges_by_level.size(); ++l) {
    const std::uint32_t pairs = cycles / 2;
    const double bridges = support::quantile(bridges_by_level[l], 0.5);
    const double cands =
        l < cands_by_level.size() ? support::quantile(cands_by_level[l], 0.5) : 0.0;
    if (bridges < pairs) all_merged = false;
    table.add_row({support::Table::num(static_cast<std::uint64_t>(l + 1)),
                   support::Table::num(std::uint64_t{pairs}), support::Table::num(bridges, 1),
                   support::Table::num(cands, 0),
                   support::Table::num(bridges > 0 ? cands / bridges : 0.0, 1)});
    cycles = (cycles + 1) / 2;
  }
  table.print(std::cout);
  std::cout << "\nruns fully merged: " << successes << "/" << seeds << " (levels = "
            << expected_levels << ")\n";

  bench::verdict(all_merged,
                 "every level merges all its pairs and the candidate surplus grows with cycle "
                 "size — Lemma 8/9's failure probability visibly shrinks per level");
  return 0;
}
