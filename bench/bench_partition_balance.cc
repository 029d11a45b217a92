// EXP-L4: concentration of the random partition sizes.
//
// Lemma 4 (and Lemma 7 for general δ): with K = n^{1−δ} colors drawn
// uniformly at random, every color class has size within [½, 3/2]·n^δ whp.
// We draw colorings across n and δ and report the min/max class size against
// that interval, plus the fraction of trials where *all* classes fall inside
// (the event A of Definition 1).
//
// Flags: --sizes=..., --deltas=..., --trials=N.
#include "bench_util.h"

#include <algorithm>

#include "graph/graph.h"
#include "support/rng.h"

int main(int argc, char** argv) {
  using namespace dhc;
  const support::Cli cli(argc, argv);
  const auto trials = static_cast<std::uint64_t>(cli.get_int("trials", 50));
  const auto sizes = cli.get_int_list("sizes", {1024, 4096, 16384, 65536});
  const auto deltas = cli.get_double_list("deltas", {0.5, 0.75});

  bench::banner("EXP-L4",
                "Lemmas 4/7: all K = n^{1-delta} partition sizes lie in [1/2, 3/2] n^delta whp",
                "trials = " + std::to_string(trials));

  support::Table table(
      {"n", "delta", "K", "E[size]", "min size", "max size", "Pr[all in bounds]"});
  bool all_ok = true;
  for (const double delta : deltas) {
    for (const auto size : sizes) {
      const auto n = static_cast<graph::NodeId>(size);
      const auto k = static_cast<std::uint32_t>(std::max<std::int64_t>(
          1, std::llround(std::pow(static_cast<double>(n), 1.0 - delta))));
      const double expected = static_cast<double>(n) / k;
      std::uint64_t within = 0;
      std::uint64_t global_min = n;
      std::uint64_t global_max = 0;
      support::Rng rng(n * 31 + static_cast<std::uint64_t>(delta * 100));
      for (std::uint64_t t = 0; t < trials; ++t) {
        std::vector<std::uint64_t> counts(k, 0);
        for (graph::NodeId v = 0; v < n; ++v) ++counts[rng.below(k)];
        const auto mn = *std::min_element(counts.begin(), counts.end());
        const auto mx = *std::max_element(counts.begin(), counts.end());
        global_min = std::min(global_min, mn);
        global_max = std::max(global_max, mx);
        if (static_cast<double>(mn) >= 0.5 * expected && static_cast<double>(mx) <= 1.5 * expected) {
          ++within;
        }
      }
      const double frac = static_cast<double>(within) / static_cast<double>(trials);
      // Concentration strengthens with n^delta (the class size), so demand
      // high mass only for comfortably sized classes.
      if (expected >= 64.0 && frac < 0.9) all_ok = false;
      table.add_row({support::Table::num(static_cast<std::uint64_t>(n)),
                     support::Table::num(delta, 2),
                     support::Table::num(static_cast<std::uint64_t>(k)),
                     support::Table::num(expected, 1), support::Table::num(global_min),
                     support::Table::num(global_max), support::Table::num(frac, 2)});
    }
  }
  table.print(std::cout);

  bench::verdict(all_ok,
                 "partition sizes concentrate in [1/2, 3/2] of the mean, tightening as n grows "
                 "— event A of Definition 1 holds whp");
  return 0;
}
