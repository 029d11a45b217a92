// EXP-A1 (ablation): rotation broadcasts — BFS-tree vs flooding.
//
// The paper says "vj broadcasts the values h and j" without fixing a
// mechanism.  Flooding every partition edge is the literal reading
// (O(m_partition) messages per rotation); relaying over the partition's BFS
// tree costs O(n_partition) messages at the same Θ(depth) round cost.  Both
// engines must produce valid cycles; the ablation quantifies the message
// gap (the round counts may differ slightly since edge draws differ).
//
// The instances come from the runner (runner::make_trial_instance over an
// expanded Scenario): the graphs a `dhc_run --algos=dra` sweep of the same
// cells solves.  The broadcast mode itself is not a scenario axis.
//
// Flags: --sizes=..., --seeds=N, --c=X.
#include "bench_util.h"
#include "core/dra.h"
#include "runner/trial_runner.h"

int main(int argc, char** argv) {
  using namespace dhc;
  const support::Cli cli(argc, argv);
  const auto seeds = static_cast<std::uint64_t>(cli.get_int("seeds", 3));
  const double c = cli.get_double("c", 6.0);
  const auto sizes = cli.get_int_list("sizes", {256, 512, 1024});
  runner::Scenario scenario;
  scenario.algos = {runner::Algorithm::kDra};
  scenario.sizes = sizes;
  scenario.deltas = {1.0};
  scenario.cs = {c};
  scenario.seeds = seeds;
  scenario.base_seed = 350;
  const auto trials = runner::expand(scenario);

  bench::banner("EXP-A1",
                "ablation: rotation broadcast engine — BFS tree (O(n) msgs/rotation) vs "
                "flooding (O(m) msgs/rotation), same Theta(depth) rounds",
                "standalone DRA, p = c ln n / n, c = " + support::Table::num(c, 1) +
                    ", seeds = " + std::to_string(seeds));

  support::Table table({"n", "mode", "median rounds", "median messages", "msgs/rotation",
                        "success"});
  std::vector<double> message_gap;
  for (const auto size : sizes) {
    const auto n = static_cast<graph::NodeId>(size);
    double per_mode_msgs[2] = {0, 0};
    int mode_idx = 0;
    for (const auto mode : {core::BroadcastMode::kTree, core::BroadcastMode::kFlood}) {
      std::vector<double> rounds;
      std::vector<double> msgs;
      std::vector<double> per_rot;
      int ok = 0;
      for (const auto& t : trials) {
        if (t.n != n) continue;
        core::DraConfig cfg;
        cfg.broadcast = mode;
        const auto r = core::run_dra(runner::make_trial_instance(t), t.algo_seed, cfg);
        if (!r.success) continue;
        ++ok;
        rounds.push_back(static_cast<double>(r.metrics.rounds));
        msgs.push_back(static_cast<double>(r.metrics.messages));
        per_rot.push_back(static_cast<double>(r.metrics.messages) /
                          std::max(1.0, r.stat("rotations")));
      }
      if (rounds.empty()) continue;
      per_mode_msgs[mode_idx++] = support::quantile(msgs, 0.5);
      table.add_row({support::Table::num(static_cast<std::uint64_t>(n)),
                     mode == core::BroadcastMode::kTree ? "tree" : "flood",
                     support::Table::num(support::quantile(rounds, 0.5), 0),
                     support::Table::num(support::quantile(msgs, 0.5), 0),
                     support::Table::num(support::quantile(per_rot, 0.5), 0),
                     std::to_string(ok) + "/" + std::to_string(seeds)});
    }
    if (per_mode_msgs[0] > 0) message_gap.push_back(per_mode_msgs[1] / per_mode_msgs[0]);
  }
  table.print(std::cout);

  std::cout << "\nflood/tree message ratio by n:";
  for (const double g : message_gap) std::cout << ' ' << support::Table::num(g, 1) << 'x';
  std::cout << '\n';
  bench::verdict(!message_gap.empty() && message_gap.back() > 1.5,
                 "tree broadcasts cut rotation messages by the graph's average degree while "
                 "keeping the same round asymptotics");
  return 0;
}
