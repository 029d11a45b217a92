// Shared helpers for the experiment binaries (bench/; experiments/*.scn holds the rest).
//
// Every experiment binary prints: the experiment id and the paper claim it
// reproduces, an aligned table of measured series, and a one-line verdict
// tying the measurement back to the claim.  All runs are seeded and
// deterministic; medians are taken across seeds.
#pragma once

#include <cmath>
#include <cstdint>
#include <iostream>
#include <string>
#include <vector>

#include "support/cli.h"
#include "support/stats.h"
#include "support/table.h"

namespace dhc::bench {

/// Prints the experiment banner: id, claim, and parameters.
inline void banner(const std::string& exp_id, const std::string& claim,
                   const std::string& params) {
  std::cout << "=== " << exp_id << " ===\n";
  std::cout << "claim:  " << claim << "\n";
  std::cout << "params: " << params << "\n\n";
}

/// One-line verdict.
inline void verdict(bool ok, const std::string& text) {
  std::cout << "\nverdict: " << (ok ? "PASS — " : "CHECK — ") << text << "\n\n";
}

}  // namespace dhc::bench
