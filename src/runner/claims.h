// Checked claims: a scenario's paper bounds, evaluated on its aggregates.
//
// A scenario's `claims` key holds `;`-separated comparisons, e.g.
//   claims = algos=dhc1: slope(rounds / (sqrt(n) * ln(n)^2 / ln(ln(n))), n) < 0.3
//
//   CLAIM = [SEL :] EXPR (< | <= | > | >=) EXPR
//   SEL   = key=value[,key=value]     keys: algos sizes deltas cs merges machines
//   EXPR  = number | VAR | VAR[SEL] | EXPR (+ - * / ^) EXPR | (EXPR)
//         | ln(EXPR) | sqrt(EXPR) | slope(EXPR[, n|k|delta])
//   VAR   = n | delta | c | k | p | success_rate | rounds | messages | bits
//         | memory | <stat key>
//
// rounds/messages/bits/memory are medians over a cell's successful trials, a
// stat key is its mean over all trials, p = c·ln n / n^δ.  A claim holds when
// it holds in every cell its selector admits.  VAR[SEL] reads the paired cell,
// which differs from the current one only in SEL's keys.  slope(E, axis) is
// the log-log slope of E over the cells that agree on every other axis; such
// a claim is checked once per group.  A VAR a cell lacks, a median without
// successes, a missing pair or a selector that admits no cell FAILs with its
// reason, never skips.  Claims never enter expand(), seeds or the artifacts.
#pragma once

#include <iosfwd>
#include <string>
#include <vector>

namespace dhc::runner {

struct ConfigSummary;

/// Throws std::invalid_argument when a `claims` value is malformed.
void validate_claims(const std::string& claims);

/// Evaluates every claim on the aggregated cells and prints, per claim, one
/// PASS/FAIL line per checked cell or slope group (its varying axes in
/// selector syntax, then "lhs op rhs" with the computed values or the reason
/// it failed) and the claim's verdict.  True when every claim holds.
bool check_claims(std::ostream& os, const std::string& claims,
                  const std::vector<ConfigSummary>& summaries);

}  // namespace dhc::runner
