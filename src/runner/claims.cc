#include "runner/claims.h"

#include <algorithm>
#include <cctype>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <functional>
#include <ostream>
#include <stdexcept>
#include <string_view>

#include "graph/generators.h"
#include "runner/aggregator.h"
#include "runner/scenario.h"
#include "support/stats.h"

namespace dhc::runner {

namespace {

using Cell = ConfigSummary;

/// The cell axes a selector or slope() can name, by scenario key.
enum Axis : int { kAlgos, kSizes, kDeltas, kCs, kMerges, kMachines, kAxisCount };
constexpr const char* kAxisKeys[kAxisCount] = {"algos", "sizes",  "deltas",
                                               "cs",    "merges", "machines"};

double axis_value(const TrialConfig& c, int axis) {
  const double values[kAxisCount] = {static_cast<double>(c.algo), static_cast<double>(c.n),
                                     c.delta, c.c, static_cast<double>(c.merge),
                                     static_cast<double>(c.machines)};
  return values[axis];
}

std::string fmt(double v, const char* spec = "%.4g") {
  char buf[32];
  std::snprintf(buf, sizeof buf, spec, v);
  return buf;
}

std::string trim(const std::string& s) {
  const auto first = s.find_first_not_of(" \t");
  return first == std::string::npos ? "" : s.substr(first, s.find_last_not_of(" \t") - first + 1);
}

[[noreturn]] void bad(const std::string& claim, const std::string& why) {
  throw std::invalid_argument("claim '" + claim + "': " + why);
}

/// True when a and b agree on every axis outside the bit mask `free`, and on
/// the async fault axes (which claims cannot name but cells can differ in).
bool agrees(const TrialConfig& a, const TrialConfig& b, unsigned free) {
  for (int x = 0; x < kAxisCount; ++x) {
    if ((free >> x & 1) == 0 && axis_value(a, x) != axis_value(b, x)) return false;
  }
  return a.delay_dist == b.delay_dist && a.drop_prob == b.drop_prob &&
         a.crash_schedule == b.crash_schedule && a.reliability == b.reliability;
}

struct Selector {
  std::string text;
  std::vector<std::pair<int, double>> keys;
  unsigned mask = 0;  ///< the axes `keys` name

  bool admits(const TrialConfig& c) const {
    const auto matches = [&](const auto& k) { return axis_value(c, k.first) == k.second; };
    return std::ranges::all_of(keys, matches);
  }
};

Selector parse_selector(const std::string& claim, const std::string& text) {
  Selector sel{trim(text), {}, 0};
  for (std::size_t start = 0; start <= text.size();) {
    const auto comma = std::min(text.find(',', start), text.size());
    const std::string part = text.substr(start, comma - start);
    start = comma + 1;
    const auto eq = part.find('=');
    const std::string key = trim(part.substr(0, eq));
    const auto axis = static_cast<int>(std::ranges::find(kAxisKeys, key) - std::begin(kAxisKeys));
    if (eq == std::string::npos || axis == kAxisCount) {
      bad(claim, "unknown selector key '" + key + "' (algos|sizes|deltas|cs|merges|machines)");
    }
    const std::string value = trim(part.substr(eq + 1));
    char* end = nullptr;
    const double v = axis == kAlgos    ? static_cast<double>(parse_algorithm(value))
                     : axis == kMerges ? static_cast<double>(parse_merge_strategy(value))
                                       : std::strtod(value.c_str(), &end);
    if (end != nullptr && (value.empty() || *end != '\0')) bad(claim, key + " needs a number");
    sel.keys.emplace_back(axis, v);
    sel.mask |= 1u << axis;
  }
  return sel;
}

/// What an expression reads: every cell of the scenario.  A value a cell
/// cannot give throws std::domain_error, which fails that cell's check.
struct Cells {
  const std::vector<Cell>& all;

  /// The axes that vary in the scenario, minus `free`, in selector syntax.
  std::string label(const TrialConfig& c, unsigned free = 0) const {
    std::string out;
    for (int x = 0; x < kAxisCount; ++x) {
      const auto differs = [&](const Cell& o) {
        return axis_value(o.config, x) != axis_value(c, x);
      };
      if ((free >> x & 1) != 0 || std::ranges::none_of(all, differs)) continue;
      out.append(out.empty() ? "" : ",").append(kAxisKeys[x]).append("=");
      out += x == kAlgos ? to_string(c.algo) : x == kMerges ? to_string(c.merge)
                                                            : fmt(axis_value(c, x), "%g");
    }
    return out.empty() ? "all" : out;
  }

  const Cell& paired(const Cell& cell, const Selector& at) const {
    for (const auto& s : all) {
      if (at.admits(s.config) && agrees(s.config, cell.config, at.mask)) return s;
    }
    throw std::domain_error("no cell pairs with " + label(cell.config) + " at [" + at.text + "]");
  }

  double var(const std::string& v, const Cell& s) const {
    const auto& c = s.config;
    if (v == "n") return c.n;
    if (v == "delta") return c.delta;
    if (v == "c") return c.c;
    if (v == "k") return c.machines;
    if (v == "p") return graph::edge_probability(c.n, c.c, c.delta);
    if (v == "success_rate") return s.success_rate;
    const MetricSummary* m = v == "rounds" ? &s.rounds : v == "messages" ? &s.messages
                           : v == "bits"   ? &s.bits   : v == "memory"   ? &s.memory : nullptr;
    if (m != nullptr && s.successes > 0) return m->median;
    if (m != nullptr) throw std::domain_error(label(c) + " has no success, so no median " + v);
    const auto it = s.stat_means.find(v);
    if (it == s.stat_means.end()) throw std::domain_error(label(c) + " lacks '" + v + "'");
    return it->second;
  }

  template <typename Expr>
  double slope(const Expr& e, int axis, const Cell& cell) const {
    std::vector<double> xs, ys;
    for (const auto& s : all) {
      if (!agrees(s.config, cell.config, 1u << axis)) continue;
      xs.push_back(axis_value(s.config, axis));
      ys.push_back(e(*this, s));
      if (!(xs.back() > 0.0 && ys.back() > 0.0)) {
        throw std::domain_error("slope needs positive values, got " + fmt(ys.back()) + " at " +
                                label(s.config));
      }
    }
    if (xs.size() < 2) throw std::domain_error("slope needs at least two cells along its axis");
    return support::loglog_slope(xs, ys);
  }
};

using Expr = std::function<double(const Cells&, const Cell&)>;

struct ClaimTree {
  std::string text;
  Selector where;
  Expr lhs, rhs;
  std::string cmp;
  unsigned slope_axes = 0;  ///< a claim with slope() is checked once per group along these
};

/// Recursive descent that compiles a claim into closures; ^ binds tighter
/// than * and /, which bind tighter than + and -.
class Parser {
 public:
  /// Compiles `text`, the claim without its selector, into `tree`.
  Parser(const std::string& claim, const std::string& text, ClaimTree& tree)
      : claim_(claim), tree_(tree), s_(text) {
    tree_.lhs = sum();
    skip_ws();
    const auto end = std::min(s_.find_first_not_of("<>=!", pos_), s_.size());
    tree_.cmp = s_.substr(pos_, end - pos_);
    if (tree_.cmp != "<" && tree_.cmp != "<=" && tree_.cmp != ">" && tree_.cmp != ">=") {
      bad(claim_, tree_.cmp.empty() ? "expected <, <=, > or >= at " + rest()
                                    : "unknown comparison operator '" + tree_.cmp + "'");
    }
    pos_ = end;
    tree_.rhs = sum();
    skip_ws();
    if (pos_ != s_.size()) bad(claim_, "unexpected " + rest());
  }

 private:
  unsigned char peek() const { return pos_ < s_.size() ? s_[pos_] : 0; }
  std::string rest() const { return std::string(1, '\'').append(s_, pos_).append("'"); }
  void skip_ws() { while (std::isspace(peek())) ++pos_; }
  /// Consumes the next non-blank character if it is one of `ops`.
  char accept(std::string_view ops) {
    skip_ws();
    return peek() != 0 && ops.find(static_cast<char>(peek())) != ops.npos ? s_[pos_++] : 0;
  }
  void expect(char c) {
    if (!accept({&c, 1})) bad(claim_, std::string("expected '") + c + "' at " + rest());
  }
  /// Reads a run of [A-Za-z0-9_]: a name or a slope axis.
  std::string name() {
    const auto start = pos_;
    while (std::isalnum(peek()) || peek() == '_') ++pos_;
    return s_.substr(start, pos_ - start);
  }
  static Expr binary(char op, Expr a, Expr b) {
    return [op, a = std::move(a), b = std::move(b)](const Cells& cells, const Cell& s) {
      const double x = a(cells, s), y = b(cells, s);
      return op == '+' ? x + y : op == '-' ? x - y : op == '*' ? x * y
           : op == '/' ? x / y : std::pow(x, y);
    };
  }
  /// The binary operators of precedence `level` and above: + - (0), * / (1),
  /// then ^ (2, right-associative).
  Expr sum(int level = 0) {
    static constexpr std::string_view kOps[] = {"+-", "*/", "^"};
    if (level == 3) return primary();
    Expr e = sum(level + 1);
    while (const char op = accept(kOps[level])) {
      e = binary(op, std::move(e), sum(op == '^' ? level : level + 1));
    }
    return e;
  }
  Expr primary() {
    if (accept("(")) {
      Expr e = sum();
      expect(')');
      return e;
    }
    if (std::isdigit(peek()) || peek() == '.') {
      char* end = nullptr;
      const double v = std::strtod(s_.c_str() + pos_, &end);
      if (end == s_.c_str() + pos_) bad(claim_, "malformed number at " + rest());
      pos_ = static_cast<std::size_t>(end - s_.c_str());
      return [v](const Cells&, const Cell&) { return v; };
    }
    const std::string var = name();
    if (var.empty()) bad(claim_, "expected a number, name or '(' at " + rest());
    if (accept("(")) return call(var);
    if (peek() != '[') return [var](const Cells& c, const Cell& s) { return c.var(var, s); };
    const auto close = s_.find(']', pos_);
    if (close == std::string::npos) bad(claim_, "unbalanced '['");
    Selector at = parse_selector(claim_, s_.substr(pos_ + 1, close - pos_ - 1));
    pos_ = close + 1;
    return [var, at](const Cells& cells, const Cell& s) {
      return cells.var(var, cells.paired(s, at));
    };
  }
  Expr call(const std::string& fn) {
    Expr e = sum();
    int axis = kSizes;
    if (fn == "slope" && accept(",")) {
      skip_ws();
      const std::string x = name();
      if (x != "n" && x != "k" && x != "delta") bad(claim_, "slope axis must be n, k or delta");
      axis = x == "n" ? kSizes : x == "k" ? kMachines : kDeltas;
    }
    expect(')');
    if (fn == "ln") return [e](const Cells& c, const Cell& s) { return std::log(e(c, s)); };
    if (fn == "sqrt") return [e](const Cells& c, const Cell& s) { return std::sqrt(e(c, s)); };
    if (fn != "slope") bad(claim_, "unknown function '" + fn + "'");
    tree_.slope_axes |= 1u << axis;
    return [e, axis](const Cells& c, const Cell& s) { return c.slope(e, axis, s); };
  }

  const std::string& claim_;
  ClaimTree& tree_;
  std::string s_;
  std::size_t pos_ = 0;
};

std::vector<ClaimTree> compile(const std::string& spec) {
  std::vector<ClaimTree> claims;
  for (std::size_t start = 0; start <= spec.size();) {
    const auto semi = std::min(spec.find(';', start), spec.size());
    ClaimTree& t = claims.emplace_back();
    t.text = trim(spec.substr(start, semi - start));
    start = semi + 1;
    if (t.text.empty()) bad(spec, "empty claim");
    const auto colon = t.text.find(':');
    if (colon != std::string::npos) t.where = parse_selector(t.text, t.text.substr(0, colon));
    Parser(t.text, colon == std::string::npos ? t.text : t.text.substr(colon + 1), t);
  }
  return claims;
}

}  // namespace

void validate_claims(const std::string& claims) { compile(claims); }

bool check_claims(std::ostream& os, const std::string& claims,
                  const std::vector<ConfigSummary>& summaries) {
  if (claims.empty()) return true;
  const Cells cells{summaries};
  bool ok = true;
  int number = 0;
  for (const ClaimTree& t : compile(claims)) {
    os << "\nclaim " << ++number << ": " << t.text << "\n";
    bool holds = true;
    std::vector<const TrialConfig*> checked;  // one cell per slope group
    for (const auto& s : summaries) {
      const auto grouped = [&](const TrialConfig* c) { return agrees(*c, s.config, t.slope_axes); };
      if (!t.where.admits(s.config) || std::ranges::any_of(checked, grouped)) continue;
      checked.push_back(&s.config);
      bool pass = false;
      std::string detail;
      try {
        const double l = t.lhs(cells, s), r = t.rhs(cells, s);
        pass = t.cmp == "<" ? l < r : t.cmp == "<=" ? l <= r : t.cmp == ">" ? l > r : l >= r;
        detail = fmt(l) + " " + t.cmp + " " + fmt(r);
      } catch (const std::domain_error& e) {
        detail = e.what();
      }
      os << "  " << (pass ? "PASS  " : "FAIL  ") << cells.label(s.config, t.slope_axes) << ": "
         << detail << "\n";
      holds = holds && pass;
    }
    if (checked.empty()) os << "  FAIL  no cell to check: the selector admits none\n";
    holds = holds && !checked.empty();
    os << "  => " << (holds ? "PASS" : "FAIL") << "\n";
    ok = ok && holds;
  }
  return ok;
}

}  // namespace dhc::runner
