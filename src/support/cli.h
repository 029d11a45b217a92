// Minimal --key=value flag parser shared by benches and examples.
//
// Every experiment binary accepts the same flag style (e.g. --n=4096
// --seeds=5 --c=4.0) so sweeps are scriptable without pulling in a
// full-blown CLI library.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace dhc::support {

/// Parsed command line: flags of the form --key=value (or bare --key,
/// stored with value "true").  Unrecognized positional arguments throw.
class Cli {
 public:
  Cli(int argc, const char* const* argv);

  bool has(const std::string& key) const;

  /// Every flag, by name.
  const std::map<std::string, std::string>& flags() const { return flags_; }

  /// Typed getters; return `fallback` when the flag is absent and throw
  /// std::invalid_argument when present but malformed.
  std::int64_t get_int(const std::string& key, std::int64_t fallback) const;
  double get_double(const std::string& key, double fallback) const;
  std::string get_string(const std::string& key, const std::string& fallback) const;
  bool get_bool(const std::string& key, bool fallback) const;

  /// Comma-separated integer list, e.g. --sizes=256,512,1024.
  std::vector<std::int64_t> get_int_list(const std::string& key,
                                         std::vector<std::int64_t> fallback) const;
  /// Comma-separated double list, e.g. --deltas=0.3,0.5,0.7.
  std::vector<double> get_double_list(const std::string& key,
                                      std::vector<double> fallback) const;

  /// Comma-separated string list, e.g. --algos=dhc2,turau.  Empty elements
  /// (and an empty value) throw — a trailing or doubled comma is always a
  /// typo, never a request for the empty string.
  std::vector<std::string> get_string_list(const std::string& key,
                                           std::vector<std::string> fallback) const;

 private:
  std::map<std::string, std::string> flags_;
};

}  // namespace dhc::support
