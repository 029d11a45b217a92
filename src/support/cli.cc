#include "support/cli.h"

#include <sstream>
#include <stdexcept>

#include "support/require.h"

namespace dhc::support {

namespace {

// std::stoll / std::stod that reject trailing junk ("2x", "1.9" for an int).
std::int64_t whole_int(const std::string& s) {
  std::size_t pos = 0;
  const std::int64_t v = std::stoll(s, &pos);
  return pos == s.size() ? v : throw std::invalid_argument("trailing junk");
}

double whole_double(const std::string& s) {
  std::size_t pos = 0;
  const double v = std::stod(s, &pos);
  return pos == s.size() ? v : throw std::invalid_argument("trailing junk");
}

// Every comma-separated element, the empty ones included: std::getline
// yields none after a final separator, so a trailing comma adds its empty
// element back for the callers to reject.
std::vector<std::string> split_commas(const std::string& s) {
  std::vector<std::string> parts;
  std::istringstream is(s);
  std::string part;
  while (std::getline(is, part, ',')) parts.push_back(part);
  if (!s.empty() && s.back() == ',') parts.emplace_back();
  return parts;
}

}  // namespace

Cli::Cli(int argc, const char* const* argv) {
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    DHC_REQUIRE(arg.rfind("--", 0) == 0, "unexpected positional argument: " << arg);
    const std::size_t eq = arg.find('=');
    if (eq == std::string::npos) {
      flags_[arg.substr(2)] = "true";
    } else {
      flags_[arg.substr(2, eq - 2)] = arg.substr(eq + 1);
    }
  }
}

bool Cli::has(const std::string& key) const { return flags_.contains(key); }

std::int64_t Cli::get_int(const std::string& key, std::int64_t fallback) const {
  const auto it = flags_.find(key);
  if (it == flags_.end()) return fallback;
  try {
    return whole_int(it->second);
  } catch (const std::exception&) {
    throw std::invalid_argument("flag --" + key + " expects an integer, got '" + it->second + "'");
  }
}

double Cli::get_double(const std::string& key, double fallback) const {
  const auto it = flags_.find(key);
  if (it == flags_.end()) return fallback;
  try {
    return whole_double(it->second);
  } catch (const std::exception&) {
    throw std::invalid_argument("flag --" + key + " expects a number, got '" + it->second + "'");
  }
}

std::string Cli::get_string(const std::string& key, const std::string& fallback) const {
  const auto it = flags_.find(key);
  return it == flags_.end() ? fallback : it->second;
}

bool Cli::get_bool(const std::string& key, bool fallback) const {
  const auto it = flags_.find(key);
  if (it == flags_.end()) return fallback;
  if (it->second == "true" || it->second == "1") return true;
  if (it->second == "false" || it->second == "0") return false;
  throw std::invalid_argument("flag --" + key + " expects true/false, got '" + it->second + "'");
}

std::vector<std::int64_t> Cli::get_int_list(const std::string& key,
                                            std::vector<std::int64_t> fallback) const {
  const auto it = flags_.find(key);
  if (it == flags_.end()) return fallback;
  std::vector<std::int64_t> out;
  for (const auto& part : split_commas(it->second)) {
    try {
      out.push_back(whole_int(part));
    } catch (const std::exception&) {
      throw std::invalid_argument("flag --" + key + " expects integers, got '" + part + "'");
    }
  }
  return out;
}

std::vector<double> Cli::get_double_list(const std::string& key,
                                         std::vector<double> fallback) const {
  const auto it = flags_.find(key);
  if (it == flags_.end()) return fallback;
  std::vector<double> out;
  for (const auto& part : split_commas(it->second)) {
    try {
      out.push_back(whole_double(part));
    } catch (const std::exception&) {
      throw std::invalid_argument("flag --" + key + " expects numbers, got '" + part + "'");
    }
  }
  return out;
}

std::vector<std::string> Cli::get_string_list(const std::string& key,
                                              std::vector<std::string> fallback) const {
  const auto it = flags_.find(key);
  if (it == flags_.end()) return fallback;
  const auto out = split_commas(it->second);
  if (out.empty()) {
    throw std::invalid_argument("flag --" + key + " has an empty value");
  }
  for (const auto& part : out) {
    if (part.empty()) {
      throw std::invalid_argument("flag --" + key + " has an empty list element in '" +
                                  it->second + "'");
    }
  }
  return out;
}

}  // namespace dhc::support
