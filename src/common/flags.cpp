#include "common/flags.h"

#include <cerrno>
#include <cmath>
#include <cstdlib>
#include <sstream>

#include "common/check.h"

namespace ripple {

namespace {

// strtoll/strtod accept garbage silently when called with a null endptr
// ("abc" parses as 0, "10x" as 10). Every numeric flag goes through these
// two, which reject empty input, trailing garbage, and out-of-range values
// with a message naming the flag.
std::int64_t parse_int_or_die(const std::string& name,
                              const std::string& text) {
  errno = 0;
  char* end = nullptr;
  const long long value = std::strtoll(text.c_str(), &end, 10);
  RIPPLE_CHECK_MSG(end != text.c_str() && *end == '\0',
                   "--" << name << '=' << text << " is not an integer");
  RIPPLE_CHECK_MSG(errno != ERANGE,
                   "--" << name << '=' << text << " is out of range");
  return value;
}

double parse_double_or_die(const std::string& name, const std::string& text) {
  errno = 0;
  char* end = nullptr;
  const double value = std::strtod(text.c_str(), &end);
  RIPPLE_CHECK_MSG(end != text.c_str() && *end == '\0',
                   "--" << name << '=' << text << " is not a number");
  // strtod sets ERANGE on underflow too, while still returning a usable
  // (sub)normal result — only overflow to ±HUGE_VAL is fatal.
  RIPPLE_CHECK_MSG(errno != ERANGE ||
                       (value != HUGE_VAL && value != -HUGE_VAL),
                   "--" << name << '=' << text << " is out of range");
  return value;
}

}  // namespace

void Flags::parse(int argc, char** argv) {
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    if (arg.rfind("--", 0) != 0) {
      positional_.push_back(arg);
      continue;
    }
    arg = arg.substr(2);
    const auto eq = arg.find('=');
    if (eq != std::string::npos) {
      values_[arg.substr(0, eq)] = arg.substr(eq + 1);
      continue;
    }
    // "--name value" unless the next token is itself a flag.
    if (i + 1 < argc && std::string(argv[i + 1]).rfind("--", 0) != 0) {
      values_[arg] = argv[i + 1];
      ++i;
    } else {
      values_[arg] = "true";
    }
  }
}

bool Flags::has(const std::string& name) const {
  return values_.count(name) > 0;
}

std::string Flags::get_string(const std::string& name,
                              const std::string& default_value) const {
  const auto it = values_.find(name);
  return it == values_.end() ? default_value : it->second;
}

std::int64_t Flags::get_int(const std::string& name,
                            std::int64_t default_value) const {
  const auto it = values_.find(name);
  if (it == values_.end()) return default_value;
  return parse_int_or_die(name, it->second);
}

double Flags::get_double(const std::string& name, double default_value) const {
  const auto it = values_.find(name);
  if (it == values_.end()) return default_value;
  return parse_double_or_die(name, it->second);
}

bool Flags::get_bool(const std::string& name, bool default_value) const {
  const auto it = values_.find(name);
  if (it == values_.end()) return default_value;
  const std::string& text = it->second;
  if (text == "true" || text == "1" || text == "yes") return true;
  if (text == "false" || text == "0" || text == "no") return false;
  RIPPLE_CHECK_MSG(false, "--" << name << '=' << text
                               << " is not a boolean (expected "
                                  "true|1|yes|false|0|no)");
  return default_value;  // unreachable
}

std::vector<std::int64_t> Flags::get_int_list(
    const std::string& name,
    const std::vector<std::int64_t>& default_value) const {
  const auto it = values_.find(name);
  if (it == values_.end()) return default_value;
  std::vector<std::int64_t> out;
  std::stringstream ss(it->second);
  std::string token;
  while (std::getline(ss, token, ',')) {
    if (!token.empty()) out.push_back(parse_int_or_die(name, token));
  }
  RIPPLE_CHECK_MSG(!out.empty(), "empty int list for --" << name);
  return out;
}

std::vector<double> Flags::get_double_list(
    const std::string& name, const std::vector<double>& default_value) const {
  const auto it = values_.find(name);
  if (it == values_.end()) return default_value;
  std::vector<double> out;
  std::stringstream ss(it->second);
  std::string token;
  while (std::getline(ss, token, ',')) {
    if (!token.empty()) out.push_back(parse_double_or_die(name, token));
  }
  RIPPLE_CHECK_MSG(!out.empty(), "empty double list for --" << name);
  return out;
}

std::string Flags::get_choice(const std::string& name,
                              const std::vector<std::string>& allowed,
                              const std::string& default_value) const {
  const std::string value = get_string(name, default_value);
  for (const std::string& option : allowed) {
    if (value == option) return value;
  }
  std::ostringstream expected;
  for (std::size_t i = 0; i < allowed.size(); ++i) {
    expected << (i ? "|" : "") << allowed[i];
  }
  RIPPLE_CHECK_MSG(false, "--" << name << '=' << value << " (expected "
                               << expected.str() << ')');
  return default_value;  // unreachable
}

}  // namespace ripple
