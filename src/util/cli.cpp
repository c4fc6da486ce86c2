#include "src/util/cli.hpp"

#include <cerrno>
#include <climits>
#include <cmath>
#include <cstdlib>
#include <iostream>

#include "src/util/error.hpp"

namespace minipop::util {

Cli::Cli(int argc, const char* const* argv) {
  if (argc > 0) program_ = argv[0];
  for (int a = 1; a < argc; ++a) {
    std::string arg = argv[a];
    if (arg.rfind("--", 0) != 0) {
      positional_.push_back(arg);
      continue;
    }
    std::string body = arg.substr(2);
    auto eq = body.find('=');
    const std::string name = body.substr(0, eq);
    if (options_.count(name) == 0) order_.push_back(name);
    // A bare flag has the empty value.
    options_[name] = eq != std::string::npos ? body.substr(eq + 1) : "";
  }
}

std::optional<std::string> Cli::raw(const std::string& name) const {
  read_.insert(name);
  auto it = options_.find(name);
  if (it == options_.end()) return std::nullopt;
  return it->second;
}

bool Cli::has(const std::string& name) const {
  return raw(name).has_value();
}

std::string Cli::get(const std::string& name,
                     const std::string& fallback) const {
  auto v = raw(name);
  return v ? *v : fallback;
}

int Cli::get_int(const std::string& name, int fallback) const {
  auto v = raw(name);
  if (!v) return fallback;
  return parse_int("--" + name, *v);
}

int Cli::get_int(const std::string& name, int fallback, int min) const {
  const int out = get_int(name, fallback);
  if (out < min)
    throw Error("--" + name + "=" + std::to_string(out) + " is below " +
                std::to_string(min));
  return out;
}

double Cli::get_double(const std::string& name, double fallback) const {
  auto v = raw(name);
  if (!v) return fallback;
  char* end = nullptr;
  double out = std::strtod(v->c_str(), &end);
  if (end == v->c_str() || *end != '\0')
    throw Error("--" + name + "=" + *v + " is not a number");
  return out;
}

double Cli::get_positive(const std::string& name, double fallback) const {
  const double out = get_double(name, fallback);
  if (!std::isfinite(out) || out <= 0.0)
    throw Error("--" + name + "=" + get(name, "") +
                " is not a finite number > 0");
  return out;
}

bool Cli::get_bool(const std::string& name, bool fallback) const {
  auto v = raw(name);
  if (!v) return fallback;
  if (v->empty() || *v == "1" || *v == "true" || *v == "yes") return true;
  if (*v == "0" || *v == "false" || *v == "no") return false;
  throw Error("--" + name + "=" + *v + " is not a boolean");
}

std::vector<std::string> Cli::unread() const {
  std::vector<std::string> out;
  for (const std::string& name : order_)
    if (read_.count(name) == 0) out.push_back(name);
  return out;
}

void Cli::reject_unread() const {
  const std::vector<std::string> names = unread();
  if (!names.empty()) {
    std::string msg = "unknown option";
    if (names.size() > 1) msg += "s";
    for (std::size_t k = 0; k < names.size(); ++k)
      msg += (k == 0 ? " --" : ", --") + names[k];
    throw Error(msg);
  }
  if (!positional_read_ && !positional_.empty()) {
    std::string msg = "unexpected argument";
    if (positional_.size() > 1) msg += "s";
    for (std::size_t k = 0; k < positional_.size(); ++k)
      msg += (k == 0 ? " " : ", ") + positional_[k];
    throw Error(msg);
  }
}

int Cli::usage_error(const std::exception& e,
                     const std::string& usage) const {
  std::cerr << program_ << ": " << e.what() << "\n"
            << "usage: " << program_ << " " << usage << "\n";
  return 2;
}

int parse_int(const std::string& what, const std::string& text) {
  char* end = nullptr;
  errno = 0;
  const long out = std::strtol(text.c_str(), &end, 10);
  if (end == text.c_str() || *end != '\0' || errno == ERANGE ||
      out < INT_MIN || out > INT_MAX)
    throw Error(what + "=" + text + " is not an integer");
  return static_cast<int>(out);
}

}  // namespace minipop::util
