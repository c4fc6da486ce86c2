// Minimal command-line parsing for benches and examples.
//
// Accepts --key=value and boolean --flag forms (values always use '=' so
// flags never swallow positionals). Every lookup (has/get*) marks its
// option as read, and positional() marks the positional arguments read,
// so after a program has looked up all the arguments it knows,
// reject_unread() turns a misspelled or unsupported flag, or a stray
// positional argument, into a loud error instead of a silent run with
// the defaults. Every example and every program under bench/ calls it.
#pragma once

#include <exception>
#include <optional>
#include <string>
#include <unordered_map>
#include <unordered_set>
#include <vector>

namespace minipop::util {

class Cli {
 public:
  Cli(int argc, const char* const* argv);

  /// True if --name was present (with or without a value).
  bool has(const std::string& name) const;

  std::string get(const std::string& name, const std::string& fallback) const;
  /// Typed lookups return the fallback only when the option is absent;
  /// they throw util::Error on a malformed or empty value ("--days=x is
  /// not a number", "--days= is not a number" for a bare --days).
  int get_int(const std::string& name, int fallback) const;
  double get_double(const std::string& name, double fallback) const;
  /// get_int that also throws unless the value is at least `min`.
  int get_int(const std::string& name, int fallback, int min) const;
  /// get_double that also throws unless the value is finite and > 0.
  double get_positive(const std::string& name, double fallback) const;
  bool get_bool(const std::string& name, bool fallback = false) const;

  /// Options that were passed but never looked up, in command-line
  /// order.
  std::vector<std::string> unread() const;

  /// Throws util::Error naming every unread option, or the positional
  /// arguments when the program never read them. Call after the last
  /// lookup.
  void reject_unread() const;

  /// Report a parse error for the examples: prints "<program>: <what>"
  /// and "usage: <program> <usage>" to stderr and returns exit code 2.
  int usage_error(const std::exception& e, const std::string& usage) const;

  /// Positional (non --option) arguments in order; marks them read.
  const std::vector<std::string>& positional() const {
    positional_read_ = true;
    return positional_;
  }

  /// Program name (argv[0]).
  const std::string& program() const { return program_; }

 private:
  std::optional<std::string> raw(const std::string& name) const;

  std::string program_;
  std::unordered_map<std::string, std::string> options_;
  std::vector<std::string> order_;  ///< option names, first occurrence
  mutable std::unordered_set<std::string> read_;
  std::vector<std::string> positional_;
  mutable bool positional_read_ = false;
};

/// Parse `text` as a whole decimal integer; throws util::Error naming
/// `what` (e.g. "--block-size") when it is empty, not a number, or has
/// trailing characters.
int parse_int(const std::string& what, const std::string& text);

}  // namespace minipop::util
