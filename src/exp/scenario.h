// Declarative experiment scenarios: every fig_*/abl_* bench binary is a
// Scenario — a name, a set of typed knobs (default < env < --name=value
// CLI), and a body that builds topology/workload, runs deterministically,
// and reports rows, per-case metrics, and named pass/fail checks through
// the Context. run_scenario() is the shared ScenarioRunner shell: it
// parses the CLI (--help, --list-knobs, --json PATH, knob overrides),
// prints the human table, prints a CONFIRMED / NOT REPRODUCED verdict per
// check, always writes machine-readable BENCH_<name>.json (schema_version
// 1), and exits nonzero if any check failed — the same contract the
// hand-rolled mains implemented 13 slightly different ways.
#pragma once

#include <cstdint>
#include <functional>
#include <stdexcept>
#include <string>
#include <vector>

namespace rocelab::exp {

/// One declared knob. Resolution order: default, then legacy_env (the
/// historical ROCELAB_* variable, kept working), then a --name=value
/// command-line override.
struct KnobSpec {
  enum class Type { kInt, kDouble, kString };
  std::string name;
  Type type = Type::kInt;
  std::string def;         // default value, as text
  std::string legacy_env;  // "" => no environment override
  std::string help;
};

KnobSpec knob_int(std::string name, long def, std::string legacy_env = "",
                  std::string help = "");
KnobSpec knob_double(std::string name, double def, std::string legacy_env = "",
                     std::string help = "");
KnobSpec knob_string(std::string name, std::string def, std::string legacy_env = "",
                     std::string help = "");

/// A knob value that does not parse as its type. The message names the
/// knob and the value; run_scenario reports it and exits 2.
class KnobError : public std::invalid_argument {
 public:
  using std::invalid_argument::invalid_argument;
};

/// Resolved knob values. Usable standalone (bench/perf_gate keeps its
/// bespoke main but resolves its window through this) and inside Context.
class Knobs {
 public:
  void declare(KnobSpec spec);              // resolves default + env now
  bool set_override(const std::string& name, const std::string& value);  // CLI layer
  [[nodiscard]] bool has(const std::string& name) const;

  /// The typed getters parse the whole value text; anything else (empty,
  /// trailing garbage, out of range) throws KnobError.
  [[nodiscard]] long get_int(const std::string& name) const;
  [[nodiscard]] double get_double(const std::string& name) const;
  [[nodiscard]] const std::string& get_string(const std::string& name) const;
  /// Comma-separated doubles, e.g. a sweep knob "0,1e-5,1e-4,1e-3".
  [[nodiscard]] std::vector<double> get_list(const std::string& name) const;

  [[nodiscard]] const std::vector<KnobSpec>& specs() const { return specs_; }
  [[nodiscard]] const std::string& value_text(const std::string& name) const;

 private:
  [[nodiscard]] std::size_t index_of(const std::string& name) const;
  std::vector<KnobSpec> specs_;
  std::vector<std::string> values_;  // parallel to specs_
};

class Context;

struct Scenario {
  std::string name;   // bench name: JSON lands in BENCH_<name>.json
  std::string title;  // printed header
  std::string paper;  // paper anchor / expectation, printed under the header
  std::vector<KnobSpec> knobs;
  std::function<void(Context&)> body;
};

/// The scenario body's interface to knobs, table output, and results.
class Context {
 public:
  explicit Context(const Knobs& knobs) : knobs_(knobs) {}

  // --- knobs ----------------------------------------------------------------
  [[nodiscard]] long knob_int(const std::string& name) const { return knobs_.get_int(name); }
  [[nodiscard]] double knob_double(const std::string& name) const {
    return knobs_.get_double(name);
  }
  [[nodiscard]] const std::string& knob_string(const std::string& name) const {
    return knobs_.get_string(name);
  }
  [[nodiscard]] std::vector<double> knob_list(const std::string& name) const {
    return knobs_.get_list(name);
  }
  [[nodiscard]] const Knobs& knobs() const { return knobs_; }
  /// The auto-declared PDES shard knob (--shards / ROCELAB_SHARDS); pass it
  /// to ClosParams::shards. 1 (the default) is the single-threaded core.
  [[nodiscard]] int shards() const { return static_cast<int>(knobs_.get_int("shards")); }

  // Auto-declared transport knobs (see exp::apply_transport_knobs, which
  // folds all three into a QosPolicy / QpConfig / HostConfig at once).
  /// --recovery: "" (scenario default) or goback0 | gobackn | selrep.
  [[nodiscard]] const std::string& recovery_name() const {
    return knobs_.get_string("recovery");
  }
  /// --pfc: -1 scenario default, 0 lossy fabric, 1 lossless classes on.
  [[nodiscard]] int pfc_override() const { return static_cast<int>(knobs_.get_int("pfc")); }
  /// --retx_timeout_us: -1 scenario default, else the QP base RTO in µs.
  [[nodiscard]] long retx_timeout_us() const { return knobs_.get_int("retx_timeout_us"); }

  // --- human output ---------------------------------------------------------
  void section(const std::string& title);  // "=== title ===" sub-header
  void note(const std::string& line);      // free-form line
  void table(const std::vector<std::string>& header, std::vector<int> widths);
  void row(const std::vector<std::string>& cells);

  // --- machine-readable results --------------------------------------------
  /// Record `key` = `value` for `case_name` (one case = one sweep point /
  /// one table column). Insertion-ordered into the JSON "cases" array.
  void metric(const std::string& case_name, const std::string& key, double value);
  /// Named qualitative check; every check prints CONFIRMED / NOT
  /// REPRODUCED and feeds the process exit code.
  void check(const std::string& name, bool pass);
  [[nodiscard]] bool all_passed() const;

  struct Case {
    std::string name;
    std::vector<std::pair<std::string, double>> metrics;
  };
  struct Check {
    std::string name;
    bool pass = false;
  };
  [[nodiscard]] const std::vector<Case>& cases() const { return cases_; }
  [[nodiscard]] const std::vector<Check>& checks() const { return checks_; }

 private:
  const Knobs& knobs_;
  std::vector<int> widths_;
  std::vector<Case> cases_;
  std::vector<Check> checks_;
};

/// printf-style one-value formatter for table cells (replaces bench::fmt).
[[nodiscard]] std::string fmt(const char* format, double v);

/// The ScenarioRunner: CLI parsing, deterministic execution, verdicts,
/// BENCH_<name>.json. Returns the process exit code.
int run_scenario(const Scenario& sc, int argc, char** argv);

}  // namespace rocelab::exp
