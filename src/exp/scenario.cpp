#include "src/exp/scenario.h"

#include <charconv>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <sstream>
#include <stdexcept>

namespace rocelab::exp {

namespace {

std::string type_name(KnobSpec::Type t) {
  switch (t) {
    case KnobSpec::Type::kInt: return "int";
    case KnobSpec::Type::kDouble: return "double";
    case KnobSpec::Type::kString: return "string";
  }
  return "?";
}

std::string json_escape(const std::string& s) {
  std::string out;
  out.reserve(s.size() + 2);
  for (char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof buf, "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
  return out;
}

/// JSON number: strict parsers reject NaN/Infinity literals, so non-finite
/// metric values (e.g. a percentile of an empty sampler) become null.
std::string json_number(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.10g", v);
  return buf;
}

}  // namespace

KnobSpec knob_int(std::string name, long def, std::string legacy_env, std::string help) {
  return KnobSpec{std::move(name), KnobSpec::Type::kInt, std::to_string(def),
                  std::move(legacy_env), std::move(help)};
}

KnobSpec knob_double(std::string name, double def, std::string legacy_env, std::string help) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.10g", def);
  return KnobSpec{std::move(name), KnobSpec::Type::kDouble, buf, std::move(legacy_env),
                  std::move(help)};
}

KnobSpec knob_string(std::string name, std::string def, std::string legacy_env,
                     std::string help) {
  return KnobSpec{std::move(name), KnobSpec::Type::kString, std::move(def),
                  std::move(legacy_env), std::move(help)};
}

void Knobs::declare(KnobSpec spec) {
  std::string value = spec.def;
  if (!spec.legacy_env.empty()) {
    if (const char* env = std::getenv(spec.legacy_env.c_str()); env != nullptr) value = env;
  }
  specs_.push_back(std::move(spec));
  values_.push_back(std::move(value));
}

std::size_t Knobs::index_of(const std::string& name) const {
  for (std::size_t i = 0; i < specs_.size(); ++i) {
    if (specs_[i].name == name) return i;
  }
  throw std::invalid_argument("unknown knob: " + name);
}

bool Knobs::has(const std::string& name) const {
  for (const KnobSpec& s : specs_) {
    if (s.name == name) return true;
  }
  return false;
}

bool Knobs::set_override(const std::string& name, const std::string& value) {
  if (!has(name)) return false;
  values_[index_of(name)] = value;
  return true;
}

namespace {

/// Parse all of `text` as a T, or throw a KnobError naming the knob.
template <typename T>
T parse_knob(const std::string& name, const std::string& text, const char* what) {
  T v{};
  const char* end = text.data() + text.size();
  const auto [ptr, ec] = std::from_chars(text.data(), end, v);
  if (ec != std::errc() || ptr != end || text.empty()) {
    throw KnobError("knob '" + name + "': '" + text + "' is not " + what);
  }
  return v;
}

}  // namespace

long Knobs::get_int(const std::string& name) const {
  return parse_knob<long>(name, values_[index_of(name)], "an integer");
}

double Knobs::get_double(const std::string& name) const {
  return parse_knob<double>(name, values_[index_of(name)], "a number");
}

const std::string& Knobs::get_string(const std::string& name) const {
  return values_[index_of(name)];
}

const std::string& Knobs::value_text(const std::string& name) const {
  return values_[index_of(name)];
}

std::vector<double> Knobs::get_list(const std::string& name) const {
  std::vector<double> out;
  std::stringstream ss(values_[index_of(name)]);
  std::string item;
  while (std::getline(ss, item, ',')) {
    if (!item.empty()) out.push_back(parse_knob<double>(name, item, "a number (in a list)"));
  }
  return out;
}

void Context::section(const std::string& title) { std::printf("\n=== %s ===\n", title.c_str()); }

void Context::note(const std::string& line) { std::printf("%s\n", line.c_str()); }

void Context::table(const std::vector<std::string>& header, std::vector<int> widths) {
  widths_ = std::move(widths);
  std::printf("\n");
  row(header);
  int total = 0;
  for (int w : widths_) total += w;
  for (int i = 0; i < total; ++i) std::printf("-");
  std::printf("\n");
}

void Context::row(const std::vector<std::string>& cells) {
  for (std::size_t i = 0; i < cells.size(); ++i) {
    const int w = i < widths_.size() ? widths_[i] : 18;
    std::printf("%-*s", w, cells[i].c_str());
  }
  std::printf("\n");
}

void Context::metric(const std::string& case_name, const std::string& key, double value) {
  for (Case& c : cases_) {
    if (c.name == case_name) {
      c.metrics.emplace_back(key, value);
      return;
    }
  }
  cases_.push_back(Case{case_name, {{key, value}}});
}

void Context::check(const std::string& name, bool pass) {
  checks_.push_back(Check{name, pass});
}

bool Context::all_passed() const {
  for (const Check& c : checks_) {
    if (!c.pass) return false;
  }
  return true;
}

std::string fmt(const char* format, double v) {
  char buf[64];
  std::snprintf(buf, sizeof buf, format, v);
  return buf;
}

namespace {

void print_knob_list(const Knobs& knobs) {
  std::printf("%-20s %-8s %-14s %-22s %s\n", "knob", "type", "value", "env", "help");
  for (const KnobSpec& s : knobs.specs()) {
    std::printf("%-20s %-8s %-14s %-22s %s\n", s.name.c_str(), type_name(s.type).c_str(),
                knobs.value_text(s.name).c_str(),
                s.legacy_env.empty() ? "-" : s.legacy_env.c_str(), s.help.c_str());
  }
}

void print_usage(const Scenario& sc) {
  std::printf("usage: %s [--list-knobs] [--json PATH] [--<knob>=VALUE ...]\n", sc.name.c_str());
  std::printf("  %s\n", sc.title.c_str());
  std::printf("  writes BENCH_%s.json; exits nonzero if a check fails\n", sc.name.c_str());
}

bool write_json(const std::string& path, const Scenario& sc, const Knobs& knobs,
                const Context& ctx) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "%s: cannot write %s\n", sc.name.c_str(), path.c_str());
    return false;
  }
  std::fprintf(f, "{\n  \"schema_version\": 1,\n");
  std::fprintf(f, "  \"bench\": \"%s\",\n", json_escape(sc.name).c_str());
  std::fprintf(f, "  \"title\": \"%s\",\n", json_escape(sc.title).c_str());
  std::fprintf(f, "  \"knobs\": {");
  bool first = true;
  for (const KnobSpec& s : knobs.specs()) {
    std::fprintf(f, "%s\n    \"%s\": ", first ? "" : ",", json_escape(s.name).c_str());
    if (s.type == KnobSpec::Type::kString) {
      std::fprintf(f, "\"%s\"", json_escape(knobs.value_text(s.name)).c_str());
    } else {
      std::fprintf(f, "%s", json_number(knobs.get_double(s.name)).c_str());
    }
    first = false;
  }
  std::fprintf(f, "%s},\n", knobs.specs().empty() ? "" : "\n  ");
  std::fprintf(f, "  \"cases\": [");
  first = true;
  for (const Context::Case& c : ctx.cases()) {
    std::fprintf(f, "%s\n    {\"name\": \"%s\", \"metrics\": {", first ? "" : ",",
                 json_escape(c.name).c_str());
    bool mfirst = true;
    for (const auto& [key, value] : c.metrics) {
      std::fprintf(f, "%s\"%s\": %s", mfirst ? "" : ", ", json_escape(key).c_str(),
                   json_number(value).c_str());
      mfirst = false;
    }
    std::fprintf(f, "}}");
    first = false;
  }
  std::fprintf(f, "%s],\n", ctx.cases().empty() ? "" : "\n  ");
  std::fprintf(f, "  \"checks\": [");
  first = true;
  for (const Context::Check& c : ctx.checks()) {
    std::fprintf(f, "%s\n    {\"name\": \"%s\", \"pass\": %s}", first ? "" : ",",
                 json_escape(c.name).c_str(), c.pass ? "true" : "false");
    first = false;
  }
  std::fprintf(f, "%s],\n", ctx.checks().empty() ? "" : "\n  ");
  std::fprintf(f, "  \"pass\": %s\n}\n", ctx.all_passed() ? "true" : "false");
  std::fclose(f);
  return true;
}

}  // namespace

int run_scenario(const Scenario& sc, int argc, char** argv) {
  Knobs knobs;
  bool has_shards = false, has_recovery = false, has_pfc = false, has_retx = false;
  for (const KnobSpec& s : sc.knobs) {
    if (s.name == "shards") has_shards = true;
    if (s.name == "recovery") has_recovery = true;
    if (s.name == "pfc") has_pfc = true;
    if (s.name == "retx_timeout_us") has_retx = true;
    knobs.declare(s);
  }
  // Every runner gets the PDES shard-count knob (scenario bodies pass it to
  // their fabric builder via ctx.shards()); scenarios may still declare
  // their own to change the default or help text.
  if (!has_shards) {
    knobs.declare(knob_int("shards", 1, "ROCELAB_SHARDS",
                           "simulator shards (pod-partitioned PDES; 1 = single-threaded)"));
  }
  // ... and the transport knobs (scenario bodies apply them through
  // exp::apply_transport_knobs). Defaults are no-ops: "" / -1 leave each
  // scenario's own transport configuration untouched, so pinned journals
  // and digests are unaffected unless a knob is set.
  if (!has_recovery) {
    knobs.declare(knob_string("recovery", "", "ROCELAB_RECOVERY",
                              "loss recovery override: goback0 | gobackn | selrep"));
  }
  if (!has_pfc) {
    knobs.declare(knob_int("pfc", -1, "ROCELAB_PFC",
                           "PFC override: 1 = lossless classes on, 0 = lossy fabric"));
  }
  if (!has_retx) {
    knobs.declare(knob_int("retx_timeout_us", -1, "ROCELAB_RETX_TIMEOUT_US",
                           "QP base retransmission timeout override, microseconds"));
  }

  std::string json_path = "BENCH_" + sc.name + ".json";
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--list-knobs") {
      print_knob_list(knobs);
      return 0;
    }
    if (arg == "--help" || arg == "-h") {
      print_usage(sc);
      std::printf("\n");
      print_knob_list(knobs);
      return 0;
    }
    if (arg == "--json" && i + 1 < argc) {
      json_path = argv[++i];
      continue;
    }
    if (arg.rfind("--json=", 0) == 0) {
      json_path = arg.substr(7);
      continue;
    }
    if (arg.rfind("--", 0) == 0) {
      const std::size_t eq = arg.find('=');
      if (eq != std::string::npos && knobs.set_override(arg.substr(2, eq - 2), arg.substr(eq + 1))) {
        continue;
      }
    }
    std::fprintf(stderr, "%s: unknown argument '%s'\n", sc.name.c_str(), arg.c_str());
    print_usage(sc);
    return 2;
  }

  // A malformed value fails before anything runs: every typed knob is
  // parsed here, and list knobs are parsed where the body reads them.
  Context ctx(knobs);
  try {
    for (const KnobSpec& s : knobs.specs()) {
      if (s.type == KnobSpec::Type::kInt) (void)knobs.get_int(s.name);
      if (s.type == KnobSpec::Type::kDouble) (void)knobs.get_double(s.name);
    }
    std::printf("\n=== %s ===\n", sc.title.c_str());
    if (!sc.paper.empty()) std::printf("%s\n", sc.paper.c_str());
    sc.body(ctx);
  } catch (const KnobError& e) {
    std::fprintf(stderr, "%s: %s\n", sc.name.c_str(), e.what());
    return 2;
  }

  if (!ctx.checks().empty()) std::printf("\n");
  for (const Context::Check& c : ctx.checks()) {
    std::printf("check: %-44s %s\n", c.name.c_str(), c.pass ? "CONFIRMED" : "NOT REPRODUCED");
  }
  const bool ok = ctx.all_passed();
  std::printf("RESULT: %s\n", ok ? "PASS" : "FAIL");

  if (!write_json(json_path, sc, knobs, ctx)) return 1;
  std::printf("wrote %s\n", json_path.c_str());
  return ok ? 0 : 1;
}

}  // namespace rocelab::exp
