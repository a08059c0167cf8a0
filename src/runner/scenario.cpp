#include "runner/scenario.hpp"

#include <algorithm>
#include <charconv>
#include <cmath>
#include <fstream>
#include <limits>
#include <map>
#include <mutex>
#include <sstream>
#include <stdexcept>

namespace bng::runner {

// Defined in builtin_scenarios.cpp. Called lazily from the registry
// accessors so that linking the registry always pulls in the built-ins
// (a static-initializer in another object file could be dropped).
void register_builtin_scenarios();

namespace {

struct Registered {
  std::string description;
  ScenarioFactory factory;
};

std::map<std::string, Registered>& registry() {
  static std::map<std::string, Registered> r;
  return r;
}

std::mutex& registry_mutex() {
  static std::mutex m;
  return m;
}

void ensure_builtins() {
  static std::once_flag once;
  std::call_once(once, register_builtin_scenarios);
}

/// Non-finite values are rejected: a nan or inf interval or drain time
/// never lets a run reach its stop condition.
double parse_double(std::string_view key, std::string_view value) {
  try {
    std::size_t used = 0;
    std::string s(value);
    double d = std::stod(s, &used);
    if (used != s.size()) throw std::invalid_argument("trailing characters");
    if (!std::isfinite(d)) throw std::invalid_argument("not finite");
    return d;
  } catch (const std::exception&) {
    throw std::invalid_argument("bad numeric value '" + std::string(value) + "' for key '" +
                                std::string(key) + "'");
  }
}

/// A value above `max` is rejected like any other bad integer, so a field
/// narrower than 64 bits never silently wraps.
std::uint64_t parse_u64(std::string_view key, std::string_view value,
                        std::uint64_t max = std::numeric_limits<std::uint64_t>::max()) {
  std::uint64_t out = 0;
  auto [ptr, ec] = std::from_chars(value.data(), value.data() + value.size(), out);
  if (ec != std::errc{} || ptr != value.data() + value.size() || out > max)
    throw std::invalid_argument("bad integer value '" + std::string(value) + "' for key '" +
                                std::string(key) + "'");
  return out;
}

std::uint32_t parse_u32(std::string_view key, std::string_view value) {
  return static_cast<std::uint32_t>(
      parse_u64(key, value, std::numeric_limits<std::uint32_t>::max()));
}

bool parse_bool(std::string_view key, std::string_view value) {
  if (value == "true" || value == "1" || value == "yes") return true;
  if (value == "false" || value == "0" || value == "no") return false;
  throw std::invalid_argument("bad boolean value '" + std::string(value) + "' for key '" +
                              std::string(key) + "'");
}

std::string_view trim(std::string_view s) {
  while (!s.empty() && (s.front() == ' ' || s.front() == '\t')) s.remove_prefix(1);
  while (!s.empty() && (s.back() == ' ' || s.back() == '\t' || s.back() == '\r'))
    s.remove_suffix(1);
  return s;
}

}  // namespace

void register_scenario(std::string name, std::string description, ScenarioFactory factory) {
  std::lock_guard lock(registry_mutex());
  registry()[std::move(name)] = {std::move(description), std::move(factory)};
}

std::optional<Scenario> make_scenario(const std::string& name, const RunKnobs& knobs) {
  ensure_builtins();
  ScenarioFactory factory;
  {
    std::lock_guard lock(registry_mutex());
    auto it = registry().find(name);
    if (it == registry().end()) return std::nullopt;
    factory = it->second.factory;
  }
  Scenario s = factory(knobs);
  s.source = ScenarioSource{ScenarioSource::Kind::kBuiltin, name, knobs};
  return s;
}

std::vector<std::pair<std::string, std::string>> list_scenarios() {
  ensure_builtins();
  std::lock_guard lock(registry_mutex());
  std::vector<std::pair<std::string, std::string>> out;
  out.reserve(registry().size());
  for (const auto& [name, reg] : registry()) out.emplace_back(name, reg.description);
  return out;
}

std::vector<SweepPoint> expand(const Scenario& s) {
  std::vector<SweepPoint> points;
  points.push_back(SweepPoint{{}, 0, s.base});
  for (const Axis& axis : s.axes) {
    std::vector<SweepPoint> next;
    next.reserve(points.size() * axis.values.size());
    for (const SweepPoint& p : points) {
      for (const AxisValue& v : axis.values) {
        SweepPoint q = p;
        q.labels.push_back(v.label);
        q.x = v.x;
        if (v.apply) v.apply(q.config);
        next.push_back(std::move(q));
      }
    }
    points = std::move(next);
  }
  return points;
}

void apply_config_override(sim::ExperimentConfig& cfg, std::string_view key,
                           std::string_view value) {
  if (key == "protocol") {
    // Sets only the protocol, never the whole preset: a protocol axis must
    // not wipe interval/size overrides applied earlier (matched-comparison
    // sweeps rely on shared knobs surviving the protocol switch).
    if (value == "bitcoin") {
      cfg.params.protocol = chain::Protocol::kBitcoin;
    } else if (value == "ng" || value == "bitcoin-ng") {
      cfg.params.protocol = chain::Protocol::kBitcoinNG;
    } else if (value == "ghost") {
      cfg.params.protocol = chain::Protocol::kGhost;
    } else {
      throw std::invalid_argument("unknown protocol '" + std::string(value) +
                                  "' (bitcoin | ng | ghost)");
    }
  } else if (key == "nodes") {
    cfg.num_nodes = parse_u32(key, value);
  } else if (key == "min_degree") {
    cfg.min_degree = parse_u32(key, value);
  } else if (key == "blocks") {
    cfg.target_blocks = parse_u32(key, value);
  } else if (key == "tx_size") {
    cfg.tx_size = static_cast<std::size_t>(parse_u64(key, value));
  } else if (key == "tx_fee") {
    cfg.tx_fee = static_cast<Amount>(
        parse_u64(key, value, std::numeric_limits<Amount>::max()));
  } else if (key == "pool_size") {
    cfg.pool_size = static_cast<std::size_t>(parse_u64(key, value));
  } else if (key == "drain_time") {
    cfg.drain_time = parse_double(key, value);
  } else if (key == "power_exponent") {
    cfg.power_exponent = parse_double(key, value);
  } else if (key == "verify_signatures") {
    cfg.verify_signatures = parse_bool(key, value);
  } else if (key == "block_interval") {
    cfg.params.block_interval = parse_double(key, value);
  } else if (key == "microblock_interval") {
    cfg.params.microblock_interval = parse_double(key, value);
  } else if (key == "min_microblock_interval") {
    cfg.params.min_microblock_interval = parse_double(key, value);
  } else if (key == "max_block_size") {
    cfg.params.max_block_size = static_cast<std::size_t>(parse_u64(key, value));
  } else if (key == "max_microblock_size") {
    cfg.params.max_microblock_size = static_cast<std::size_t>(parse_u64(key, value));
  } else if (key == "leader_fee_fraction") {
    cfg.params.leader_fee_fraction = parse_double(key, value);
  } else if (key == "tie_break") {
    if (value == "random") {
      cfg.params.tie_break = chain::TieBreak::kRandom;
    } else if (value == "first-seen") {
      cfg.params.tie_break = chain::TieBreak::kFirstSeen;
    } else {
      throw std::invalid_argument("unknown tie_break '" + std::string(value) +
                                  "' (random | first-seen)");
    }
  } else if (key == "adversary") {
    if (value == "none") {
      cfg.adversary.kind = sim::AdversarySpec::Kind::kNone;
    } else if (value == "selfish") {
      cfg.adversary.kind = sim::AdversarySpec::Kind::kSelfish;
    } else if (value == "stubborn") {
      cfg.adversary.kind = sim::AdversarySpec::Kind::kStubborn;
    } else if (value == "equivocate") {
      cfg.adversary.kind = sim::AdversarySpec::Kind::kEquivocate;
    } else if (value == "withhold-micro") {
      cfg.adversary.kind = sim::AdversarySpec::Kind::kWithholdMicro;
    } else {
      throw std::invalid_argument(
          "unknown adversary '" + std::string(value) +
          "' (none | selfish | stubborn | equivocate | withhold-micro)");
    }
  } else if (key == "adversary_node") {
    cfg.adversary.node = parse_u32(key, value);
  } else if (key == "adversary_share") {
    cfg.adversary.power_share = parse_double(key, value);
  } else if (key == "adversary_gamma") {
    cfg.adversary.gamma = parse_double(key, value);
  } else if (key == "equivocate_every") {
    cfg.adversary.equivocate_every = parse_u32(key, value);
  } else {
    std::string known;
    for (const std::string& k : config_override_keys()) {
      if (!known.empty()) known += ", ";
      known += k;
    }
    throw std::invalid_argument("unknown config key '" + std::string(key) +
                                "' (known: " + known + ")");
  }
}

std::vector<std::string> config_override_keys() {
  return {"protocol",        "nodes",
          "min_degree",      "blocks",
          "tx_size",         "tx_fee",
          "pool_size",       "drain_time",
          "power_exponent",  "verify_signatures",
          "block_interval",  "microblock_interval",
          "min_microblock_interval", "max_block_size",
          "max_microblock_size",     "leader_fee_fraction",
          "tie_break",       "adversary",
          "adversary_node",  "adversary_share",
          "adversary_gamma", "equivocate_every"};
}

Scenario load_scenario_file(const std::string& path, const RunKnobs& knobs) {
  std::ifstream in(path);
  if (!in) throw std::runtime_error("cannot open scenario file: " + path);
  std::stringstream buffer;
  buffer << in.rdbuf();
  return load_scenario_string(buffer.str(), path, knobs);
}

Scenario load_scenario_string(const std::string& text, const std::string& origin,
                              const RunKnobs& knobs) {
  std::istringstream in(text);

  Scenario s;
  s.name = "custom";
  s.description = "scenario file " + origin;
  s.base.num_nodes = knobs.nodes;
  s.base.target_blocks = knobs.blocks;
  // The raw text is the canonical shippable form: a worker re-parses it and
  // lands on the identical scenario, no shared filesystem required.
  s.source = ScenarioSource{ScenarioSource::Kind::kInline, text, knobs};

  std::string line;
  int line_no = 0;
  while (std::getline(in, line)) {
    ++line_no;
    std::string_view sv = trim(line);
    if (auto hash = sv.find('#'); hash != std::string_view::npos) sv = trim(sv.substr(0, hash));
    if (sv.empty()) continue;
    auto eq = sv.find('=');
    if (eq == std::string_view::npos)
      throw std::runtime_error(origin + ":" + std::to_string(line_no) +
                               ": expected 'key = value'");
    std::string_view key = trim(sv.substr(0, eq));
    std::string_view value = trim(sv.substr(eq + 1));

    try {
      if (key == "name") {
        s.name = std::string(value);
      } else if (key == "description") {
        s.description = std::string(value);
      } else if (key == "seed_base") {
        s.seed_base = parse_u64(key, value);
      } else if (key.starts_with("base.")) {
        apply_config_override(s.base, key.substr(5), value);
      } else if (key.starts_with("refine.")) {
        if (!s.refine) s.refine = RefineSpec{};
        const std::string_view sub = key.substr(7);
        if (sub == "axis") {
          s.refine->axis = std::string(value);
        } else if (sub == "metric") {
          s.refine->metric = std::string(value);
        } else if (sub == "threshold") {
          s.refine->threshold = parse_double(key, value);
        } else if (sub == "coarse") {
          s.refine->coarse = parse_u32(key, value);
          if (s.refine->coarse < 2)
            throw std::invalid_argument("refine.coarse must be >= 2");
        } else if (sub == "tolerance") {
          s.refine->tolerance = parse_double(key, value);
        } else {
          throw std::invalid_argument(
              "unknown refine key '" + std::string(sub) +
              "' (axis | metric | threshold | coarse | tolerance)");
        }
      } else if (key.starts_with("axis.")) {
        std::string axis_key(key.substr(5));
        Axis axis{axis_key, {}};
        // Each value is applied once here, so a bad key or value fails at
        // this line instead of at sweep start.
        sim::ExperimentConfig scratch = s.base;
        std::stringstream ss{std::string(value)};
        std::string item;
        while (std::getline(ss, item, ',')) {
          std::string v(trim(item));
          if (v.empty()) continue;
          apply_config_override(scratch, axis_key, v);
          double x = 0;
          try {
            x = std::stod(v);
          } catch (const std::exception&) {
            x = static_cast<double>(axis.values.size());
          }
          axis.values.push_back(AxisValue{
              axis_key + "=" + v, x,
              [axis_key, v](sim::ExperimentConfig& cfg) {
                apply_config_override(cfg, axis_key, v);
              }});
        }
        if (axis.values.empty())
          throw std::invalid_argument("axis '" + axis_key + "' has no values");
        s.axes.push_back(std::move(axis));
      } else {
        throw std::invalid_argument("unknown directive '" + std::string(key) + "'");
      }
    } catch (const std::invalid_argument& e) {
      throw std::runtime_error(origin + ":" + std::to_string(line_no) + ": " + e.what());
    }
  }
  if (s.refine) {
    if (s.refine->metric.empty())
      throw std::runtime_error(origin + ": refine.metric is required when refine.* is set");
    bool found = false;
    for (const Axis& a : s.axes) found = found || a.name == s.refine->axis;
    if (!found)
      throw std::runtime_error(origin + ": refine.axis '" + s.refine->axis +
                               "' does not name an axis in this file");
  }
  return s;
}

}  // namespace bng::runner
