#include "spice/deck_parser.h"

#include <algorithm>
#include <cctype>
#include <sstream>
#include <vector>

#include "common/error.h"
#include "ferro/lk_model.h"
#include "spice/fecap_device.h"
#include "spice/mosfet_device.h"
#include "spice/passives.h"
#include "spice/sources.h"
#include "xtor/mosfet_model.h"

namespace fefet::spice {

namespace {

std::string lower(std::string s) {
  std::transform(s.begin(), s.end(), s.begin(),
                 [](unsigned char c) { return std::tolower(c); });
  return s;
}

[[noreturn]] void fail(int line, const std::string& message) {
  std::ostringstream os;
  os << "deck line " << line << ": " << message;
  throw InvalidArgumentError(os.str());
}

/// Split a card into tokens; parentheses become their own groups, so
/// "PULSE(0 1 1n)" tokenizes to {"PULSE", "(", "0", "1", "1n", ")"}.
std::vector<std::string> tokenize(const std::string& text) {
  std::vector<std::string> tokens;
  std::string current;
  const auto flush = [&] {
    if (!current.empty()) {
      tokens.push_back(current);
      current.clear();
    }
  };
  for (char c : text) {
    if (std::isspace(static_cast<unsigned char>(c)) || c == ',') {
      flush();
    } else if (c == '(' || c == ')') {
      flush();
      tokens.push_back(std::string(1, c));
    } else if (c == '=') {
      flush();
      tokens.push_back("=");
    } else {
      current.push_back(c);
    }
  }
  flush();
  return tokens;
}

/// key=value options collected from the tail of a card.
struct Options {
  std::vector<std::pair<std::string, double>> entries;

  double get(const std::string& key, double fallback) const {
    for (const auto& [k, v] : entries) {
      if (k == key) return v;
    }
    return fallback;
  }
};

/// Consume trailing KEY = VALUE triples from tokens[from...].
Options parseOptions(const std::vector<std::string>& tokens,
                     std::size_t from, int line) {
  Options options;
  std::size_t i = from;
  while (i < tokens.size()) {
    if (i + 2 >= tokens.size() + 1 && tokens[i] == "=") {
      fail(line, "dangling '='");
    }
    if (i + 2 < tokens.size() + 1 && i + 1 < tokens.size() &&
        tokens[i + 1] == "=") {
      if (i + 2 >= tokens.size()) fail(line, "missing value after '='");
      options.entries.emplace_back(lower(tokens[i]),
                                   parseEngineeringValue(tokens[i + 2]));
      i += 3;
    } else {
      fail(line, "unexpected token '" + tokens[i] + "'");
    }
  }
  return options;
}

/// Parse a source waveform starting at tokens[i].
Shape parseSourceShape(const std::vector<std::string>& tokens, std::size_t i,
                       int line) {
  if (i >= tokens.size()) fail(line, "missing source value");
  const std::string kind = lower(tokens[i]);
  const auto args = [&](std::size_t minCount) {
    FEFET_REQUIRE(i + 1 < tokens.size() && tokens[i + 1] == "(",
                  "expected '(' after " + kind);
    std::vector<double> values;
    for (std::size_t j = i + 2; j < tokens.size() && tokens[j] != ")"; ++j) {
      values.push_back(parseEngineeringValue(tokens[j]));
    }
    if (values.size() < minCount) {
      fail(line, kind + " needs at least " + std::to_string(minCount) +
                     " arguments");
    }
    return values;
  };
  if (kind == "dc") {
    if (i + 1 >= tokens.size()) fail(line, "DC needs a value");
    return shapes::dc(parseEngineeringValue(tokens[i + 1]));
  }
  if (kind == "pulse") {
    const auto v = args(6);
    return shapes::pulse(v[0], v[1], v[2], v[3], v[4], v[5],
                         v.size() > 6 ? v[6] : 0.0);
  }
  if (kind == "pwl") {
    const auto v = args(2);
    if (v.size() % 2 != 0) fail(line, "PWL needs (t v) pairs");
    std::vector<std::pair<double, double>> points;
    for (std::size_t j = 0; j < v.size(); j += 2) {
      points.emplace_back(v[j], v[j + 1]);
    }
    return shapes::pwl(std::move(points));
  }
  if (kind == "sin") {
    const auto v = args(3);
    return shapes::sine(v[0], v[1], v[2], v.size() > 3 ? v[3] : 0.0);
  }
  // Bare number: DC level.
  return shapes::dc(parseEngineeringValue(tokens[i]));
}

}  // namespace

double parseEngineeringValue(const std::string& token) {
  FEFET_REQUIRE(!token.empty(), "empty numeric token");
  std::size_t pos = 0;
  double value = 0.0;
  try {
    value = std::stod(token, &pos);
  } catch (const std::exception&) {
    throw InvalidArgumentError("not a number: '" + token + "'");
  }
  const std::string suffix = lower(token.substr(pos));
  if (suffix.empty()) return value;
  if (suffix == "f") return value * 1e-15;
  if (suffix == "p") return value * 1e-12;
  if (suffix == "n") return value * 1e-9;
  if (suffix == "u") return value * 1e-6;
  if (suffix == "m") return value * 1e-3;
  if (suffix == "k") return value * 1e3;
  if (suffix == "meg") return value * 1e6;
  if (suffix == "g") return value * 1e9;
  if (suffix == "t") return value * 1e12;
  throw InvalidArgumentError("unknown unit suffix on '" + token + "'");
}

namespace {

struct Subckt {
  std::vector<std::string> ports;
  std::vector<std::pair<int, std::string>> body;  ///< (line no, card)
};

struct ParseEnv {
  const std::map<std::string, Subckt>* subckts = nullptr;
  std::string prefix;  ///< instance path ("X1:") for internal names
  std::map<std::string, std::string> portMap;  ///< formal -> actual node
  int depth = 0;
};

/// Map a node name through the environment: ports map to the caller's
/// nodes, ground stays global, everything else becomes instance-local.
std::string mapNode(const ParseEnv& env, const std::string& name) {
  if (name == "0" || name == "gnd" || name == "GND") return name;
  const auto it = env.portMap.find(name);
  if (it != env.portMap.end()) return it->second;
  return env.prefix + name;
}

void processCard(const std::vector<std::string>& tokens, int lineNo,
                 Netlist& netlist, DeckStats& stats, const ParseEnv& env);

void expandSubckt(const std::string& instanceName,
                  const std::vector<std::string>& actualNodes,
                  const Subckt& definition, Netlist& netlist,
                  DeckStats& stats, const ParseEnv& env, int lineNo) {
  if (env.depth >= 8) fail(lineNo, "subcircuit nesting too deep");
  if (actualNodes.size() != definition.ports.size()) {
    fail(lineNo, "subcircuit instance " + instanceName + " expects " +
                     std::to_string(definition.ports.size()) + " nodes");
  }
  ParseEnv inner;
  inner.subckts = env.subckts;
  inner.prefix = env.prefix + instanceName + ":";
  inner.depth = env.depth + 1;
  for (std::size_t i = 0; i < definition.ports.size(); ++i) {
    inner.portMap[definition.ports[i]] = actualNodes[i];
  }
  for (const auto& [bodyLine, card] : definition.body) {
    const auto bodyTokens = tokenize(card);
    if (!bodyTokens.empty()) {
      processCard(bodyTokens, bodyLine, netlist, stats, inner);
    }
  }
}

}  // namespace

DeckStats parseDeck(std::istream& input, Netlist& netlist) {
  DeckStats stats;
  std::map<std::string, Subckt> subckts;
  std::vector<std::pair<int, std::string>> topCards;
  Subckt* openSubckt = nullptr;

  std::string rawLine;
  int lineNo = 0;
  while (std::getline(input, rawLine)) {
    ++lineNo;
    ++stats.lineCount;
    // Strip comments.
    const std::size_t semi = rawLine.find(';');
    std::string text =
        semi == std::string::npos ? rawLine : rawLine.substr(0, semi);
    // Trim.
    const auto first = text.find_first_not_of(" \t\r");
    if (first == std::string::npos) continue;
    text = text.substr(first);
    if (text[0] == '*') continue;
    if (text[0] == '.') {
      const std::string dot = lower(text);
      if (dot.rfind(".subckt", 0) == 0) {
        if (openSubckt != nullptr) fail(lineNo, "nested .subckt definition");
        const auto tokens = tokenize(text);
        if (tokens.size() < 3) fail(lineNo, ".subckt needs a name and ports");
        Subckt& def = subckts[tokens[1]];
        def.ports.assign(tokens.begin() + 2, tokens.end());
        openSubckt = &def;
        continue;
      }
      if (dot.rfind(".ends", 0) == 0) {
        if (openSubckt == nullptr) fail(lineNo, ".ends without .subckt");
        openSubckt = nullptr;
        continue;
      }
      if (dot.rfind(".end", 0) == 0) break;
      continue;  // other dot-cards ignored
    }
    if (openSubckt != nullptr) {
      openSubckt->body.emplace_back(lineNo, text);
      continue;
    }
    topCards.emplace_back(lineNo, text);
  }
  if (openSubckt != nullptr) {
    throw InvalidArgumentError("deck: unterminated .subckt definition");
  }

  ParseEnv env;
  env.subckts = &subckts;
  for (const auto& [cardLine, card] : topCards) {
    const auto tokens = tokenize(card);
    if (!tokens.empty()) processCard(tokens, cardLine, netlist, stats, env);
  }
  return stats;
}

namespace {

void processCard(const std::vector<std::string>& tokens, int lineNo,
                 Netlist& netlist, DeckStats& stats, const ParseEnv& env) {
  {
    const std::string name = env.prefix + tokens[0];
    const char type = static_cast<char>(
        std::toupper(static_cast<unsigned char>(tokens[0][0])));
    const auto node = [&](std::size_t idx) -> NodeId {
      if (idx >= tokens.size()) fail(lineNo, "missing node on " + name);
      return netlist.node(mapNode(env, tokens[idx]));
    };

    switch (type) {
      case 'R': {
        if (tokens.size() < 4) fail(lineNo, "R needs: name a b value");
        netlist.add<Resistor>(name, node(1), node(2),
                              parseEngineeringValue(tokens[3]));
        break;
      }
      case 'C': {
        if (tokens.size() < 4) fail(lineNo, "C needs: name a b value");
        netlist.add<Capacitor>(name, node(1), node(2),
                               parseEngineeringValue(tokens[3]));
        break;
      }
      case 'D': {
        if (tokens.size() < 3) fail(lineNo, "D needs: name a b");
        Diode::Params params;
        const auto options = parseOptions(tokens, 3, lineNo);
        params.saturationCurrent =
            options.get("is", params.saturationCurrent);
        params.idealityFactor = options.get("n", params.idealityFactor);
        netlist.add<Diode>(name, node(1), node(2), params);
        break;
      }
      case 'V': {
        if (tokens.size() < 4) fail(lineNo, "V needs: name a b waveform");
        netlist.add<VoltageSource>(name, node(1), node(2),
                                   parseSourceShape(tokens, 3, lineNo));
        break;
      }
      case 'I': {
        if (tokens.size() < 4) fail(lineNo, "I needs: name a b waveform");
        netlist.add<CurrentSource>(name, node(1), node(2),
                                   parseSourceShape(tokens, 3, lineNo));
        break;
      }
      case 'M': {
        if (tokens.size() < 5) fail(lineNo, "M needs: name d g s NMOS|PMOS");
        const std::string flavour = lower(tokens[4]);
        xtor::MosParams params;
        if (flavour == "nmos") {
          params = xtor::nmos45();
        } else if (flavour == "pmos") {
          params = xtor::pmos45();
        } else {
          fail(lineNo, "unknown transistor flavour '" + tokens[4] + "'");
        }
        const auto options = parseOptions(tokens, 5, lineNo);
        const double width = options.get("w", 65e-9);
        params.length = options.get("l", params.length);
        params.vt0 = options.get("vt", params.vt0);
        params.overlapCapPerWidth =
            options.get("cov", params.overlapCapPerWidth);
        netlist.add<MosfetDevice>(name, node(1), node(2), node(3), params,
                                  width);
        break;
      }
      case 'X': {
        if (tokens.size() >= 4 && lower(tokens[3]) == "fecap") {
          // fallthrough to the FECAP special case below
        } else {
          // Subcircuit instance: last token is the definition name.
          if (tokens.size() < 2) fail(lineNo, "X needs nodes and a name");
          const std::string& defName = tokens.back();
          if (env.subckts == nullptr ||
              env.subckts->find(defName) == env.subckts->end()) {
            fail(lineNo, "unknown subcircuit '" + defName + "'");
          }
          std::vector<std::string> actual;
          for (std::size_t i = 1; i + 1 < tokens.size(); ++i) {
            actual.push_back(mapNode(env, tokens[i]));
          }
          expandSubckt(tokens[0], actual, env.subckts->at(defName), netlist,
                       stats, env, lineNo);
          return;  // expansion already counted its devices
        }
        const auto options = parseOptions(tokens, 4, lineNo);
        ferro::LkCoefficients lk;
        lk.rho = options.get("rho", lk.rho);
        ferro::FeGeometry geometry;
        geometry.thickness = options.get("t", 2.25e-9);
        geometry.area =
            options.get("w", 65e-9) * options.get("l", 45e-9);
        netlist.add<FeCapDevice>(name, node(1), node(2), lk, geometry,
                                 options.get("p0", 0.0));
        break;
      }
      default:
        fail(lineNo, "unknown card '" + name + "'");
    }
    ++stats.deviceCount;
  }
}

}  // namespace

DeckStats parseDeckString(const std::string& text, Netlist& netlist) {
  std::istringstream stream(text);
  return parseDeck(stream, netlist);
}

}  // namespace fefet::spice
