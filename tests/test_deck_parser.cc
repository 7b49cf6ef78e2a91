// Tests of the SPICE-deck netlist front end.
#include <cmath>
#include <gtest/gtest.h>

#include "common/stats.h"
#include "core/array_netlist.h"
#include "spice/deck_parser.h"
#include "spice/partition.h"
#include "spice/fecap_device.h"
#include "spice/simulator.h"
#include "spice/sources.h"

namespace fefet::spice {
namespace {

TEST(EngineeringValues, SuffixesAndSigns) {
  EXPECT_DOUBLE_EQ(parseEngineeringValue("2.25n"), 2.25e-9);
  EXPECT_DOUBLE_EQ(parseEngineeringValue("0.2f"), 0.2e-15);
  EXPECT_DOUBLE_EQ(parseEngineeringValue("1meg"), 1e6);
  EXPECT_DOUBLE_EQ(parseEngineeringValue("3k"), 3e3);
  EXPECT_DOUBLE_EQ(parseEngineeringValue("-0.68"), -0.68);
  EXPECT_DOUBLE_EQ(parseEngineeringValue("10p"), 10e-12);
  EXPECT_DOUBLE_EQ(parseEngineeringValue("1.5u"), 1.5e-6);
  EXPECT_DOUBLE_EQ(parseEngineeringValue("2g"), 2e9);
}

TEST(EngineeringValues, RejectGarbage) {
  EXPECT_THROW(parseEngineeringValue("abc"), InvalidArgumentError);
  EXPECT_THROW(parseEngineeringValue("1x"), InvalidArgumentError);
  EXPECT_THROW(parseEngineeringValue(""), InvalidArgumentError);
}

TEST(DeckParser, VoltageDividerDeck) {
  Netlist n;
  const auto stats = parseDeckString(R"(
* a classic divider
V1 in 0 DC 2.0
R1 in mid 1k
R2 mid 0 3k
.end
)", n);
  EXPECT_EQ(stats.deviceCount, 3);
  Simulator sim(n);
  sim.solveDc();
  EXPECT_NEAR(sim.nodeVoltage("mid"), 1.5, 1e-6);
}

TEST(DeckParser, PulseSourceAndRcTransient) {
  Netlist n;
  parseDeckString(R"(
V1 in 0 PULSE(0 1 0 1p 1 1p)
R1 in out 1k
C1 out 0 1p
.end
)", n);
  Simulator sim(n);
  sim.initializeUic();
  TransientOptions options;
  options.duration = 2e-9;
  options.dtMax = 10e-12;
  const auto r = sim.runTransient(options, {Probe::v("out")});
  EXPECT_NEAR(r.waveform.valueAt("v(out)", 1e-9), 1.0 - std::exp(-1.0),
              0.02);
}

TEST(DeckParser, PwlAndSineSources) {
  Netlist n;
  parseDeckString(R"(
V1 a 0 PWL(0 0 1n 1 2n 0)
V2 b 0 SIN(0.5 0.5 1g)
.end
)", n);
  auto* v1 = n.get<VoltageSource>("V1");
  auto* v2 = n.get<VoltageSource>("V2");
  EXPECT_DOUBLE_EQ(v1->valueAt(0.5e-9), 0.5);
  EXPECT_NEAR(v2->valueAt(0.25e-9), 1.0, 1e-9);
}

TEST(DeckParser, MosfetInverterDeck) {
  Netlist n;
  parseDeckString(R"(
Vdd vdd 0 DC 0.68
Vin in 0 DC 0
MP1 out in vdd PMOS W=260n
MN1 out in 0 NMOS W=130n
.end
)", n);
  Simulator sim(n);
  sim.solveDc();
  EXPECT_NEAR(sim.nodeVoltage("out"), 0.68, 0.02);
}

TEST(DeckParser, FeCapCardBuildsLkDevice) {
  Netlist n;
  parseDeckString(R"(
V1 a 0 PULSE(0 2.0 0.1n 20p 2n 20p)
XFE1 a 0 FECAP T=1n W=65n L=45n P0=-0.4636 RHO=1.0
.end
)", n);
  auto* fe = n.get<FeCapDevice>("XFE1");
  EXPECT_NEAR(fe->geometry().thickness, 1e-9, 1e-15);
  EXPECT_NEAR(fe->polarization(), -0.4636, 1e-6);
  // A super-coercive pulse flips it.
  Simulator sim(n);
  sim.initializeUic();
  TransientOptions options;
  options.duration = 3e-9;
  sim.runTransient(options, {Probe::deviceState("XFE1", "P")});
  EXPECT_GT(fe->polarization(), 0.4);
}

TEST(DeckParser, ControlledSourcesAndDiode) {
  Netlist n;
  parseDeckString(R"(
V2 q 0 DC 1.0
RD q d 1k
D1 d 0 IS=1e-14 N=1.0
.end
)", n);
  Simulator sim(n);
  sim.solveDc();
  EXPECT_GT(sim.nodeVoltage("d"), 0.45);
  EXPECT_LT(sim.nodeVoltage("d"), 0.75);
}

TEST(DeckParser, CommentsAndBlankLines) {
  Netlist n;
  const auto stats = parseDeckString(R"(
* header comment

R1 a 0 1k   ; trailing comment
* another
.end
R2 never 0 1k
)", n);
  EXPECT_EQ(stats.deviceCount, 1);
  EXPECT_EQ(n.find("R2"), nullptr);
}

TEST(DeckParser, ErrorsCarryLineNumbers) {
  Netlist n;
  try {
    parseDeckString("R1 a 0 1k\nQ9 what is this\n", n);
    FAIL() << "should have thrown";
  } catch (const InvalidArgumentError& e) {
    EXPECT_NE(std::string(e.what()).find("line 2"), std::string::npos);
  }
}

TEST(DeckParser, MalformedCardsRejected) {
  Netlist a;
  EXPECT_THROW(parseDeckString("R1 a 0\n", a), InvalidArgumentError);
  Netlist b;
  EXPECT_THROW(parseDeckString("V1 a 0 PULSE(0 1)\n", b),
               InvalidArgumentError);
  Netlist c;
  EXPECT_THROW(parseDeckString("M1 d g s JFET\n", c), InvalidArgumentError);
  Netlist d;
  EXPECT_THROW(parseDeckString("X1 a b NOTFECAP\n", d),
               InvalidArgumentError);
  // No inductor or controlled-source cards: no paper circuit uses them.
  for (const char* card :
       {"L1 a b 1n\n", "E1 o 0 c 0 2\n", "G1 o 0 c 0 1m\n"}) {
    Netlist e;
    EXPECT_THROW(parseDeckString(card, e), InvalidArgumentError) << card;
  }
}

TEST(DeckParser, FullCellDeckWrites) {
  // The paper's write path, expressed as a deck: access NMOS + FEFET
  // (FE cap + transistor with an internal node).
  Netlist n;
  parseDeckString(R"(
Vws ws 0 PULSE(0 1.36 20p 20p 900p 20p)
Vwbl wbl 0 PULSE(0 0.68 60p 20p 700p 20p)
Macc wbl ws g NMOS W=65n
XFE g int FECAP T=2.25n P0=0 W=65n L=45n RHO=0.885
Mfet rs int sl NMOS W=65n
Vrs rs 0 DC 0
Vsl sl 0 DC 0
.end
)", n);
  Simulator sim(n);
  sim.initializeUic();
  TransientOptions options;
  options.duration = 1.5e-9;
  sim.runTransient(options, {Probe::deviceState("XFE", "P")});
  EXPECT_GT(n.get<FeCapDevice>("XFE")->polarization(), 0.1);
}

TEST(DeckParser, SubcircuitExpansion) {
  Netlist n;
  const auto stats = parseDeckString(R"(
.subckt divider in out
R1 in out 1k
R2 out 0 1k
.ends
V1 a 0 DC 2.0
Xd1 a m1 divider
Xd2 m1 m2 divider
.end
)", n);
  EXPECT_EQ(stats.deviceCount, 1 + 2 * 2);
  Simulator sim(n);
  sim.solveDc();
  // Chained dividers: m1 loaded by the second divider's 2k series.
  EXPECT_NEAR(sim.nodeVoltage("m1"), 2.0 * (2.0 / 3.0) / (1.0 + 2.0 / 3.0),
              1e-3);
  EXPECT_NEAR(sim.nodeVoltage("m2"),
              sim.nodeVoltage("m1") * 0.5, 1e-6);
  // Internal names are instance-scoped.
  EXPECT_NE(n.find("Xd1:R1"), nullptr);
  EXPECT_NE(n.find("Xd2:R2"), nullptr);
}

TEST(DeckParser, NestedSubcircuits) {
  Netlist n;
  parseDeckString(R"(
.subckt unit a b
R1 a b 1k
.ends
.subckt pair x y
Xu1 x mid unit
Xu2 mid y unit
.ends
V1 top 0 DC 1.0
Xp top 0 pair
.end
)", n);
  Simulator sim(n);
  sim.solveDc();
  // 2k total to ground: midpoint at 0.5 V.
  EXPECT_NEAR(sim.nodeVoltage("Xp:mid"), 0.5, 1e-6);
}

TEST(DeckParser, SubcircuitFefetCell) {
  // A reusable FEFET-cell subcircuit instantiated twice.
  Netlist n;
  parseDeckString(R"(
.subckt fecell wbl ws rs sl
Macc wbl ws g NMOS W=65n
XFE g int FECAP T=2.25n P0=0 W=65n L=45n RHO=0.885
Mfet rs int sl NMOS W=65n
.ends
Vws ws 0 PULSE(0 1.36 20p 20p 900p 20p)
Vw1 wbl1 0 PULSE(0 0.68 60p 20p 700p 20p)
Vw2 wbl2 0 DC 0
Vrs rs 0 DC 0
Vsl sl 0 DC 0
Xc1 wbl1 ws rs sl fecell
Xc2 wbl2 ws rs sl fecell
.end
)", n);
  Simulator sim(n);
  sim.initializeUic();
  TransientOptions options;
  options.duration = 1.5e-9;
  sim.runTransient(options, {});
  // Cell 1 was written; cell 2 (grounded bit line) was not.
  EXPECT_GT(n.get<FeCapDevice>("Xc1:XFE")->polarization(), 0.1);
  EXPECT_LT(n.get<FeCapDevice>("Xc2:XFE")->polarization(), 0.05);
}

TEST(DeckParser, SubcircuitErrors) {
  Netlist a;
  EXPECT_THROW(parseDeckString("Xb x y nosuchthing\n", a),
               InvalidArgumentError);
  Netlist b;
  EXPECT_THROW(parseDeckString(R"(
.subckt broken a b
R1 a b 1k
)", b),
               InvalidArgumentError);  // unterminated
  Netlist c;
  EXPECT_THROW(parseDeckString(R"(
.subckt u a b
R1 a b 1k
.ends
Xq onlyone u
)", c),
               InvalidArgumentError);  // port arity mismatch
}

TEST(DeckParser, SubcircuitDepthLimit) {
  // A chain of k nested subcircuit levels: the innermost expansion runs at
  // depth k-1, so 8 levels are the deepest accepted and 9 must be rejected
  // (the parser's recursion guard, not a stack overflow).
  const auto makeDeck = [](int levels) {
    std::string deck = ".subckt u1 a b\nR1 a b 1k\n.ends\n";
    for (int i = 2; i <= levels; ++i) {
      const std::string s = std::to_string(i);
      deck += ".subckt u" + s + " a b\nXu a b u" + std::to_string(i - 1) +
              "\n.ends\n";
    }
    deck += "V1 top 0 DC 1.0\nXtop top 0 u" + std::to_string(levels) +
            "\n.end\n";
    return deck;
  };
  Netlist ok;
  const auto stats = parseDeckString(makeDeck(8), ok);
  EXPECT_EQ(stats.deviceCount, 2);  // V1 + the one deeply-nested resistor
  EXPECT_NE(ok.find("Xtop:Xu:Xu:Xu:Xu:Xu:Xu:Xu:R1"), nullptr);
  Netlist deep;
  try {
    parseDeckString(makeDeck(9), deep);
    FAIL() << "should have rejected 9-deep nesting";
  } catch (const InvalidArgumentError& e) {
    EXPECT_NE(std::string(e.what()).find("too deep"), std::string::npos);
  }
}

TEST(DeckParser, InstanceNodeScoping) {
  // Two instances of the same subcircuit get distinct internal nodes; a
  // top-level card that spells out an instance-scoped name ("Xa:mid")
  // deliberately taps INTO that instance — the ':' prefix scheme is a flat
  // namespace, so the alias is defined behavior worth pinning.
  Netlist n;
  parseDeckString(R"(
.subckt divider in out
R1 in mid 1k
R2 mid out 1k
.ends
V1 a 0 DC 2.0
Xa a 0 divider
Xb a 0 divider
Rtap Xa:mid tap 1k
Rload tap 0 1k
.end
)", n);
  EXPECT_NO_THROW(n.findNode("Xa:mid"));
  EXPECT_NO_THROW(n.findNode("Xb:mid"));
  Simulator sim(n);
  sim.solveDc();
  // Xb's midpoint is the unloaded divider; Xa's is pulled down by the tap.
  EXPECT_NEAR(sim.nodeVoltage("Xb:mid"), 1.0, 1e-6);
  EXPECT_LT(sim.nodeVoltage("Xa:mid"), 0.99);
  EXPECT_NEAR(sim.nodeVoltage("tap"), sim.nodeVoltage("Xa:mid") * 0.5,
              1e-6);
}

TEST(DeckParser, GeneratedArrayDeckRoundTrip) {
  // The 16x16 generated array deck (core/array_netlist) round-trips
  // through the parser with exact structural invariants: per cell an
  // access MOS, an FE cap and a read MOS (3 x 256), plus 4 line sources
  // and 2 wire caps per row/column pair (16 x 4 + 32 + 32 = 128 line
  // devices); every MOS is 2-terminal-node-free so unknowns = nodes +
  // source aux + FE polarization aux.
  core::ArrayNetlistConfig config;
  config.rows = 16;
  config.cols = 16;
  const std::string deck = core::emitArrayDeck(config);
  Netlist n;
  const auto stats = parseDeckString(deck, n);
  EXPECT_EQ(stats.deviceCount, 3 * 256 + 64 + 64);
  // Nodes: 256 cells x (fg + int) + 16 x (ws + rs) + 16 x (wbl + sl).
  EXPECT_EQ(n.nodeCount(), 2 * 256 + 2 * 16 + 2 * 16);
  // Mark the shared column lines and freeze: the partition must come out
  // one block per word-line row with the column lines on the border.
  for (int c = 0; c < 16; ++c) {
    n.markBorderNode("wbl" + std::to_string(c));
    n.markBorderNode("sl" + std::to_string(c));
  }
  const int unknowns = n.freeze();
  // Unknowns: nodes + 64 voltage-source aux + 256 FE polarization aux.
  EXPECT_EQ(unknowns, n.nodeCount() + 64 + 256);
  const BbdPartition* partition = n.partition();
  ASSERT_NE(partition, nullptr);
  EXPECT_EQ(partition->blockCount(), 16);
  // Border: 16 x (wbl + sl) nodes plus their 32 promoted source aux rows.
  EXPECT_EQ(partition->borderSize(), 64);
  // Each row block: 16 cells x (fg + int + P aux) + ws + rs + their aux.
  EXPECT_EQ(partition->maxBlockRows(), 3 * 16 + 4);
  EXPECT_TRUE(partition->useful());
}

TEST(DeckParser, MutationRobustness) {
  // Fuzz-ish robustness: random single-character mutations of a valid deck
  // must either parse or throw a library error — never crash or hang.
  const std::string base = R"(V1 in 0 PULSE(0 1 0 1p 1 1p)
R1 in out 1k
C1 out 0 1p
D1 out 0 IS=1e-14
M1 d in 0 NMOS W=65n
XF in d FECAP T=2.25n P0=0
.end
)";
  stats::Rng rng(2024);
  const std::string alphabet = "RCVIX.()=knpu0123456789 eE-";
  int parsed = 0, rejected = 0;
  for (int i = 0; i < 300; ++i) {
    std::string deck = base;
    const int pos = rng.uniformInt(0, static_cast<int>(deck.size()) - 1);
    deck[static_cast<std::size_t>(pos)] =
        alphabet[static_cast<std::size_t>(rng.uniformInt(
            0, static_cast<int>(alphabet.size()) - 1))];
    Netlist n;
    try {
      parseDeckString(deck, n);
      ++parsed;
    } catch (const Error&) {
      ++rejected;
    }
  }
  EXPECT_EQ(parsed + rejected, 300);
  EXPECT_GT(parsed, 10);    // many mutations are benign
  EXPECT_GT(rejected, 10);  // and many are caught
}

}  // namespace
}  // namespace fefet::spice
