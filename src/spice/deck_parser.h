// deck_parser.h — a SPICE-flavoured text netlist front end.
//
// Lets circuits be written as decks instead of C++:
//
//     * 2T cell write path
//     Vws  ws  0 PULSE(0 1.36 20p 20p 600p 20p)
//     Vwbl wbl 0 PULSE(0 0.68 60p 20p 550p 20p)
//     Macc wbl ws g NMOS W=65n
//     XFE  g  int FECAP T=2.25n P0=0 W=65n L=45n
//     Mfet rs int sl NMOS W=65n
//     Vrs  rs  0 DC 0
//     Vsl  sl  0 DC 0
//     .end
//
// Supported cards:
//   R<name> a b <value>                      resistor
//   C<name> a b <value>                      capacitor
//   D<name> a b [IS=..] [N=..]               diode
//   V<name> a b DC <v> | PULSE(...) | PWL(t v ...) | SIN(off amp freq)
//   I<name> a b DC <v>                       current source
//   M<name> d g s NMOS|PMOS [W=..] [L=..] [VT=..]
//   X<name> a b FECAP [T=..] [W=..] [L=..] [P0=..] [RHO=..]
//   X<name> n1 n2 ... <subckt>               subcircuit instance
//   .subckt NAME p1 p2 ... / .ends           hierarchical definitions
//   * or ; comment, .end terminator, blank lines ignored.
//
// Subcircuit internals are instance-scoped: device "R1" inside instance
// "Xc1" becomes "Xc1:R1" and private nodes become "Xc1:<node>".
//
// Engineering suffixes: f p n u m k meg g t (e.g. 2.25n, 1meg, 0.2f).
// Node "0" (or gnd/GND) is ground.  Errors carry the line number.
#pragma once

#include <istream>
#include <string>

#include "spice/netlist.h"

namespace fefet::spice {

struct DeckStats {
  int deviceCount = 0;
  int lineCount = 0;
};

/// Parse a deck into the netlist.  Throws InvalidArgumentError with the
/// offending line number/content on malformed input.
DeckStats parseDeck(std::istream& input, Netlist& netlist);
DeckStats parseDeckString(const std::string& text, Netlist& netlist);

/// Parse one engineering-notation value ("2.25n", "1meg", "-0.68").
/// Throws InvalidArgumentError on garbage.
double parseEngineeringValue(const std::string& token);

}  // namespace fefet::spice
