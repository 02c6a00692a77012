// Parser for the ISCAS85 `.bench` netlist format:
//
//   # comment
//   INPUT(G1)
//   OUTPUT(G22)
//   G10 = NAND(G1, G3)
//   G11 = NOT(G10)
//
// Supported ops: AND, NAND, OR, NOR, NOT/INV, BUF/BUFF, XOR, XNOR; keywords
// and ops match case-insensitively. A declaration is INPUT or OUTPUT,
// optional blanks, then '(' on a line without '=' — `inputx = NOT(a)` is a
// gate. Forward references are resolved (the format does not require
// definition order). Errors (unknown op, undefined signal, double
// definition, syntax) raise BenchParseError with a line number.
//
// The reader is one pass over the text, linear in its size: names stay
// views into the text until the netlist copies them.
#pragma once

#include <cstdint>
#include <istream>
#include <stdexcept>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "netlist/logic_netlist.hpp"

namespace lrsizer::netlist {

class BenchParseError : public std::runtime_error {
 public:
  BenchParseError(int line, const std::string& message)
      : std::runtime_error("bench parse error at line " + std::to_string(line) + ": " +
                           message),
        line_(line) {}
  int line() const { return line_; }

 private:
  int line_;
};

/// Parse a `.bench` stream into a finalized LogicNetlist (reads the stream
/// whole, then parses it as text).
LogicNetlist parse_bench(std::istream& in);

/// Parse in-memory `.bench` text (request payloads, tests, embedded
/// circuits) without copying it.
LogicNetlist parse_bench_string(std::string_view text);

/// Read the `# size <node> <kind> <net> <value>` annotation comments that
/// bench_writer/the CLI append to sized outputs. Returns (circuit NodeId,
/// size) pairs in file order. Lines that are not size annotations are
/// ignored (they are comments to every .bench reader, including parse_bench
/// above); a line counts as an annotation only when its third token is an
/// integer node id, so `# size ...` prose stays prose. Truncated or
/// out-of-range annotations raise BenchParseError. Feeds
/// api::SizingSession::warm_start / `lrsizer --warm-start`.
std::vector<std::pair<std::int32_t, double>> read_size_annotations(std::istream& in);

/// The real ISCAS85 c17 netlist, shipped in-tree (also in data/c17.bench).
extern const char* const kIscas85C17;

}  // namespace lrsizer::netlist
