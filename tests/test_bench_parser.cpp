// ISCAS85 .bench parser: happy path (c17), formats, and error reporting.
#include <gtest/gtest.h>

#include <sstream>
#include <string>
#include <vector>

#include "netlist/bench_parser.hpp"
#include "netlist/bench_writer.hpp"
#include "netlist/generator.hpp"
#include "netlist/hash.hpp"
#include "netlist/iscas_profiles.hpp"
#include "netlist/logic_netlist.hpp"

namespace {

using namespace lrsizer;
using netlist::LogicOp;

TEST(BenchParser, ParsesC17) {
  const auto n = netlist::parse_bench_string(netlist::kIscas85C17);
  EXPECT_EQ(n.primary_inputs().size(), 5u);
  EXPECT_EQ(n.primary_outputs().size(), 2u);
  EXPECT_EQ(n.num_real_gates(), 6);
  EXPECT_EQ(n.depth(), 3);  // c17's longest path is 3 NAND levels
}

TEST(BenchParser, C17GateTypesAreNand) {
  const auto n = netlist::parse_bench_string(netlist::kIscas85C17);
  int nands = 0;
  for (const auto& g : n.gates()) {
    if (g.op == LogicOp::kNand) ++nands;
  }
  EXPECT_EQ(nands, 6);
}

TEST(BenchParser, HandlesForwardReferences) {
  // out is defined before its fanin.
  const auto n = netlist::parse_bench_string(
      "INPUT(a)\nOUTPUT(out)\nout = NOT(mid)\nmid = BUF(a)\n");
  EXPECT_EQ(n.num_real_gates(), 2);
  EXPECT_EQ(n.depth(), 2);
}

TEST(BenchParser, AllGateTypes) {
  const auto n = netlist::parse_bench_string(
      "INPUT(a)\nINPUT(b)\n"
      "OUTPUT(o1)\nOUTPUT(o2)\nOUTPUT(o3)\nOUTPUT(o4)\n"
      "OUTPUT(o5)\nOUTPUT(o6)\nOUTPUT(o7)\nOUTPUT(o8)\n"
      "o1 = AND(a, b)\no2 = NAND(a, b)\no3 = OR(a, b)\no4 = NOR(a, b)\n"
      "o5 = XOR(a, b)\no6 = XNOR(a, b)\no7 = NOT(a)\no8 = BUFF(b)\n");
  const LogicOp expected[] = {LogicOp::kAnd, LogicOp::kNand, LogicOp::kOr,
                              LogicOp::kNor, LogicOp::kXor, LogicOp::kXnor,
                              LogicOp::kNot, LogicOp::kBuf};
  for (int i = 0; i < 8; ++i) {
    EXPECT_EQ(n.gate(2 + i).op, expected[i]) << "gate " << i;
  }
}

TEST(BenchParser, CommentsAndBlankLines) {
  const auto n = netlist::parse_bench_string(
      "# header comment\n\nINPUT(x)  # trailing comment\n\nOUTPUT(y)\n"
      "y = NOT(x)\n");
  EXPECT_EQ(n.num_real_gates(), 1);
}

TEST(BenchParser, CaseInsensitiveOps) {
  const auto n = netlist::parse_bench_string(
      "INPUT(a)\nINPUT(b)\nOUTPUT(y)\ny = nand(a, b)\n");
  EXPECT_EQ(n.gate(2).op, LogicOp::kNand);
}

TEST(BenchParser, SingleInputAndDegeneratesToBuf) {
  const auto n =
      netlist::parse_bench_string("INPUT(a)\nOUTPUT(y)\ny = AND(a)\n");
  EXPECT_EQ(n.gate(1).op, LogicOp::kBuf);
}

TEST(BenchParser, SingleInputNandDegeneratesToNot) {
  const auto n =
      netlist::parse_bench_string("INPUT(a)\nOUTPUT(y)\ny = NAND(a)\n");
  EXPECT_EQ(n.gate(1).op, LogicOp::kNot);
}

TEST(BenchParser, ErrorUnknownOp) {
  EXPECT_THROW(
      netlist::parse_bench_string("INPUT(a)\nOUTPUT(y)\ny = FROB(a)\n"),
      netlist::BenchParseError);
}

TEST(BenchParser, ErrorUndefinedSignal) {
  try {
    netlist::parse_bench_string("INPUT(a)\nOUTPUT(y)\ny = NOT(ghost)\n");
    FAIL() << "expected BenchParseError";
  } catch (const netlist::BenchParseError& e) {
    EXPECT_NE(std::string(e.what()).find("ghost"), std::string::npos);
  }
}

TEST(BenchParser, ErrorDoubleDefinition) {
  EXPECT_THROW(netlist::parse_bench_string(
                   "INPUT(a)\nOUTPUT(y)\ny = NOT(a)\ny = BUF(a)\n"),
               netlist::BenchParseError);
}

TEST(BenchParser, ErrorCombinationalCycle) {
  EXPECT_THROW(netlist::parse_bench_string(
                   "INPUT(a)\nOUTPUT(p)\np = NOT(q)\nq = NOT(p)\n"),
               netlist::BenchParseError);
}

TEST(BenchParser, ErrorMalformedLine) {
  EXPECT_THROW(netlist::parse_bench_string("INPUT(a)\nOUTPUT(y)\ny NOT(a)\n"),
               netlist::BenchParseError);
}

TEST(BenchParser, ErrorNoInputs) {
  EXPECT_THROW(netlist::parse_bench_string("OUTPUT(y)\ny = NOT(y)\n"),
               netlist::BenchParseError);
}

TEST(BenchParser, ErrorOutputUndefined) {
  EXPECT_THROW(netlist::parse_bench_string("INPUT(a)\nOUTPUT(nope)\n"),
               netlist::BenchParseError);
}

TEST(BenchParser, ErrorReportsLineNumber) {
  try {
    netlist::parse_bench_string("INPUT(a)\nOUTPUT(y)\ny = FROB(a)\n");
    FAIL() << "expected BenchParseError";
  } catch (const netlist::BenchParseError& e) {
    EXPECT_EQ(e.line(), 3);
  }
}

/// Gate-by-gate equality: names, ops, fanins, inputs, outputs and hash.
void expect_same_netlist(const netlist::LogicNetlist& a,
                         const netlist::LogicNetlist& b, const std::string& what) {
  ASSERT_EQ(a.num_gates_logic(), b.num_gates_logic()) << what;
  for (std::int32_t g = 0; g < a.num_gates_logic(); ++g) {
    ASSERT_EQ(a.gate(g).name, b.gate(g).name) << what << " gate " << g;
    ASSERT_EQ(a.gate(g).op, b.gate(g).op) << what << " gate " << g;
    ASSERT_EQ(a.gate(g).fanin, b.gate(g).fanin) << what << " gate " << g;
  }
  EXPECT_EQ(a.primary_inputs(), b.primary_inputs()) << what;
  EXPECT_EQ(a.primary_outputs(), b.primary_outputs()) << what;
  EXPECT_EQ(netlist::netlist_hash(a), netlist::netlist_hash(b)) << what;
}

TEST(BenchParser, WriterRoundTripReproducesGeneratedCircuits) {
  for (const auto& profile : netlist::iscas85_profiles()) {
    for (std::uint64_t seed = 1; seed <= 3; ++seed) {
      const auto generated =
          netlist::generate_circuit(netlist::spec_for_profile(profile.name, seed));
      expect_same_netlist(
          netlist::parse_bench_string(netlist::to_bench_string(generated)),
          generated, profile.name + " seed " + std::to_string(seed));
    }
  }
  // The 101k-node design of the large-cold benchmark workload.
  netlist::GeneratorSpec large;
  large.num_gates = 36000;
  large.num_wires = 64000;
  large.num_inputs = 1000;
  large.num_outputs = 600;
  large.depth = 50;
  large.seed = 1;
  const auto generated = netlist::generate_circuit(large);
  expect_same_netlist(netlist::parse_bench_string(netlist::to_bench_string(generated)),
                      generated, "large-cold spec");
}

TEST(BenchParser, StreamAndTextReadersAgree) {
  std::istringstream in(netlist::kIscas85C17);
  expect_same_netlist(netlist::parse_bench(in),
                      netlist::parse_bench_string(netlist::kIscas85C17), "c17");
}

TEST(BenchParser, ErrorTablePinsMessagesAndLines) {
  struct Case {
    const char* text;
    int line;
    const char* message;
  };
  const Case cases[] = {
      {"INPUT(a)\nOUTPUT(y)\ny = NOT(ghost)\n", 3, "undefined signal 'ghost'"},
      {"INPUT(a)\nOUTPUT(y)\ny = NOT(a)\ny = BUF(a)\n", 4,
       "signal 'y' defined twice"},
      {"INPUT(a)\nINPUT(a)\nOUTPUT(a)\n", 2, "signal 'a' defined twice"},
      {"INPUT(a)\nOUTPUT(y)\ny = NOT(a)\nINPUT(y)\n", 4,
       "signal 'y' defined twice"},
      {"INPUT(a)\nOUTPUT(p)\np = NOT(q)\nq = NOT(p)\n", 4,
       "combinational cycle through 'p'"},
      {"INPUT(a)\nINPUT(b)\nOUTPUT(y)\ny = AND(a, , b)\n", 4, "empty fanin name"},
      {"INPUT(a)\nOUTPUT(y)\ny = AND(,a)\n", 3, "empty fanin name"},
      {"INPUT(a)\nOUTPUT(y)\ny = NOT( )\n", 3, "empty fanin name"},
      {"INPUT(a)\nOUTPUT(y)\ny = NOT()\n", 3, "gate with no fanin"},
      {"INPUT(a)\nOUTPUT(y)\ny = FROB(a)\n", 3, "unknown gate type 'FROB'"},
      {"OUTPUT(y)\ny = NOT(y)\n", 2, "no INPUT declarations"},
      {"INPUT(a)\n\n# only inputs\n", 3, "no OUTPUT declarations"},
      {"", 0, "no INPUT declarations"},
      {"INPUT(a)\nOUTPUT(nope)\n", 0, "OUTPUT references undefined signal 'nope'"},
      {"INPUT(a)\nOUTPUT(y)\ny NOT(a)\n", 3, "expected 'name = OP(args)'"},
      {"INPUT(a)\nOUTPUT(y)\n = NOT(a)\n", 3, "malformed gate definition"},
      {"INPUT(a)\nOUTPUT(y)\ny = NOT a\n", 3, "malformed gate definition"},
      {"INPUT()\n", 1, "empty signal name"},
      {"INPUT(a\n", 1, "malformed INPUT/OUTPUT declaration"},
      {"INPUT a\n", 1, "malformed INPUT/OUTPUT declaration"},
      {"OUTPUT\n", 1, "malformed INPUT/OUTPUT declaration"},
      // Netlists LogicNetlist would refuse by assertion.
      {"INPUT(a)\nINPUT(b)\nOUTPUT(y)\ny = NOT(a, b)\n", 4,
       "NOT gate 'y' takes one input, got 2"},
      {"INPUT(a)\nOUTPUT(y)\ny = BUFF(a, a, a)\n", 3,
       "BUFF gate 'y' takes one input, got 3"},
      {"INPUT(a)\nINPUT(b)\nOUTPUT(y)\ny = NOT(a)\n", 2,
       "signal 'b' is unused (no fanout, not an OUTPUT)"},
      {"INPUT(a)\nOUTPUT(y)\nz = BUF(a)\ny = NOT(a)\nw = NOT(z)\n", 5,
       "signal 'w' is unused (no fanout, not an OUTPUT)"},
      // The first error the emission DFS meets, not the first in the text.
      {"INPUT(a)\nOUTPUT(y)\ny = NOT(z)\nz = NOT(w)\nw = NOT(ghost)\n"
       "q = NOT(ghost2)\n",
       5, "undefined signal 'ghost'"},
      {"INPUT(a)\nOUTPUT(y)\ny = NOT(b)\nb = AND(c, d)\nc = NOT(ghost_c)\n"
       "d = NOT(y)\n",
       6, "combinational cycle through 'y'"},
  };
  for (const Case& c : cases) {
    try {
      netlist::parse_bench_string(c.text);
      ADD_FAILURE() << "no error for: " << c.text;
    } catch (const netlist::BenchParseError& e) {
      EXPECT_EQ(e.line(), c.line) << c.text;
      EXPECT_EQ(std::string(e.what()), "bench parse error at line " +
                                           std::to_string(c.line) + ": " +
                                           c.message)
          << c.text;
    }
  }
}

TEST(BenchParser, KeywordPrefixedGateNamesAreGates) {
  // A line holding '=' is a gate definition even when its name starts with
  // INPUT or OUTPUT.
  const auto input_named = netlist::parse_bench_string(
      "INPUT(a)\nOUTPUT(y)\ninputx = NOT(a)\ny = BUF(inputx)\n");
  ASSERT_EQ(input_named.num_gates_logic(), 3);
  EXPECT_EQ(input_named.primary_inputs().size(), 1u);
  EXPECT_EQ(input_named.gate(1).name, "inputx");
  EXPECT_EQ(input_named.gate(1).op, LogicOp::kNot);

  const auto output_named = netlist::parse_bench_string(
      "INPUT(a)\nOUTPUT(y)\nOUTPUT1 = BUF(a)\ny = NOT(OUTPUT1)\n");
  ASSERT_EQ(output_named.num_gates_logic(), 3);
  EXPECT_EQ(output_named.gate(1).name, "OUTPUT1");
  // Only y is a primary output; `a` is not marked by the OUTPUT1 gate.
  ASSERT_EQ(output_named.primary_outputs().size(), 1u);
  EXPECT_EQ(output_named.gate(output_named.primary_outputs()[0]).name, "y");

  // Without '=', a keyword must be followed (after blanks) by '('.
  try {
    netlist::parse_bench_string("INPUTX(a)\nOUTPUT(a)\n");
    FAIL() << "expected BenchParseError";
  } catch (const netlist::BenchParseError& e) {
    EXPECT_EQ(e.line(), 1);
    EXPECT_NE(std::string(e.what()).find("malformed INPUT/OUTPUT declaration"),
              std::string::npos);
  }
}

TEST(BenchParser, AcceptsCrlfTabsLowercaseAndOpAliases) {
  const auto reference = netlist::parse_bench_string(
      "INPUT(a)\nINPUT(b)\nOUTPUT(y)\nOUTPUT(z)\n"
      "m = NAND(a, b)\ny = BUF(m)\nz = NOT(m)\n");
  const char* variants[] = {
      // CRLF line endings, with a final line that has no newline.
      "INPUT(a)\r\nINPUT(b)\r\nOUTPUT(y)\r\nOUTPUT(z)\r\n"
      "m = NAND(a, b)\r\ny = BUF(m)\r\nz = NOT(m)",
      // Tabs and blanks anywhere a blank may go.
      "\tINPUT\t(\ta\t)\nINPUT ( b )\n OUTPUT(y)\t# po\nOUTPUT(z)\n"
      "m\t=\tNAND(\ta,\tb\t)\ny=BUF(m)\n\tz = NOT(m)\t\n",
      // Lowercase keywords and ops; BUFF and INV aliases.
      "input(a)\nInput(b)\noutput(y)\nOutPut(z)\n"
      "m = nand(a, b)\ny = BUFF(m)\nz = INV(m)\n",
  };
  for (const char* text : variants) {
    expect_same_netlist(netlist::parse_bench_string(text), reference, text);
  }
}

TEST(BenchParser, ReadsSizeAnnotations) {
  // The shape `lrsizer --out` appends; ordinary comments are skipped, and
  // "# size" prose (non-integer third token) stays an ordinary comment.
  std::istringstream in(
      "# sized by lrsizer: c17 seed 1\n"
      "INPUT(a)\n"
      "#\n"
      "# size annotations follow\n"
      "# component sizes: node kind net size\n"
      "# size 4 gate G10 1.25\n"
      "# size 5 wire G10 0.5\n");
  const auto sizes = netlist::read_size_annotations(in);
  ASSERT_EQ(sizes.size(), 2u);
  EXPECT_EQ(sizes[0].first, 4);
  EXPECT_DOUBLE_EQ(sizes[0].second, 1.25);
  EXPECT_EQ(sizes[1].first, 5);
  EXPECT_DOUBLE_EQ(sizes[1].second, 0.5);
}

TEST(BenchParser, RejectsMalformedSizeAnnotations) {
  std::istringstream truncated("# size 4 gate\n");
  EXPECT_THROW(netlist::read_size_annotations(truncated), netlist::BenchParseError);
  std::istringstream negative("# size -2 gate G1 1.0\n");
  EXPECT_THROW(netlist::read_size_annotations(negative), netlist::BenchParseError);
  std::istringstream zero("# size 4 gate G1 0\n");
  EXPECT_THROW(netlist::read_size_annotations(zero), netlist::BenchParseError);
}

}  // namespace
