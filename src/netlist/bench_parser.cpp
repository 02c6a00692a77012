#include "netlist/bench_parser.hpp"

#include <algorithm>
#include <cctype>
#include <charconv>
#include <climits>
#include <iterator>
#include <sstream>
#include <string_view>
#include <unordered_map>
#include <vector>

namespace lrsizer::netlist {

const char* const kIscas85C17 =
    "# c17 — smallest ISCAS85 benchmark (6 NAND gates)\n"
    "INPUT(1)\n"
    "INPUT(2)\n"
    "INPUT(3)\n"
    "INPUT(6)\n"
    "INPUT(7)\n"
    "\n"
    "OUTPUT(22)\n"
    "OUTPUT(23)\n"
    "\n"
    "10 = NAND(1, 3)\n"
    "11 = NAND(3, 6)\n"
    "16 = NAND(2, 11)\n"
    "19 = NAND(11, 7)\n"
    "22 = NAND(10, 16)\n"
    "23 = NAND(16, 19)\n";

namespace {

bool is_space(char c) { return std::isspace(static_cast<unsigned char>(c)) != 0; }

std::string_view strip(std::string_view s) {
  std::size_t b = 0;
  std::size_t e = s.size();
  while (b < e && is_space(s[b])) ++b;
  while (e > b && is_space(s[e - 1])) --e;
  return s.substr(b, e - b);
}

/// Case-insensitive prefix test; `upper_prefix` is upper-case ASCII.
bool starts_with_upper(std::string_view s, std::string_view upper_prefix) {
  if (s.size() < upper_prefix.size()) return false;
  for (std::size_t i = 0; i < upper_prefix.size(); ++i) {
    if (std::toupper(static_cast<unsigned char>(s[i])) != upper_prefix[i]) {
      return false;
    }
  }
  return true;
}

bool equals_upper(std::string_view s, std::string_view upper_word) {
  return s.size() == upper_word.size() && starts_with_upper(s, upper_word);
}

LogicOp op_from_name(std::string_view name, int line) {
  if (equals_upper(name, "AND")) return LogicOp::kAnd;
  if (equals_upper(name, "NAND")) return LogicOp::kNand;
  if (equals_upper(name, "OR")) return LogicOp::kOr;
  if (equals_upper(name, "NOR")) return LogicOp::kNor;
  if (equals_upper(name, "NOT") || equals_upper(name, "INV")) return LogicOp::kNot;
  if (equals_upper(name, "BUF") || equals_upper(name, "BUFF")) return LogicOp::kBuf;
  if (equals_upper(name, "XOR")) return LogicOp::kXor;
  if (equals_upper(name, "XNOR")) return LogicOp::kXnor;
  throw BenchParseError(line, "unknown gate type '" + std::string(name) + "'");
}

/// A gate definition awaiting topological emission. Names are views into
/// the parsed text; the fanins are fanin_names[fanin_begin, fanin_end).
struct PendingGate {
  std::string_view name;
  LogicOp op;
  std::uint32_t fanin_begin;
  std::uint32_t fanin_end;
  int line;
};

/// Symbol-table value: a pending gate index (>= 0) or an input, encoded
/// as ~input_index (< 0). Inputs are the netlist's first gates, in
/// declaration order, so an input index is also its netlist id.
constexpr std::int32_t input_ref(std::size_t i) { return ~static_cast<std::int32_t>(i); }
/// A fanin naming no signal; reported when the DFS reaches its gate.
constexpr std::int32_t kUndefined = INT32_MIN;

std::string quoted(std::string_view name) { return "'" + std::string(name) + "'"; }

}  // namespace

LogicNetlist parse_bench(std::istream& in) {
  const std::string text{std::istreambuf_iterator<char>(in),
                         std::istreambuf_iterator<char>()};
  return parse_bench_string(text);
}

LogicNetlist parse_bench_string(std::string_view text) {
  std::vector<std::string_view> input_names;
  std::vector<int> input_lines;
  std::vector<std::string_view> output_names;
  std::vector<PendingGate> pending;
  std::vector<std::string_view> fanin_names;
  std::unordered_map<std::string_view, std::int32_t> symbols;
  symbols.reserve(static_cast<std::size_t>(std::count(text.begin(), text.end(), '\n')) + 1);
  const auto define = [&symbols](std::string_view name, std::int32_t ref, int line_no) {
    if (!symbols.emplace(name, ref).second) {
      throw BenchParseError(line_no, "signal " + quoted(name) + " defined twice");
    }
  };

  int line_no = 0;
  for (std::size_t pos = 0; pos < text.size();) {
    std::size_t end = text.find('\n', pos);
    if (end == std::string_view::npos) end = text.size();
    std::string_view line = text.substr(pos, end - pos);
    pos = end + 1;
    ++line_no;
    if (const auto hash = line.find('#'); hash != std::string_view::npos) {
      line = line.substr(0, hash);
    }
    line = strip(line);
    if (line.empty()) continue;

    const auto eq = line.find('=');
    if (eq == std::string_view::npos) {
      // A declaration is the keyword, optional blanks, then '('. A line
      // holding '=' is a gate definition whatever its name starts with.
      const bool is_input = starts_with_upper(line, "INPUT");
      if (!is_input && !starts_with_upper(line, "OUTPUT")) {
        throw BenchParseError(line_no, "expected 'name = OP(args)'");
      }
      std::size_t open = is_input ? 5 : 6;
      while (open < line.size() && is_space(line[open])) ++open;
      const auto close = line.rfind(')');
      if (open == line.size() || line[open] != '(' ||
          close == std::string_view::npos || close <= open) {
        throw BenchParseError(line_no, "malformed INPUT/OUTPUT declaration");
      }
      const std::string_view name = strip(line.substr(open + 1, close - open - 1));
      if (name.empty()) throw BenchParseError(line_no, "empty signal name");
      if (is_input) {
        define(name, input_ref(input_names.size()), line_no);
        input_names.push_back(name);
        input_lines.push_back(line_no);
      } else {
        output_names.push_back(name);
      }
      continue;
    }

    const std::string_view name = strip(line.substr(0, eq));
    const std::string_view rhs = strip(line.substr(eq + 1));
    const auto open = rhs.find('(');
    const auto close = rhs.rfind(')');
    if (name.empty() || open == std::string_view::npos ||
        close == std::string_view::npos || close <= open) {
      throw BenchParseError(line_no, "malformed gate definition");
    }
    define(name, static_cast<std::int32_t>(pending.size()), line_no);

    PendingGate gate{name, op_from_name(strip(rhs.substr(0, open)), line_no),
                     static_cast<std::uint32_t>(fanin_names.size()), 0, line_no};
    // Comma-separated fanins; as with getline, an empty piece after the
    // last comma is no fanin at all, while any other empty piece is an error.
    const std::string_view args = rhs.substr(open + 1, close - open - 1);
    for (std::size_t start = 0; start < args.size();) {
      std::size_t comma = args.find(',', start);
      if (comma == std::string_view::npos) comma = args.size();
      const std::string_view arg = strip(args.substr(start, comma - start));
      if (arg.empty()) throw BenchParseError(line_no, "empty fanin name");
      fanin_names.push_back(arg);
      start = comma + 1;
    }
    gate.fanin_end = static_cast<std::uint32_t>(fanin_names.size());
    if (gate.fanin_end == gate.fanin_begin) {
      throw BenchParseError(line_no, "gate with no fanin");
    }
    pending.push_back(gate);
  }

  if (input_names.empty()) throw BenchParseError(line_no, "no INPUT declarations");
  if (output_names.empty()) throw BenchParseError(line_no, "no OUTPUT declarations");

  // Resolve every fanin once; an undefined one is reported only when the
  // DFS below reaches its gate, so the first error is the one it meets.
  std::vector<std::int32_t> fanin_refs;
  fanin_refs.reserve(fanin_names.size());
  for (const std::string_view fname : fanin_names) {
    const auto it = symbols.find(fname);
    fanin_refs.push_back(it == symbols.end() ? kUndefined : it->second);
  }

  LogicNetlist netlist;
  for (const std::string_view name : input_names) netlist.add_input(std::string(name));

  // The format allows any definition order: a DFS from every gate, in
  // definition order, emits fanins first and detects cycles.
  std::vector<std::uint8_t> state(pending.size(), 0);  // 0 = new, 1 = visiting, 2 = done
  std::vector<std::int32_t> netlist_id(pending.size(), -1);
  const auto id_of = [&netlist_id](std::int32_t ref) {
    return ref < 0 ? ~ref : netlist_id[static_cast<std::size_t>(ref)];
  };
  std::vector<std::int32_t> stack;
  for (std::size_t root = 0; root < pending.size(); ++root) {
    if (state[root] == 2) continue;
    stack.push_back(static_cast<std::int32_t>(root));
    while (!stack.empty()) {
      const auto g = static_cast<std::size_t>(stack.back());
      if (state[g] == 2) {
        stack.pop_back();
        continue;
      }
      const PendingGate& gate = pending[g];
      bool ready = true;
      state[g] = 1;
      for (std::uint32_t f = gate.fanin_begin; f < gate.fanin_end; ++f) {
        const std::int32_t ref = fanin_refs[f];
        if (ref == kUndefined) {
          throw BenchParseError(gate.line,
                                "undefined signal " + quoted(fanin_names[f]));
        }
        if (ref < 0) continue;  // primary input
        const auto dep = static_cast<std::size_t>(ref);
        if (state[dep] == 2) continue;  // already emitted
        if (state[dep] == 1) {
          throw BenchParseError(gate.line,
                                "combinational cycle through " + quoted(fanin_names[f]));
        }
        stack.push_back(ref);
        ready = false;
      }
      if (!ready) continue;
      std::vector<std::int32_t> fanin;
      fanin.reserve(gate.fanin_end - gate.fanin_begin);
      for (std::uint32_t f = gate.fanin_begin; f < gate.fanin_end; ++f) {
        fanin.push_back(id_of(fanin_refs[f]));
      }
      // The .bench format writes NAND(a, a) occasionally via duplicated
      // names; LogicNetlist accepts duplicate fanins (they become separate
      // wires during elaboration, as in a real layout).
      LogicOp op = gate.op;
      if (fanin.size() == 1 && logic_op_is_multi_input(op)) {
        // Single-argument AND/OR degenerate to a buffer; NAND/NOR/XNOR to NOT.
        op = (op == LogicOp::kNand || op == LogicOp::kNor || op == LogicOp::kXnor)
                 ? LogicOp::kNot
                 : LogicOp::kBuf;
      }
      if (!logic_op_is_multi_input(op) && fanin.size() != 1) {
        // LogicNetlist asserts this arity; text gets an error instead.
        throw BenchParseError(gate.line, std::string(logic_op_name(op)) + " gate " +
                                             quoted(gate.name) + " takes one input, got " +
                                             std::to_string(fanin.size()));
      }
      netlist_id[g] = netlist.add_gate(std::string(gate.name), op, std::move(fanin));
      state[g] = 2;
      stack.pop_back();
    }
  }

  // LogicNetlist asserts that every signal fans out or is an output; text
  // gets an error naming the first unused signal instead. Slots: inputs,
  // then pending gates.
  std::vector<std::uint8_t> used(input_names.size() + pending.size(), 0);
  const auto slot = [&input_names](std::int32_t ref) {
    return ref < 0 ? static_cast<std::size_t>(~ref)
                   : input_names.size() + static_cast<std::size_t>(ref);
  };
  for (const std::int32_t ref : fanin_refs) used[slot(ref)] = 1;
  for (const std::string_view name : output_names) {
    const auto it = symbols.find(name);
    if (it == symbols.end()) {
      throw BenchParseError(0, "OUTPUT references undefined signal " + quoted(name));
    }
    used[slot(it->second)] = 1;
    netlist.mark_output(id_of(it->second));
  }
  int unused_line = INT_MAX;
  std::string_view unused;
  for (std::size_t i = 0; i < used.size(); ++i) {
    if (used[i] != 0) continue;
    const bool is_input = i < input_names.size();
    const int line = is_input ? input_lines[i] : pending[i - input_names.size()].line;
    if (line < unused_line) {
      unused_line = line;
      unused = is_input ? input_names[i] : pending[i - input_names.size()].name;
    }
  }
  if (!unused.empty()) {
    throw BenchParseError(unused_line, "signal " + quoted(unused) +
                                           " is unused (no fanout, not an OUTPUT)");
  }

  netlist.finalize();
  return netlist;
}

std::vector<std::pair<std::int32_t, double>> read_size_annotations(std::istream& in) {
  std::vector<std::pair<std::int32_t, double>> sizes;
  std::string line;
  int line_no = 0;
  while (std::getline(in, line)) {
    ++line_no;
    // Annotation shape (bench_writer/CLI): "# size <node> <kind> <net> <value>".
    // A line only counts as an annotation when its third token is an
    // integer node id; "# size ..." prose comments stay ordinary comments.
    std::istringstream fields(line);
    std::string hash, keyword, node_token;
    if (!(fields >> hash >> keyword >> node_token) || hash != "#" ||
        keyword != "size") {
      continue;
    }
    std::int32_t node = 0;
    const auto [end, ec] = std::from_chars(
        node_token.data(), node_token.data() + node_token.size(), node);
    if (ec != std::errc{} || end != node_token.data() + node_token.size()) {
      continue;  // "# size annotations follow" and the like
    }
    std::string kind, net;
    double value = 0.0;
    if (!(fields >> kind >> net >> value)) {
      throw BenchParseError(line_no, "malformed size annotation: '" + line + "'");
    }
    if (node < 0) {
      throw BenchParseError(line_no, "size annotation names negative node " +
                                         std::to_string(node));
    }
    if (!(value > 0.0)) {
      throw BenchParseError(line_no, "size annotation for node " +
                                         std::to_string(node) +
                                         " must be > 0, got " + std::to_string(value));
    }
    sizes.emplace_back(node, value);
  }
  return sizes;
}

}  // namespace lrsizer::netlist
