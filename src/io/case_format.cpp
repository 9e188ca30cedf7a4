#include "io/case_format.hpp"

#include <climits>
#include <cmath>
#include <fstream>
#include <map>
#include <sstream>

#include "util/error.hpp"
#include "util/strings.hpp"

namespace gridse::io {
namespace {

constexpr double kPi = 3.14159265358979323846;

double parse_double(const std::string& token, int line_no) {
  return gridse::parse_double("case line " + std::to_string(line_no), token,
                              "a finite number");
}

int parse_int(const std::string& token, int line_no) {
  return static_cast<int>(
      parse_integer("case line " + std::to_string(line_no), token,
                    "an integer", INT_MIN, INT_MAX));
}

}  // namespace

Case parse_case(const std::string& text) {
  Case c;
  bool saw_end = false;
  struct PendingBranch {
    int from;
    int to;
    grid::Branch b;
  };
  std::vector<PendingBranch> pending_branches;
  struct PendingGen {
    int bus;
    double pg;
    double qg;
  };
  std::vector<PendingGen> pending_gens;

  int line_no = 0;
  std::istringstream in(text);
  std::string line;
  while (std::getline(in, line)) {
    ++line_no;
    const auto hash = line.find('#');
    if (hash != std::string::npos) line.erase(hash);
    const auto trimmed = trim(line);
    if (trimmed.empty()) continue;
    if (saw_end) {
      throw InvalidInput("case line " + std::to_string(line_no) +
                         ": content after 'end'");
    }
    const auto tokens = split(trimmed, ' ');
    const std::string& kw = tokens[0];
    const auto expect = [&](std::size_t lo, std::size_t hi) {
      if (tokens.size() < lo + 1 || tokens.size() > hi + 1) {
        throw InvalidInput("case line " + std::to_string(line_no) + ": '" +
                           kw + "' expects " + std::to_string(lo) +
                           (hi != lo ? ".." + std::to_string(hi) : "") +
                           " fields");
      }
    };
    if (kw == "case") {
      expect(1, 1);
      c.name = tokens[1];
    } else if (kw == "basemva") {
      expect(1, 1);
      c.base_mva = parse_double(tokens[1], line_no);
      if (c.base_mva <= 0.0) {
        throw InvalidInput("case line " + std::to_string(line_no) +
                           ": basemva must be positive");
      }
    } else if (kw == "bus") {
      expect(7, 7);
      grid::Bus b;
      b.external_id = parse_int(tokens[1], line_no);
      if (tokens[2] == "slack") {
        b.type = grid::BusType::kSlack;
      } else if (tokens[2] == "pv") {
        b.type = grid::BusType::kPV;
      } else if (tokens[2] == "pq") {
        b.type = grid::BusType::kPQ;
      } else {
        throw InvalidInput("case line " + std::to_string(line_no) +
                           ": bus type must be slack|pv|pq");
      }
      b.p_load = parse_double(tokens[3], line_no) / c.base_mva;
      b.q_load = parse_double(tokens[4], line_no) / c.base_mva;
      b.gs = parse_double(tokens[5], line_no) / c.base_mva;
      b.bs = parse_double(tokens[6], line_no) / c.base_mva;
      b.v_setpoint = parse_double(tokens[7], line_no);
      c.network.add_bus(std::move(b));
    } else if (kw == "gen") {
      expect(3, 3);
      pending_gens.push_back({parse_int(tokens[1], line_no),
                              parse_double(tokens[2], line_no) / c.base_mva,
                              parse_double(tokens[3], line_no) / c.base_mva});
    } else if (kw == "branch") {
      expect(5, 7);
      PendingBranch pb{};
      pb.from = parse_int(tokens[1], line_no);
      pb.to = parse_int(tokens[2], line_no);
      pb.b.r = parse_double(tokens[3], line_no);
      pb.b.x = parse_double(tokens[4], line_no);
      pb.b.b_charging = parse_double(tokens[5], line_no);
      pb.b.tap = tokens.size() > 6 ? parse_double(tokens[6], line_no) : 1.0;
      pb.b.phase_shift = tokens.size() > 7
                             ? parse_double(tokens[7], line_no) * kPi / 180.0
                             : 0.0;
      if (pb.b.tap == 0.0) pb.b.tap = 1.0;  // MATPOWER convention: 0 = none
      pending_branches.push_back(pb);
    } else if (kw == "end") {
      expect(0, 0);
      saw_end = true;
    } else {
      throw InvalidInput("case line " + std::to_string(line_no) +
                         ": unknown keyword '" + kw + "'");
    }
  }
  if (!saw_end) {
    throw InvalidInput("case file missing 'end'");
  }

  // Resolve external ids now that all buses exist. Generation accumulates
  // onto the bus record (multiple gen lines per bus allowed).
  for (const auto& g : pending_gens) {
    c.network.add_generation(c.network.index_of(g.bus), g.pg, g.qg);
  }
  for (const auto& pb : pending_branches) {
    grid::Branch b = pb.b;
    b.from = c.network.index_of(pb.from);
    b.to = c.network.index_of(pb.to);
    c.network.add_branch(b);
  }
  c.network.validate();
  return c;
}

std::string serialize_case(const Case& c) {
  std::ostringstream out;
  out << "case " << (c.name.empty() ? "unnamed" : c.name) << "\n";
  out << "basemva " << c.base_mva << "\n";
  for (const grid::Bus& b : c.network.buses()) {
    const char* type = b.type == grid::BusType::kSlack
                           ? "slack"
                           : (b.type == grid::BusType::kPV ? "pv" : "pq");
    out << strfmt("bus %d %s %.6f %.6f %.6f %.6f %.6f\n", b.external_id, type,
                  b.p_load * c.base_mva, b.q_load * c.base_mva,
                  b.gs * c.base_mva, b.bs * c.base_mva, b.v_setpoint);
  }
  for (const grid::Bus& b : c.network.buses()) {
    if (b.p_gen != 0.0 || b.q_gen != 0.0) {
      out << strfmt("gen %d %.6f %.6f\n", b.external_id, b.p_gen * c.base_mva,
                    b.q_gen * c.base_mva);
    }
  }
  for (const grid::Branch& br : c.network.branches()) {
    out << strfmt("branch %d %d %.6f %.6f %.6f %.6f %.6f\n",
                  c.network.bus(br.from).external_id,
                  c.network.bus(br.to).external_id, br.r, br.x, br.b_charging,
                  br.tap, br.phase_shift * 180.0 / kPi);
  }
  out << "end\n";
  return out.str();
}

Case load_case_file(const std::string& path) {
  std::ifstream in(path);
  if (!in) {
    throw InvalidInput("cannot open case file: " + path);
  }
  std::ostringstream buf;
  buf << in.rdbuf();
  return parse_case(buf.str());
}

void save_case_file(const Case& c, const std::string& path) {
  std::ofstream out(path);
  if (!out) {
    throw InvalidInput("cannot write case file: " + path);
  }
  out << serialize_case(c);
}

}  // namespace gridse::io
