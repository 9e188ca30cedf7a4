#include "io/matpower.hpp"

#include <cmath>
#include <fstream>
#include <limits>
#include <map>
#include <optional>
#include <sstream>

#include "util/error.hpp"
#include "util/strings.hpp"

namespace gridse::io {
namespace {

constexpr double kPi = 3.14159265358979323846;

/// Strip MATLAB comments (% to end of line) from the whole text.
std::string strip_comments(const std::string& text) {
  std::string out;
  out.reserve(text.size());
  bool in_comment = false;
  for (const char c : text) {
    if (c == '%') in_comment = true;
    if (c == '\n') in_comment = false;
    if (!in_comment) out.push_back(c);
  }
  return out;
}

/// Find `mpc.<field> = ` and return the text after '=' up to the matching
/// terminator (';' for scalars, ']' for matrices).
std::optional<std::string> field_text(const std::string& text,
                                      const std::string& field,
                                      bool matrix) {
  const std::string needle = "mpc." + field;
  std::size_t pos = text.find(needle);
  if (pos == std::string::npos) return std::nullopt;
  pos = text.find('=', pos + needle.size());
  if (pos == std::string::npos) return std::nullopt;
  ++pos;
  if (matrix) {
    const std::size_t open = text.find('[', pos);
    const std::size_t close = text.find(']', open);
    if (open == std::string::npos || close == std::string::npos) {
      return std::nullopt;
    }
    return text.substr(open + 1, close - open - 1);
  }
  const std::size_t semi = text.find(';', pos);
  if (semi == std::string::npos) return std::nullopt;
  return text.substr(pos, semi - pos);
}

/// Parse a MATLAB matrix body into rows of doubles. Rows end at ';' or
/// newline; blank rows are skipped.
std::vector<std::vector<double>> parse_matrix(const std::string& body,
                                              const std::string& what) {
  std::vector<std::vector<double>> rows;
  std::string row_text;
  const auto flush = [&rows, &what](std::string& rt) {
    const auto trimmed = trim(rt);
    if (!trimmed.empty()) {
      std::vector<double> row;
      std::istringstream in{std::string(trimmed)};
      double v = 0.0;
      while (in >> v) {
        row.push_back(v);
      }
      if (!in.eof()) {
        throw InvalidInput("matpower: non-numeric token in mpc." + what);
      }
      rows.push_back(std::move(row));
    }
    rt.clear();
  };
  for (const char c : body) {
    if (c == ';' || c == '\n') {
      flush(row_text);
    } else if (c == ',') {
      row_text.push_back(' ');
    } else {
      row_text.push_back(c);
    }
  }
  flush(row_text);
  return rows;
}

double col(const std::vector<double>& row, std::size_t index,
           const std::string& what) {
  if (index >= row.size()) {
    throw InvalidInput("matpower: mpc." + what + " row has only " +
                       std::to_string(row.size()) + " columns (need " +
                       std::to_string(index + 1) + ")");
  }
  return row[index];
}

/// An integer column (bus number, bus type): integral and within int range,
/// so the conversion below is defined.
int int_col(const std::vector<double>& row, std::size_t index,
            const std::string& what) {
  const double v = col(row, index, what);
  if (!(v == std::floor(v) &&
        std::abs(v) <= std::numeric_limits<int>::max())) {
    throw InvalidInput("matpower: mpc." + what + " column " +
                       std::to_string(index + 1) + " expects an integer, got " +
                       std::to_string(v));
  }
  return static_cast<int>(v);
}

}  // namespace

Case parse_matpower(const std::string& text) {
  const std::string clean = strip_comments(text);

  Case c;
  c.name = "matpower";
  if (const auto fn = field_text(clean, "baseMVA", /*matrix=*/false)) {
    c.base_mva = parse_double("matpower: mpc.baseMVA",
                              std::string(trim(*fn)), "a finite number");
  } else {
    throw InvalidInput("matpower: missing mpc.baseMVA");
  }
  if (c.base_mva <= 0.0) {
    throw InvalidInput("matpower: baseMVA must be positive");
  }
  // function name, if present, becomes the case name
  {
    const std::size_t fpos = clean.find("function");
    if (fpos != std::string::npos) {
      const std::size_t eq = clean.find('=', fpos);
      if (eq != std::string::npos) {
        const std::size_t end = clean.find_first_of("\r\n", eq);
        // Bind the substring before trimming: trim() returns a view, and a
        // view into the temporary would dangle past the full expression.
        const std::string raw = clean.substr(eq + 1, end - eq - 1);
        const auto name = trim(raw);
        if (!name.empty()) c.name = std::string(name);
      }
    }
  }

  const auto bus_body = field_text(clean, "bus", /*matrix=*/true);
  const auto gen_body = field_text(clean, "gen", /*matrix=*/true);
  const auto branch_body = field_text(clean, "branch", /*matrix=*/true);
  if (!bus_body || !branch_body) {
    throw InvalidInput("matpower: missing mpc.bus or mpc.branch");
  }

  // --- buses ------------------------------------------------------------
  for (const auto& row : parse_matrix(*bus_body, "bus")) {
    grid::Bus bus;
    bus.external_id = int_col(row, 0, "bus");
    const int type = int_col(row, 1, "bus");
    switch (type) {
      case 1:
        bus.type = grid::BusType::kPQ;
        break;
      case 2:
        bus.type = grid::BusType::kPV;
        break;
      case 3:
        bus.type = grid::BusType::kSlack;
        break;
      default:
        throw InvalidInput("matpower: unsupported bus type " +
                           std::to_string(type) + " at bus " +
                           std::to_string(bus.external_id));
    }
    bus.p_load = col(row, 2, "bus") / c.base_mva;
    bus.q_load = col(row, 3, "bus") / c.base_mva;
    bus.gs = col(row, 4, "bus") / c.base_mva;
    bus.bs = col(row, 5, "bus") / c.base_mva;
    bus.v_setpoint = col(row, 7, "bus");  // VM; overridden by gen VG below
    c.network.add_bus(std::move(bus));
  }

  // --- generators ---------------------------------------------------------
  if (gen_body) {
    for (const auto& row : parse_matrix(*gen_body, "gen")) {
      const int status_col = 7;
      if (row.size() > status_col && col(row, status_col, "gen") <= 0.0) {
        continue;  // out of service
      }
      const int bus_id = int_col(row, 0, "gen");
      const grid::BusIndex idx = c.network.index_of(bus_id);
      c.network.add_generation(idx, col(row, 1, "gen") / c.base_mva,
                               col(row, 2, "gen") / c.base_mva);
      const double vg = col(row, 5, "gen");
      if (vg > 0.0 &&
          c.network.bus(idx).type != grid::BusType::kPQ) {
        c.network.set_bus_type(idx, c.network.bus(idx).type, vg);
      }
    }
  }

  // --- branches -------------------------------------------------------------
  for (const auto& row : parse_matrix(*branch_body, "branch")) {
    if (row.size() > 10 && col(row, 10, "branch") == 0.0) {
      continue;  // BR_STATUS = 0: out of service
    }
    grid::Branch br;
    br.from = c.network.index_of(int_col(row, 0, "branch"));
    br.to = c.network.index_of(int_col(row, 1, "branch"));
    br.r = col(row, 2, "branch");
    br.x = col(row, 3, "branch");
    br.b_charging = col(row, 4, "branch");
    const double tap = row.size() > 8 ? col(row, 8, "branch") : 0.0;
    br.tap = tap == 0.0 ? 1.0 : tap;
    br.phase_shift =
        row.size() > 9 ? col(row, 9, "branch") * kPi / 180.0 : 0.0;
    c.network.add_branch(br);
  }

  c.network.validate();
  return c;
}

Case load_matpower_file(const std::string& path) {
  std::ifstream in(path);
  if (!in) {
    throw InvalidInput("cannot open matpower file: " + path);
  }
  std::ostringstream buf;
  buf << in.rdbuf();
  return parse_matpower(buf.str());
}

}  // namespace gridse::io
