#include "io/decomp_format.hpp"

#include <climits>
#include <fstream>
#include <sstream>

#include "util/error.hpp"
#include "util/strings.hpp"

namespace gridse::io {

std::vector<int> parse_decomposition(const std::string& text,
                                     const grid::Network& network) {
  std::vector<int> membership(static_cast<std::size_t>(network.num_buses()),
                              -1);
  bool saw_end = false;
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
      throw InvalidInput("decomposition line " + std::to_string(line_no) +
                         ": content after 'end'");
    }
    const auto tokens = split(trimmed, ' ');
    if (tokens[0] == "decomposition") {
      continue;  // name is informational
    }
    if (tokens[0] == "end") {
      saw_end = true;
      continue;
    }
    if (tokens[0] != "bus" || tokens.size() != 3) {
      throw InvalidInput("decomposition line " + std::to_string(line_no) +
                         ": expected 'bus <id> <subsystem>'");
    }
    const std::string where = "decomposition line " + std::to_string(line_no);
    const auto external = static_cast<int>(parse_integer(
        where, tokens[1], "an integer bus id", INT_MIN, INT_MAX));
    const auto subsystem = static_cast<int>(parse_integer(
        where, tokens[2], "a nonnegative subsystem id", 0, INT_MAX));
    const grid::BusIndex idx = network.index_of(external);  // throws if unknown
    if (membership[static_cast<std::size_t>(idx)] != -1) {
      throw InvalidInput("decomposition line " + std::to_string(line_no) +
                         ": bus " + tokens[1] + " assigned twice");
    }
    membership[static_cast<std::size_t>(idx)] = subsystem;
  }
  if (!saw_end) {
    throw InvalidInput("decomposition file missing 'end'");
  }
  for (grid::BusIndex b = 0; b < network.num_buses(); ++b) {
    if (membership[static_cast<std::size_t>(b)] < 0) {
      throw InvalidInput("decomposition missing bus " +
                         std::to_string(network.bus(b).external_id));
    }
  }
  return membership;
}

std::string serialize_decomposition(const grid::Network& network,
                                    std::span<const int> subsystem_of_bus,
                                    const std::string& name) {
  GRIDSE_CHECK(static_cast<grid::BusIndex>(subsystem_of_bus.size()) ==
               network.num_buses());
  std::ostringstream out;
  out << "decomposition " << name << "\n";
  for (grid::BusIndex b = 0; b < network.num_buses(); ++b) {
    out << "bus " << network.bus(b).external_id << " "
        << subsystem_of_bus[static_cast<std::size_t>(b)] << "\n";
  }
  out << "end\n";
  return out.str();
}

std::vector<int> load_decomposition_file(const std::string& path,
                                         const grid::Network& network) {
  std::ifstream in(path);
  if (!in) {
    throw InvalidInput("cannot open decomposition file: " + path);
  }
  std::ostringstream buf;
  buf << in.rdbuf();
  return parse_decomposition(buf.str(), network);
}

void save_decomposition_file(const std::string& path,
                             const grid::Network& network,
                             std::span<const int> subsystem_of_bus,
                             const std::string& name) {
  std::ofstream out(path);
  if (!out) {
    throw InvalidInput("cannot write decomposition file: " + path);
  }
  out << serialize_decomposition(network, subsystem_of_bus, name);
}

}  // namespace gridse::io
