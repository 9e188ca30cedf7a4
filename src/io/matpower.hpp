#pragma once

#include <string>

#include "io/case_format.hpp"

namespace gridse::io {

/// Parse a MATPOWER case file (the `case*.m` format that most public test
/// systems are distributed in): reads `mpc.baseMVA` and the `mpc.bus`,
/// `mpc.gen`, `mpc.branch` matrices; ignores MATLAB comments and any other
/// fields (gencost, bus names, …).
///
/// Mapping notes:
///  - bus type 3 → slack, 2 → PV, 1 → PQ (type 4 isolated buses rejected);
///  - PV/slack voltage setpoints come from the generator VG column;
///  - out-of-service branches (BR_STATUS = 0) and generators
///    (GEN_STATUS ≤ 0) are dropped;
///  - TAP = 0 means a plain line; SHIFT is converted degrees → radians;
///  - RATE_A/B/C (thermal ratings) are not read.
///
/// Throws InvalidInput on malformed input or an electrically invalid case.
Case parse_matpower(const std::string& text);

/// Read and parse a MATPOWER file from disk.
Case load_matpower_file(const std::string& path);

}  // namespace gridse::io
