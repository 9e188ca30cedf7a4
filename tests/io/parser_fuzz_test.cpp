// Seeded mutation fuzz over the case, decomposition and MATPOWER parsers:
// every truncated, bit-flipped or byte-inserted copy of a valid ieee14 or
// ieee118 file must either parse or throw InvalidInput — never crash, read
// a malformed number as a prefix of itself, or surface another exception
// type.
#include <gtest/gtest.h>

#include <string>
#include <string_view>
#include <vector>

#include "../fuzz_mutation.hpp"
#include "io/case14.hpp"
#include "io/case_format.hpp"
#include "io/decomp_format.hpp"
#include "io/matpower.hpp"
#include "io/synthetic.hpp"
#include "util/error.hpp"
#include "util/rng.hpp"
#include "util/strings.hpp"

namespace gridse::io {
namespace {

constexpr int kMutationsPerSeed = 300;
constexpr std::uint64_t kSeeds = 3;

/// The characters that carry the GridSE line formats' syntax.
constexpr std::string_view kLineSignificant = " \n#-+.eE0123456789";
/// The characters that carry the MATPOWER subset's syntax.
constexpr std::string_view kMatpowerSignificant = "[];,%=\n\t -+.eE0123456789";

/// `c` as a MATPOWER case file with the columns parse_matpower reads.
std::string to_matpower(const Case& c) {
  const grid::Network& net = c.network;
  const double base = c.base_mva;
  std::string out = "function mpc = " + c.name + "\nmpc.version = '2';\n" +
                    strfmt("mpc.baseMVA = %.6g;\n", base) + "mpc.bus = [\n";
  for (const grid::Bus& b : net.buses()) {
    const int type = b.type == grid::BusType::kSlack ? 3
                     : b.type == grid::BusType::kPV  ? 2
                                                     : 1;
    out += strfmt("\t%d\t%d\t%.6f\t%.6f\t%.6f\t%.6f\t1\t%.6f\t0;\n",
                  b.external_id, type, b.p_load * base, b.q_load * base,
                  b.gs * base, b.bs * base, b.v_setpoint);
  }
  out += "];\nmpc.gen = [\n";
  for (const grid::Bus& b : net.buses()) {
    if (b.type == grid::BusType::kPQ && b.p_gen == 0.0 && b.q_gen == 0.0) {
      continue;
    }
    out += strfmt("\t%d\t%.6f\t%.6f\t0\t0\t%.6f\t%.6g\t1;\n", b.external_id,
                  b.p_gen * base, b.q_gen * base, b.v_setpoint, base);
  }
  out += "];\nmpc.branch = [\n";
  for (const grid::Branch& br : net.branches()) {
    out += strfmt("\t%d\t%d\t%.6f\t%.6f\t%.6f\t0\t0\t0\t%.6f\t%.6f\t1;\n",
                  net.bus(br.from).external_id, net.bus(br.to).external_id,
                  br.r, br.x, br.b_charging, br.tap,
                  br.phase_shift * 180.0 / 3.14159265358979323846);
  }
  return out + "];\n";
}

/// Mutate `text` kMutationsPerSeed times per seed and hand each copy to
/// `parse`; returns how many copies parsed. Any exception but InvalidInput
/// fails the test.
template <typename Parse>
int fuzz_parser(const std::string& text, std::string_view significant,
                Parse&& parse) {
  int parsed = 0;
  for (std::uint64_t seed = 1; seed <= kSeeds; ++seed) {
    Rng rng(seed);
    for (int i = 0; i < kMutationsPerSeed; ++i) {
      const std::string mutated = fuzz::mutate(text, rng, significant);
      try {
        parse(mutated);
        ++parsed;
      } catch (const InvalidInput&) {
        // Rejected loudly: the only acceptable failure.
      }
    }
  }
  return parsed;
}

std::vector<Case> cases() { return {ieee14(), ieee118_dse().kase}; }

TEST(ParserFuzz, CaseFormatThrowsOrParses) {
  for (const Case& c : cases()) {
    const std::string text = serialize_case(c);
    ASSERT_EQ(parse_case(text).network.num_buses(), c.network.num_buses());
    const int parsed =
        fuzz_parser(text, kLineSignificant, [&](const std::string& t) {
          const Case back = parse_case(t);
          EXPECT_GT(back.network.num_buses(), 0) << t;
        });
    // Some mutations (a flipped digit in a load) leave a valid case.
    EXPECT_GT(parsed, 0) << c.name;
  }
}

TEST(ParserFuzz, DecompositionThrowsOrParses) {
  const GeneratedCase gc = ieee118_dse();
  const grid::Network& net = gc.kase.network;
  const std::string text =
      serialize_decomposition(net, gc.subsystem_of_bus, "ieee118");
  ASSERT_EQ(parse_decomposition(text, net), gc.subsystem_of_bus);
  const int parsed =
      fuzz_parser(text, kLineSignificant, [&](const std::string& t) {
        const std::vector<int> membership = parse_decomposition(t, net);
        ASSERT_EQ(membership.size(),
                  static_cast<std::size_t>(net.num_buses()));
        for (const int s : membership) {
          EXPECT_GE(s, 0) << t;
        }
      });
  EXPECT_GT(parsed, 0);
}

TEST(ParserFuzz, MatpowerThrowsOrParses) {
  for (const Case& c : cases()) {
    const std::string text = to_matpower(c);
    const Case exact = parse_matpower(text);
    ASSERT_EQ(exact.network.num_buses(), c.network.num_buses());
    ASSERT_EQ(exact.network.num_branches(), c.network.num_branches());
    const int parsed =
        fuzz_parser(text, kMatpowerSignificant, [&](const std::string& t) {
          const Case back = parse_matpower(t);
          EXPECT_GT(back.base_mva, 0.0) << t;
        });
    EXPECT_GT(parsed, 0) << c.name;
  }
}

/// `text` with its first `from` replaced by `to`.
std::string replaced(std::string text, const std::string& from,
                     const std::string& to) {
  const std::size_t at = text.find(from);
  EXPECT_NE(at, std::string::npos) << from;
  return text.replace(at, from.size(), to);
}

// One corrupted number in an otherwise valid file is rejected instead of
// read as its numeric prefix, as infinity, or through an out-of-range cast.
TEST(ParserFuzz, MalformedNumbersAreRejected) {
  const Case c14 = ieee14();
  const std::string decomp = serialize_decomposition(
      c14.network, std::vector<int>(14, 0), "ieee14");
  ASSERT_NO_THROW(parse_decomposition(decomp, c14.network));
  for (const char* bad : {"bus 1abc 0\n", "bus 1 0x\n", "bus 1.0 0\n"}) {
    EXPECT_THROW(
        parse_decomposition(replaced(decomp, "bus 1 0\n", bad), c14.network),
        InvalidInput)
        << bad;
  }

  const std::string mp = to_matpower(c14);
  ASSERT_NO_THROW(parse_matpower(mp));
  EXPECT_THROW(parse_matpower(replaced(mp, "mpc.baseMVA = 100;",
                                       "mpc.baseMVA = 100abc;")),
               InvalidInput);
  EXPECT_THROW(parse_matpower(replaced(mp, "\t1\t3\t", "\t1e300\t3\t")),
               InvalidInput);

  const std::string text = serialize_case(c14);
  ASSERT_NO_THROW(parse_case(text));
  for (const char* id : {"1e300", "inf", "nan", "1.0", "3000000000"}) {
    EXPECT_THROW(parse_case(replaced(text, "bus 1 ", std::string("bus ") +
                                                         id + " ")),
                 InvalidInput)
        << id;
  }
  EXPECT_THROW(parse_case(replaced(text, "basemva 100", "basemva inf")),
               InvalidInput);
}

}  // namespace
}  // namespace gridse::io
