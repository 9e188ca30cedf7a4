#include "medici/endpoint.hpp"

#include <gtest/gtest.h>

#include "util/error.hpp"

namespace gridse::medici {
namespace {

TEST(Endpoint, ParsesValidUrl) {
  const EndpointUrl e = parse_endpoint("tcp://127.0.0.1:6789");
  EXPECT_EQ(e.protocol, "tcp");
  EXPECT_EQ(e.host, "127.0.0.1");
  EXPECT_EQ(e.port, 6789);
}

TEST(Endpoint, ParsesHostNames) {
  // The paper's Fig. 7 uses host names; we parse them even though routing is
  // loopback-only in this prototype.
  const EndpointUrl e = parse_endpoint("tcp://nwiceb.pnl.gov:6789");
  EXPECT_EQ(e.host, "nwiceb.pnl.gov");
  EXPECT_EQ(e.port, 6789);
}

TEST(Endpoint, ToStringRoundTrips) {
  const EndpointUrl e = parse_endpoint("tcp://127.0.0.1:4242");
  EXPECT_EQ(parse_endpoint(e.to_string()), e);
}

TEST(Endpoint, RejectsMalformedUrls) {
  EXPECT_THROW(parse_endpoint("127.0.0.1:80"), InvalidInput);
  EXPECT_THROW(parse_endpoint("http://127.0.0.1:80"), InvalidInput);
  EXPECT_THROW(parse_endpoint("tcp://"), InvalidInput);
  EXPECT_THROW(parse_endpoint("tcp://host"), InvalidInput);
  EXPECT_THROW(parse_endpoint("tcp://host:"), InvalidInput);
  EXPECT_THROW(parse_endpoint("tcp://host:notaport"), InvalidInput);
  EXPECT_THROW(parse_endpoint("tcp://host:99999"), InvalidInput);
  EXPECT_THROW(parse_endpoint("tcp://127.0.0.1:80abc"), InvalidInput);
  EXPECT_THROW(parse_endpoint("tcp://127.0.0.1: 80"), InvalidInput);
  EXPECT_THROW(parse_endpoint("tcp://127.0.0.1:+80"), InvalidInput);
}

TEST(Endpoint, EphemeralGivesDistinctFreePorts) {
  const EndpointUrl a = ephemeral_endpoint();
  const EndpointUrl b = ephemeral_endpoint();
  EXPECT_GT(a.port, 0);
  EXPECT_GT(b.port, 0);
  EXPECT_EQ(a.host, "127.0.0.1");
}

}  // namespace
}  // namespace gridse::medici
