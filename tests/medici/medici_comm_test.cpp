#include "medici/medici_comm.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "util/error.hpp"

namespace gridse::medici {
namespace {

class MediciCommModes : public ::testing::TestWithParam<TransportMode> {};

TEST_P(MediciCommModes, RingExchangeWorks) {
  MediciWorld world(3, GetParam(), unshaped_model());
  world.run([](runtime::Communicator& c) {
    const int next = (c.rank() + 1) % c.size();
    const int prev = (c.rank() + c.size() - 1) % c.size();
    c.send(next, 2, {static_cast<std::uint8_t>(c.rank())});
    const runtime::Message m = c.recv(prev, 2);
    EXPECT_EQ(m.payload[0], static_cast<std::uint8_t>(prev));
    c.barrier();
  });
}

TEST_P(MediciCommModes, SelectiveTagsAcrossWorld) {
  MediciWorld world(2, GetParam(), unshaped_model());
  world.run([](runtime::Communicator& c) {
    if (c.rank() == 0) {
      c.send(1, 100, {1});
      c.send(1, 200, {2});
    } else {
      EXPECT_EQ(c.recv(0, 200).payload[0], 2);
      EXPECT_EQ(c.recv(0, 100).payload[0], 1);
    }
  });
}

TEST_P(MediciCommModes, SingleRankWorld) {
  MediciWorld world(1, GetParam(), unshaped_model());
  world.run([](runtime::Communicator& c) {
    EXPECT_EQ(c.size(), 1);
    c.send(0, 1, {7});
    EXPECT_EQ(c.recv(0, 1).payload[0], 7);
    c.barrier();
  });
}

TEST_P(MediciCommModes, LargeMessageSurvivesFraming) {
  MediciWorld world(2, GetParam(), unshaped_model());
  world.run([](runtime::Communicator& c) {
    std::vector<std::uint8_t> data(4 << 20);
    for (std::size_t i = 0; i < data.size(); ++i) {
      data[i] = static_cast<std::uint8_t>(i * 31);
    }
    if (c.rank() == 0) {
      c.send(1, 1, data);
    } else {
      const runtime::Message m = c.recv(0, 1);
      ASSERT_EQ(m.payload.size(), data.size());
      EXPECT_EQ(m.payload, data);
    }
  });
}

TEST_P(MediciCommModes, EmptyPayloadDelivered) {
  MediciWorld world(2, GetParam(), unshaped_model());
  world.run([](runtime::Communicator& c) {
    if (c.rank() == 0) {
      c.send(1, 3, {});
    } else {
      EXPECT_TRUE(c.recv(0, 3).payload.empty());
    }
  });
}

TEST_P(MediciCommModes, BarrierAndOrdering) {
  MediciWorld world(3, GetParam(), unshaped_model());
  world.run([](runtime::Communicator& c) {
    for (int round = 0; round < 5; ++round) {
      if (c.rank() == 0) {
        c.send(1, 9, {static_cast<std::uint8_t>(round)});
      } else if (c.rank() == 1) {
        EXPECT_EQ(c.recv(0, 9).payload[0], static_cast<std::uint8_t>(round));
      }
      c.barrier();
    }
  });
}

TEST_P(MediciCommModes, ReservedTagRejected) {
  MediciWorld world(2, GetParam(), unshaped_model());
  const auto c = world.communicator(0);
  EXPECT_THROW(c->send(1, MediciWorld::kMaxUserTag + 1, {}), CommError);
}

INSTANTIATE_TEST_SUITE_P(Modes, MediciCommModes,
                         ::testing::Values(TransportMode::kViaMiddleware,
                                           TransportMode::kDirectTcp),
                         [](const auto& param_info) {
                           return param_info.param == TransportMode::kViaMiddleware
                                      ? "middleware"
                                      : "direct";
                         });

TEST(MediciWorld, MiddlewareModeActuallyRelays) {
  MediciWorld world(2, TransportMode::kViaMiddleware, unshaped_model());
  world.run([](runtime::Communicator& c) {
    if (c.rank() == 0) {
      c.send(1, 1, std::vector<std::uint8_t>(1000));
    } else {
      (void)c.recv(0, 1);
    }
    c.barrier();
  });
  EXPECT_GE(world.relay_stats().messages, 1u);
  EXPECT_GE(world.relay_stats().bytes, 1000u);
}

TEST(MediciWorld, DirectModeBypassesRelays) {
  MediciWorld world(2, TransportMode::kDirectTcp);
  world.run([](runtime::Communicator& c) {
    if (c.rank() == 0) {
      c.send(1, 1, std::vector<std::uint8_t>(1000));
    } else {
      (void)c.recv(0, 1);
    }
    c.barrier();
  });
  EXPECT_EQ(world.relay_stats().messages, 0u);
}

TEST(MediciWorld, EveryEstimatorHasAUniqueUrl) {
  MediciWorld world(4, TransportMode::kDirectTcp);
  std::set<std::uint16_t> ports;
  for (int r = 0; r < 4; ++r) {
    ports.insert(world.endpoint_of(r).port);
  }
  EXPECT_EQ(ports.size(), 4u);
}

TEST(MediciWorld, BytesSentTracksPayloads) {
  MediciWorld world(2, TransportMode::kDirectTcp);
  world.run([](runtime::Communicator& c) {
    if (c.rank() == 0) {
      c.send(1, 1, std::vector<std::uint8_t>(256));
      EXPECT_GE(c.bytes_sent(), 256u);
    } else {
      (void)c.recv(0, 1);
    }
    c.barrier();
  });
}

}  // namespace
}  // namespace gridse::medici
