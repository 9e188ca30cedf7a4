#include "runtime/socket.hpp"

#include <gtest/gtest.h>

#include "util/error.hpp"

namespace gridse::runtime {
namespace {

TEST(Socket, ListenConnectSendRecv) {
  std::uint16_t port = 0;
  Socket listener = Socket::listen_loopback(port);
  ASSERT_GT(port, 0);
  Socket client = Socket::connect_loopback(port);
  Socket server = listener.accept();

  const char msg[] = "hello sockets";
  client.send_all(msg, sizeof msg);
  char buf[sizeof msg] = {};
  server.recv_all(buf, sizeof msg);
  EXPECT_STREQ(buf, msg);
}

TEST(Socket, RecvAllDetectsClosedPeer) {
  std::uint16_t port = 0;
  Socket listener = Socket::listen_loopback(port);
  Socket client = Socket::connect_loopback(port);
  Socket server = listener.accept();
  client.close();
  char buf[4];
  EXPECT_THROW(server.recv_all(buf, 4), CommError);
}

TEST(Socket, RecvSomeReturnsZeroOnEof) {
  std::uint16_t port = 0;
  Socket listener = Socket::listen_loopback(port);
  Socket client = Socket::connect_loopback(port);
  Socket server = listener.accept();
  client.close();
  char buf[4];
  EXPECT_EQ(server.recv_some(buf, 4), 0u);
}

TEST(Socket, MoveTransfersOwnership) {
  std::uint16_t port = 0;
  Socket a = Socket::listen_loopback(port);
  const int fd = a.fd();
  Socket b = std::move(a);
  EXPECT_FALSE(a.valid());  // NOLINT(bugprone-use-after-move): testing move
  EXPECT_EQ(b.fd(), fd);
}

TEST(Socket, BindingBusyPortFails) {
  std::uint16_t port = 0;
  Socket first = Socket::listen_loopback(port);
  std::uint16_t same = port;
  EXPECT_THROW((void)Socket::listen_loopback(same), CommError);
}

TEST(Socket, ConnectToDeadPortFails) {
  // Grab a free port, close the listener, then connect: must refuse.
  std::uint16_t port = 0;
  {
    Socket probe = Socket::listen_loopback(port);
  }
  EXPECT_THROW((void)Socket::connect_loopback(port), CommError);
}

}  // namespace
}  // namespace gridse::runtime
