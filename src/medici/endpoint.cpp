#include "medici/endpoint.hpp"

#include "runtime/socket.hpp"
#include "util/error.hpp"
#include "util/strings.hpp"

namespace gridse::medici {

std::string EndpointUrl::to_string() const {
  return protocol + "://" + host + ":" + std::to_string(port);
}

EndpointUrl parse_endpoint(const std::string& url) {
  const auto scheme_end = url.find("://");
  if (scheme_end == std::string::npos) {
    throw InvalidInput("endpoint url missing protocol: " + url);
  }
  EndpointUrl e;
  e.protocol = url.substr(0, scheme_end);
  if (e.protocol != "tcp") {
    throw InvalidInput("unsupported endpoint protocol: " + e.protocol);
  }
  const std::string rest = url.substr(scheme_end + 3);
  const auto colon = rest.rfind(':');
  if (colon == std::string::npos || colon == 0 || colon + 1 == rest.size()) {
    throw InvalidInput("endpoint url missing host:port: " + url);
  }
  e.host = rest.substr(0, colon);
  e.port = static_cast<std::uint16_t>(
      parse_integer("endpoint url " + url, rest.substr(colon + 1),
                    "a port in [0, 65535]", 0, 65535));
  return e;
}

EndpointUrl ephemeral_endpoint() {
  std::uint16_t port = 0;
  {
    // Bind to port 0 to have the kernel pick a free port, then release it.
    runtime::Socket probe = runtime::Socket::listen_loopback(port);
  }
  EndpointUrl e;
  e.port = port;
  return e;
}

}  // namespace gridse::medici
