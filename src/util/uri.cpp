#include "util/uri.h"

#include <charconv>

#include "util/strings.h"

namespace reef::util {

std::optional<Uri> Uri::parse(std::string_view text) {
  text = trim(text);
  const std::size_t scheme_end = text.find("://");
  if (scheme_end == std::string_view::npos || scheme_end == 0) {
    return std::nullopt;
  }
  Uri uri;
  uri.scheme_ = to_lower(text.substr(0, scheme_end));
  std::string_view rest = text.substr(scheme_end + 3);
  if (rest.empty()) return std::nullopt;

  const std::size_t path_start = rest.find_first_of("/?#");
  std::string_view authority =
      path_start == std::string_view::npos ? rest : rest.substr(0, path_start);
  if (authority.empty()) return std::nullopt;

  // Strip userinfo if present (rare in attention logs, but cheap to handle).
  if (const std::size_t at = authority.rfind('@');
      at != std::string_view::npos) {
    authority = authority.substr(at + 1);
  }

  std::string_view host = authority;
  if (const std::size_t colon = authority.rfind(':');
      colon != std::string_view::npos) {
    const std::string_view port_text = authority.substr(colon + 1);
    std::uint32_t port = 0;
    const auto [ptr, ec] = std::from_chars(
        port_text.data(), port_text.data() + port_text.size(), port);
    if (ec == std::errc{} && ptr == port_text.data() + port_text.size() &&
        port > 0 && port <= 0xffff) {
      host = authority.substr(0, colon);
      uri.port_ = static_cast<std::uint16_t>(port);
    }
  }
  if (host.empty()) return std::nullopt;
  uri.host_ = to_lower(host);

  // Elide scheme-default ports so equal resources compare equal.
  if ((uri.scheme_ == "http" && uri.port_ == 80) ||
      (uri.scheme_ == "https" && uri.port_ == 443)) {
    uri.port_ = 0;
  }

  if (path_start == std::string_view::npos) {
    uri.path_.assign(1, '/');
    return uri;
  }
  std::string_view tail = rest.substr(path_start);
  // Drop the fragment entirely; it never reaches the server.
  if (const std::size_t frag = tail.find('#');
      frag != std::string_view::npos) {
    tail = tail.substr(0, frag);
  }
  const std::size_t q = tail.find('?');
  if (q == std::string_view::npos) {
    uri.path_ = tail.empty() ? "/" : std::string(tail);
  } else {
    uri.path_ = q == 0 ? "/" : std::string(tail.substr(0, q));
    uri.query_ = std::string(tail.substr(q + 1));
  }
  if (uri.path_.empty() || uri.path_[0] != '/') {
    uri.path_.insert(uri.path_.begin(), '/');
  }
  return uri;
}

Uri Uri::from_parts(std::string scheme, std::string host, std::uint16_t port,
                    std::string path, std::string query) {
  Uri uri;
  uri.scheme_ = std::move(scheme);
  uri.host_ = std::move(host);
  uri.port_ = port;
  uri.path_ = path.empty() ? "/" : std::move(path);
  if (uri.path_[0] != '/') uri.path_.insert(uri.path_.begin(), '/');
  uri.query_ = std::move(query);
  return uri;
}

std::string Uri::to_string() const {
  std::string out = scheme_;
  out += "://";
  out += host_;
  if (port_ != 0) {
    out += ':';
    out += std::to_string(port_);
  }
  out += path_;
  if (!query_.empty()) {
    out += '?';
    out += query_;
  }
  return out;
}

}  // namespace reef::util
