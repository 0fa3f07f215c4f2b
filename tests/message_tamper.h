// Field-level adversary for the test suites, built on the network's
// byte-level tamper hook: each delivered copy is decoded with the public
// codec, handed to the hook as a typed message, and re-encoded only when
// the hook changed it. A copy that no longer decodes passes through
// untouched (the receiver discards it at drain).
#pragma once

#include <cstdint>
#include <functional>
#include <utility>
#include <vector>

#include "net/network.h"
#include "wire/codec.h"

namespace idgka::test {

/// Returns false to jam the copy; may rewrite the message in place.
using MessageTamper = std::function<bool(net::Message&, std::uint32_t receiver)>;

/// Installs `hook` as `net`'s tamper hook (remove it with
/// `set_frame_tamper_hook(nullptr)`).
inline void set_message_tamper(net::Network& net, MessageTamper hook) {
  net.set_frame_tamper_hook(
      [hook = std::move(hook)](std::vector<std::uint8_t>& bytes, std::uint32_t to) {
        net::Message msg;
        try {
          msg = wire::decode(bytes);
        } catch (const wire::DecodeError&) {
          return true;
        }
        const net::Message original = msg;
        if (!hook(msg, to)) return false;
        if (!(msg == original)) {
          const wire::Frame rewritten = wire::encode(msg);
          bytes.assign(rewritten.bytes().begin(), rewritten.bytes().end());
        }
        return true;
      });
}

}  // namespace idgka::test
