// Central wire-tag registry: the single source of truth for every frame
// tag that can appear on a probft network, simulated or TCP.
//
// Rules (enforced by tools/lint_protocol.py and the static_assert below):
//   - every `k*Tag` constant in src/ is either defined here or defined as
//     a re-export of a `net::tags::` constant (modules keep their local
//     names, e.g. smr::kSmrTag, so call sites do not churn);
//   - protocol enums whose values ride the wire (core::MsgTag,
//     hotstuff::HsTag) bind each enumerator to its registry constant with
//     a static_assert next to the enum;
//   - tag values are unique across the whole space — a new subsystem that
//     collides with an existing envelope fails to compile, not to
//     interoperate.
//
// Allocation map:
//   0x01-0x0f  core consensus (ProBFT; PBFT reuses the same envelope)
//   0x0b-0x0f  HotStuff (decimal 11-15, the historical values)
//   0x20-0x27  single-group SMR (slot consensus, forwards, catch-up,
//              checkpoints/state transfer, leases, read-index)
//   0x28-0x2f  free
//   0x30-0x3f  client path (0x34-0x3f reserved)
#pragma once

#include <cstddef>
#include <cstdint>

namespace probft::net::tags {

// ---- core consensus (core::MsgTag; PBFT shares the envelope) ----
inline constexpr std::uint8_t kPropose = 0x01;
inline constexpr std::uint8_t kPrepare = 0x02;
inline constexpr std::uint8_t kCommit = 0x03;
inline constexpr std::uint8_t kNewLeader = 0x04;
inline constexpr std::uint8_t kWish = 0x05;

// ---- HotStuff (hotstuff::HsTag) ----
inline constexpr std::uint8_t kHsNewView = 0x0b;   // 11
inline constexpr std::uint8_t kHsProposal = 0x0c;  // 12
inline constexpr std::uint8_t kHsVote = 0x0d;      // 13
inline constexpr std::uint8_t kHsQc = 0x0e;        // 14
inline constexpr std::uint8_t kHsWish = 0x0f;      // 15

// ---- single-group SMR (smr::) ----
inline constexpr std::uint8_t kSmr = 0x20;         // slot-prefixed consensus
inline constexpr std::uint8_t kSmrForward = 0x21;  // request → leader
inline constexpr std::uint8_t kSmrHint = 0x22;     // signed decided-value hint
inline constexpr std::uint8_t kSmrPull = 0x23;     // straggler asks for hints
inline constexpr std::uint8_t kSmrCkpt = 0x24;     // checkpoint vote
inline constexpr std::uint8_t kSmrState = 0x25;    // certified state transfer
inline constexpr std::uint8_t kSmrLease = 0x26;    // read-lease request/grant
inline constexpr std::uint8_t kSmrReadIndex = 0x27;  // watermark attestation

// ---- client path (net::) ----
inline constexpr std::uint8_t kClientRequest = 0x30;
inline constexpr std::uint8_t kClientReply = 0x31;
inline constexpr std::uint8_t kClientRead = 0x32;
inline constexpr std::uint8_t kClientReadReply = 0x33;

namespace detail {

inline constexpr std::uint8_t kAll[] = {
    kPropose,   kPrepare,     kCommit,    kNewLeader,     kWish,
    kHsNewView, kHsProposal,  kHsVote,    kHsQc,          kHsWish,
    kSmr,       kSmrForward,  kSmrHint,   kSmrPull,       kSmrCkpt,
    kSmrState,  kSmrLease,    kSmrReadIndex,
    kClientRequest, kClientReply, kClientRead, kClientReadReply,
};

constexpr bool all_unique() {
  constexpr std::size_t n = sizeof(kAll) / sizeof(kAll[0]);
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = i + 1; j < n; ++j) {
      if (kAll[i] == kAll[j]) return false;
    }
  }
  return true;
}

}  // namespace detail

static_assert(detail::all_unique(),
              "wire tag collision: two registry entries share a value — "
              "pick a free slot from the allocation map above");

}  // namespace probft::net::tags
