// In-plane group membership — the paper's stated extension direction
// ("our current work is directed toward adapting group membership
// management techniques to the applications in the environments of
// distributed autonomous mobile computing", §5).
//
// Design: satellites of one plane form a logical ring in slot order. Each
// member heartbeats its ring successor and predecessor every period and
// suspects a neighbor it has not heard from within the suspicion timeout
// (> period + 2δ, so healthy links never cause false suspicion). A
// suspected member is removed from the local view and a failure notice is
// gossiped around the ring (deduplicated per failed member), so all
// surviving members converge on the same view; monitoring then re-targets
// the next live member in ring order. O(1) messaging per member per
// period — appropriate for large constellations.
//
// The OAQ protocol consumes the converged view: a coordination chain can
// skip a known-failed "next visitor" instead of paying the wait-deadline
// timeout (see EpisodeContext's `known_failed` and bench/ablation_membership).
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <set>
#include <vector>

#include "net/crosslink.hpp"

namespace oaq {

/// Membership timing parameters.
struct MembershipConfig {
  Duration heartbeat_period = Duration::seconds(30);
  /// Must exceed heartbeat_period + 2·max network delay.
  Duration suspicion_timeout = Duration::seconds(90);
};

/// Heartbeat message between ring neighbors.
struct Heartbeat {
  SatelliteId from{};
  std::uint64_t sequence = 0;
};

/// Gossiped notice that `failed` has been removed from the view.
struct FailureNotice {
  SatelliteId failed{};
  SatelliteId reporter{};
};

/// One satellite's membership agent.
class MembershipNode {
 public:
  MembershipNode(Simulator& sim, CrosslinkNetwork& net, SatelliteId self,
                 std::vector<SatelliteId> ring, MembershipConfig config);

  /// Begin heartbeating and monitoring. Registers the network handler.
  void start();

  [[nodiscard]] SatelliteId self() const { return self_; }

  /// Members this node currently believes are alive (including itself).
  [[nodiscard]] const std::set<SatelliteId>& live_view() const {
    return live_;
  }
  [[nodiscard]] bool considers_alive(SatelliteId id) const {
    return live_.contains(id);
  }

  /// Ring successor / predecessor among members believed alive.
  [[nodiscard]] SatelliteId live_successor() const;
  [[nodiscard]] SatelliteId live_predecessor() const;

 private:
  void on_message(const Envelope& env);
  void send_heartbeats();
  void check_neighbors();
  void suspect(SatelliteId id);
  void remove_member(SatelliteId id, bool gossip);
  [[nodiscard]] SatelliteId neighbor(int direction) const;

  Simulator* sim_;
  CrosslinkNetwork* net_;
  SatelliteId self_;
  std::vector<SatelliteId> ring_;  ///< full design ring, slot order
  MembershipConfig config_;
  std::set<SatelliteId> live_;
  std::map<SatelliteId, TimePoint> last_heard_;
  std::uint64_t sequence_ = 0;
  bool started_ = false;
};

/// Convenience: build, start and drive a whole plane's membership group.
class MembershipGroup {
 public:
  MembershipGroup(Simulator& sim, CrosslinkNetwork& net,
                  const std::vector<SatelliteId>& members,
                  MembershipConfig config);

  [[nodiscard]] MembershipNode& node(SatelliteId id);
  [[nodiscard]] std::size_t size() const { return nodes_.size(); }

  /// True when every live node's view equals the set of actually-live
  /// members (global convergence predicate for tests).
  [[nodiscard]] bool converged(const std::set<SatelliteId>& actually_live) const;

 private:
  std::vector<std::unique_ptr<MembershipNode>> nodes_;
};

}  // namespace oaq
