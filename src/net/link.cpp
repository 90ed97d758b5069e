#include "net/link.h"

#include <algorithm>
#include <utility>

#include "common/error.h"
#include "common/parallel_executor.h"
#include "saferegion/wire_format.h"
#include "sim/server.h"

namespace salarm::net {
namespace {

/// Retransmission attempts per exchange before delivery is forced. With
/// per-attempt loss < 1 the chance of exhausting the cap is astronomically
/// small (0.5^64); the cap only bounds the simulated draw loop — the
/// protocol itself never gives up on a connected link.
constexpr std::uint64_t kMaxExchangeRounds = 64;

}  // namespace

ClientLink::ClientLink(cluster::ShardedServer& server,
                       const ChannelConfig& config, std::uint64_t seed)
    : server_(server),
      config_(config),
      channel_(config, seed, server.subscriber_count()),
      states_(server.subscriber_count()),
      failover_armed_(server.failover_armed()),
      tallies_((server.subscriber_count() + kChannelChunk - 1) /
               kChannelChunk) {}

ClientLink::SubscriberState& ClientLink::state(alarms::SubscriberId s) {
  SALARM_REQUIRE(static_cast<std::size_t>(s) < states_.size(),
                 "subscriber outside link range");
  return states_[static_cast<std::size_t>(s)];
}

const ClientLink::SubscriberState& ClientLink::state(
    alarms::SubscriberId s) const {
  SALARM_REQUIRE(static_cast<std::size_t>(s) < states_.size(),
                 "subscriber outside link range");
  return states_[static_cast<std::size_t>(s)];
}

bool ClientLink::in_outage(alarms::SubscriberId s) const {
  return config_.faulty() && state(s).outage_remaining > 0;
}

std::uint32_t ClientLink::uplink_seq(alarms::SubscriberId s) const {
  return state(s).uplink_seq;
}

bool ClientLink::degraded(const SubscriberState& st,
                          geo::Point position) const {
  if (!failover_armed_) return false;
  return !st.buffer.empty() ||
         server_.shard_down(server_.map().shard_of(position));
}

bool ClientLink::buffer_flushable(const SubscriberState& st) const {
  if (!tick_any_down_) return true;
  for (const BufferedReport& r : st.buffer) {
    if (server_.shard_down(server_.map().shard_of(r.position))) return false;
  }
  return true;
}

std::uint64_t ClientLink::min_pending_stamp(std::uint64_t tick) const {
  std::uint64_t min = tick;
  for (const SubscriberState& st : states_) {
    // Buffers are appended in tick order, so the front is the oldest.
    if (!st.buffer.empty() && st.buffer.front().tick < min) {
      min = st.buffer.front().tick;
    }
  }
  return min;
}

std::uint64_t ClientLink::reliable_exchange(alarms::SubscriberId s, bool uplink,
                                            std::size_t payload_bytes,
                                            sim::Metrics& m) {
  std::uint64_t rounds = 0;
  std::uint64_t received_copies = 0;
  bool acked = false;
  while (!acked && rounds < kMaxExchangeRounds) {
    ++rounds;
    const bool payload_lost =
        uplink ? channel_.lose_uplink(s) : channel_.lose_downlink(s);
    if (payload_lost) continue;
    ++received_copies;
    if (channel_.duplicate(s)) ++received_copies;
    const bool ack_lost =
        uplink ? channel_.lose_downlink(s) : channel_.lose_uplink(s);
    if (!ack_lost) acked = true;
  }
  if (received_copies == 0) received_copies = 1;  // forced delivery at cap

  // Accounting (ISSUE: retransmissions must inflate energy and bandwidth,
  // not vanish). Every attempt beyond the first retransmits the full
  // payload; every received copy is ACKed; every copy beyond the first is
  // suppressed by the receiver's sequence-number window.
  const std::uint64_t retransmissions = rounds - 1;
  const std::uint64_t duplicates = received_copies - 1;
  m.net_retransmissions += retransmissions;
  m.net_duplicates_dropped += duplicates;
  m.net_ack_messages += received_copies;
  m.net_ack_bytes += received_copies * wire::encoded_size(wire::AckMsg{});
  if (uplink) {
    // Position reports: the server charged the first copy when it processed
    // the update; retransmitted copies are pure overhead on the same
    // counters so the paper's message figures stay honest under faults.
    m.uplink_messages += retransmissions;
    m.uplink_bytes += retransmissions * payload_bytes;
    m.server_alarm_ops += duplicates * sim::kOpsPerDuplicateDrop;
  } else {
    // Invalidation pushes: the push itself was charged when queued;
    // retransmitted copies re-ship the payload. The client suppresses
    // duplicates with one sequence comparison each.
    m.invalidation_bytes += retransmissions * payload_bytes;
    m.client_check_ops += duplicates;
  }
  // Delivery latency seen by the receiver: exponential-backoff waits for
  // every failed round plus one one-way flight of the copy that made it.
  // The per-round waits are recorded for introspection: the timeout starts
  // at the base RTO on every fresh exchange (an ACK resets it) and doubles
  // per retransmission.
  auto& backoffs = state(s).last_backoffs;
  backoffs.clear();
  double backoff_ms = 0.0;
  double rto_ms = channel_.base_rto_ms();
  for (std::uint64_t i = 1; i < rounds; ++i) {
    backoffs.push_back(rto_ms);
    backoff_ms += rto_ms;
    rto_ms *= 2.0;
  }
  m.net_delivery_latency_ms.add(backoff_ms + channel_.latency_ms(s));
  return rounds;
}

std::vector<alarms::AlarmId> ClientLink::report(alarms::SubscriberId s,
                                                geo::Point position,
                                                std::uint64_t tick) {
  if (!config_.faulty() && !failover_armed_) {
    return server_.handle_position_update(s, position, tick);
  }
  auto& st = state(s);
  if (config_.faulty() && st.outage_remaining > 0) {
    // Lease fallback: the carrier is down, so the client logs the sample
    // for server-side checking at reconnect (DESIGN.md §9).
    st.buffer.push_back(BufferedReport{position, tick});
    ++server_.metrics().net_buffered_reports;
    return {};
  }
  if (degraded(st, position)) {
    // The owning shard is crashed (or older reports are still queued
    // behind a crashed shard): buffer for the post-recovery flush.
    st.buffer.push_back(BufferedReport{position, tick});
    ++server_.metrics().fo_buffered_reports;
    return {};
  }
  if (!config_.faulty()) return server_.handle_position_update(s, position, tick);
  ++st.uplink_seq;
  auto fired = server_.handle_position_update(s, position, tick);
  reliable_exchange(s, /*uplink=*/true,
                    wire::encoded_size(wire::PositionUpdate{}),
                    server_.metrics());
  return fired;
}

std::vector<dynamics::InvalidationPush> ClientLink::take_invalidations(
    alarms::SubscriberId s) {
  if (!config_.faulty() && !failover_armed_) {
    return server_.take_invalidations(s);
  }
  auto& st = state(s);
  if (config_.faulty() && st.outage_remaining > 0) {
    // Server pushes cannot reach a disconnected client; only the client's
    // own carrier-loss revoke is delivered (no wire traffic involved).
    return std::exchange(st.pending_synthetic, {});
  }
  // A crashed shard's mailboxes are empty (cleared at the crash, installs
  // deferred), so draining is safe and returns only up-shard pushes even
  // while the subscriber's own shard is down.
  auto pushes = server_.take_invalidations(s);
  if (config_.faulty()) {
    sim::Metrics& m = server_.metrics();
    for (const auto& push : pushes) {
      // Leased downlink: each push is retransmitted until the client's ACK
      // arrives, so a connected client receives every push within its tick.
      reliable_exchange(s, /*uplink=*/false,
                        wire::invalidation_message_size(push.message.size()),
                        m);
    }
  }
  if (!st.pending_synthetic.empty()) {
    // Leftover carrier-loss revoke from an outage the strategy never
    // polled during (e.g. the periodic baseline): deliver it first.
    auto merged = std::exchange(st.pending_synthetic, {});
    merged.insert(merged.end(), std::make_move_iterator(pushes.begin()),
                  std::make_move_iterator(pushes.end()));
    return merged;
  }
  return pushes;
}

void ClientLink::begin_tick(std::uint64_t tick,
                            std::span<const mobility::VehicleSample> samples,
                            std::size_t threads) {
  failover_armed_ = server_.failover_armed();
  tick_ = tick;
  tick_faulty_ = config_.faulty();
  if (!tick_faulty_ && !failover_armed_) return;
  SALARM_REQUIRE(!failover_armed_ || samples.size() == states_.size(),
                 "failover begin_tick needs one sample per subscriber");
  tick_samples_ = samples;
  // The chunks read the server's shard flags only when some shard is down.
  tick_any_down_ = false;
  for (std::size_t i = 0; i < server_.shard_count(); ++i) {
    tick_any_down_ = tick_any_down_ || server_.shard_down(i);
  }
  ParallelTickExecutor::shared().run(
      tallies_.size(), [this](std::size_t c) { advance_chunk(c); }, threads);
  // The machines' counters add up in any order; the flushes write shard
  // state and the latency statistic, so they keep subscriber order.
  for (ChunkTally& c : tallies_) {
    link_metrics_.net_lease_fallback_ticks +=
        std::exchange(c.lease_fallback_ticks, 0);
    link_metrics_.net_outages += std::exchange(c.outages, 0);
    link_metrics_.fo_grant_voids += std::exchange(c.grant_voids, 0);
    link_metrics_.fo_degraded_ticks += std::exchange(c.degraded_ticks, 0);
    for (const alarms::SubscriberId s : c.due) flush_buffer(s);
    c.due.clear();
  }
}

void ClientLink::advance_chunk(std::size_t c) {
  ChunkTally& out = tallies_[c];
  const std::size_t end = std::min(states_.size(), (c + 1) * kChannelChunk);
  for (std::size_t i = c * kChannelChunk; i < end; ++i) {
    const auto s = static_cast<alarms::SubscriberId>(i);
    auto& st = states_[i];
    // Channel outage machine (identical draws/counters to a failover-less
    // run: the channel never learns about crashes).
    if (tick_faulty_) {
      if (st.outage_remaining > 0) {
        --st.outage_remaining;
        if (st.outage_remaining > 0) ++out.lease_fallback_ticks;
      } else if (channel_.outage_starts(s)) {
        st.outage_remaining = channel_.outage_duration_ticks(s);
        // Carrier loss voids the lease client-side: the client cannot ACK
        // pushes any more, so it conservatively drops whatever grant it
        // holds (synthetic revoke, drained at its next on_tick).
        st.pending_synthetic.push_back(dynamics::InvalidationPush{});
        ++out.outages;
        ++out.lease_fallback_ticks;
      }
    }
    // Degraded-mode machine: a crash of the subscriber's owning shard
    // voids its grant the same way a carrier loss does — the server side
    // of the lease just evaporated.
    if (tick_any_down_) {
      const std::size_t shard = server_.map().shard_of(tick_samples_[i].pos);
      if (server_.shard_crashed_at(shard, tick_)) {
        st.pending_synthetic.push_back(dynamics::InvalidationPush{});
        ++out.grant_voids;
      }
      if (server_.shard_down(shard)) ++out.degraded_ticks;
    }
    // Reconnect: once the carrier is up and every buffered position's
    // shard is back, the backlog flushes through server-side checking
    // before the strategy runs. (Without failover this fires exactly on
    // the outage's last tick.)
    if (st.outage_remaining == 0 && !st.buffer.empty() &&
        buffer_flushable(st)) {
      out.due.push_back(s);
    }
  }
}

void ClientLink::flush_buffer(alarms::SubscriberId s) {
  auto& st = state(s);
  for (const auto& r : st.buffer) {
    server_.handle_buffered_update(s, r.position, r.tick);
    if (config_.faulty()) {
      // The flushed report still crosses the (now restored) faulty link.
      ++st.uplink_seq;
      reliable_exchange(s, /*uplink=*/true,
                        wire::encoded_size(wire::PositionUpdate{}),
                        link_metrics_);
    }
  }
  st.buffer.clear();
}

void ClientLink::finish() {
  if (!config_.faulty() && !failover_armed_) return;
  for (std::size_t i = 0; i < states_.size(); ++i) {
    // An outage spanning the end of the run still flushes: a real client
    // delivers its backlog on eventual reconnect, and the oracle's ground
    // truth covers those ticks. (With failover, the simulation recovers
    // every still-down shard before calling finish.)
    flush_buffer(static_cast<alarms::SubscriberId>(i));
  }
}

}  // namespace salarm::net
