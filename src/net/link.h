// Reliable client<->server link: the protocol endpoint the strategies
// program against (DESIGN.md §9).
//
// ClientLink interposes between the client half of a processing strategy
// and the cluster::ShardedServer (one shard on single-node runs) and runs
// the reliability protocol over a net::FaultyChannel:
//
//  * Uplink position reports carry per-session sequence numbers and are
//    ACKed; a lost report or lost ACK triggers timeout + exponential-
//    backoff retransmission until the server's ACK arrives. The server
//    suppresses duplicate deliveries by sequence number (charged at
//    sim::Server::kOpsPerDuplicateDrop each). Round trips are orders of
//    magnitude shorter than the 1 s tick, so a connected client's exchange
//    always completes within its tick.
//  * Downlink grant responses (rect / pyramid / period / alarm list) are
//    best-effort: a lost response simply leaves the client without a grant
//    (request returns nullopt), and the client re-reports next tick —
//    grants are self-healing, so retransmitting them buys nothing. All
//    four grant kinds share the one gated request(): the strategy passes
//    its sim::Server call, and the link runs it on the owning shard.
//  * Invalidation pushes are leased: the server needs the client to ACK
//    within the push's deadline. For a connected client the push is
//    retransmitted until ACKed (reliable within the tick). When the client
//    is in a burst outage the lease cannot be re-established: the client
//    conservatively voids its grant the moment the carrier drops (modelled
//    as a synthetic revoke) and buffers a position report every tick; on
//    reconnect the buffered reports are flushed through server-side
//    checking (ShardedServer::handle_buffered_update) against the alarm set
//    that was live at each report's original tick. Every uncovered tick is
//    counted as net_lease_fallback_ticks.
//
// Degraded mode (failover tier, DESIGN.md §10): once the server has
// crash-recovery armed (ShardedServer::enable_failover), a client whose
// owning shard crashes voids its grant the moment the crash happens (the
// lease cannot be renewed — same synthetic-revoke mechanism as a carrier
// loss) and falls back to buffering its reports while the shard is down.
// The buffer flushes through handle_buffered_update once every buffered
// position's shard is back up, so mid-crash triggers fire at their true
// tick; while any report is still buffered, newer reports keep buffering
// too — flushing out of order could fire a border alarm at the wrong tick.
//
// With the all-zero ChannelConfig (the default) the protocol is a provable
// no-op, so the link is a pure pass-through: zero Rng draws, zero extra
// metrics, bit-identical accounting to calling the server directly.
// Arming failover over a perfect channel keeps that property: no channel
// draws ever happen; the link only reads the server's shard-down flags.
//
// Threading (sharded runs): per-subscriber protocol state is only ever
// touched by the shard task processing that subscriber's tick, or in the
// channel phase (begin_tick) by the chunk task holding that subscriber.
// begin_tick advances the outage and degraded-mode machines and decides
// which buffers flush in fixed subscriber chunks on the shared pool; each
// chunk touches only its subscribers' state and fault streams and counts
// into its own tally. The caller then adds the tallies and runs the
// flushes, which write shard state and the link's latency statistic,
// serially in subscriber order. So the link needs no locks and results are
// bit-identical at any thread count.
#pragma once

#include <cstdint>
#include <optional>
#include <span>
#include <type_traits>
#include <vector>

#include "cluster/sharded_server.h"
#include "mobility/trace.h"
#include "net/channel.h"

namespace salarm::net {

/// Client-side endpoint of the reliable link; one instance per run, shared
/// by all subscribers (state is per-subscriber internally, sized to the
/// server's subscriber count).
class ClientLink {
 public:
  ClientLink(cluster::ShardedServer& server, const ChannelConfig& config,
             std::uint64_t seed);
  /// Per-tick channel phase: advances outage state machines, injects
  /// synthetic revokes when a carrier drops or the subscriber's shard
  /// crashes (failover), and flushes buffered reports through the server
  /// once the client is connected and every buffered position's shard is
  /// up. Must run after crash/recovery and alarm churn are applied and
  /// before any strategy processes the tick; it reads the server's
  /// shard-down flags as that serial phase left them. `samples` carries
  /// each subscriber's current position (indexed by subscriber id);
  /// required when the server has failover armed, may be empty otherwise.
  /// The machines run in kChannelChunk-subscriber chunks on at most
  /// `threads` threads (ParallelTickExecutor::run); the flushes run on the
  /// caller. Results are bit-identical for any `threads`.
  void begin_tick(std::uint64_t tick,
                  std::span<const mobility::VehicleSample> samples,
                  std::size_t threads = 1);

  /// Serial end-of-run bookkeeping: flushes reports still buffered by
  /// clients whose outage spans the end of the run, so no trigger is lost.
  void finish();

  /// Reliable position report. Connected: runs the sequence/ACK/
  /// retransmission exchange and returns the alarms fired. In outage:
  /// buffers (position, tick) for the reconnect flush and returns none.
  std::vector<alarms::AlarmId> report(alarms::SubscriberId s,
                                      geo::Point position, std::uint64_t tick);

  /// Best-effort grant request: `call(server)` runs one sim::Server grant
  /// call on the shard owning `position`. The gate is degraded mode, then
  /// channel outage, then the call, then downlink loss of its response;
  /// any of them but the call yields nullopt. A client holding no grant
  /// reports every tick, which is always sound. On a perfect channel
  /// without failover it is exactly the call.
  template <typename Fn>
  auto request(alarms::SubscriberId s, geo::Point position, Fn&& call)
      -> std::optional<std::invoke_result_t<Fn&, sim::Server&>> {
    const SubscriberState& st = state(s);
    if (degraded(st, position)) return std::nullopt;
    if (config_.faulty() && st.outage_remaining > 0) return std::nullopt;
    // The request piggybacks on the report the client just delivered
    // reliably; only the best-effort response can be lost in flight.
    std::optional<std::invoke_result_t<Fn&, sim::Server&>> response =
        call(server_.contact(s, position));
    if (config_.faulty() && channel_.lose_downlink(s)) return std::nullopt;
    return response;
  }

  /// Invalidation delivery. Connected: drains the server mailbox and runs
  /// the reliable push/ACK exchange per push. In outage: the server's
  /// pushes stay queued (they cannot reach the client) and only the
  /// synthetic carrier-loss revoke is delivered.
  std::vector<dynamics::InvalidationPush> take_invalidations(
      alarms::SubscriberId s);

  const grid::GridOverlay& grid() const { return server_.grid(); }
  std::size_t subscriber_count() const { return states_.size(); }
  /// Metrics object for client-side work of the subscriber currently being
  /// processed (forwards to the server, i.e. per-shard on sharded runs).
  sim::Metrics& metrics() { return server_.metrics(); }

  /// Protocol overhead charged in the serial phases (outage bookkeeping,
  /// reconnect flushes); merged into the run result by sim::Simulation.
  const sim::Metrics& link_metrics() const { return link_metrics_; }

  bool faulty() const { return config_.faulty(); }
  /// Test introspection: whether the subscriber is currently disconnected.
  bool in_outage(alarms::SubscriberId s) const;
  /// Test introspection: next uplink sequence number of the subscriber.
  std::uint32_t uplink_seq(alarms::SubscriberId s) const;
  /// Test introspection: the backoff waits (ms) of the subscriber's most
  /// recent reliable exchange, one entry per retransmitted round. Lives in
  /// per-subscriber state so parallel shard tasks never share it.
  const std::vector<double>& last_exchange_backoffs(
      alarms::SubscriberId s) const {
    return state(s).last_backoffs;
  }

  /// Smallest original tick still buffered by any subscriber, or `tick`
  /// when nothing is buffered — the watermark below which removal-
  /// graveyard tombs can no longer be observed (Server::compact_graveyard).
  std::uint64_t min_pending_stamp(std::uint64_t tick) const;

 private:
  struct BufferedReport {
    geo::Point position;
    std::uint64_t tick = 0;
  };
  struct SubscriberState {
    std::uint32_t uplink_seq = 0;      ///< next report sequence number
    std::uint64_t outage_remaining = 0;  ///< ticks of outage left (0 = up)
    std::vector<BufferedReport> buffer;  ///< reports pending reconnect flush
    std::vector<dynamics::InvalidationPush> pending_synthetic;
    std::vector<double> last_backoffs;   ///< waits of the latest exchange
  };

  SubscriberState& state(alarms::SubscriberId s);
  const SubscriberState& state(alarms::SubscriberId s) const;

  /// Runs one reliable exchange (message + ACK with retransmission) and
  /// charges its overhead to `m`: retransmitted payload bytes, ACK
  /// traffic, duplicate suppressions and the delivery-latency sample.
  /// Returns the number of transmission attempts (1 on a clean exchange).
  std::uint64_t reliable_exchange(alarms::SubscriberId s, bool uplink,
                                  std::size_t payload_bytes, sim::Metrics& m);

  /// Flushes a subscriber's buffered reports through server-side checking
  /// at reconnect (or end of run). Serial phase only.
  void flush_buffer(alarms::SubscriberId s);

  /// Whether the subscriber's buffer may flush this tick: every buffered
  /// position's owning shard must be up (always true without failover).
  bool buffer_flushable(const SubscriberState& st) const;

  /// Subscribers per channel-phase chunk: fixed, so the chunking never
  /// depends on the thread count.
  static constexpr std::size_t kChannelChunk = 128;

  /// One chunk's share of the channel phase: its counter deltas and the
  /// subscribers whose buffers flush this tick, in subscriber order. The
  /// chunk's thread writes it, so it takes a cache line of its own.
  struct alignas(64) ChunkTally {
    std::uint64_t lease_fallback_ticks = 0;
    std::uint64_t outages = 0;
    std::uint64_t grant_voids = 0;
    std::uint64_t degraded_ticks = 0;
    std::vector<alarms::SubscriberId> due;
  };

  /// Advances the outage and degraded-mode machines of chunk `c`'s
  /// subscribers and lists those due to flush. Runs on the pool.
  void advance_chunk(std::size_t c);

  /// Degraded mode: true when failover is armed and either the shard
  /// owning `position` is down or older reports are still buffered
  /// (report ordering discipline).
  bool degraded(const SubscriberState& st, geo::Point position) const;

  cluster::ShardedServer& server_;
  ChannelConfig config_;
  FaultyChannel channel_;
  std::vector<SubscriberState> states_;
  sim::Metrics link_metrics_;

  /// server_.failover_armed(), read at construction and by every
  /// begin_tick, so the pass-through checks stay one member read.
  bool failover_armed_ = false;

  // Channel-phase state, written by begin_tick and read by its chunks.
  std::uint64_t tick_ = 0;
  bool tick_faulty_ = false;
  bool tick_any_down_ = false;  // some shard is down this tick
  std::span<const mobility::VehicleSample> tick_samples_;
  std::vector<ChunkTally> tallies_;  // per chunk
};

}  // namespace salarm::net
