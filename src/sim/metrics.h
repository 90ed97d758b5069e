// Metrics collected by a simulation run.
//
// Every quantity the paper's evaluation reports (Figures 4-6) is derived
// from these counted events; the CostModel (cost_model.h) performs the
// unit conversions. Counters are raw and strategy-agnostic so runs of
// different strategies are directly comparable.
#pragma once

#include <cstdint>

#include "common/stats.h"

namespace salarm::sim {

struct Metrics {
  // ---- Communication ----
  /// Client-to-server position reports (the paper's "number of client-to-
  /// server messages", Figures 4(a), 5(a), 6(a)).
  std::uint64_t uplink_messages = 0;
  std::uint64_t uplink_bytes = 0;
  /// Server-to-client safe region / alarm push / safe period payload bytes
  /// (Figure 6(b)'s downstream bandwidth).
  std::uint64_t downstream_region_bytes = 0;
  /// Trigger notification bytes, tracked separately: identical across
  /// strategies for identical trigger sets, and excluded from the paper's
  /// bandwidth comparison.
  std::uint64_t downstream_notice_bytes = 0;

  // ---- Client-side work (energy model inputs, Figures 5(b), 6(c)) ----
  /// Number of client containment checks performed.
  std::uint64_t client_checks = 0;
  /// Elementary operations across those checks (rect test = 1, pyramid
  /// descent = levels visited, OPT scan = alarms examined).
  std::uint64_t client_check_ops = 0;

  // ---- Server-side work (Figures 4(b), 6(d)) ----
  /// R*-tree node accesses attributable to alarm processing of position
  /// reports.
  std::uint64_t server_alarm_ops = 0;
  /// Elementary operations of safe region / safe period computation
  /// (candidate processing, cell-alarm intersection tests, NN node
  /// accesses).
  std::uint64_t server_region_ops = 0;

  // ---- Cluster tier (inter-shard traffic; zero on one-shard runs) ----
  /// Subscriber session handoffs between spatial shards: emitted when a
  /// subscriber's first contact after crossing a shard boundary transfers
  /// its session (including globally spent alarms) to the new owner.
  /// Charged to the receiving shard (see cluster/sharded_server.h).
  std::uint64_t handoff_messages = 0;
  std::uint64_t handoff_bytes = 0;

  // ---- Dynamics tier (alarm churn; zero on static runs) ----
  /// Online alarm installs / removals (random removals + TTL expiries)
  /// applied during the run.
  std::uint64_t alarms_installed = 0;
  std::uint64_t alarms_removed = 0;
  /// Server-push grant invalidations (DESIGN.md §8): revoke, shrink and
  /// alarm-add pushes sent when an install intersects outstanding grants,
  /// and their wire bytes (priced like downstream region traffic).
  std::uint64_t invalidation_pushes = 0;
  std::uint64_t invalidation_bytes = 0;

  // ---- Net tier (unreliable channel; zero on perfect-channel runs) ----
  /// Payload retransmissions of the reliability protocol (reports and
  /// invalidation pushes re-sent after a lost copy or lost ACK). The
  /// retransmitted payload bytes are *also* added to the uplink /
  /// invalidation byte counters so bandwidth and energy stay honest.
  std::uint64_t net_retransmissions = 0;
  /// Received copies suppressed by the sequence-number window (network
  /// duplicates and retransmitted copies whose original also arrived).
  std::uint64_t net_duplicates_dropped = 0;
  /// Reliability-protocol ACK traffic, counted apart from uplink_messages
  /// so the paper's message figures stay comparable across strategies.
  std::uint64_t net_ack_messages = 0;
  std::uint64_t net_ack_bytes = 0;
  /// Ticks a subscriber spent with its lease down (burst outage): grants
  /// voided, reports buffered for server-side checking at reconnect.
  std::uint64_t net_lease_fallback_ticks = 0;
  /// Position samples buffered during outages and flushed at reconnect.
  std::uint64_t net_buffered_reports = 0;
  /// Burst outages started.
  std::uint64_t net_outages = 0;
  /// Per-exchange delivery latency (ms): backoff waits plus one-way flight.
  RunningStat net_delivery_latency_ms;

  // ---- Failover tier (shard crash-recovery; zero on immortal runs) ----
  /// Shard crashes injected and recoveries completed.
  std::uint64_t fo_crashes = 0;
  std::uint64_t fo_recoveries = 0;
  /// Shard-ticks of downtime across all crashes (crash tick to recovery).
  std::uint64_t fo_recovery_ticks = 0;
  /// Periodic durable checkpoints written and their encoded bytes.
  std::uint64_t fo_checkpoints = 0;
  std::uint64_t fo_checkpoint_bytes = 0;
  /// Append-only journal records written and their encoded bytes.
  std::uint64_t fo_journal_records = 0;
  std::uint64_t fo_journal_bytes = 0;
  /// Journal records replayed at recoveries (journal mode).
  std::uint64_t fo_journal_replays = 0;
  /// Upstream churn-ledger events redone at recoveries (journal-less
  /// mode), plus downtime churn applied after recovery in either mode.
  std::uint64_t fo_redo_events = 0;
  /// Client re-registrations rebuilding session state after a journal-less
  /// recovery, and their message bytes.
  std::uint64_t fo_reregistrations = 0;
  std::uint64_t fo_reregistration_bytes = 0;
  /// Client-side degraded mode: grants voided when the owning shard
  /// crashed, subscriber-ticks spent over a down shard, and position
  /// reports buffered for post-recovery server-side checking.
  std::uint64_t fo_grant_voids = 0;
  std::uint64_t fo_degraded_ticks = 0;
  std::uint64_t fo_buffered_reports = 0;

  // ---- Outcomes ----
  std::uint64_t safe_region_recomputes = 0;
  std::uint64_t triggers = 0;

  /// Distribution of safe-region payload sizes (bytes) across recomputes.
  RunningStat region_payload_bytes;

  void merge(const Metrics& other);
  bool operator==(const Metrics&) const = default;
};

}  // namespace salarm::sim
