// Deterministic cost models converting counted events into the units the
// paper reports.
//
// The paper measures wall-clock server minutes, milliwatt-hours of client
// energy and Mbps of downstream bandwidth on the authors' testbed. Absolute
// values are not reproducible, but every comparative claim is driven by the
// event counts themselves; these models apply fixed, documented constants
// so the benches are deterministic and machine-independent (DESIGN.md §5).
//
// Constant rationale:
//  * Client energy — the paper's metric is the energy "used to determine
//    client position within the safe region" (§5.2, Figure 5(b)), i.e. the
//    containment-determination work only; we charge 5 uWh per elementary
//    containment operation (a periodically woken CPU/GPS duty cycle, not a
//    single ALU op). Radio energy is modeled separately (uplink 0.1 mWh
//    per message, ~sub-joule 3G transmission; receive 1 uWh/KB).
//  * Server time — a commodity 2009-era server core sustains on the order
//    of 10 million indexed-node/geometry operations per second; we charge
//    each counted operation 0.1 us.
#pragma once

#include <algorithm>

#include "sim/metrics.h"

namespace salarm::sim {

/// The constants are fixed, not configurable: every bench and every
/// comparison across runs prices events at the same rates.
struct CostModel {
  /// mWh per client->server transmission.
  static constexpr double tx_mwh_per_message = 0.1;
  /// mWh per elementary client containment operation.
  static constexpr double check_mwh_per_op = 5e-3;
  /// mWh per received downstream byte.
  static constexpr double rx_mwh_per_byte = 1e-6;
  /// Server seconds per counted elementary operation.
  static constexpr double server_seconds_per_op = 1e-7;
  /// Server seconds per durable byte written (checkpoint + journal):
  /// ~100 MB/s sequential append/fsync budget on 2009-era disks.
  static constexpr double server_seconds_per_durable_byte = 1e-8;
  /// Server seconds per record applied at recovery (journal replay, redo
  /// ledger, deferred churn): decode plus one index update, heavier than
  /// an elementary op.
  static constexpr double server_seconds_per_replayed_record = 1e-6;

  /// Client energy spent determining the position against the safe region,
  /// in mWh — the paper's client-energy metric (Figures 5(b), 6(c)).
  double client_energy_mwh(const Metrics& m) const {
    return check_mwh_per_op * static_cast<double>(m.client_check_ops);
  }

  /// Client radio energy (transmissions + received safe-region payloads +
  /// invalidation pushes + reliability-protocol ACKs), reported alongside
  /// but not part of the paper's figures. Retransmissions are already
  /// folded into uplink_messages / invalidation_bytes by net::ClientLink,
  /// so a lossy channel inflates this figure as it should; ACKs the client
  /// receives are priced per byte (ACKs it *sends* piggyback on the radio
  /// session of the message they acknowledge, so they carry no extra
  /// per-message transmit surcharge).
  double client_radio_mwh(const Metrics& m) const {
    return tx_mwh_per_message * static_cast<double>(m.uplink_messages) +
           rx_mwh_per_byte * static_cast<double>(m.downstream_region_bytes +
                                                 m.downstream_notice_bytes +
                                                 m.invalidation_bytes +
                                                 m.net_ack_bytes);
  }

  /// Radio energy attributable to the fault-tolerance machinery alone, in
  /// mWh: payload retransmissions plus ACK reception. Zero on a perfect
  /// channel — the protocol is free when nothing is lost.
  double net_overhead_mwh(const Metrics& m) const {
    return tx_mwh_per_message * static_cast<double>(m.net_retransmissions) +
           rx_mwh_per_byte * static_cast<double>(m.net_ack_bytes);
  }

  /// Downstream safe-region bandwidth in Mbps over the simulated duration
  /// (Figure 6(b)).
  double downstream_mbps(const Metrics& m, double duration_s) const {
    return static_cast<double>(m.downstream_region_bytes) * 8.0 /
           (duration_s * 1e6);
  }

  /// Modeled server time spent on alarm processing, in minutes.
  double server_alarm_minutes(const Metrics& m) const {
    return static_cast<double>(m.server_alarm_ops) * server_seconds_per_op /
           60.0;
  }

  /// Modeled server time spent on safe region / safe period computation,
  /// in minutes.
  double server_region_minutes(const Metrics& m) const {
    return static_cast<double>(m.server_region_ops) * server_seconds_per_op /
           60.0;
  }

  double server_total_minutes(const Metrics& m) const {
    return server_alarm_minutes(m) + server_region_minutes(m);
  }

  // ---- Failover tier (DESIGN.md §10; all zero on immortal runs) ----

  /// Modeled server time spent writing durable state (periodic checkpoints
  /// plus journal appends), in minutes — the steady-state price of being
  /// recoverable, paid even when nothing ever crashes.
  double durability_server_minutes(const Metrics& m) const {
    return static_cast<double>(m.fo_checkpoint_bytes + m.fo_journal_bytes) *
           server_seconds_per_durable_byte / 60.0;
  }

  /// Modeled server time spent recovering crashed shards (checkpoint
  /// reload at the durable-byte rate, plus journal/redo/deferred records
  /// re-applied), in minutes.
  double recovery_server_minutes(const Metrics& m) const {
    const double records =
        static_cast<double>(m.fo_journal_replays + m.fo_redo_events);
    return (static_cast<double>(m.fo_checkpoint_bytes) / std::max(
                static_cast<double>(m.fo_checkpoints), 1.0) *
                static_cast<double>(m.fo_recoveries) *
                server_seconds_per_durable_byte +
            records * server_seconds_per_replayed_record) /
           60.0;
  }

  /// Client radio energy attributable to crash-recovery alone, in mWh:
  /// journal-less re-registration uplinks (priced like any transmission,
  /// with their session payload received back as bytes) plus the buffered
  /// reports flushed after recovery (each one a deferred transmission).
  double failover_overhead_mwh(const Metrics& m) const {
    return tx_mwh_per_message * static_cast<double>(m.fo_reregistrations +
                                                    m.fo_buffered_reports) +
           rx_mwh_per_byte * static_cast<double>(m.fo_reregistration_bytes);
  }
};

}  // namespace salarm::sim
