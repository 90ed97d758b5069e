#include "sim/metrics.h"

namespace salarm::sim {

void Metrics::merge(const Metrics& other) {
  uplink_messages += other.uplink_messages;
  uplink_bytes += other.uplink_bytes;
  downstream_region_bytes += other.downstream_region_bytes;
  downstream_notice_bytes += other.downstream_notice_bytes;
  client_checks += other.client_checks;
  client_check_ops += other.client_check_ops;
  server_alarm_ops += other.server_alarm_ops;
  server_region_ops += other.server_region_ops;
  handoff_messages += other.handoff_messages;
  handoff_bytes += other.handoff_bytes;
  alarms_installed += other.alarms_installed;
  alarms_removed += other.alarms_removed;
  invalidation_pushes += other.invalidation_pushes;
  invalidation_bytes += other.invalidation_bytes;
  net_retransmissions += other.net_retransmissions;
  net_duplicates_dropped += other.net_duplicates_dropped;
  net_ack_messages += other.net_ack_messages;
  net_ack_bytes += other.net_ack_bytes;
  net_lease_fallback_ticks += other.net_lease_fallback_ticks;
  net_buffered_reports += other.net_buffered_reports;
  net_outages += other.net_outages;
  net_delivery_latency_ms.merge(other.net_delivery_latency_ms);
  fo_crashes += other.fo_crashes;
  fo_recoveries += other.fo_recoveries;
  fo_recovery_ticks += other.fo_recovery_ticks;
  fo_checkpoints += other.fo_checkpoints;
  fo_checkpoint_bytes += other.fo_checkpoint_bytes;
  fo_journal_records += other.fo_journal_records;
  fo_journal_bytes += other.fo_journal_bytes;
  fo_journal_replays += other.fo_journal_replays;
  fo_redo_events += other.fo_redo_events;
  fo_reregistrations += other.fo_reregistrations;
  fo_reregistration_bytes += other.fo_reregistration_bytes;
  fo_grant_voids += other.fo_grant_voids;
  fo_degraded_ticks += other.fo_degraded_ticks;
  fo_buffered_reports += other.fo_buffered_reports;
  safe_region_recomputes += other.safe_region_recomputes;
  triggers += other.triggers;
  region_payload_bytes.merge(other.region_payload_bytes);
}

}  // namespace salarm::sim
