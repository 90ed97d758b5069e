#include "sim/oracle.h"

#include <algorithm>
#include <map>

#include "cluster/parallel_executor.h"
#include "common/error.h"

namespace salarm::sim {

namespace {

/// Subscribers per probe task. A constant, so the chunking — and with it
/// the merge order — never depends on the thread count.
constexpr std::size_t kGrain = 512;

/// Free fired-id slots a worker needs before it probes the next
/// subscriber. Below that it stops and the calling thread finishes the
/// chunk, so the workers never grow (allocate) a buffer.
constexpr std::size_t kHeadroom = 64;

/// One contiguous subscriber range and its per-tick probe results. The
/// buffers are sized on the calling thread; fired[i] fired for fired_by[i].
struct Chunk {
  mobility::VehicleId begin = 0;
  mobility::VehicleId end = 0;
  mobility::VehicleId next = 0;  ///< first subscriber not yet probed
  std::vector<alarms::AlarmId> fired;
  std::vector<alarms::SubscriberId> fired_by;
  std::uint64_t accesses = 0;
};

void probe_next(const alarms::AlarmStore& store,
                const std::vector<mobility::VehicleSample>& samples,
                Chunk& chunk) {
  const mobility::VehicleId v = chunk.next++;
  chunk.accesses += store.probe_position(v, samples[v].pos, chunk.fired);
  chunk.fired_by.resize(chunk.fired.size(), v);
}

}  // namespace

std::vector<alarms::TriggerEvent> ground_truth_triggers(
    mobility::PositionSource& source, alarms::AlarmStore& store,
    std::size_t ticks) {
  return ground_truth_triggers(source, store, ticks, {});
}

std::vector<alarms::TriggerEvent> ground_truth_triggers(
    mobility::PositionSource& source, alarms::AlarmStore& store,
    std::size_t ticks,
    const std::function<void(std::size_t, alarms::AlarmStore&)>&
        apply_churn) {
  store.reset_triggers();
  source.reset();
  const std::size_t vehicles = source.samples().size();

  std::vector<Chunk> chunks((vehicles + kGrain - 1) / kGrain);
  for (std::size_t i = 0; i < chunks.size(); ++i) {
    chunks[i].begin = static_cast<mobility::VehicleId>(i * kGrain);
    chunks[i].end =
        static_cast<mobility::VehicleId>(std::min(vehicles, (i + 1) * kGrain));
    chunks[i].fired.reserve(kGrain);
  }
  const std::vector<mobility::VehicleSample>* samples = nullptr;
  std::vector<std::function<void()>> tasks;
  tasks.reserve(chunks.size());
  for (Chunk& chunk : chunks) {
    tasks.emplace_back([&store, &samples, &chunk] {
      while (chunk.next < chunk.end &&
             chunk.fired.capacity() - chunk.fired.size() >= kHeadroom) {
        probe_next(store, *samples, chunk);
      }
    });
  }
  cluster::ParallelTickExecutor pool(
      std::clamp<std::size_t>(chunks.size(), 1, cluster::usable_cores()));

  std::vector<alarms::TriggerEvent> events;
  for (std::size_t t = 0; t < ticks; ++t) {
    if (t > 0) {
      source.step();
      if (apply_churn) apply_churn(t, store);
    }
    samples = &source.samples();
    SALARM_ASSERT(samples->size() == vehicles,
                  "position source changed its vehicle count");
    for (Chunk& chunk : chunks) {
      chunk.next = chunk.begin;
      chunk.fired.clear();
      chunk.fired_by.clear();
      chunk.fired_by.reserve(chunk.fired.capacity());
      chunk.accesses = 0;
    }
    // Read-only probes in parallel; the store is not mutated until every
    // task has returned.
    pool.run(tasks);
    // Ordered merge on this thread: chunk order is subscriber order, so
    // the events come out exactly as the serial loop emitted them.
    std::uint64_t accesses = 0;
    for (Chunk& chunk : chunks) {
      while (chunk.next < chunk.end) probe_next(store, *samples, chunk);
      for (std::size_t i = 0; i < chunk.fired.size(); ++i) {
        store.mark_spent(chunk.fired[i], chunk.fired_by[i]);
        events.push_back({chunk.fired[i], chunk.fired_by[i], t});
      }
      accesses += chunk.accesses;
    }
    store.add_index_node_accesses(accesses);
  }
  store.reset_triggers();
  return events;
}

AccuracyReport compare_triggers(std::vector<alarms::TriggerEvent> expected,
                                std::vector<alarms::TriggerEvent> observed) {
  AccuracyReport report;
  report.expected = expected.size();
  report.observed = observed.size();

  using Pair = std::pair<alarms::AlarmId, alarms::SubscriberId>;
  std::map<Pair, std::uint64_t> expected_ticks;
  for (const auto& e : expected) {
    expected_ticks.emplace(Pair{e.alarm, e.subscriber}, e.tick);
  }
  std::map<Pair, std::uint64_t> observed_ticks;
  for (const auto& e : observed) {
    // Triggers are one-shot: a second fire of the same pair is spurious.
    if (!observed_ticks.emplace(Pair{e.alarm, e.subscriber}, e.tick).second) {
      ++report.spurious;
    }
  }

  for (const auto& [pair, tick] : expected_ticks) {
    const auto it = observed_ticks.find(pair);
    if (it == observed_ticks.end()) {
      ++report.missed;
    } else if (it->second > tick) {
      ++report.late;
    }
  }
  for (const auto& [pair, tick] : observed_ticks) {
    if (!expected_ticks.contains(pair)) ++report.spurious;
  }
  return report;
}

}  // namespace salarm::sim
