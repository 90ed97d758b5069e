#include "dynamics/session_index.h"

#include <algorithm>

#include "common/error.h"

namespace salarm::dynamics {

void SessionIndex::record(alarms::SubscriberId s, GrantKind kind,
                          const geo::Rect& bounds) {
  auto it = grants_.find(s);
  if (it != grants_.end()) {
    const bool erased = tree_.erase({it->second.bounds, s});
    SALARM_ASSERT(erased, "grant without tree entry");
    it->second = Grant{kind, bounds};
  } else {
    grants_.emplace(s, Grant{kind, bounds});
  }
  tree_.insert({bounds, s});
}

bool SessionIndex::clear(alarms::SubscriberId s) {
  auto it = grants_.find(s);
  if (it == grants_.end()) return false;
  const bool erased = tree_.erase({it->second.bounds, s});
  SALARM_ASSERT(erased, "grant without tree entry");
  grants_.erase(it);
  return true;
}

const SessionIndex::Grant* SessionIndex::lookup(alarms::SubscriberId s) const {
  auto it = grants_.find(s);
  return it == grants_.end() ? nullptr : &it->second;
}

std::vector<std::pair<alarms::SubscriberId, SessionIndex::Grant>>
SessionIndex::snapshot() const {
  std::vector<std::pair<alarms::SubscriberId, Grant>> entries(grants_.begin(),
                                                              grants_.end());
  // The map iterates in hash order; checkpoints must be byte-identical
  // across runs and thread counts, so sort by subscriber.
  std::sort(entries.begin(), entries.end(),
            [](const auto& a, const auto& b) { return a.first < b.first; });
  return entries;
}

void SessionIndex::visit_intersecting(const geo::Rect& window,
                                      GrantVisitor fn) const {
  tree_.visit(window, [&](const index::Entry& entry) {
    const auto s = static_cast<alarms::SubscriberId>(entry.id);
    auto it = grants_.find(s);
    SALARM_ASSERT(it != grants_.end(), "tree entry without grant");
    return fn(s, it->second);
  });
}

}  // namespace salarm::dynamics
