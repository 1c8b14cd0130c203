#include "wmcast/setcover/reduction.hpp"

#include <algorithm>
#include <utility>
#include <vector>

#include "wmcast/util/assert.hpp"

namespace wmcast::setcover {

SetSystem build_set_system(const wlan::Scenario& sc, bool multi_rate) {
  std::vector<CandidateSet> sets;

  // (rate, user) pairs for one (ap, session), sorted by descending rate.
  std::vector<std::pair<double, int>> requesters;

  for (int a = 0; a < sc.n_aps(); ++a) {
    for (int s = 0; s < sc.n_sessions(); ++s) {
      requesters.clear();
      const auto members_of_a = sc.users_of_ap(a);
      const wlan::RateSpan rates_of_a = sc.rates_of_ap(a);
      for (size_t i = 0; i < members_of_a.size(); ++i) {
        const int u = members_of_a[i];
        if (sc.user_session(u) == s) requesters.emplace_back(rates_of_a[i], u);
      }
      if (requesters.empty()) continue;

      if (!multi_rate) {
        // Single candidate: everyone in range, served at the basic rate.
        CandidateSet cs;
        cs.members = util::DynBitset(sc.n_users());
        for (const auto& [r, u] : requesters) cs.members.set(u);
        cs.tx_rate = sc.basic_rate();
        cs.cost = sc.session_rate(s) / cs.tx_rate;
        cs.group = cs.ap = a;
        cs.session = s;
        sets.push_back(std::move(cs));
        continue;
      }

      std::sort(requesters.begin(), requesters.end(),
                [](const auto& x, const auto& y) { return x.first > y.first; });

      // One candidate per distinct occurring rate; members accumulate as the
      // rate drops. Equal consecutive rates extend the same candidate.
      util::DynBitset members(sc.n_users());
      size_t i = 0;
      while (i < requesters.size()) {
        const double rate = requesters[i].first;
        while (i < requesters.size() && requesters[i].first == rate) {
          members.set(requesters[i].second);
          ++i;
        }
        CandidateSet cs;
        cs.members = members;
        cs.tx_rate = rate;
        cs.cost = sc.session_rate(s) / rate;
        cs.group = cs.ap = a;
        cs.session = s;
        sets.push_back(std::move(cs));
      }
    }
  }
  return SetSystem(sc.n_users(), sc.n_aps(), std::move(sets));
}

void build_engine(const wlan::Scenario& sc, bool multi_rate, core::CoverageEngine& eng) {
  eng.reset(sc.n_users(), sc.n_aps());
  // One pass over an AP's link row buckets its requesters by (session, rate
  // level); with multi_rate off every link shares one bucket per session.
  // Rows list users by ascending id, so every bucket is ascending too, and
  // emitting a session's levels from the highest rate down gives exactly the
  // (rate desc, id asc) member order with no sort.
  const std::vector<double>& levels = sc.rate_levels();
  const size_t n_levels = multi_rate ? levels.size() : 1;
  std::vector<std::vector<int32_t>> bucket(static_cast<size_t>(sc.n_sessions()) * n_levels);
  std::vector<int> n_req(static_cast<size_t>(sc.n_sessions()), 0);
  std::vector<int32_t> members;

  for (int a = 0; a < sc.n_aps(); ++a) {
    const auto users = sc.users_of_ap(a);
    const wlan::RateSpan rates = sc.rates_of_ap(a);
    for (size_t i = 0; i < users.size(); ++i) {
      const auto s = static_cast<size_t>(sc.user_session(users[i]));
      const size_t level = multi_rate ? static_cast<size_t>(rates.level(i)) : 0;
      bucket[s * n_levels + level].push_back(users[i]);
      ++n_req[s];
    }

    for (int s = 0; s < sc.n_sessions(); ++s) {
      if (n_req[static_cast<size_t>(s)] == 0) continue;
      n_req[static_cast<size_t>(s)] = 0;
      const double stream = sc.session_rate(s);
      members.clear();
      for (size_t level = n_levels; level-- > 0;) {
        auto& b = bucket[static_cast<size_t>(s) * n_levels + level];
        if (b.empty()) continue;
        members.insert(members.end(), b.begin(), b.end());
        b.clear();
        const double rate = multi_rate ? levels[level] : sc.basic_rate();
        eng.add_set(a, s, rate, stream / rate, members);
      }
    }
  }
  eng.finish();
}

}  // namespace wmcast::setcover
