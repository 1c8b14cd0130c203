#include "wmcast/setcover/reduction.hpp"

#include <algorithm>
#include <numeric>
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
      const double* rates_of_a = sc.rates_of_ap(a);
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
  // (rate, user) requesters of one AP, bucketed by session in one pass over
  // the AP's link row (one walk per session would cost O(degree x sessions)).
  // Rows list users by ascending id, so every bucket, and every rate level
  // below, is ascending too.
  std::vector<std::vector<std::pair<double, int>>> by_session(
      static_cast<size_t>(sc.n_sessions()));
  std::vector<int32_t> members;
  std::vector<double> level_rate;
  std::vector<std::vector<int32_t>> level_members;
  std::vector<int> order;

  for (int a = 0; a < sc.n_aps(); ++a) {
    for (auto& req : by_session) req.clear();
    const auto users = sc.users_of_ap(a);
    const double* rates = sc.rates_of_ap(a);
    for (size_t i = 0; i < users.size(); ++i) {
      by_session[static_cast<size_t>(sc.user_session(users[i]))].emplace_back(rates[i],
                                                                             users[i]);
    }

    for (int s = 0; s < sc.n_sessions(); ++s) {
      auto& req = by_session[static_cast<size_t>(s)];
      if (req.empty()) continue;
      const double stream = sc.session_rate(s);
      members.clear();
      if (!multi_rate) {
        for (const auto& [r, u] : req) members.push_back(u);
        eng.add_set(a, s, sc.basic_rate(), stream / sc.basic_rate(), members);
        continue;
      }
      // Bucket by distinct rate level instead of sorting the row: rates come
      // from a small discrete PHY table, so one linear pass with a short
      // linear probe over the levels seen so far replaces the O(d log d)
      // pair sort. Emitting the levels by descending rate gives exactly the
      // (rate desc, id asc) sorted order. Rows with more distinct rates than
      // the cap fall back to the sort.
      constexpr size_t kMaxRateLevels = 64;
      level_rate.clear();
      bool bucketed = true;
      for (const auto& [r, u] : req) {
        size_t li = 0;
        while (li < level_rate.size() && level_rate[li] != r) ++li;
        if (li == level_rate.size()) {
          if (li == kMaxRateLevels) {
            bucketed = false;
            break;
          }
          level_rate.push_back(r);
          if (level_members.size() <= li) level_members.emplace_back();
          level_members[li].clear();
        }
        level_members[li].push_back(u);
      }
      if (bucketed) {
        order.resize(level_rate.size());
        std::iota(order.begin(), order.end(), 0);
        // Rates within one row are distinct, so `>` is a total order.
        std::sort(order.begin(), order.end(), [&](int x, int y) {
          return level_rate[static_cast<size_t>(x)] > level_rate[static_cast<size_t>(y)];
        });
        for (const int li : order) {
          const auto& m = level_members[static_cast<size_t>(li)];
          members.insert(members.end(), m.begin(), m.end());
          const double rate = level_rate[static_cast<size_t>(li)];
          eng.add_set(a, s, rate, stream / rate, members);
        }
        continue;
      }
      std::sort(req.begin(), req.end(), [](const auto& x, const auto& y) {
        return x.first != y.first ? x.first > y.first : x.second < y.second;
      });
      size_t i = 0;
      while (i < req.size()) {
        const double rate = req[i].first;
        while (i < req.size() && req[i].first == rate) members.push_back(req[i++].second);
        eng.add_set(a, s, rate, stream / rate, members);
      }
    }
  }
  eng.finish();
}

}  // namespace wmcast::setcover
