#include "wmcast/ctrl/controller.hpp"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <map>
#include <optional>

#include "wmcast/assoc/local_search.hpp"
#include "wmcast/assoc/registry.hpp"
#include "wmcast/util/assert.hpp"
#include "wmcast/util/fp.hpp"

namespace wmcast::ctrl {

namespace {

double seconds_since(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0).count();
}

}  // namespace

AssociationController::AssociationController(const wlan::Scenario& initial,
                                             ControllerConfig cfg)
    : cfg_(std::move(cfg)),
      state_(NetworkState::from_scenario(initial)),
      compact_sc_(initial),
      rng_(cfg_.seed),
      pool_(util::ThreadPool::resolve_threads(cfg_.threads)) {
  util::require(assoc::is_algorithm(cfg_.full_solver),
                "AssociationController: unknown full solver '" + cfg_.full_solver + "'");
  util::require(cfg_.degradation_threshold >= 0.0,
                "AssociationController: negative degradation threshold");
  util::require(cfg_.k >= 1, "AssociationController: k must be >= 1");
  compact_sc_ = state_.to_scenario(&row_slot_);
  const auto sol = solve_full(compact_sc_);
  slot_ap_ = slot_association(sol.assoc, row_slot_, state_.n_slots());
  loads_ = sol.loads;
  baseline_load_ = sol.loads.total_load;
  tele_.baseline_refreshes.inc();
  tele_.users_present.set(state_.n_slots());
  tele_.users_subscribed.set(state_.n_active());
  tele_.users_served.set(loads_.satisfied_users);
  tele_.total_load.set(loads_.total_load);
  tele_.max_load.set(loads_.max_load);
  tele_.baseline_load.set(baseline_load_);
  refresh_multi(nullptr);
}

void AssociationController::kconn_mark_dirty(const NetworkState& next,
                                             const std::vector<int>& new_slot_ap) {
  if (cfg_.k < 2) return;
  // Clear the previous epoch's marks (O(previous dirt), never O(network)).
  for (const int a : kconn_dirty_aps_) kconn_ap_mark_[static_cast<size_t>(a)] = 0;
  kconn_dirty_aps_.clear();
  for (const int s : kconn_dirty_slots_) kconn_slot_mark_[static_cast<size_t>(s)] = 0;
  kconn_dirty_slots_.clear();
  kconn_settle_hint_.clear();
  for (const int a : kconn_rescan_aps_) kconn_rescan_mark_[static_cast<size_t>(a)] = 0;
  kconn_rescan_aps_.clear();
  kconn_rate_changed_ = false;
  if (!multi_valid_) return;  // nothing to repair; the first derivation is cold

  for (int t = 0; t < next.n_sessions(); ++t) {
    if (t >= state_.n_sessions() || next.session_rate(t) != state_.session_rate(t)) {
      // Stream rates feed every plan row's budget estimate and every load
      // fold; no local region bounds the effect. Rebuild cold.
      kconn_rate_changed_ = true;
      return;
    }
  }

  if (kconn_ap_mark_.size() < static_cast<size_t>(next.n_aps())) {
    kconn_ap_mark_.resize(static_cast<size_t>(next.n_aps()), 0);
  }
  if (kconn_slot_mark_.size() < static_cast<size_t>(next.n_slots())) {
    kconn_slot_mark_.resize(static_cast<size_t>(next.n_slots()), 0);
  }
  if (kconn_rescan_mark_.size() < static_cast<size_t>(next.n_aps())) {
    kconn_rescan_mark_.resize(static_cast<size_t>(next.n_aps()), 0);
  }
  const auto mark_ap = [&](int a) {
    if (!kconn_ap_mark_[static_cast<size_t>(a)]) {
      kconn_ap_mark_[static_cast<size_t>(a)] = 1;
      kconn_dirty_aps_.push_back(a);
    }
  };
  const auto mark_slot = [&](int s) {
    if (!kconn_slot_mark_[static_cast<size_t>(s)]) {
      kconn_slot_mark_[static_cast<size_t>(s)] = 1;
      kconn_dirty_slots_.push_back(s);
    }
  };

  // Persistent pmin maintenance (kconn_plan_.pmin/pcount are valid here
  // because multi_valid_ holds and session/AP counts are epoch-stable). A
  // hearer ARRIVING in the (a, session) adopter pool can only lower the min —
  // an exact O(1) fold. A hearer DEPARTING can only raise it, and only if it
  // was the LAST member sitting at the min (802.11 rates are coarsely
  // quantized, so the min is usually shared — pcount tracks the tie), in
  // which case the row is queued for a full rescan at refresh time (after
  // commit, against the new projection). Everything else is an O(1) no-op.
  // This is what lets the incremental path re-plan a dirty AP in O(sessions)
  // instead of re-scanning its ~membership-sized CSR row.
  const auto mark_rescan = [&](int a) {
    if (!kconn_rescan_mark_[static_cast<size_t>(a)]) {
      kconn_rescan_mark_[static_cast<size_t>(a)] = 1;
      kconn_rescan_aps_.push_back(a);
    }
  };
  const auto pool_departure = [&](int a, int sess, double r) {
    const size_t at = kconn_plan_.at(a, sess);
    if (r == kconn_plan_.pmin[at]) {
      if (--kconn_plan_.pcount[at] == 0) mark_rescan(a);
    }
  };
  const auto pool_arrival = [&](int a, int sess, double r) {
    const size_t at = kconn_plan_.at(a, sess);
    double& pm = kconn_plan_.pmin[at];
    if (r < pm) {
      pm = r;
      kconn_plan_.pcount[at] = 1;
    } else if (r == pm) {
      ++kconn_plan_.pcount[at];
    }
  };

  std::vector<std::pair<int, double>> old_links;  // (ap, rate) before a move
  for (int s = 0; s < next.n_slots(); ++s) {
    const UserSlot before = s < state_.n_slots() ? state_.slot(s) : UserSlot{};
    const UserSlot& after = next.slot(s);
    const int old_ap = static_cast<size_t>(s) < slot_ap_.size()
                           ? slot_ap_[static_cast<size_t>(s)]
                           : wlan::kNoAp;
    const int new_ap = static_cast<size_t>(s) < new_slot_ap.size()
                           ? new_slot_ap[static_cast<size_t>(s)]
                           : wlan::kNoAp;
    // Pool membership = base-served: the slot contributes to the
    // potential-adopter min of every heard AP iff it is served in the base.
    const bool old_pool = before.wants_service() && old_ap != wlan::kNoAp;
    const bool new_pool = after.wants_service() && new_ap != wlan::kNoAp;
    if (!(before == after)) {
      // Invisible on both sides (e.g. a rejected admission, or a join+leave
      // coalescing to nothing): the projection never sees the slot, so the
      // overlay cannot depend on it. No dirt — this is what keeps
      // quiescent-equivalent epochs on the cached overlay.
      if (!before.wants_service() && !after.wants_service()) continue;
      mark_slot(s);
      if (old_ap != wlan::kNoAp) kconn_settle_hint_.push_back(old_ap);
      if (new_ap != wlan::kNoAp && new_ap != old_ap) {
        kconn_settle_hint_.push_back(new_ap);
      }
      const bool pure_move = old_pool && new_pool &&
                             before.session == after.session;
      if (pure_move) {
        // A relocation of a user that stays subscribed to the same session
        // and base-served only moves an AP's plan inputs where the DISCRETE
        // link rate to the user changed: equal rates contribute identically
        // to the potential-adopter mins. 802.11 rates are distance-quantized,
        // so a short walk usually leaves most heard APs' rates — and hence
        // their plans — untouched. This is what keeps a move's blast radius
        // small.
        const int sess = before.session;
        old_links.clear();
        state_.for_each_ap_near(before.pos, [&](int a) {
          const double r = state_.link_rate(a, s);
          if (r > 0.0) old_links.emplace_back(a, r);
        });
        next.for_each_ap_near(after.pos, [&](int a) {
          const double rn = next.link_rate(a, s);
          if (rn <= 0.0) return;
          for (auto& [oa, orate] : old_links) {
            if (oa == a) {
              if (orate != rn) {
                mark_ap(a);
                pool_departure(a, sess, orate);
                pool_arrival(a, sess, rn);
              }
              orate = -1.0;  // matched: not old-only
              return;
            }
          }
          mark_ap(a);  // newly in range
          pool_arrival(a, sess, rn);
        });
        for (const auto& [oa, orate] : old_links) {
          if (orate > 0.0) {
            mark_ap(oa);  // dropped out of range
            pool_departure(oa, sess, orate);
          }
        }
        // A forced handoff on top of the move changes both groups' base
        // memberships (and hence base tx / load of both primaries).
        if (old_ap != new_ap) {
          mark_ap(old_ap);
          mark_ap(new_ap);
        }
        continue;
      }
      // Joins, leaves, zaps, (un)subscribes and serve-status flips change the
      // slot's base-served status or session: every AP that could hear it
      // before or after has its potential-adopter mins moved.
      if (before.wants_service()) {
        state_.for_each_ap_near(before.pos, [&](int a) {
          const double r = state_.link_rate(a, s);
          if (r <= 0.0) return;
          mark_ap(a);
          if (old_pool) pool_departure(a, before.session, r);
        });
      }
      if (after.wants_service()) {
        next.for_each_ap_near(after.pos, [&](int a) {
          const double r = next.link_rate(a, s);
          if (r <= 0.0) return;
          mark_ap(a);
          if (new_pool) pool_arrival(a, after.session, r);
        });
      }
      continue;
    }
    if (old_ap == new_ap) continue;
    // Same record, different committed primary: the slot's served-set must be
    // re-derived and the stream plans of the affected APs re-planned.
    mark_slot(s);
    if (old_ap != wlan::kNoAp) kconn_settle_hint_.push_back(old_ap);
    if (new_ap != wlan::kNoAp) kconn_settle_hint_.push_back(new_ap);
    if (old_ap != wlan::kNoAp && new_ap != wlan::kNoAp) {
      // A handoff moves the user between two multicast groups; other heard
      // APs see the same base-served hearer as before — and the adopter pools
      // key on served-ness, not the primary, so pmin is untouched everywhere.
      mark_ap(old_ap);
      mark_ap(new_ap);
    } else {
      // Served <-> unserved flips the slot's base-served status, which feeds
      // the potential-adopter min of EVERY heard AP's silent streams. The
      // record did not change, so old and new link rates coincide.
      state_.for_each_ap_near(before.pos, [&](int a) {
        const double r = state_.link_rate(a, s);
        if (r <= 0.0) return;
        mark_ap(a);
        if (old_ap != wlan::kNoAp) {
          pool_departure(a, before.session, r);
        } else {
          pool_arrival(a, before.session, r);
        }
      });
    }
  }
  std::sort(kconn_dirty_aps_.begin(), kconn_dirty_aps_.end());
  std::sort(kconn_dirty_slots_.begin(), kconn_dirty_slots_.end());
}

void AssociationController::refresh_multi(EpochReport* rep) {
  if (cfg_.k < 2) return;
  // Every exit path (quiescent, cold, incremental) accumulates into
  // kconn_seconds_ so benches can isolate the overlay step's cost.
  struct Timer {
    double* acc;
    std::chrono::steady_clock::time_point t0 = std::chrono::steady_clock::now();
    ~Timer() {
      *acc += std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
                  .count();
    }
  } timer{&kconn_seconds_};
  const int n = compact_sc_.n_users();
  const int n_aps = compact_sc_.n_aps();

  // kconn-quiescent epoch: nothing the overlay reads moved (no visible record
  // change, no committed AP change, no rate change), so the cached overlay,
  // tx table and load report are all still exact — including across rejected
  // admissions and other invisible-slot churn.
  if (multi_valid_ && !kconn_rate_changed_ && kconn_dirty_aps_.empty() &&
      kconn_dirty_slots_.empty()) {
    if (rep != nullptr) {
      rep->multi_served_users = multi_loads_.multi_served_users;
      rep->mean_effective_rate = multi_loads_.mean_effective_rate;
    }
    return;
  }

  assoc::KconnParams kp;
  kp.k = cfg_.k;
  kp.multi_rate = cfg_.multi_rate;
  kp.enforce_budget = true;  // the controller always holds APs to their budget

  // The committed primary view in this epoch's row space.
  wlan::Association row_assoc = wlan::Association::none(n);
  for (int r = 0; r < n; ++r) {
    row_assoc.user_ap[static_cast<size_t>(r)] =
        slot_ap_[static_cast<size_t>(row_slot_[static_cast<size_t>(r)])];
  }

  if (kconn_plan_.n_aps != n_aps ||
      kconn_plan_.n_sessions != compact_sc_.n_sessions()) {
    kconn_plan_.resize(n_aps, compact_sc_.n_sessions());
    kconn_tx_.assign(static_cast<size_t>(n_aps),
                     std::vector<double>(
                         static_cast<size_t>(compact_sc_.n_sessions()), 0.0));
  }
  if (kconn_served_.size() < static_cast<size_t>(state_.n_slots())) {
    kconn_served_.resize(static_cast<size_t>(state_.n_slots()));
  }
  if (kconn_lanes_.size() < static_cast<size_t>(pool_.size())) {
    kconn_lanes_.resize(static_cast<size_t>(pool_.size()));
  }

  const bool cold =
      !multi_valid_ || kconn_rate_changed_ || !cfg_.kconn_incremental;
  if (cold) {
    // Serial full re-derivation: plan every AP, derive every row, settle
    // every AP. This is the reference the chaos oracle and the bench cold leg
    // compare the incremental path against.
    for (int a = 0; a < n_aps; ++a) {
      assoc::kconn_plan_ap(compact_sc_, row_assoc, loads_, kp, a, kconn_plan_);
    }
    if (multi_assoc_.n_users() != n) multi_assoc_.user_aps.resize(static_cast<size_t>(n));
    for (int r = 0; r < n; ++r) {
      assoc::kconn_derive_user(compact_sc_, row_assoc, kconn_plan_, kp, r,
                               multi_assoc_.user_aps[static_cast<size_t>(r)],
                               kconn_lanes_[0]);
    }
    for (auto& served : kconn_served_) served.clear();
    for (int r = 0; r < n; ++r) {
      kconn_served_[static_cast<size_t>(row_slot_[static_cast<size_t>(r)])] =
          multi_assoc_.user_aps[static_cast<size_t>(r)];
    }
    for (int a = 0; a < n_aps; ++a) {
      assoc::kconn_settle_ap(compact_sc_, loads_, kp, kconn_plan_, multi_assoc_,
                             a, kconn_tx_[static_cast<size_t>(a)].data());
    }
    tele_.engine_kconn_rebuilds.inc();
    if (rep != nullptr) rep->kconn_rebuild = true;
  } else {
    // Incremental dirty-region repair (DESIGN.md §16). Correctness rests on
    // the marking invariants (kconn_mark_dirty): every AP whose plan inputs
    // moved is in kconn_dirty_aps_ with its pmin row delta-maintained (or
    // queued for rescan), and every slot whose served-set inputs moved is in
    // kconn_dirty_slots_ or hears a changed plan row.
    //
    // 1. Refresh the plan rows of the dirty APs: rescan the pmin row only
    //    where a departure delta may have removed the min, then re-derive
    //    advert/startable in O(sessions) from the maintained pmin. Track
    //    which (AP, session) plan entries actually CHANGED: derivation reads
    //    nothing of an AP but its plan entries for the user's own session, so
    //    a dirty AP whose re-planned entry is bitwise unchanged cannot move
    //    any clean hearer's served-set (hearers whose own heard-set, links or
    //    primary moved have dirty slots and enter U through them). This is
    //    what keeps the blast radius of a move — which dirties every AP in
    //    hearing range — from pulling the whole neighborhood into U.
    const int n_sessions = compact_sc_.n_sessions();
    std::vector<int> changed_aps;
    std::vector<std::pair<int, int>> changed_pairs;  // (ap, session), ap-major
    std::vector<double> prev_advert(static_cast<size_t>(n_sessions));
    std::vector<char> prev_startable(static_cast<size_t>(n_sessions));
    for (const int a : kconn_dirty_aps_) {
      const size_t row = kconn_plan_.at(a, 0);
      std::copy_n(kconn_plan_.advert.begin() + static_cast<ptrdiff_t>(row),
                  n_sessions, prev_advert.begin());
      std::copy_n(kconn_plan_.startable.begin() + static_cast<ptrdiff_t>(row),
                  n_sessions, prev_startable.begin());
      if (kconn_rescan_mark_[static_cast<size_t>(a)]) {
        assoc::kconn_scan_pmin(compact_sc_, row_assoc, a, kconn_plan_);
      }
      assoc::kconn_plan_from_pmin(compact_sc_, loads_, kp, a, kconn_plan_);
      bool changed = false;
      for (int s = 0; s < n_sessions; ++s) {
        if (kconn_plan_.advert[row + static_cast<size_t>(s)] !=
                prev_advert[static_cast<size_t>(s)] ||
            kconn_plan_.startable[row + static_cast<size_t>(s)] !=
                prev_startable[static_cast<size_t>(s)]) {
          changed_pairs.emplace_back(a, s);
          changed = true;
        }
      }
      if (changed) changed_aps.push_back(a);
    }

    // 2. The dirty rows U: rows of dirty slots, plus rows hearing a changed
    //    (AP, session) plan entry FOR THEIR OWN SESSION (a served-set can
    //    only contain heard APs, a user only reads its session's plan
    //    entries, and a clean slot's heard-set did not change — so U covers
    //    every row whose derivation inputs moved).
    std::vector<int> slot_row(static_cast<size_t>(state_.n_slots()), -1);
    for (int r = 0; r < n; ++r) {
      slot_row[static_cast<size_t>(row_slot_[static_cast<size_t>(r)])] = r;
    }
    std::vector<char> row_dirty(static_cast<size_t>(n), 0);
    for (const int s : kconn_dirty_slots_) {
      if (s < static_cast<int>(slot_row.size()) &&
          slot_row[static_cast<size_t>(s)] >= 0) {
        row_dirty[static_cast<size_t>(slot_row[static_cast<size_t>(s)])] = 1;
      }
    }
    for (size_t i = 0; i < changed_pairs.size();) {
      const int a = changed_pairs[i].first;
      size_t j = i;
      while (j < changed_pairs.size() && changed_pairs[j].first == a) ++j;
      const wlan::IndexSpan members = compact_sc_.users_of_ap(a);
      for (size_t m = 0; m < members.size(); ++m) {
        const int r = members[m];
        if (row_dirty[static_cast<size_t>(r)]) continue;
        const int us = compact_sc_.user_session(r);
        for (size_t t = i; t < j; ++t) {
          if (changed_pairs[t].second == us) {
            row_dirty[static_cast<size_t>(r)] = 1;
            break;
          }
        }
      }
      i = j;
    }
    std::vector<int> dirty_rows;
    for (int r = 0; r < n; ++r) {
      if (row_dirty[static_cast<size_t>(r)]) dirty_rows.push_back(r);
    }

    // 3. Settle set: every AP whose settle inputs can have moved — a changed
    //    plan row (changed_aps), a changed base tx / membership (the old and
    //    new primaries of dirty slots, collected by kconn_mark_dirty), or a
    //    changed adopter contribution: the old served-sets of DEPARTED dirty
    //    slots (whose store entries are retired here); surviving rows mark
    //    after derivation, and only when their adopter contribution actually
    //    moved. A dirty AP outside these sets kept its plan row, base tx,
    //    members' links and members' serves, so its settled tx row is
    //    unchanged by construction.
    std::vector<char> settle_mark(static_cast<size_t>(n_aps), 0);
    std::vector<int> settle_aps;
    const auto mark_settle = [&](int a) {
      if (!settle_mark[static_cast<size_t>(a)]) {
        settle_mark[static_cast<size_t>(a)] = 1;
        settle_aps.push_back(a);
      }
    };
    for (const int a : changed_aps) mark_settle(a);
    for (const int a : kconn_settle_hint_) mark_settle(a);
    for (const int s : kconn_dirty_slots_) {
      if (static_cast<size_t>(s) >= kconn_served_.size()) continue;
      const bool departed = s >= static_cast<int>(slot_row.size()) ||
                            slot_row[static_cast<size_t>(s)] < 0;
      if (!departed) continue;
      for (const int a : kconn_served_[static_cast<size_t>(s)]) mark_settle(a);
      kconn_served_[static_cast<size_t>(s)].clear();
    }

    // 4. Rebuild the row-space overlay: carried rows copy their slot's stored
    //    served-set; dirty rows are re-derived in parallel over AP-connected
    //    components (disjoint row sets -> disjoint writes, fixed task order
    //    -> bitwise identical at any thread count; per-phase inputs are all
    //    read-only).
    if (multi_assoc_.n_users() != n) multi_assoc_.user_aps.resize(static_cast<size_t>(n));
    for (int r = 0; r < n; ++r) {
      if (!row_dirty[static_cast<size_t>(r)]) {
        multi_assoc_.user_aps[static_cast<size_t>(r)] =
            kconn_served_[static_cast<size_t>(row_slot_[static_cast<size_t>(r)])];
      }
    }
    ComponentTasks tasks;
    std::vector<int> isolated;
    build_component_tasks(compact_sc_, dirty_rows, tasks, isolated);
    pool_.parallel_for(
        0, static_cast<int64_t>(tasks.order.size()),
        [&](int64_t b, int64_t e, int lane) {
          for (int64_t i = b; i < e; ++i) {
            const int t = tasks.order[static_cast<size_t>(i)];
            for (const int r : tasks.rows[static_cast<size_t>(t)]) {
              assoc::kconn_derive_user(
                  compact_sc_, row_assoc, kconn_plan_, kp, r,
                  multi_assoc_.user_aps[static_cast<size_t>(r)],
                  kconn_lanes_[static_cast<size_t>(lane)]);
            }
          }
        });
    for (const int r : isolated) {
      assoc::kconn_derive_user(compact_sc_, row_assoc, kconn_plan_, kp, r,
                               multi_assoc_.user_aps[static_cast<size_t>(r)],
                               kconn_lanes_[0]);
    }
    // Re-derived rows settle-mark their old AND new served APs — but only
    // when the adopter contribution moved: a row pulled into U by a changed
    // plan entry that re-derives the identical served-set, with its record
    // (and hence its link rates) untouched, contributes the same rate to the
    // same adopter mins as before. Dirty SLOTS always mark: their links may
    // have changed even where the served-set did not.
    for (const int r : dirty_rows) {
      const int s = row_slot_[static_cast<size_t>(r)];
      auto& stored = kconn_served_[static_cast<size_t>(s)];
      const auto& fresh = multi_assoc_.user_aps[static_cast<size_t>(r)];
      const bool slot_dirty = static_cast<size_t>(s) < kconn_slot_mark_.size() &&
                              kconn_slot_mark_[static_cast<size_t>(s)] != 0;
      if (slot_dirty || stored != fresh) {
        for (const int a : stored) mark_settle(a);
        for (const int a : fresh) mark_settle(a);
        stored = fresh;
      }
    }

    // 5. Re-settle only the touched APs; every other tx row's inputs (its
    //    members, their served flags, its base tx and plan row) are unmoved.
    for (const int a : settle_aps) {
      assoc::kconn_settle_ap(compact_sc_, loads_, kp, kconn_plan_, multi_assoc_,
                             a, kconn_tx_[static_cast<size_t>(a)].data());
    }

    tele_.engine_kconn_repairs.inc();
    tele_.engine_kconn_repaired_users.inc(dirty_rows.size());
    tele_.engine_kconn_carried_users.inc(static_cast<uint64_t>(n) -
                                         dirty_rows.size());
    if (rep != nullptr) {
      rep->kconn_repaired_users = static_cast<int>(dirty_rows.size());
      rep->kconn_carried_users = n - static_cast<int>(dirty_rows.size());
    }
  }

  // 6. Fold the settled tx table into the load report in the reference
  //    accumulation order — bitwise identical to compute_multi_loads on both
  //    paths.
  multi_loads_ = assoc::kconn_collect_loads(compact_sc_, multi_assoc_, kconn_tx_);
  multi_valid_ = true;
  if (rep != nullptr) {
    rep->multi_served_users = multi_loads_.multi_served_users;
    rep->mean_effective_rate = multi_loads_.mean_effective_rate;
  }
}

assoc::Solution AssociationController::solve_full(const wlan::Scenario& sc) {
  if (sc.n_users() == 0) {
    return assoc::make_solution(cfg_.full_solver, sc, wlan::Association::none(0),
                                cfg_.multi_rate);
  }
  if (cfg_.full_solver != "mla-c") {
    assoc::SolveOptions opt;
    opt.multi_rate = cfg_.multi_rate;
    return assoc::solve_by_name(cfg_.full_solver, sc, rng_, opt);
  }
  // MLA-C on the epoch's scenario, through a context kept across epochs only
  // for its buffers. With a pool, the sharded per-session greedy commits the
  // same association as the joint one (DESIGN.md §9).
  ctx_.build(sc, cfg_.multi_rate);
  tele_.engine_full_builds.inc();
  assoc::CentralizedParams cp;
  cp.multi_rate = cfg_.multi_rate;
  cp.pool = pool_.size() > 1 ? &pool_ : nullptr;
  auto sol = assoc::centralized_mla(sc, cp, ctx_);
  if (cp.pool != nullptr) {
    const core::ParallelStats& ps = ctx_.parallel;
    tele_.engine_parallel_solves.inc();
    tele_.engine_parallel_tasks.inc(static_cast<uint64_t>(ps.tasks));
    tele_.engine_parallel_workers.set(ps.workers);
    tele_.engine_parallel_imbalance.set(ps.imbalance);
    tele_.engine_parallel_arena_peak_bytes.set(
        static_cast<double>(ps.arena_high_water_bytes));
    tele_.engine_parallel_arena_reserved_bytes.set(
        static_cast<double>(ps.arena_reserved_bytes));
  }
  return sol;
}

bool AssociationController::admit(const JoinRequest& req) const {
  if (!cfg_.admission_control) return true;
  if (cfg_.admission_hook) return cfg_.admission_hook(req, loads_.ap_load, state_);

  // Built-in budget gate: admit iff some in-range AP can absorb the user's
  // exact marginal load (the multicast group's bottleneck rate after the
  // join) within the scenario budget — MNU's per-AP budget semantics applied
  // at the door.
  const double stream = req.session < state_.n_sessions()
                            ? state_.session_rate(req.session)
                            : 0.0;
  if (stream <= 0.0) return false;
  // Any-fit over the in-range APs only (grid query; order-free boolean).
  bool ok = false;
  state_.for_each_ap_near(req.pos, [&](int a) {
    if (ok) return;
    const double r = state_.rate_table().rate_for_distance(
        wlan::distance(state_.ap_positions()[static_cast<size_t>(a)], req.pos));
    if (r <= 0.0) return;
    const double old_tx =
        static_cast<size_t>(a) < loads_.tx_rate.size()
            ? loads_.tx_rate[static_cast<size_t>(a)][static_cast<size_t>(req.session)]
            : 0.0;
    const double new_tx = old_tx > 0.0 ? std::min(old_tx, r) : r;
    const double marginal = stream / new_tx - (old_tx > 0.0 ? stream / old_tx : 0.0);
    const double load = static_cast<size_t>(a) < loads_.ap_load.size()
                            ? loads_.ap_load[static_cast<size_t>(a)]
                            : 0.0;
    if (util::fits_budget(load + marginal, state_.load_budget())) ok = true;
  });
  return ok;
}

wlan::Association AssociationController::repair(const wlan::Scenario& sc,
                                                const wlan::Association& carried,
                                                const std::vector<int>& movable_rows,
                                                bool polish) {
  const int n = sc.n_users();
  // The per-AP member lists live in the reusable workspace, which the
  // degradation fallback's warm local search also borrows.
  repair_ws_.prepare(sc.n_aps(), n);
  std::vector<int>& user_ap = repair_ws_.user_ap;
  user_ap = carried.user_ap;
  std::vector<std::vector<int>>& members = repair_ws_.members;
  for (int u = 0; u < n; ++u) {
    if (user_ap[static_cast<size_t>(u)] != wlan::kNoAp) {
      members[static_cast<size_t>(user_ap[static_cast<size_t>(u)])].push_back(u);
    }
  }

  // AP-disjoint component tasks across the pool (ctrl/repair_shard.hpp):
  // peel + greedy + task-local polish per shard, bitwise identical at any
  // thread count.
  RepairShardParams rp;
  rp.multi_rate = cfg_.multi_rate;
  rp.polish = polish;
  rp.polish_min_gain = cfg_.polish_min_gain;
  repair_sharded(sc, user_ap, members, movable_rows, rp, pool_, repair_lanes_,
                 &last_repair_stats_);
  tele_.engine_parallel_repair_calls.inc();
  tele_.engine_parallel_repair_shards.inc(
      static_cast<uint64_t>(last_repair_stats_.shards));
  tele_.engine_parallel_repair_imbalance.set(last_repair_stats_.imbalance);
  return wlan::Association{user_ap};
}

AssociationController::ChangeCount AssociationController::count_changes(
    const std::vector<int>& old_slot_ap, const std::vector<int>& new_slot_ap,
    const NetworkState& next) const {
  ChangeCount c;
  const size_t n = std::max(old_slot_ap.size(), new_slot_ap.size());
  for (size_t i = 0; i < n; ++i) {
    const int o = i < old_slot_ap.size() ? old_slot_ap[i] : wlan::kNoAp;
    const int w = i < new_slot_ap.size() ? new_slot_ap[i] : wlan::kNoAp;
    if (o == w) continue;
    ++c.total;
    if (o == wlan::kNoAp) continue;  // pure join: neither forced nor voluntary
    if (w != wlan::kNoAp) ++c.handoffs;
    const bool still_valid = static_cast<int>(i) < next.n_slots() &&
                             next.slot(static_cast<int>(i)).wants_service() &&
                             next.link_rate(o, static_cast<int>(i)) > 0.0;
    if (still_valid) {
      ++c.voluntary;
    } else {
      ++c.forced;
    }
  }
  return c;
}

EpochReport AssociationController::drain() {
  const auto t0 = std::chrono::steady_clock::now();
  auto events = queue_.drain(cfg_.max_batch);

  EpochReport rep;
  rep.epoch = epoch_index_;
  rep.events = static_cast<int>(events.size());
  tele_.drains.inc();
  tele_.events_ingested.inc(events.size());

  // --- 1. apply the batch to a scratch state (the epoch snapshot is simply
  // the committed state_/slot_ap_, restored by not committing). -------------
  NetworkState next = state_;
  std::map<int, int> slot_events;
  std::map<int, int> session_events;
  for (const auto& e : events) {
    tele_.events_by_type[static_cast<size_t>(e.type)].inc();
    if (e.type == EventType::kUserJoin) {
      const bool valid = e.user >= 0 && e.user <= next.n_slots() && e.session >= 0 &&
                         e.session < next.n_sessions() &&
                         std::isfinite(e.pos.x) && std::isfinite(e.pos.y) &&
                         (e.user == next.n_slots() || !next.slot(e.user).present);
      if (!valid) {
        tele_.events_invalid.inc();
        ++rep.events_invalid;
        continue;
      }
      const bool ok = admit({e.user, e.pos, e.session});
      next.apply(e);
      if (ok) {
        tele_.joins_admitted.inc();
      } else {
        next.apply(Event::unsubscribe(e.user));
        tele_.joins_rejected.inc();
        ++rep.rejected_joins;
      }
      tele_.events_applied.inc();
      ++rep.events_applied;
      ++slot_events[e.user];
      continue;
    }
    try {
      next.apply(e);
      tele_.events_applied.inc();
      ++rep.events_applied;
      if (e.type == EventType::kRateChange) {
        ++session_events[e.session];
      } else {
        ++slot_events[e.user];
      }
    } catch (const std::invalid_argument&) {
      tele_.events_invalid.inc();
      ++rep.events_invalid;
    }
  }

  // --- 2. coalescing accounting: every event on a slot/session whose net
  // state is unchanged across the drain cancelled out. ----------------------
  for (const auto& [slot, cnt] : slot_events) {
    const UserSlot before = slot < state_.n_slots() ? state_.slot(slot) : UserSlot{};
    const UserSlot& after = next.slot(slot);
    // Net no-op from the optimizer's perspective: an identical record, or a
    // user invisible (not wanting service) on both sides — e.g. a join and a
    // leave of the same user landing in one batch.
    if (before == after || (!before.wants_service() && !after.wants_service())) {
      tele_.events_coalesced.inc(static_cast<uint64_t>(cnt));
      rep.events_coalesced += cnt;
    }
  }
  for (const auto& [s, cnt] : session_events) {
    if (s < state_.n_sessions() && state_.session_rate(s) == next.session_rate(s)) {
      tele_.events_coalesced.inc(static_cast<uint64_t>(cnt));
      rep.events_coalesced += cnt;
    }
  }

  // --- 3. dirty region + compact projection. -------------------------------
  const auto dirty_slots = compute_dirty_slots(state_, next, slot_ap_);
  rep.dirty_users = static_cast<int>(dirty_slots.size());
  tele_.dirty_region_size.record(static_cast<double>(dirty_slots.size()));

  std::vector<int> row_slot;
  auto sc = next.to_scenario(&row_slot);

  std::vector<char> dirty_mask(static_cast<size_t>(next.n_slots()), 0);
  for (const int s : dirty_slots) dirty_mask[static_cast<size_t>(s)] = 1;

  // Sticky carry: everyone whose old AP is still valid keeps it — including
  // dirty users, whose placement is *reconsidered* (by the restricted polish)
  // rather than discarded. Re-placing the dirty region from scratch would
  // re-associate users whose small move changed nothing, defeating the
  // signaling advantage the controller exists for.
  const int n_rows = sc.n_users();
  auto carried = wlan::Association::none(n_rows);
  std::vector<int> dirty_rows;
  for (int r = 0; r < n_rows; ++r) {
    const int slot = row_slot[static_cast<size_t>(r)];
    const int old = static_cast<size_t>(slot) < slot_ap_.size()
                        ? slot_ap_[static_cast<size_t>(slot)]
                        : wlan::kNoAp;
    const bool valid = old != wlan::kNoAp && sc.in_range(old, r);
    if (valid) carried.user_ap[static_cast<size_t>(r)] = old;
    if (dirty_mask[static_cast<size_t>(slot)] || !valid) dirty_rows.push_back(r);
  }

  // --- 4. incremental repair. ----------------------------------------------
  auto cand = repair(sc, carried, dirty_rows, /*polish=*/true);
  tele_.incremental_repairs.inc();
  auto cand_slot = slot_association(cand, row_slot, next.n_slots());
  auto cc = count_changes(slot_ap_, cand_slot, next);

  // --- 5. bounded signaling: roll back to the minimal forced repair. -------
  if (cfg_.max_reassoc_per_epoch >= 0 && cc.voluntary > cfg_.max_reassoc_per_epoch) {
    rep.rolled_back = true;
    tele_.rollbacks.inc();
    std::vector<int> forced_rows;
    for (int r = 0; r < n_rows; ++r) {
      if (carried.ap_of(r) == wlan::kNoAp) forced_rows.push_back(r);
    }
    cand = repair(sc, carried, forced_rows, /*polish=*/false);
    cand_slot = slot_association(cand, row_slot, next.n_slots());
    cc = count_changes(slot_ap_, cand_slot, next);
  }

  auto cand_loads = wlan::compute_loads(sc, cand, cfg_.multi_rate);

  // --- 6. baseline refresh + degradation fallback. -------------------------
  ++epochs_since_refresh_;
  std::optional<assoc::Solution> full;
  if (cfg_.full_refresh_epochs > 0 && epochs_since_refresh_ >= cfg_.full_refresh_epochs &&
      sc.n_users() > 0) {
    full = solve_full(sc);
    baseline_load_ = full->loads.total_load;
    epochs_since_refresh_ = 0;
    tele_.baseline_refreshes.inc();
  }

  const bool no_baseline = baseline_load_ <= 0.0 && cand_loads.total_load > 0.0;
  const bool degraded =
      baseline_load_ > 0.0 &&
      cand_loads.total_load > baseline_load_ * (1.0 + cfg_.degradation_threshold);
  if (sc.n_users() > 0 && (no_baseline || degraded) && !rep.rolled_back) {
    if (!full) {
      full = solve_full(sc);
      baseline_load_ = full->loads.total_load;
      epochs_since_refresh_ = 0;
    }
    const double acceptable = baseline_load_ * (1.0 + cfg_.degradation_threshold);
    // Re-check against the *fresh* baseline: a stale baseline often reports
    // drift that a present-day full solve no longer confirms (the instance
    // itself got harder). Escalating then would pay handoffs for nothing.
    const bool still_degraded = cand_loads.total_load > acceptable;

    // Escalation ladder. Step 1: a *warm* global polish — every user movable,
    // no gain floor (this runs rarely; when it does we want the drift gone).
    // Warm-starting from the current association recovers the quality for a
    // fraction of the handoffs a cold solution adoption costs, because users
    // already well-placed never move; stopping halfway into the degradation
    // band (rather than at a local optimum) keeps the burst short without
    // re-triggering next epoch.
    assoc::LocalSearchParams lp;
    lp.multi_rate = cfg_.multi_rate;
    if (still_degraded) {
      lp.target_total = baseline_load_ * (1.0 + 0.5 * cfg_.degradation_threshold);
      auto warm = assoc::local_search(sc, cand, lp, nullptr, &repair_ws_);
      auto warm_slot = slot_association(warm.assoc, row_slot, next.n_slots());
      auto wc = count_changes(slot_ap_, warm_slot, next);
      const bool warm_within_cap = cfg_.max_reassoc_per_epoch < 0 ||
                                   wc.voluntary <= cfg_.max_reassoc_per_epoch;
      // Good enough = back inside the degradation band, or matching the cold
      // solution's quality (within 2%) — in the latter case adopting the cold
      // association instead would buy nothing but a network-wide shuffle.
      const bool warm_good =
          warm.loads.total_load <= acceptable ||
          warm.loads.total_load <= full->loads.total_load * 1.02;
      if (warm_within_cap && warm.loads.total_load < cand_loads.total_load &&
          warm_good) {
        cand = std::move(warm.assoc);
        cand_slot = std::move(warm_slot);
        cand_loads = std::move(warm.loads);
        cc = wc;
        tele_.warm_escalations.inc();
      } else {
        // Step 2: adopt the cold full solution outright.
        const auto full_slot = slot_association(full->assoc, row_slot, next.n_slots());
        const auto fc = count_changes(slot_ap_, full_slot, next);
        const bool within_cap = cfg_.max_reassoc_per_epoch < 0 ||
                                fc.voluntary <= cfg_.max_reassoc_per_epoch;
        if (within_cap && full->loads.total_load < cand_loads.total_load) {
          cand = full->assoc;
          cand_slot = full_slot;
          cand_loads = full->loads;
          cc = fc;
          rep.used_full_solve = true;
          tele_.full_solves.inc();
        } else {
          tele_.full_solve_rejections.inc();
        }
      }
    }
  }
  if (sc.n_users() == 0) baseline_load_ = 0.0;

  // --- 7. commit. ----------------------------------------------------------
  // Translate the epoch's deltas into kconn dirty marks first: the marking
  // needs the pre-commit state/projection (old heard-sets) alongside the
  // final candidate association.
  kconn_mark_dirty(next, cand_slot);
  state_ = std::move(next);
  slot_ap_ = std::move(cand_slot);
  compact_sc_ = std::move(sc);
  row_slot_ = std::move(row_slot);
  loads_ = std::move(cand_loads);
  ++epoch_index_;

  tele_.epochs.inc();
  tele_.reassociations.inc(static_cast<uint64_t>(cc.total));
  tele_.handoffs.inc(static_cast<uint64_t>(cc.handoffs));
  tele_.forced_reassociations.inc(static_cast<uint64_t>(cc.forced));
  tele_.reassoc_per_epoch.record(static_cast<double>(cc.total));

  int present = 0;
  for (int s = 0; s < state_.n_slots(); ++s) {
    if (state_.slot(s).present) ++present;
  }
  rep.reassociations = cc.total;
  rep.handoffs = cc.handoffs;
  rep.forced_reassociations = cc.forced;
  rep.voluntary_reassociations = cc.voluntary;
  rep.repair_shards = last_repair_stats_.shards;
  rep.repair_imbalance = last_repair_stats_.imbalance;
  rep.users_present = present;
  rep.users_subscribed = state_.n_active();
  rep.users_served = loads_.satisfied_users;
  rep.total_load = loads_.total_load;
  rep.max_load = loads_.max_load;
  rep.baseline_load = baseline_load_;
  refresh_multi(&rep);
  rep.drain_seconds = seconds_since(t0);

  tele_.users_present.set(present);
  tele_.users_subscribed.set(rep.users_subscribed);
  tele_.users_served.set(rep.users_served);
  tele_.total_load.set(loads_.total_load);
  tele_.max_load.set(loads_.max_load);
  tele_.baseline_load.set(baseline_load_);
  tele_.degradation_pct.set(
      baseline_load_ > 0.0 ? (loads_.total_load / baseline_load_ - 1.0) * 100.0 : 0.0);
  tele_.queue_depth.set(static_cast<double>(queue_.size()));
  tele_.drain_seconds.record(rep.drain_seconds);
  return rep;
}

}  // namespace wmcast::ctrl
