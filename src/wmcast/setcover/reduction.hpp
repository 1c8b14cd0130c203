// The paper's reduction (Theorems 1/3/5): a WLAN association instance becomes
// a grouped, weighted set system. For every AP a, session s, and useful
// transmission rate r, the candidate set is
//     { u : user u requests s and link_rate(a, u) >= r }
// with cost session_rate(s) / r, in group a.
//
// Only link-rate values that actually occur on (a, s) are enumerated: any
// other transmission rate is dominated by the next-higher occurring rate
// (same members, lower cost).
#pragma once

#include "wmcast/core/engine.hpp"
#include "wmcast/setcover/set_system.hpp"
#include "wmcast/wlan/scenario.hpp"

namespace wmcast::setcover {

/// Builds the set system for `sc`.
/// multi_rate=false restricts every multicast to the scenario's basic rate
/// (802.11-standard broadcast), yielding one candidate set per (AP, session).
SetSystem build_set_system(const wlan::Scenario& sc, bool multi_rate = true);

/// Builds the same reduction straight into `eng` (reset, one add_set per
/// candidate set, finish) without materializing per-set bitsets: the sets of
/// build_set_system, with ids in the same order. A set lists its members by
/// descending link rate, ascending user id within one rate (plain ascending
/// ids when multi_rate is false). Reusing one engine keeps its capacity.
void build_engine(const wlan::Scenario& sc, bool multi_rate, core::CoverageEngine& eng);

}  // namespace wmcast::setcover
