#include "wmcast/wlan/serialization.hpp"

#include <cstdint>
#include <fstream>
#include <sstream>

#include "wmcast/util/assert.hpp"

namespace wmcast::wlan {

namespace {

void expect_token(std::istream& in, const std::string& expected) {
  std::string tok;
  in >> tok;
  util::require(static_cast<bool>(in) && tok == expected,
                "scenario parse: expected '" + expected + "', got '" + tok + "'");
}

template <typename T>
T read_value(std::istream& in, const char* what) {
  T v;
  in >> v;
  util::require(static_cast<bool>(in), std::string("scenario parse: bad ") + what);
  return v;
}

}  // namespace

std::string to_text(const Scenario& sc, const RateTable& table) {
  std::ostringstream out;
  out.precision(17);
  out << "wmcast-scenario v2\n";
  out << "budget " << sc.load_budget() << "\n";
  out << "sessions " << sc.n_sessions() << "\n";
  out << "session_rates";
  for (int s = 0; s < sc.n_sessions(); ++s) out << ' ' << sc.session_rate(s);
  out << "\nusers " << sc.n_users() << "\n";
  out << "user_sessions";
  for (int u = 0; u < sc.n_users(); ++u) out << ' ' << sc.user_session(u);
  out << "\ngeometry " << (sc.has_geometry() ? 1 : 0) << "\n";

  if (sc.has_geometry()) {
    out << "ap_positions " << sc.n_aps() << "\n";
    for (const auto& p : sc.ap_positions()) out << p.x << ' ' << p.y << "\n";
    out << "user_positions\n";
    for (const auto& p : sc.user_positions()) out << p.x << ' ' << p.y << "\n";
    out << "rate_table " << table.steps().size() << "\n";
    for (const auto& st : table.steps()) {
      out << st.rate_mbps << ' ' << st.max_distance_m << "\n";
    }
  } else {
    // v2: per-user sparse rows instead of the v1 dense [ap][user] matrix —
    // explicit instances write O(links), matching the CSR in-memory layout.
    // Each row is `k ap rate ap rate ...` in the stored strongest-first order.
    out << "aps " << sc.n_aps() << "\n";
    out << "sparse_links\n";
    for (int u = 0; u < sc.n_users(); ++u) {
      const IndexSpan aps = sc.aps_of_user(u);
      const RateSpan rates = sc.rates_of_user(u);
      out << aps.size();
      for (size_t i = 0; i < aps.size(); ++i) out << ' ' << aps[i] << ' ' << rates[i];
      out << "\n";
    }
  }
  return out.str();
}

Scenario from_text(const std::string& text) {
  std::istringstream in(text);
  expect_token(in, "wmcast-scenario");
  std::string version;
  in >> version;
  util::require(static_cast<bool>(in) && (version == "v1" || version == "v2"),
                "scenario parse: expected 'v1' or 'v2', got '" + version + "'");

  expect_token(in, "budget");
  const auto budget = read_value<double>(in, "budget");
  expect_token(in, "sessions");
  const auto n_sessions = read_value<int>(in, "session count");
  util::require(n_sessions > 0 && n_sessions < 1000000, "scenario parse: session count");
  expect_token(in, "session_rates");
  std::vector<double> session_rates(static_cast<size_t>(n_sessions));
  for (auto& r : session_rates) r = read_value<double>(in, "session rate");

  expect_token(in, "users");
  const auto n_users = read_value<int>(in, "user count");
  util::require(n_users >= 0 && n_users < 10000000, "scenario parse: user count");
  expect_token(in, "user_sessions");
  std::vector<int> user_sessions(static_cast<size_t>(n_users));
  for (auto& s : user_sessions) s = read_value<int>(in, "user session");

  expect_token(in, "geometry");
  const auto geometric = read_value<int>(in, "geometry flag");

  if (geometric != 0) {
    expect_token(in, "ap_positions");
    const auto n_aps = read_value<int>(in, "AP count");
    util::require(n_aps >= 0 && n_aps < 10000000, "scenario parse: AP count");
    std::vector<Point> ap_pos(static_cast<size_t>(n_aps));
    for (auto& p : ap_pos) {
      p.x = read_value<double>(in, "AP x");
      p.y = read_value<double>(in, "AP y");
    }
    expect_token(in, "user_positions");
    std::vector<Point> user_pos(static_cast<size_t>(n_users));
    for (auto& p : user_pos) {
      p.x = read_value<double>(in, "user x");
      p.y = read_value<double>(in, "user y");
    }
    expect_token(in, "rate_table");
    const auto n_steps = read_value<int>(in, "rate table size");
    util::require(n_steps > 0 && n_steps < 1000, "scenario parse: rate table size");
    std::vector<RateStep> steps(static_cast<size_t>(n_steps));
    for (auto& st : steps) {
      st.rate_mbps = read_value<double>(in, "rate");
      st.max_distance_m = read_value<double>(in, "distance");
    }
    return Scenario::from_geometry(std::move(ap_pos), std::move(user_pos),
                                   std::move(user_sessions), std::move(session_rates),
                                   RateTable(std::move(steps)), budget);
  }

  expect_token(in, "aps");
  const auto n_aps = read_value<int>(in, "AP count");
  util::require(n_aps >= 0 && n_aps < 10000000, "scenario parse: AP count");

  // Explicit instances are hand-sized (tests, traces); the loader goes
  // through a dense intermediate, so bound it. Million-user instances travel
  // as geometry, never as explicit matrices.
  util::require(static_cast<int64_t>(n_aps) * static_cast<int64_t>(n_users) <= 10000000,
                "scenario parse: explicit instance too large");
  std::vector<std::vector<double>> link(
      static_cast<size_t>(n_aps), std::vector<double>(static_cast<size_t>(n_users)));

  if (version == "v1") {
    expect_token(in, "link_rates");
    for (auto& row : link) {
      for (auto& r : row) r = read_value<double>(in, "link rate");
    }
  } else {
    expect_token(in, "sparse_links");
    for (int u = 0; u < n_users; ++u) {
      const auto k = read_value<int>(in, "sparse row size");
      util::require(k >= 0 && k <= n_aps, "scenario parse: sparse row size");
      for (int i = 0; i < k; ++i) {
        const auto a = read_value<int>(in, "sparse link AP");
        util::require(a >= 0 && a < n_aps, "scenario parse: sparse link AP out of range");
        const auto r = read_value<double>(in, "sparse link rate");
        util::require(r > 0.0, "scenario parse: sparse link rate must be positive");
        util::require(link[static_cast<size_t>(a)][static_cast<size_t>(u)] == 0.0,
                      "scenario parse: duplicate sparse link");
        link[static_cast<size_t>(a)][static_cast<size_t>(u)] = r;
      }
    }
  }
  return Scenario::from_link_rates(std::move(link), std::move(user_sessions),
                                   std::move(session_rates), budget);
}

bool save_scenario(const Scenario& sc, const std::string& path, const RateTable& table) {
  std::ofstream f(path);
  if (!f) return false;
  f << to_text(sc, table);
  return static_cast<bool>(f);
}

Scenario load_scenario(const std::string& path) {
  std::ifstream f(path);
  util::require(static_cast<bool>(f), "load_scenario: cannot open " + path);
  std::ostringstream buf;
  buf << f.rdbuf();
  return from_text(buf.str());
}

std::string association_to_text(const Association& assoc) {
  std::ostringstream out;
  out << "wmcast-association v1\n";
  out << "users " << assoc.n_users() << "\n";
  for (const int a : assoc.user_ap) out << a << "\n";
  return out.str();
}

Association association_from_text(const std::string& text) {
  std::istringstream in(text);
  expect_token(in, "wmcast-association");
  expect_token(in, "v1");
  expect_token(in, "users");
  const auto n = read_value<int>(in, "user count");
  util::require(n >= 0 && n < 10000000, "association parse: user count");
  Association assoc = Association::none(n);
  for (int u = 0; u < n; ++u) {
    const auto a = read_value<int>(in, "AP id");
    util::require(a >= kNoAp, "association parse: AP id below -1");
    assoc.user_ap[static_cast<size_t>(u)] = a;
  }
  return assoc;
}

bool save_association(const Association& assoc, const std::string& path) {
  std::ofstream f(path);
  if (!f) return false;
  f << association_to_text(assoc);
  return static_cast<bool>(f);
}

Association load_association(const std::string& path) {
  std::ifstream f(path);
  util::require(static_cast<bool>(f), "load_association: cannot open " + path);
  std::ostringstream buf;
  buf << f.rdbuf();
  return association_from_text(buf.str());
}

}  // namespace wmcast::wlan
