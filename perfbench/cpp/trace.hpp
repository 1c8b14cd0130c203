// Span recorder for the traced run (--trace=1). The benchmark opens one span
// around each public call it makes into a wmcast layer; spans are named
// "<layer>.<call>", carry their parent (the enclosing open span) and a trace
// id shared by the spans of one setup, solve or controller epoch, and stay in
// memory until the run writes them out at exit. With tracing off every call
// is a no-op, so the traced and untraced runs execute the same code.
#pragma once

#include <chrono>
#include <map>
#include <string>
#include <vector>

#include "wmcast/util/json.hpp"

namespace perfbench {

inline double now_seconds() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

class Tracer {
 public:
  struct Span {
    std::string name;      // "<layer>.<call>"
    std::string trace_id;  // shared by one setup / solve / epoch
    int parent = -1;       // index into spans(), -1 = root
    double start_s = 0.0;  // relative to the tracer's creation
    double end_s = 0.0;
  };

  /// Closes its span on destruction. Neither copyable nor movable: it is
  /// bound to one open span of one tracer.
  class Scope {
   public:
    Scope(Tracer* tracer, std::string name, std::string trace_id);
    ~Scope();
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    Tracer* tracer_;  // null when tracing is off
    int index_ = -1;
  };

  explicit Tracer(bool enabled) : enabled_(enabled), origin_s_(now_seconds()) {}

  /// Opens a span; an empty trace id inherits the parent's.
  Scope span(std::string name, std::string trace_id = {}) {
    return Scope(this, std::move(name), std::move(trace_id));
  }

  const std::vector<Span>& spans() const { return spans_; }

  /// Per-layer self time in seconds: each span's duration minus the part its
  /// child spans cover, summed by the layer prefix of its name.
  std::map<std::string, double> self_seconds_by_layer() const;

  /// {"spans": [{name, trace_id, id, parent, start_s, end_s}, ...]}.
  wmcast::util::Json to_json() const;

 private:
  bool enabled_;
  double origin_s_;
  std::vector<Span> spans_;
  std::vector<int> open_;  // stack of open span indices
};

inline Tracer::Scope::Scope(Tracer* tracer, std::string name, std::string trace_id)
    : tracer_(tracer->enabled_ ? tracer : nullptr) {
  if (tracer_ == nullptr) return;
  Span s;
  s.name = std::move(name);
  s.parent = tracer_->open_.empty() ? -1 : tracer_->open_.back();
  s.trace_id = !trace_id.empty() || s.parent < 0
                   ? std::move(trace_id)
                   : tracer_->spans_[static_cast<size_t>(s.parent)].trace_id;
  s.start_s = now_seconds() - tracer_->origin_s_;
  index_ = static_cast<int>(tracer_->spans_.size());
  tracer_->spans_.push_back(std::move(s));
  tracer_->open_.push_back(index_);
}

inline Tracer::Scope::~Scope() {
  if (tracer_ == nullptr) return;
  tracer_->spans_[static_cast<size_t>(index_)].end_s = now_seconds() - tracer_->origin_s_;
  tracer_->open_.pop_back();
}

inline std::map<std::string, double> Tracer::self_seconds_by_layer() const {
  std::vector<double> child_s(spans_.size(), 0.0);
  for (const Span& s : spans_) {
    if (s.parent >= 0) child_s[static_cast<size_t>(s.parent)] += s.end_s - s.start_s;
  }
  std::map<std::string, double> out;
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    const std::string layer = s.name.substr(0, s.name.find('.'));
    out[layer] += (s.end_s - s.start_s) - child_s[i];
  }
  return out;
}

inline wmcast::util::Json Tracer::to_json() const {
  wmcast::util::Json arr = wmcast::util::Json::array();
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    wmcast::util::Json j = wmcast::util::Json::object();
    j.set("name", s.name);
    j.set("trace_id", s.trace_id);
    j.set("id", static_cast<int64_t>(i));
    j.set("parent", s.parent);
    j.set("start_s", s.start_s);
    j.set("end_s", s.end_s);
    arr.push(std::move(j));
  }
  wmcast::util::Json doc = wmcast::util::Json::object();
  doc.set("spans", std::move(arr));
  return doc;
}

}  // namespace perfbench
