#pragma once

// In-memory span recorder for the frame benchmark's traced run. Spans are
// opened around the benchmark's own calls into each layer (never inside the
// program), kept in memory, and written once to DIR/spans.json when the run
// ends, so recording costs a clock read and a vector append per span.
//
// Single-threaded: the benchmark's driver loop is the only caller.

#include <chrono>
#include <cstdint>
#include <fstream>
#include <string>
#include <utility>
#include <vector>

#include "util/error.hpp"

namespace gridse::bench {

class SpanRecorder {
 public:
  struct Span {
    std::string name;
    std::int64_t frame = -1;  ///< -1 = set-up, otherwise the frame index
    int parent = -1;          ///< index into spans(), -1 = root
    double start_s = 0.0;     ///< seconds since the recorder was created
    double end_s = 0.0;
    std::vector<std::pair<std::string, double>> attrs;
  };

  /// RAII span: open on construction, closed on destruction. A null
  /// recorder makes it a no-op, so untraced runs share the traced code.
  class Scope {
   public:
    Scope(SpanRecorder* recorder, std::string name, std::int64_t frame)
        : recorder_(recorder),
          id_(recorder != nullptr ? recorder->open(std::move(name), frame)
                                  : -1) {}
    ~Scope() {
      if (recorder_ != nullptr) recorder_->close(id_);
    }
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

    void attr(std::string key, double value) {
      if (recorder_ != nullptr) {
        recorder_->spans_[static_cast<std::size_t>(id_)].attrs.emplace_back(
            std::move(key), value);
      }
    }

   private:
    SpanRecorder* recorder_;
    int id_;
  };

  /// Write every span as {"spans": [{name, frame, parent, start_s, end_s,
  /// attrs}]}; parent is an index into the same array.
  void write_json(const std::string& path) const {
    std::ofstream out(path);
    if (!out) {
      throw InvalidInput("span recorder: cannot write " + path);
    }
    out.precision(17);
    out << "{\"spans\": [";
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      out << (i == 0 ? "\n" : ",\n") << "  {\"name\": \"" << s.name
          << "\", \"frame\": " << s.frame << ", \"parent\": " << s.parent
          << ", \"start_s\": " << s.start_s << ", \"end_s\": " << s.end_s
          << ", \"attrs\": {";
      for (std::size_t a = 0; a < s.attrs.size(); ++a) {
        out << (a == 0 ? "" : ", ") << '"' << s.attrs[a].first
            << "\": " << s.attrs[a].second;
      }
      out << "}}";
    }
    out << "\n]}\n";
    if (!out) {
      throw InvalidInput("span recorder: short write to " + path);
    }
  }

 private:
  using Clock = std::chrono::steady_clock;

  int open(std::string name, std::int64_t frame) {
    Span span;
    span.name = std::move(name);
    span.frame = frame;
    span.parent = open_.empty() ? -1 : open_.back();
    span.start_s = now();
    spans_.push_back(std::move(span));
    open_.push_back(static_cast<int>(spans_.size()) - 1);
    return open_.back();
  }

  void close(int id) {
    spans_[static_cast<std::size_t>(id)].end_s = now();
    open_.pop_back();
  }

  [[nodiscard]] double now() const {
    return std::chrono::duration<double>(Clock::now() - origin_).count();
  }

  Clock::time_point origin_ = Clock::now();
  std::vector<Span> spans_;
  std::vector<int> open_;
};

}  // namespace gridse::bench
