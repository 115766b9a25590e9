#include "trace.h"

#include <algorithm>
#include <utility>

#include "json.h"

namespace perfbench {

double Trace::Span::end() {
  if (trace_ == nullptr) return seconds_;
  Record& record = trace_->records_[index_];
  record.end = Clock::now();
  auto& open = trace_->open_;
  // Spans close innermost-first; tolerate an out-of-order close anyway.
  if (const auto it = std::find(open.rbegin(), open.rend(), index_);
      it != open.rend())
    open.erase(std::next(it).base());
  seconds_ = Trace::seconds(record);
  trace_ = nullptr;
  return seconds_;
}

Trace::Span Trace::span(std::string name, std::string detail) {
  Record record;
  record.name = std::move(name);
  record.detail = std::move(detail);
  record.parent = open_.empty() ? -1 : static_cast<int>(open_.back());
  record.op = op_;
  record.start = Clock::now();
  record.end = record.start;
  records_.push_back(std::move(record));
  open_.push_back(records_.size() - 1);
  return Span(*this, records_.size() - 1);
}

std::size_t Trace::add(Record record) {
  records_.push_back(std::move(record));
  return records_.size() - 1;
}

void Trace::count(std::string name, double value) {
  counts_.push_back({std::move(name), value, Clock::now(), op_});
}

double Trace::seconds(const Record& record) {
  return std::chrono::duration<double>(record.end - record.start).count();
}

double Trace::self_seconds(std::size_t index) const {
  const Record& parent = records_[index];
  std::vector<std::pair<Clock::time_point, Clock::time_point>> children;
  for (const Record& record : records_) {
    if (record.parent != static_cast<int>(index)) continue;
    const auto lo = std::max(record.start, parent.start);
    const auto hi = std::min(record.end, parent.end);
    if (lo < hi) children.emplace_back(lo, hi);
  }
  std::sort(children.begin(), children.end());
  Clock::duration covered{};
  Clock::time_point reach = parent.start;
  for (const auto& [lo, hi] : children) {
    const auto from = std::max(lo, reach);
    if (hi > from) covered += hi - from;
    reach = std::max(reach, hi);
  }
  return std::chrono::duration<double>(parent.end - parent.start - covered)
      .count();
}

std::string Trace::chrome_json() const {
  Clock::time_point origin{};
  if (!records_.empty()) {
    origin = records_.front().start;
    for (const Record& record : records_) origin = std::min(origin, record.start);
  }
  const auto micros = [origin](Clock::time_point t) {
    return std::chrono::duration<double, std::micro>(t - origin).count();
  };
  Json json;
  json.begin_object().key("traceEvents").begin_array();
  for (std::size_t i = 0; i < records_.size(); ++i) {
    const Record& record = records_[i];
    json.begin_object()
        .key("name").value(record.name)
        .key("ph").value("X")
        .key("pid").value(std::uint64_t{1})
        .key("tid").value(std::uint64_t{1})
        .key("ts").value(micros(record.start))
        .key("dur").value(micros(record.end) - micros(record.start))
        .key("args").begin_object()
        .key("op").value(record.op)
        .key("span").value(static_cast<std::uint64_t>(i))
        .key("parent").value(static_cast<double>(record.parent))
        .key("self_us").value(self_seconds(i) * 1e6);
    if (!record.detail.empty()) json.key("detail").value(record.detail);
    json.end_object().end_object();
  }
  for (const Count& count : counts_) {
    json.begin_object()
        .key("name").value(count.name)
        .key("ph").value("C")
        .key("pid").value(std::uint64_t{1})
        .key("tid").value(std::uint64_t{1})
        .key("ts").value(micros(count.at))
        .key("args").begin_object().key("value").value(count.value).end_object()
        .end_object();
  }
  json.end_array().end_object();
  return json.str();
}

}  // namespace perfbench
