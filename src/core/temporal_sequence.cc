#include "core/temporal_sequence.h"

#include <algorithm>
#include <map>

namespace maroon {

std::string Triple::ToString() const {
  return "<" + std::to_string(interval.begin) + ", " +
         std::to_string(interval.end) + ", " + ValueSetToString(values) + ">";
}

Result<TemporalSequence> TemporalSequence::FromTriples(
    std::vector<Triple> triples) {
  TemporalSequence seq;
  for (Triple& t : triples) {
    MAROON_RETURN_IF_ERROR(seq.Append(std::move(t)));
  }
  return seq;
}

Status TemporalSequence::Append(Triple triple) {
  if (!triple.interval.IsValid()) {
    return Status::InvalidArgument("triple interval " +
                                   triple.interval.ToString() +
                                   " has begin > end");
  }
  if (triple.values.empty()) {
    return Status::InvalidArgument("triple must carry at least one value");
  }
  if (!std::is_sorted(triple.values.begin(), triple.values.end()) ||
      std::adjacent_find(triple.values.begin(), triple.values.end()) !=
          triple.values.end()) {
    return Status::InvalidArgument(
        "triple value set is not canonical (sorted, unique); use "
        "MakeValueSet");
  }
  if (!triples_.empty()) {
    const Triple& last = triples_.back();
    if (triple.interval.begin <= last.interval.end) {
      return Status::InvalidArgument(
          "triple " + triple.ToString() + " does not start after " +
          last.ToString() + "; Def. 1 requires e < b'");
    }
    if (triple.interval.begin == last.interval.end + 1 &&
        triple.values == last.values) {
      return Status::InvalidArgument(
          "adjacent triples must have different value sets (Def. 1); got " +
          ValueSetToString(triple.values) + " twice");
    }
  }
  triples_.push_back(std::move(triple));
  return Status::OK();
}

Status TemporalSequence::Insert(Triple triple) {
  if (!triple.interval.IsValid()) {
    return Status::InvalidArgument("triple interval " +
                                   triple.interval.ToString() +
                                   " has begin > end");
  }
  if (triple.values.empty()) {
    return Status::InvalidArgument("triple must carry at least one value");
  }
  triple.values = MakeValueSet(std::move(triple.values));
  auto pos = std::upper_bound(
      triples_.begin(), triples_.end(), triple,
      [](const Triple& a, const Triple& b) { return a.interval < b.interval; });
  triples_.insert(pos, std::move(triple));
  return Status::OK();
}

void TemporalSequence::Normalize() {
  if (triples_.empty()) return;
  // Union values per instant. Sequences in this system are short (careers,
  // publication histories), so a per-instant map is simple and fast enough.
  std::map<TimePoint, ValueSet> by_instant;
  for (const Triple& tr : triples_) {
    for (TimePoint t = tr.interval.begin; t <= tr.interval.end; ++t) {
      by_instant[t] = ValueSetUnion(by_instant[t], tr.values);
    }
  }
  std::vector<Triple> compressed;
  for (const auto& [t, values] : by_instant) {
    if (!compressed.empty() &&
        compressed.back().interval.end + 1 == t &&
        compressed.back().values == values) {
      compressed.back().interval.end = t;
    } else {
      compressed.emplace_back(Interval(t, t), values);
    }
  }
  triples_ = std::move(compressed);
}

bool TemporalSequence::IsCanonical() const {
  for (size_t i = 0; i < triples_.size(); ++i) {
    if (!triples_[i].interval.IsValid() || triples_[i].values.empty()) {
      return false;
    }
    if (i > 0) {
      if (triples_[i].interval.begin <= triples_[i - 1].interval.end) {
        return false;
      }
      // Adjacent triples with identical value sets should have been merged;
      // across a gap the same value set may legitimately recur.
      if (triples_[i].interval.begin == triples_[i - 1].interval.end + 1 &&
          triples_[i].values == triples_[i - 1].values) {
        return false;
      }
    }
  }
  return true;
}

ValueSet TemporalSequence::ValuesAt(TimePoint t) const {
  ValueSet out;
  for (const Triple& tr : triples_) {
    if (tr.interval.begin > t) break;
    if (tr.interval.Contains(t)) out = ValueSetUnion(out, tr.values);
  }
  return out;
}

std::vector<Interval> TemporalSequence::IntervalsOf(const Value& v) const {
  std::vector<Interval> out;
  for (const Triple& tr : triples_) {
    if (ValueSetContains(tr.values, v)) out.push_back(tr.interval);
  }
  return out;
}

int64_t TemporalSequence::Lifespan() const {
  if (triples_.empty()) return 0;
  TimePoint first = triples_.front().interval.begin;
  TimePoint last = first;
  for (const Triple& tr : triples_) {
    last = std::max(last, tr.interval.end);
  }
  return static_cast<int64_t>(last) - first + 1;
}

std::optional<TimePoint> TemporalSequence::LatestOccurrenceBefore(
    const Value& v, TimePoint t, bool strictly_before) const {
  std::optional<TimePoint> best;
  for (const Triple& tr : triples_) {
    if (!ValueSetContains(tr.values, v)) continue;
    TimePoint limit = strictly_before ? t - 1 : t;
    if (tr.interval.begin > limit) continue;
    TimePoint candidate = std::min(tr.interval.end, limit);
    if (!best || candidate > *best) best = candidate;
  }
  return best;
}

bool TemporalSequence::IsCompleteOver(const Interval& window) const {
  return CoverageFraction(window) >= 1.0;
}

double TemporalSequence::CoverageFraction(const Interval& window) const {
  if (!window.IsValid()) return 0.0;
  // Triples may overlap in relaxed mode; merge covered instants.
  int64_t covered = 0;
  TimePoint cursor = window.begin;  // first instant not yet accounted for
  for (const Triple& tr : triples_) {
    Interval iv = tr.interval;
    if (iv.end < cursor) continue;
    if (iv.begin > window.end) break;
    TimePoint from = std::max(iv.begin, cursor);
    TimePoint to = std::min(iv.end, window.end);
    if (from <= to) {
      covered += static_cast<int64_t>(to) - from + 1;
      cursor = to + 1;
      if (cursor > window.end) break;
    }
  }
  return static_cast<double>(covered) / static_cast<double>(window.Length());
}

std::optional<TimePoint> TemporalSequence::EarliestTime() const {
  if (triples_.empty()) return std::nullopt;
  return triples_.front().interval.begin;
}

std::optional<TimePoint> TemporalSequence::LatestTime() const {
  if (triples_.empty()) return std::nullopt;
  TimePoint last = triples_.front().interval.end;
  for (const Triple& tr : triples_) last = std::max(last, tr.interval.end);
  return last;
}

std::string TemporalSequence::ToString() const {
  std::string out = "[";
  for (size_t i = 0; i < triples_.size(); ++i) {
    if (i > 0) out += ", ";
    out += triples_[i].ToString();
  }
  out += "]";
  return out;
}

}  // namespace maroon
