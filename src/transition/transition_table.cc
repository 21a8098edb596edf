#include "transition/transition_table.h"

#include <algorithm>

#include "common/logging.h"

namespace maroon {

namespace {

ValueId FromOf(TransitionTable::PackedPair key) {
  return static_cast<ValueId>(key >> 32);
}

ValueId ToOf(TransitionTable::PackedPair key) {
  return static_cast<ValueId>(key & 0xffffffffu);
}

}  // namespace

ValueDictionary::ValueDictionary(std::vector<Value> sorted_values)
    : values_(std::move(sorted_values)) {
  MAROON_CHECK(values_.size() < kNoValueId);
  ids_.reserve(values_.size());
  for (size_t i = 0; i < values_.size(); ++i) {
    MAROON_DCHECK(i == 0 || values_[i - 1] < values_[i]);
    ids_.emplace(values_[i], static_cast<ValueId>(i));
  }
}

ValueId ValueDictionary::Find(std::string_view value) const {
  auto it = ids_.find(value);
  return it != ids_.end() ? it->second : kNoValueId;
}

TransitionTable::TransitionTable(
    std::shared_ptr<const ValueDictionary> dictionary,
    std::vector<std::pair<PackedPair, int64_t>> counts)
    : dictionary_(std::move(dictionary)) {
  Build(std::move(counts));
}

void TransitionTable::Add(const Value& from, const Value& to, int64_t count) {
  MAROON_DCHECK(count > 0);
  staged_.emplace_back(from, to, count);
}

void TransitionTable::Finalize() {
  std::vector<std::tuple<Value, Value, int64_t>> entries = Entries();
  entries.insert(entries.end(), std::make_move_iterator(staged_.begin()),
                 std::make_move_iterator(staged_.end()));
  staged_.clear();

  std::vector<Value> values;
  values.reserve(2 * entries.size());
  for (const auto& [from, to, count] : entries) {
    values.push_back(from);
    values.push_back(to);
  }
  dictionary_ = std::make_shared<const ValueDictionary>(
      MakeValueSet(std::move(values)));

  std::vector<std::pair<PackedPair, int64_t>> counts;
  counts.reserve(entries.size());
  for (const auto& [from, to, count] : entries) {
    counts.emplace_back(Pack(dictionary_->Find(from), dictionary_->Find(to)),
                        count);
  }
  Build(std::move(counts));
}

void TransitionTable::Build(
    std::vector<std::pair<PackedPair, int64_t>> counts) {
  std::sort(counts.begin(), counts.end());
  // Sum duplicate pairs in place.
  size_t unique = 0;
  for (size_t i = 0; i < counts.size(); ++i) {
    MAROON_DCHECK(counts[i].second > 0);
    if (unique > 0 && counts[unique - 1].first == counts[i].first) {
      counts[unique - 1].second += counts[i].second;
    } else {
      counts[unique++] = counts[i];
    }
  }
  counts.resize(unique);
  MAROON_CHECK(counts.size() < std::numeric_limits<uint32_t>::max());

  const size_t num_ids = dictionary_ != nullptr ? dictionary_->size() : 0;
  row_begin_.assign(num_ids + 1, 0);
  destinations_.resize(counts.size());
  counts_.resize(counts.size());
  row_sums_.assign(num_ids, 0);
  min_row_probability_.assign(num_ids, 0.0);
  column_sums_.assign(num_ids, 0);
  total_ = 0;
  self_total_ = 0;

  for (size_t i = 0; i < counts.size(); ++i) {
    const ValueId from = FromOf(counts[i].first);
    const ValueId to = ToOf(counts[i].first);
    MAROON_DCHECK(from < num_ids && to < num_ids);
    const int64_t count = counts[i].second;
    ++row_begin_[from + 1];
    destinations_[i] = to;
    counts_[i] = count;
    row_sums_[from] += count;
    column_sums_[to] += count;
    total_ += count;
    if (from == to) self_total_ += count;
  }
  for (size_t id = 0; id < num_ids; ++id) {
    row_begin_[id + 1] += row_begin_[id];
  }

  // Ids order like their values, so every row below is visited in the
  // value order the floating-point sums were defined in.
  double expected = 0.0;
  for (size_t from = 0; from < num_ids; ++from) {
    const uint32_t begin = row_begin_[from];
    const uint32_t end = row_begin_[from + 1];
    if (begin == end) continue;
    const double row_sum = static_cast<double>(row_sums_[from]);
    double min_p = 1.0;
    for (uint32_t i = begin; i < end; ++i) {
      const double p = static_cast<double>(counts_[i]) / row_sum;
      min_p = std::min(min_p, p);
      // Eq. 7-8: expected number of value-changing occurrences.
      if (destinations_[i] != from) {
        expected += p * static_cast<double>(counts_[i]);
      }
    }
    min_row_probability_[from] = min_p;
  }
  const int64_t diff_total = total_ - self_total_;
  case4_diff_probability_ =
      diff_total > 0 ? expected / static_cast<double>(diff_total) : 0.0;
}

int64_t TransitionTable::Count(ValueId from, ValueId to) const {
  if (from >= row_sums_.size()) return 0;
  const auto begin = destinations_.begin() + row_begin_[from];
  const auto end = destinations_.begin() + row_begin_[from + 1];
  const auto it = std::lower_bound(begin, end, to);
  return it != end && *it == to ? counts_[it - destinations_.begin()] : 0;
}

double TransitionTable::ConditionalProbability(ValueId from,
                                               ValueId to) const {
  const int64_t row_sum = RowSum(from);
  if (row_sum == 0) return 0.0;
  return static_cast<double>(Count(from, to)) / static_cast<double>(row_sum);
}

double TransitionTable::PriorProbability(ValueId to) const {
  if (total_ == 0) return 0.0;
  return static_cast<double>(ColumnSum(to)) / static_cast<double>(total_);
}

double TransitionTable::RecurrenceProbability() const {
  if (total_ == 0) return 0.0;
  return static_cast<double>(self_total_) / static_cast<double>(total_);
}

std::vector<std::tuple<Value, Value, int64_t>> TransitionTable::Entries()
    const {
  std::vector<std::tuple<Value, Value, int64_t>> out;
  out.reserve(NumEntries());
  for (size_t from = 0; from < row_sums_.size(); ++from) {
    for (uint32_t i = row_begin_[from]; i < row_begin_[from + 1]; ++i) {
      out.emplace_back(dictionary_->value(static_cast<ValueId>(from)),
                       dictionary_->value(destinations_[i]), counts_[i]);
    }
  }
  return out;
}

}  // namespace maroon
