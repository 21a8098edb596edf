#include "core/validation.h"

#include <algorithm>
#include <sstream>

#include "common/string_util.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace maroon {

namespace {

/// The foreign separator the repair path knows how to undo. Harvested feeds
/// often pipe-join multi-values; SplitValues only understands ';'.
constexpr char kForeignSeparator = '|';

bool HasSurroundingWhitespace(const Value& v) {
  return !v.empty() && (StripWhitespace(v).size() != v.size());
}

bool HasForeignSeparator(const Value& v) {
  return v.find(kForeignSeparator) != std::string::npos;
}

/// Re-splits values carrying the foreign separator and trims surrounding
/// whitespace. Returns false, leaving `repaired` untouched, when nothing
/// changes.
bool RepairValues(const ValueSet& values, ValueSet* repaired) {
  bool changed = false;
  std::vector<Value> rebuilt;
  for (const Value& v : values) {
    std::vector<std::string> parts;
    if (HasForeignSeparator(v)) {
      parts = Split(v, kForeignSeparator);
      changed = true;
    } else {
      parts.push_back(v);
    }
    for (const std::string& part : parts) {
      std::string trimmed(StripWhitespace(part));
      if (trimmed.size() != part.size()) changed = true;
      if (!trimmed.empty()) rebuilt.push_back(std::move(trimmed));
    }
  }
  if (changed) *repaired = MakeValueSet(std::move(rebuilt));
  return changed;
}

/// One cell RepairRecord changes: the attribute and its repaired value set.
struct RepairedCell {
  Attribute attribute;
  ValueSet values;
};

/// The cells of `record` that RepairRecord changes, in attribute order.
std::vector<RepairedCell> RepairedCells(const TemporalRecord& record) {
  std::vector<RepairedCell> out;
  for (const auto& [attribute, values] : record.values()) {
    ValueSet repaired;
    if (RepairValues(values, &repaired)) {
      out.push_back(RepairedCell{attribute, std::move(repaired)});
    }
  }
  return out;
}

void AddIssue(ValidationReport* report, IssueCode code, IssueSeverity severity,
              std::string location, std::string detail) {
  report->issues.push_back(ValidationIssue{code, severity, std::move(location),
                                           std::move(detail)});
}

/// True iff the record carries an error-severity issue that RepairRecord
/// cannot fix (used to decide quarantine under kRepair).
bool IssueIsRecordRepairable(IssueCode code) {
  return code == IssueCode::kMangledSeparator ||
         code == IssueCode::kNonCanonicalValue;
}

}  // namespace

std::string_view RepairPolicyName(RepairPolicy policy) {
  switch (policy) {
    case RepairPolicy::kStrict:
      return "strict";
    case RepairPolicy::kQuarantine:
      return "quarantine";
    case RepairPolicy::kRepair:
      return "repair";
  }
  return "unknown";
}

Result<RepairPolicy> ParseRepairPolicy(const std::string& name) {
  const std::string lower = ToLowerAscii(name);
  if (lower == "strict") return RepairPolicy::kStrict;
  if (lower == "quarantine") return RepairPolicy::kQuarantine;
  if (lower == "repair") return RepairPolicy::kRepair;
  return Status::InvalidArgument(
      "unknown repair policy '" + name +
      "'; expected strict, quarantine, or repair");
}

std::string_view IssueCodeToString(IssueCode code) {
  switch (code) {
    case IssueCode::kWrongColumnCount:
      return "WrongColumnCount";
    case IssueCode::kBadTimestamp:
      return "BadTimestamp";
    case IssueCode::kInvertedInterval:
      return "InvertedInterval";
    case IssueCode::kDuplicateRecordId:
      return "DuplicateRecordId";
    case IssueCode::kUnknownSource:
      return "UnknownSource";
    case IssueCode::kMissingName:
      return "MissingName";
    case IssueCode::kTimestampOutOfWindow:
      return "TimestampOutOfWindow";
    case IssueCode::kMangledSeparator:
      return "MangledSeparator";
    case IssueCode::kNonCanonicalValue:
      return "NonCanonicalValue";
    case IssueCode::kNonCanonicalSequence:
      return "NonCanonicalSequence";
    case IssueCode::kEmptyProfile:
      return "EmptyProfile";
    case IssueCode::kBadRow:
      return "BadRow";
  }
  return "Unknown";
}

std::string ValidationIssue::ToString() const {
  std::string out(IssueCodeToString(code));
  out += severity == IssueSeverity::kError ? " (error)" : " (warning)";
  out += " at " + location + ": " + detail;
  return out;
}

size_t ValidationReport::CountOf(IssueCode code) const {
  return static_cast<size_t>(
      std::count_if(issues.begin(), issues.end(),
                    [code](const ValidationIssue& i) { return i.code == code; }));
}

size_t ValidationReport::ErrorCount() const {
  return static_cast<size_t>(std::count_if(
      issues.begin(), issues.end(), [](const ValidationIssue& i) {
        return i.severity == IssueSeverity::kError;
      }));
}

void ValidationReport::Merge(ValidationReport other) {
  issues.insert(issues.end(), std::make_move_iterator(other.issues.begin()),
                std::make_move_iterator(other.issues.end()));
  quarantined_records.insert(quarantined_records.end(),
                             other.quarantined_records.begin(),
                             other.quarantined_records.end());
  quarantined_rows += other.quarantined_rows;
  records_checked += other.records_checked;
  profiles_checked += other.profiles_checked;
  repairs_applied += other.repairs_applied;
}

Status ValidationReport::ToStatus() const {
  const size_t errors = ErrorCount();
  if (errors == 0) return Status::OK();
  std::string msg = "validation found " + std::to_string(errors) +
                    " error(s) in " + std::to_string(issues.size()) +
                    " issue(s); first: ";
  for (const ValidationIssue& issue : issues) {
    if (issue.severity == IssueSeverity::kError) {
      msg += issue.ToString();
      break;
    }
  }
  return Status::InvalidArgument(std::move(msg));
}

std::string ValidationReport::ToString() const {
  std::ostringstream os;
  os << "ValidationReport: " << issues.size() << " issue(s) ("
     << ErrorCount() << " error(s)) over " << records_checked
     << " record(s), " << profiles_checked << " profile(s); "
     << TotalQuarantined() << " quarantined ("
     << quarantined_rows << " row(s), " << quarantined_records.size()
     << " record(s)), " << repairs_applied << " repair(s)\n";
  // Aggregate per issue code so megabyte-scale reports stay readable.
  std::vector<IssueCode> seen;
  for (const ValidationIssue& issue : issues) {
    if (std::find(seen.begin(), seen.end(), issue.code) == seen.end()) {
      seen.push_back(issue.code);
    }
  }
  for (IssueCode code : seen) {
    os << "  " << IssueCodeToString(code) << ": " << CountOf(code) << "\n";
  }
  constexpr size_t kMaxDetailed = 20;
  for (size_t i = 0; i < issues.size() && i < kMaxDetailed; ++i) {
    os << "  - " << issues[i].ToString() << "\n";
  }
  if (issues.size() > kMaxDetailed) {
    os << "  ... (" << issues.size() - kMaxDetailed << " more)\n";
  }
  return os.str();
}

void ValidateRecord(const TemporalRecord& record, size_t num_sources,
                    const ValidationOptions& options,
                    ValidationReport* report) {
  ++report->records_checked;
  const std::string location = "record " + std::to_string(record.id());
  if (record.name().empty() ||
      StripWhitespace(record.name()).empty()) {
    AddIssue(report, IssueCode::kMissingName, IssueSeverity::kError, location,
             "record mentions no entity name");
  }
  if (record.source() >= num_sources) {
    AddIssue(report, IssueCode::kUnknownSource, IssueSeverity::kError,
             location,
             "source id " + std::to_string(record.source()) +
                 " is not registered (only " + std::to_string(num_sources) +
                 " sources)");
  }
  if (options.plausible_window.has_value() &&
      !options.plausible_window->Contains(record.timestamp())) {
    AddIssue(report, IssueCode::kTimestampOutOfWindow, IssueSeverity::kError,
             location,
             "timestamp " + std::to_string(record.timestamp()) +
                 " lies outside the plausible window " +
                 options.plausible_window->ToString());
  }
  for (const auto& [attribute, values] : record.values()) {
    for (const Value& v : values) {
      if (HasForeignSeparator(v)) {
        AddIssue(report, IssueCode::kMangledSeparator, IssueSeverity::kError,
                 location + " attribute " + attribute,
                 "value '" + v + "' carries a foreign '|' separator");
      } else if (HasSurroundingWhitespace(v)) {
        AddIssue(report, IssueCode::kNonCanonicalValue,
                 IssueSeverity::kWarning, location + " attribute " + attribute,
                 "value '" + v + "' has surrounding whitespace");
      }
    }
  }
}

size_t RepairRecord(TemporalRecord* record) {
  std::vector<RepairedCell> cells = RepairedCells(*record);
  for (RepairedCell& cell : cells) {
    record->SetValue(cell.attribute, std::move(cell.values));
  }
  return cells.size();
}

void ValidateProfile(const EntityProfile& profile, const std::string& location,
                     ValidationReport* report) {
  ++report->profiles_checked;
  if (profile.empty()) {
    AddIssue(report, IssueCode::kEmptyProfile, IssueSeverity::kWarning,
             location, "profile has no triples for any attribute");
    return;
  }
  for (const auto& [attribute, seq] : profile.sequences()) {
    const std::string where = location + " attribute " + attribute;
    for (size_t i = 0; i < seq.size(); ++i) {
      const Triple& tr = seq.at(i);
      if (!tr.interval.IsValid()) {
        AddIssue(report, IssueCode::kInvertedInterval, IssueSeverity::kError,
                 where + " triple " + std::to_string(i),
                 "interval " + tr.interval.ToString() + " has begin > end");
      }
      if (tr.values.empty()) {
        AddIssue(report, IssueCode::kBadRow, IssueSeverity::kError,
                 where + " triple " + std::to_string(i),
                 "triple carries no values");
      }
      for (const Value& v : tr.values) {
        if (HasForeignSeparator(v)) {
          AddIssue(report, IssueCode::kMangledSeparator, IssueSeverity::kError,
                   where + " triple " + std::to_string(i),
                   "value '" + v + "' carries a foreign '|' separator");
        } else if (HasSurroundingWhitespace(v)) {
          AddIssue(report, IssueCode::kNonCanonicalValue,
                   IssueSeverity::kWarning,
                   where + " triple " + std::to_string(i),
                   "value '" + v + "' has surrounding whitespace");
        }
      }
    }
    if (!seq.IsCanonical()) {
      // Only flag sequences whose triples are individually sound; inverted
      // intervals and empty value sets were already reported above.
      bool triples_sound = true;
      for (const Triple& tr : seq.triples()) {
        if (!tr.interval.IsValid() || tr.values.empty()) {
          triples_sound = false;
          break;
        }
      }
      if (triples_sound) {
        AddIssue(report, IssueCode::kNonCanonicalSequence,
                 IssueSeverity::kWarning, where,
                 "sequence is not in canonical form (overlapping or "
                 "unmerged triples)");
      }
    }
  }
}

size_t RepairProfile(EntityProfile* profile) {
  size_t repairs = 0;
  bool needs_normalize = false;
  for (const Attribute& attribute : profile->Attributes()) {
    TemporalSequence& seq = profile->sequence(attribute);
    std::vector<Triple> kept;
    bool changed = false;
    for (const Triple& tr : seq.triples()) {
      Triple fixed = tr;
      if (!fixed.interval.IsValid()) {
        std::swap(fixed.interval.begin, fixed.interval.end);
        changed = true;
      }
      if (RepairValues(tr.values, &fixed.values)) changed = true;
      if (fixed.values.empty()) {
        changed = true;  // Drop value-less triples entirely.
        continue;
      }
      kept.push_back(std::move(fixed));
    }
    if (changed) {
      TemporalSequence rebuilt_seq;
      for (Triple& tr : kept) {
        // Insert tolerates any order/overlap; Normalize restores Def. 1.
        (void)rebuilt_seq.Insert(std::move(tr));
      }
      seq = std::move(rebuilt_seq);
      needs_normalize = true;
      ++repairs;
    } else if (!seq.IsCanonical()) {
      needs_normalize = true;
      ++repairs;
    }
  }
  if (needs_normalize) profile->Normalize();
  return repairs;
}

std::optional<Interval> PlausibleWindowOf(const Dataset& dataset) {
  bool seen = false;
  TimePoint lo = 0, hi = 0;
  for (const auto& [id, target] : dataset.targets()) {
    for (const EntityProfile* profile :
         {&target.clean_profile, &target.ground_truth}) {
      const auto earliest = profile->EarliestTime();
      const auto latest = profile->LatestTime();
      if (!earliest.has_value() || !latest.has_value()) continue;
      if (!seen) {
        lo = *earliest;
        hi = *latest;
        seen = true;
      } else {
        lo = std::min(lo, *earliest);
        hi = std::max(hi, *latest);
      }
    }
  }
  if (!seen) return std::nullopt;
  const int64_t pad = std::max<int64_t>(static_cast<int64_t>(hi) - lo + 1, 10);
  return Interval(static_cast<TimePoint>(lo - pad),
                  static_cast<TimePoint>(hi + pad));
}

void PublishValidationMetrics(const ValidationReport& report) {
  MAROON_COUNTER("maroon.validation.records_checked")
      ->Add(static_cast<int64_t>(report.records_checked));
  MAROON_COUNTER("maroon.validation.profiles_checked")
      ->Add(static_cast<int64_t>(report.profiles_checked));
  MAROON_COUNTER("maroon.validation.issues")
      ->Add(static_cast<int64_t>(report.issues.size()));
  MAROON_COUNTER("maroon.validation.errors")
      ->Add(static_cast<int64_t>(report.ErrorCount()));
  MAROON_COUNTER("maroon.validation.quarantined_records")
      ->Add(static_cast<int64_t>(report.quarantined_records.size()));
  MAROON_COUNTER("maroon.validation.quarantined_rows")
      ->Add(static_cast<int64_t>(report.quarantined_rows));
  MAROON_COUNTER("maroon.validation.repairs_applied")
      ->Add(static_cast<int64_t>(report.repairs_applied));
}

ValidationReport ValidateDataset(Dataset* dataset,
                                 const ValidationOptions& options) {
  MAROON_TRACE_SPAN("validate.dataset");
  ValidationReport report;
  std::vector<RecordId> to_quarantine;

  for (const TemporalRecord& record : dataset->records()) {
    ValidationReport local;
    ValidateRecord(record, dataset->sources().size(), options, &local);
    bool quarantine = local.ErrorCount() > 0;
    if (quarantine && options.policy == RepairPolicy::kRepair) {
      // Quarantine only if an unrepairable error remains.
      quarantine = false;
      for (const ValidationIssue& issue : local.issues) {
        if (issue.severity == IssueSeverity::kError &&
            !IssueIsRecordRepairable(issue.code)) {
          quarantine = true;
          break;
        }
      }
    }
    report.Merge(std::move(local));
    if (options.policy != RepairPolicy::kStrict && quarantine) {
      to_quarantine.push_back(record.id());
    }
  }

  if (options.policy == RepairPolicy::kRepair) {
    // to_quarantine is ascending: it was filled in record order.
    for (RecordId id = 0; id < dataset->NumRecords(); ++id) {
      if (std::binary_search(to_quarantine.begin(), to_quarantine.end(), id)) {
        continue;
      }
      for (RepairedCell& cell : RepairedCells(dataset->record(id))) {
        dataset->SetRecordValue(id, cell.attribute, std::move(cell.values));
        ++report.repairs_applied;
      }
    }
  }

  std::vector<EntityId> target_ids;
  for (const auto& [id, target] : dataset->targets()) target_ids.push_back(id);
  for (const EntityId& id : target_ids) {
    TargetEntity* target = dataset->mutable_target(id);
    ValidationReport profile_report;
    ValidateProfile(target->clean_profile, "target " + id + " (clean)",
                    &profile_report);
    ValidateProfile(target->ground_truth, "target " + id + " (truth)",
                    &profile_report);
    if (options.policy == RepairPolicy::kRepair &&
        !profile_report.issues.empty()) {
      report.repairs_applied += RepairProfile(&target->clean_profile);
      report.repairs_applied += RepairProfile(&target->ground_truth);
    }
    report.Merge(std::move(profile_report));
  }

  if (!to_quarantine.empty()) {
    report.quarantined_records = to_quarantine;
    dataset->EraseRecords(to_quarantine);
  }
  return report;
}

}  // namespace maroon
