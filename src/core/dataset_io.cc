#include "core/dataset_io.h"

#include <charconv>
#include <map>
#include <set>
#include <system_error>
#include <utility>

#include "common/csv.h"
#include "common/string_util.h"
#include "obs/trace.h"

namespace maroon {

namespace {

constexpr char kValueSeparator[] = "; ";

std::string JoinValues(const ValueSet& values) {
  return Join(values, kValueSeparator);
}

ValueSet SplitValues(const std::string& cell) {
  if (cell.empty()) return {};
  std::vector<std::string> parts = Split(cell, ';');
  std::vector<Value> values;
  for (std::string& p : parts) {
    std::string trimmed(StripWhitespace(p));
    if (!trimmed.empty()) values.push_back(std::move(trimmed));
  }
  return MakeValueSet(std::move(values));
}

/// Shared state of one load: the policy decides whether a malformed row
/// aborts the load (strict) or is quarantined into the report (lenient).
struct LoadContext {
  RepairPolicy policy = RepairPolicy::kStrict;
  ValidationReport* report = nullptr;  // always non-null internally

  bool lenient() const { return policy != RepairPolicy::kStrict; }

  /// Registers a bad row. Strict: returns the error to propagate. Lenient:
  /// records the issue, counts the quarantined row, and returns OK so the
  /// caller can skip the row and continue.
  Status BadRow(IssueCode code, std::string location, std::string detail) {
    if (!lenient()) {
      return Status::InvalidArgument(location + ": " + detail);
    }
    report->issues.push_back(ValidationIssue{
        code, IssueSeverity::kError, std::move(location), std::move(detail)});
    ++report->quarantined_rows;
    return Status::OK();
  }
};

Result<Dataset> ReadDatasetCsvImpl(const std::string& directory,
                                   const CsvLoadOptions& options,
                                   bool post_validate,
                                   ValidationReport* report) {
  MAROON_TRACE_SPAN("io.read_dataset");
  ValidationReport scratch;
  LoadContext ctx{options.validation.policy,
                  report != nullptr ? report : &scratch};
  Dataset dataset;

  // sources.csv
  std::map<std::string, SourceId> source_ids;
  {
    MAROON_ASSIGN_OR_RETURN(auto rows,
                            ReadCsvFile(directory + "/sources.csv"));
    if (rows.empty()) {
      return Status::InvalidArgument("sources.csv is empty");
    }
    for (size_t i = 1; i < rows.size(); ++i) {
      if (rows[i].size() < 2) {
        MAROON_RETURN_IF_ERROR(ctx.BadRow(
            IssueCode::kWrongColumnCount,
            "sources.csv row " + std::to_string(i),
            "expected 2 columns, got " + std::to_string(rows[i].size())));
        continue;
      }
      if (source_ids.count(rows[i][1]) == 0) {
        source_ids[rows[i][1]] = dataset.AddSource(rows[i][1]);
      }
    }
  }

  // records.csv
  {
    MAROON_ASSIGN_OR_RETURN(auto rows,
                            ReadCsvFile(directory + "/records.csv"));
    if (rows.empty()) {
      return Status::InvalidArgument("records.csv is empty");
    }
    const std::vector<std::string>& header = rows[0];
    if (header.size() < 5) {
      return Status::InvalidArgument("records.csv header too short");
    }
    std::vector<Attribute> attributes(header.begin() + 5, header.end());
    dataset.SetAttributes(attributes);

    std::set<std::string> seen_ids;
    for (size_t i = 1; i < rows.size(); ++i) {
      const auto& row = rows[i];
      const std::string location = "records.csv row " + std::to_string(i);
      if (row.size() != header.size()) {
        MAROON_RETURN_IF_ERROR(ctx.BadRow(
            IssueCode::kWrongColumnCount, location,
            "expected " + std::to_string(header.size()) + " columns, got " +
                std::to_string(row.size())));
        continue;
      }
      if (!seen_ids.insert(row[0]).second) {
        MAROON_RETURN_IF_ERROR(
            ctx.BadRow(IssueCode::kDuplicateRecordId, location,
                       "record id '" + row[0] + "' already appeared"));
        continue;
      }
      TimePoint timestamp = 0;
      if (Status parsed = ParseTimePoint(row[2], &timestamp); !parsed.ok()) {
        MAROON_RETURN_IF_ERROR(ctx.BadRow(IssueCode::kBadTimestamp, location,
                                          parsed.message()));
        continue;
      }
      auto source_it = source_ids.find(row[3]);
      if (source_it == source_ids.end()) {
        MAROON_RETURN_IF_ERROR(
            ctx.BadRow(IssueCode::kUnknownSource, location,
                       "references unknown source '" + row[3] + "'"));
        continue;
      }
      if (ctx.lenient() && StripWhitespace(row[1]).empty()) {
        MAROON_RETURN_IF_ERROR(ctx.BadRow(IssueCode::kMissingName, location,
                                          "record mentions no entity name"));
        continue;
      }
      TemporalRecord record(0, row[1], timestamp, source_it->second);
      for (size_t a = 0; a < attributes.size(); ++a) {
        record.SetValue(attributes[a], SplitValues(row[5 + a]));
      }
      const RecordId id = dataset.AddRecord(std::move(record));
      if (!row[4].empty()) {
        MAROON_RETURN_IF_ERROR(dataset.SetLabel(id, row[4]));
      }
    }
  }

  // profiles.csv
  {
    MAROON_ASSIGN_OR_RETURN(auto rows,
                            ReadCsvFile(directory + "/profiles.csv"));
    std::map<EntityId, TargetEntity> targets;
    for (size_t i = 1; i < rows.size(); ++i) {
      const auto& row = rows[i];
      const std::string location = "profiles.csv row " + std::to_string(i);
      if (row.size() != 7) {
        MAROON_RETURN_IF_ERROR(ctx.BadRow(
            IssueCode::kWrongColumnCount, location,
            "expected 7 columns, got " + std::to_string(row.size())));
        continue;
      }
      const EntityId& id = row[0];
      EntityProfile* profile = nullptr;
      if (row[2] == "clean") {
        profile = &targets[id].clean_profile;
      } else if (row[2] == "truth") {
        profile = &targets[id].ground_truth;
      } else {
        MAROON_RETURN_IF_ERROR(ctx.BadRow(IssueCode::kBadRow, location,
                                          "unknown kind '" + row[2] + "'"));
        continue;
      }
      if (profile->id().empty()) {
        *profile = EntityProfile(id, row[1]);
      }
      TimePoint begin = 0, end = 0;
      Status parsed = ParseTimePoint(row[4], &begin);
      if (parsed.ok()) parsed = ParseTimePoint(row[5], &end);
      if (!parsed.ok()) {
        MAROON_RETURN_IF_ERROR(ctx.BadRow(IssueCode::kBadTimestamp, location,
                                          parsed.message()));
        continue;
      }
      if (begin > end) {
        if (ctx.policy == RepairPolicy::kRepair) {
          ctx.report->issues.push_back(ValidationIssue{
              IssueCode::kInvertedInterval, IssueSeverity::kError, location,
              "interval [" + std::to_string(begin) + ", " +
                  std::to_string(end) + "] has begin > end; swapped"});
          std::swap(begin, end);
          ++ctx.report->repairs_applied;
        } else {
          MAROON_RETURN_IF_ERROR(ctx.BadRow(
              IssueCode::kInvertedInterval, location,
              "interval [" + std::to_string(begin) + ", " +
                  std::to_string(end) + "] has begin > end"));
          continue;
        }
      }
      const Status inserted = profile->sequence(row[3]).Insert(
          Triple(Interval(begin, end), SplitValues(row[6])));
      if (!inserted.ok()) {
        MAROON_RETURN_IF_ERROR(
            ctx.BadRow(IssueCode::kBadRow, location, inserted.message()));
        continue;
      }
    }
    for (auto& [id, target] : targets) {
      // Insert() tolerates any order; restore canonical form.
      target.clean_profile.Normalize();
      target.ground_truth.Normalize();
      MAROON_RETURN_IF_ERROR(dataset.AddTarget(id, std::move(target)));
    }
  }

  if (post_validate) {
    ValidationOptions semantic = options.validation;
    if (!semantic.plausible_window.has_value() &&
        options.infer_plausible_window) {
      semantic.plausible_window = PlausibleWindowOf(dataset);
    }
    ValidationReport semantic_report = ValidateDataset(&dataset, semantic);
    ctx.report->Merge(std::move(semantic_report));
    if (!ctx.lenient()) {
      MAROON_RETURN_IF_ERROR(ctx.report->ToStatus());
    }
  }
  PublishValidationMetrics(*ctx.report);
  return dataset;
}

}  // namespace

Status ParseTimePoint(const std::string& cell, TimePoint* out) {
  const std::string_view trimmed = StripWhitespace(cell);
  if (trimmed.empty()) {
    return Status::InvalidArgument(
        cell.empty() ? "cannot parse time point from empty cell"
                     : "cannot parse time point from whitespace-only cell '" +
                           cell + "'");
  }
  int32_t value = 0;
  const char* begin = trimmed.data();
  const char* end = begin + trimmed.size();
  auto [ptr, ec] = std::from_chars(begin, end, value);
  if (ec == std::errc::result_out_of_range) {
    return Status::InvalidArgument("time point '" + std::string(trimmed) +
                                   "' is out of the 32-bit range");
  }
  if (ec != std::errc{}) {
    return Status::InvalidArgument("time point '" + std::string(trimmed) +
                                   "' is not an integer");
  }
  if (ptr != end) {
    return Status::InvalidArgument("time point '" + std::string(trimmed) +
                                   "' has trailing garbage '" +
                                   std::string(ptr, end) + "'");
  }
  *out = value;
  return Status::OK();
}

Status WriteDatasetCsv(const Dataset& dataset, const std::string& directory) {
  // sources.csv
  {
    CsvWriter writer;
    writer.AppendRow({"id", "name"});
    for (const DataSource& s : dataset.sources()) {
      writer.AppendRow({std::to_string(s.id), s.name});
    }
    MAROON_RETURN_IF_ERROR(writer.WriteToFile(directory + "/sources.csv"));
  }
  // records.csv
  {
    CsvWriter writer;
    std::vector<std::string> header = {"id", "name", "timestamp", "source",
                                       "label"};
    for (const Attribute& a : dataset.attributes()) header.push_back(a);
    writer.AppendRow(header);
    for (const TemporalRecord& r : dataset.records()) {
      std::vector<std::string> row = {
          std::to_string(r.id()), r.name(), std::to_string(r.timestamp()),
          dataset.source(r.source()).name, dataset.LabelOf(r.id())};
      for (const Attribute& a : dataset.attributes()) {
        row.push_back(JoinValues(r.GetValue(a)));
      }
      writer.AppendRow(row);
    }
    MAROON_RETURN_IF_ERROR(writer.WriteToFile(directory + "/records.csv"));
  }
  // profiles.csv
  {
    CsvWriter clean;
    clean.AppendRow({"entity_id", "entity_name", "kind", "attribute", "begin",
                     "end", "values"});
    for (const auto& [id, target] : dataset.targets()) {
      for (const auto& [kind, profile] :
           {std::pair<std::string, const EntityProfile*>{
                "clean", &target.clean_profile},
            std::pair<std::string, const EntityProfile*>{
                "truth", &target.ground_truth}}) {
        for (const auto& [attribute, seq] : profile->sequences()) {
          for (const Triple& tr : seq.triples()) {
            clean.AppendRow({id, profile->name(), kind, attribute,
                             std::to_string(tr.interval.begin),
                             std::to_string(tr.interval.end),
                             JoinValues(tr.values)});
          }
        }
      }
    }
    MAROON_RETURN_IF_ERROR(clean.WriteToFile(directory + "/profiles.csv"));
  }
  return Status::OK();
}

Result<Dataset> ReadDatasetCsv(const std::string& directory) {
  // Legacy strict load: row-level checks only, no semantic post-validation,
  // exactly the pre-validation-layer behavior.
  return ReadDatasetCsvImpl(directory, CsvLoadOptions{},
                            /*post_validate=*/false, nullptr);
}

Result<Dataset> ReadDatasetCsv(const std::string& directory,
                               const CsvLoadOptions& options,
                               ValidationReport* report) {
  return ReadDatasetCsvImpl(directory, options, /*post_validate=*/true,
                            report);
}

}  // namespace maroon
