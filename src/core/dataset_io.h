#ifndef MAROON_CORE_DATASET_IO_H_
#define MAROON_CORE_DATASET_IO_H_

#include <string>

#include "common/result.h"
#include "common/status.h"
#include "core/dataset.h"
#include "core/validation.h"

namespace maroon {

/// CSV serialization of datasets and profiles, so generated corpora can be
/// persisted, inspected, and reloaded (and external data imported).
///
/// Records file (one row per record):
///   id,name,timestamp,source,label,<attr1>,<attr2>,...
/// with a header row naming the schema attributes; multi-valued cells join
/// values with "; ". Sources are stored by name and re-registered on load in
/// first-appearance order of the sources file.
///
/// Profiles file (one row per triple):
///   entity_id,entity_name,kind,attribute,begin,end,values
/// where kind is "clean" or "truth"; the entity's target registration is
/// rebuilt from both kinds.
///
/// Sources file (one row per source): id,name.

/// Writes the three files under `directory` (created by the caller) as
/// records.csv, profiles.csv, sources.csv.
Status WriteDatasetCsv(const Dataset& dataset, const std::string& directory);

/// Reads a dataset previously written by WriteDatasetCsv. Strict: the first
/// malformed row aborts the whole load.
Result<Dataset> ReadDatasetCsv(const std::string& directory);

/// Options for the validating load path.
struct CsvLoadOptions {
  /// Row handling and the semantic post-validation policy. kStrict fails on
  /// the first error; kQuarantine/kRepair drop (or fix) bad rows/records and
  /// keep loading.
  ValidationOptions validation;
  /// When no plausible_window is set, derive one from the loaded target
  /// profiles (PlausibleWindowOf) before the semantic validation pass, so
  /// out-of-window record timestamps are flagged.
  bool infer_plausible_window = false;
};

/// Reads a dataset with full validation. Structural row faults (wrong column
/// count, bad timestamps, duplicate record ids, unknown sources, inverted
/// profile intervals) are handled per `options.validation.policy`, then the
/// in-memory dataset goes through ValidateDataset for semantic checks.
/// `report`, if non-null, receives every issue, quarantine, and repair even
/// when the load fails.
Result<Dataset> ReadDatasetCsv(const std::string& directory,
                               const CsvLoadOptions& options,
                               ValidationReport* report);

/// Parses a CSV time-point cell: surrounding ASCII whitespace is tolerated,
/// anything else non-numeric (including trailing garbage) is rejected with a
/// precise message. Exposed for tests and tooling.
Status ParseTimePoint(const std::string& cell, TimePoint* out);

}  // namespace maroon

#endif  // MAROON_CORE_DATASET_IO_H_
