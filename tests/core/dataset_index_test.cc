// Differential tests of Dataset's name and label indexes: CandidatesFor and
// TrueMatchesOf must answer exactly what a linear scan over every record
// answers, on generated corpora and after every kind of write.

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "core/dataset.h"
#include "core/validation.h"
#include "datagen/dblp_generator.h"
#include "datagen/recruitment_generator.h"

namespace maroon {
namespace {

/// Reference: the records whose raw name equals the target's profile name.
std::vector<RecordId> ScanCandidates(const Dataset& d, const EntityId& id) {
  std::vector<RecordId> out;
  auto target = d.target(id);
  if (!target.ok()) return out;
  const std::string& name = (*target)->clean_profile.name();
  for (const TemporalRecord& r : d.records()) {
    if (r.name() == name) out.push_back(r.id());
  }
  return out;
}

/// Reference: the records labelled `id`.
std::vector<RecordId> ScanMatches(const Dataset& d, const EntityId& id) {
  std::vector<RecordId> out;
  for (RecordId r = 0; r < d.NumRecords(); ++r) {
    if (d.LabelOf(r) == id) out.push_back(r);
  }
  return out;
}

void ExpectIndexesEqualScans(const Dataset& d) {
  ASSERT_FALSE(d.targets().empty());
  for (const auto& [id, target] : d.targets()) {
    EXPECT_EQ(d.CandidatesFor(id), ScanCandidates(d, id)) << id;
    EXPECT_EQ(d.TrueMatchesOf(id), ScanMatches(d, id)) << id;
  }
  EXPECT_EQ(d.TrueMatchesOf(""), ScanMatches(d, ""));
}

Dataset Recruitment(double typo_rate) {
  RecruitmentOptions options;
  options.seed = 3;
  options.num_entities = 150;
  options.num_names = 50;
  options.social_source_name_typo_rate = typo_rate;
  return GenerateRecruitmentDataset(options);
}

Dataset Dblp() {
  DblpOptions options;
  options.seed = 5;
  options.num_entities = 60;
  options.num_names = 10;
  return GenerateDblpCorpus(options).dataset;
}

/// `clean` re-added record by record with faults validation acts on: every
/// 7th record cites an unknown source (quarantined under every lenient
/// policy) and every 5th carries a mangled " left|right " value (quarantined,
/// or repaired under kRepair).
Dataset WithFaults(const Dataset& clean) {
  Dataset d;
  d.SetAttributes(clean.attributes());
  for (const DataSource& s : clean.sources()) d.AddSource(s.name);
  const SourceId unknown = static_cast<SourceId>(clean.sources().size());
  for (const TemporalRecord& r : clean.records()) {
    TemporalRecord copy(0, r.name(), r.timestamp(),
                        r.id() % 7 == 3 ? unknown : r.source());
    for (const auto& [attribute, values] : r.values()) {
      copy.SetValue(attribute, values);
    }
    if (r.id() % 5 == 1 && !r.values().empty()) {
      copy.SetValue(r.values().begin()->first,
                    MakeValueSet({" left|right "}));
    }
    const RecordId id = d.AddRecord(copy);
    EXPECT_TRUE(d.SetLabel(id, clean.LabelOf(r.id())).ok());
  }
  for (const auto& [id, target] : clean.targets()) {
    EXPECT_TRUE(d.AddTarget(id, target).ok());
  }
  return d;
}

class DatasetIndexTest : public ::testing::TestWithParam<std::string> {
 protected:
  Dataset Corpus() const {
    const std::string& name = GetParam();
    if (name == "recruitment_typo0") return Recruitment(0.0);
    if (name == "recruitment_typo01") return Recruitment(0.1);
    if (name == "recruitment_typo04") return Recruitment(0.4);
    return Dblp();
  }
};

TEST_P(DatasetIndexTest, GeneratedCorpusEqualsScan) {
  ExpectIndexesEqualScans(Corpus());
}

TEST_P(DatasetIndexTest, QuarantinedCorpusEqualsScan) {
  Dataset d = WithFaults(Corpus());
  const size_t before = d.NumRecords();
  ValidationOptions options;
  options.policy = RepairPolicy::kQuarantine;
  const ValidationReport report = ValidateDataset(&d, options);
  ASSERT_FALSE(report.quarantined_records.empty());
  EXPECT_EQ(d.NumRecords(), before - report.quarantined_records.size());
  ExpectIndexesEqualScans(d);
}

TEST_P(DatasetIndexTest, RepairedCorpusEqualsScan) {
  Dataset d = WithFaults(Corpus());
  ValidationOptions options;
  options.policy = RepairPolicy::kRepair;
  const ValidationReport report = ValidateDataset(&d, options);
  ASSERT_GT(report.repairs_applied, 0u);
  ASSERT_FALSE(report.quarantined_records.empty());
  for (const TemporalRecord& r : d.records()) {
    for (const auto& [attribute, values] : r.values()) {
      EXPECT_NE(values, MakeValueSet({" left|right "})) << r.ToString();
    }
  }
  ExpectIndexesEqualScans(d);
}

TEST_P(DatasetIndexTest, CopyKeepsItsOwnIndexes) {
  const Dataset original = Corpus();
  Dataset copy = original;
  ExpectIndexesEqualScans(copy);

  // A write to the copy reaches the copy's indexes only.
  const auto& [id, target] = *original.targets().begin();
  const RecordId added = copy.AddRecord(
      TemporalRecord(0, target.clean_profile.name(), 2010, 0));
  ASSERT_TRUE(copy.SetLabel(added, id).ok());
  ExpectIndexesEqualScans(copy);
  ExpectIndexesEqualScans(original);
  EXPECT_EQ(copy.CandidatesFor(id).back(), added);
  EXPECT_EQ(copy.TrueMatchesOf(id).back(), added);
  EXPECT_EQ(original.CandidatesFor(id).size() + 1,
            copy.CandidatesFor(id).size());
}

TEST_P(DatasetIndexTest, RelabelledRecordsMoveBetweenMatchSets) {
  Dataset d = Corpus();
  std::vector<EntityId> ids;
  for (const auto& [id, target] : d.targets()) ids.push_back(id);
  ASSERT_GE(ids.size(), 2u);
  // Relabel from the back so ids land mid-bucket, not only at the end; then
  // unlabel some and relabel others to an entity with no target.
  for (RecordId r = static_cast<RecordId>(d.NumRecords()); r-- > 0;) {
    if (r % 3 == 0) {
      ASSERT_TRUE(d.SetLabel(r, ids[r % ids.size()]).ok());
    } else if (r % 11 == 1) {
      ASSERT_TRUE(d.SetLabel(r, "").ok());
    } else if (r % 13 == 2) {
      ASSERT_TRUE(d.SetLabel(r, "no_target").ok());
    }
  }
  ASSERT_TRUE(d.SetLabel(0, d.LabelOf(0)).ok());  // an overwrite in place
  ExpectIndexesEqualScans(d);
  EXPECT_EQ(d.TrueMatchesOf("no_target"), ScanMatches(d, "no_target"));
  EXPECT_FALSE(d.TrueMatchesOf("no_target").empty());
}

INSTANTIATE_TEST_SUITE_P(Corpora, DatasetIndexTest,
                         ::testing::Values("recruitment_typo0",
                                           "recruitment_typo01",
                                           "recruitment_typo04", "dblp"));

TEST(DatasetIndexEdgeTest, UnknownEntityAndUnmentionedNameAreEmpty) {
  Dataset d = Recruitment(0.1);
  EXPECT_TRUE(d.CandidatesFor("nobody").empty());
  EXPECT_TRUE(d.TrueMatchesOf("nobody").empty());
  TargetEntity ghost;
  ghost.clean_profile = EntityProfile("ghost", "Nobody Mentions Me");
  ASSERT_TRUE(d.AddTarget("ghost", ghost).ok());
  EXPECT_TRUE(d.CandidatesFor("ghost").empty());
  EXPECT_TRUE(d.TrueMatchesOf("ghost").empty());
  EXPECT_TRUE(d.RecordsNamed("Nobody Mentions Me").empty());
}

TEST(DatasetIndexEdgeTest, NamesCompareRawNotNormalized) {
  Dataset d;
  d.AddSource("S");
  d.AddRecord(TemporalRecord(0, "Mia Taylor", 2001, 0));
  d.AddRecord(TemporalRecord(0, "mia taylor", 2002, 0));
  d.AddRecord(TemporalRecord(0, "Taylor, Mia", 2003, 0));
  d.AddRecord(TemporalRecord(0, "Mia Taylor", 2004, 0));
  TargetEntity mia;
  mia.clean_profile = EntityProfile("mia", "Mia Taylor");
  ASSERT_TRUE(d.AddTarget("mia", mia).ok());
  EXPECT_EQ(d.CandidatesFor("mia"), (std::vector<RecordId>{0, 3}));
  EXPECT_EQ(d.RecordsNamed("mia taylor"), (std::vector<RecordId>{1}));
  EXPECT_EQ(d.EraseRecords({0}), 1u);
  EXPECT_EQ(d.CandidatesFor("mia"), (std::vector<RecordId>{2}));
  EXPECT_EQ(d.RecordsNamed("Taylor, Mia"), (std::vector<RecordId>{1}));
}

}  // namespace
}  // namespace maroon
