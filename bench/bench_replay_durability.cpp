// Durability cost study (ours): what the WAL-before-apply contract costs
// the streaming linker. Streams the bench Recruitment corpus through three
// modes — no WAL (direct apply), WAL with fsync per frame (the durable
// default), WAL with OS-buffered writes — and times one snapshot write of
// the final store. All three modes must land on the identical store hash;
// the rows feed the replay durability section of BENCH_runtime.json.

#include <benchmark/benchmark.h>

#include <chrono>
#include <cstdint>
#include <filesystem>
#include <iostream>
#include <string>

#include "bench_common.h"
#include "common/clock.h"
#include "common/logging.h"
#include "common/string_util.h"
#include "core/profile_snapshot.h"
#include "core/profile_store.h"
#include "core/profile_wal.h"
#include "matching/stream_linker.h"

namespace maroon::bench {
namespace {

struct ModeResult {
  double wall_s = 0;
  uint64_t records = 0;
  uint64_t hash = 0;
};

/// Baseline: the same deterministic apply path with no log and no
/// snapshots — the upper bound on stream throughput.
ModeResult RunNoWal(const Dataset& dataset) {
  ProfileStore store;
  const auto start = std::chrono::steady_clock::now();
  uint64_t applied = 0;
  for (const TemporalRecord& record : dataset.records()) {
    if (record.values().empty()) continue;
    const auto entity = ApplyRecordToStore(record, &store);
    MAROON_CHECK(entity.ok()) << entity.status();
    ++applied;
  }
  return {SecondsSince(start), applied, HashProfileStore(store)};
}

ModeResult RunWal(const Dataset& dataset, const std::string& wal_dir,
                  int sync_every) {
  std::filesystem::remove_all(wal_dir);
  std::filesystem::create_directories(wal_dir);
  StreamLinkerOptions options;
  options.wal_path = wal_dir + "/profile.wal";
  options.max_queue = 256;
  options.wal.sync_every = sync_every;
  auto linker = StreamLinker::Open(options);
  MAROON_CHECK(linker.ok()) << linker.status();

  const auto start = std::chrono::steady_clock::now();
  for (const TemporalRecord& record : dataset.records()) {
    Status submitted = linker->Submit(record);
    if (submitted.code() == StatusCode::kResourceExhausted) {
      MAROON_CHECK(linker->Drain().ok());
      submitted = linker->Submit(record);
    }
    if (submitted.code() == StatusCode::kInvalidArgument) continue;
    MAROON_CHECK(submitted.ok()) << submitted;
  }
  MAROON_CHECK(linker->Flush().ok());
  ModeResult result{SecondsSince(start), linker->stats().applied,
                    HashProfileStore(linker->store())};
  MAROON_CHECK(linker->Close().ok());
  return result;
}

void EmitModeRow(const char* mode, const ModeResult& r) {
  EmitBenchRow("replay_durability",
               {{"corpus", "recruitment"}, {"mode", mode}},
               {{"records", static_cast<double>(r.records)},
                {"wall_s", r.wall_s},
                {"records_per_s",
                 r.wall_s > 0 ? static_cast<double>(r.records) / r.wall_s
                              : 0.0}});
}

void RunDurabilityStudy() {
  PrintHeader("Replay durability: WAL + snapshot cost (Recruitment)");
  RecruitmentOptions corpus_options = BenchRecruitmentOptions();
  const Dataset dataset = GenerateRecruitmentDataset(corpus_options);
  const std::string work =
      (std::filesystem::temp_directory_path() / "maroon_bench_durability")
          .string();

  const ModeResult no_wal = RunNoWal(dataset);
  const ModeResult buffered = RunWal(dataset, work + "/buffered",
                                     /*sync_every=*/0);
  const ModeResult synced = RunWal(dataset, work + "/synced",
                                   /*sync_every=*/1);
  MAROON_CHECK(no_wal.hash == buffered.hash && buffered.hash == synced.hash)
      << "durability modes diverged: the WAL path is not deterministic";

  // Snapshot write time: rebuild the final store once, then time the full
  // serialize + fsync + atomic-publish cycle.
  ProfileStore store;
  for (const TemporalRecord& record : dataset.records()) {
    if (record.values().empty()) continue;
    MAROON_CHECK(ApplyRecordToStore(record, &store).ok());
  }
  const std::string snapshot_dir = work + "/snapshots";
  std::filesystem::remove_all(snapshot_dir);
  std::filesystem::create_directories(snapshot_dir);
  const auto snap_start = std::chrono::steady_clock::now();
  MAROON_CHECK(WriteSnapshot(store, /*last_seq=*/no_wal.records,
                             snapshot_dir)
                   .ok());
  const double snapshot_s = SecondsSince(snap_start);
  uint64_t snapshot_bytes = 0;
  for (const auto& entry :
       std::filesystem::directory_iterator(snapshot_dir)) {
    snapshot_bytes += entry.file_size();
  }

  std::cout << "mode          records  wall_s   records_per_s\n";
  const auto print = [](const char* mode, const ModeResult& r) {
    std::cout << "  " << mode << "  " << r.records << "  "
              << FormatDouble(r.wall_s, 4) << "  "
              << FormatDouble(r.wall_s > 0
                                  ? static_cast<double>(r.records) / r.wall_s
                                  : 0.0,
                              1)
              << "\n";
  };
  print("no_wal      ", no_wal);
  print("wal_buffered", buffered);
  print("wal_synced  ", synced);
  std::cout << "  snapshot: " << store.size() << " entities, "
            << snapshot_bytes << " bytes in " << FormatDouble(snapshot_s, 4)
            << "s\n";

  EmitModeRow("no_wal", no_wal);
  EmitModeRow("wal_buffered", buffered);
  EmitModeRow("wal_synced", synced);
  EmitBenchRow("replay_durability",
               {{"corpus", "recruitment"}, {"mode", "snapshot"}},
               {{"entities", static_cast<double>(store.size())},
                {"snapshot_write_s", snapshot_s},
                {"snapshot_bytes", static_cast<double>(snapshot_bytes)}});

  std::filesystem::remove_all(work);
}

}  // namespace
}  // namespace maroon::bench

int main(int argc, char** argv) {
  ::benchmark::Initialize(&argc, argv);
  maroon::bench::RunDurabilityStudy();
  ::benchmark::RunSpecifiedBenchmarks();
  return 0;
}
