#include "matching/stream_linker.h"

#include <chrono>
#include <thread>

#include "common/clock.h"
#include "common/failpoint.h"
#include "core/profile_snapshot.h"
#include "obs/metrics.h"

namespace maroon {

namespace {

const failpoint::Registrar kFpStreamApply{
    "stream.apply.before",
    "crash window after a record is WAL-durable, before it mutates the "
    "store"};

}  // namespace

Result<StreamLinker> StreamLinker::Open(const StreamLinkerOptions& options) {
  if (options.wal_path.empty()) {
    return Status::InvalidArgument("StreamLinkerOptions.wal_path is required");
  }
  // Opening the writer first repairs any torn tail, so the replay below
  // only ever sees whole, checksummed frames.
  MAROON_ASSIGN_OR_RETURN(ProfileWal wal,
                          ProfileWal::Open(options.wal_path, options.wal));
  StreamLinker linker(options, std::move(wal));

  uint64_t snapshot_seq = 0;
  if (!options.snapshot_dir.empty()) {
    auto snapshot = LoadNewestValidSnapshot(options.snapshot_dir);
    if (snapshot.ok()) {
      linker.store_ = std::move(snapshot->store);
      snapshot_seq = snapshot->last_seq;
    } else if (snapshot.status().code() != StatusCode::kNotFound) {
      return snapshot.status();
    }
    // NotFound: no usable snapshot — recover from the WAL alone.
  }

  // Replay from the beginning to learn every durable record id (the resume
  // filter), applying only the frames the snapshot has not folded in yet.
  MAROON_ASSIGN_OR_RETURN(ProfileWalReplay replay,
                          ReplayProfileWal(options.wal_path));
  for (ReplayedRecord& entry : replay.records) {
    linker.durable_ids_.insert(entry.record.id());
    if (entry.seq <= snapshot_seq) continue;
    MAROON_ASSIGN_OR_RETURN(EntityId applied,
                            ApplyRecordToStore(entry.record, &linker.store_));
    (void)applied;
    ++linker.stats_.recovered;
  }
  return linker;
}

Status StreamLinker::Submit(TemporalRecord record) {
  thread_checker_.Check();
  if (record.values().empty()) {
    ++stats_.rejected;
    MAROON_COUNTER("maroon.stream.rejected")->Add();
    return Status::InvalidArgument("record " + std::to_string(record.id()) +
                                   " carries no attribute values");
  }
  if (options_.max_queue > 0 && queue_.size() >= options_.max_queue) {
    return Status::ResourceExhausted(
        "admission queue full (" + std::to_string(queue_.size()) +
        " records); Drain() and resubmit");
  }
  ++stats_.submitted;
  queue_.push_back(std::move(record));
  return Status::OK();
}

bool StreamLinker::ShouldShed(const TemporalRecord& record) const {
  if (options_.max_store_entities == 0) return false;
  if (store_.size() < options_.max_store_entities) return false;
  // At the bound, records merging into an existing profile still apply;
  // only records that would mint a new entity are shed. The decision reads
  // nothing but (record, store), so a recovered run re-derives it exactly.
  return store_.FindByName(record.name()).empty();
}

Status StreamLinker::AppendWithRetry(const TemporalRecord& record) {
  Status last = Status::OK();
  for (int attempt = 0; attempt <= options_.max_retries; ++attempt) {
    if (attempt > 0) {
      ++stats_.retries;
      MAROON_COUNTER("maroon.stream.retries")->Add();
      if (options_.retry_initial_backoff_us > 0) {
        const int64_t backoff_us =
            static_cast<int64_t>(options_.retry_initial_backoff_us)
            << (attempt - 1);
        std::this_thread::sleep_for(std::chrono::microseconds(backoff_us));
      }
    }
    last = wal_.Append(record);
    if (last.ok()) return last;
    // Only IO errors are transient (the writer rolled back to a frame
    // boundary, so the retry appends cleanly); anything else is a bug in
    // the caller or the log and retrying would just repeat it.
    if (last.code() != StatusCode::kIOError) return last;
  }
  return Status::IOError("WAL append failed after " +
                         std::to_string(options_.max_retries) +
                         " retries: " + last.message());
}

Status StreamLinker::MaybeSnapshot(bool force) {
  if (options_.snapshot_dir.empty()) return Status::OK();
  if (applied_since_snapshot_ == 0) return Status::OK();
  if (!force && (options_.snapshot_every == 0 ||
                 applied_since_snapshot_ < options_.snapshot_every)) {
    return Status::OK();
  }
  // A snapshot never covers a frame that is not yet durable: after a power
  // loss the WAL could otherwise end below the snapshot's last_seq, and the
  // writer would reissue seqs that recovery then skips as already folded in.
  Status written = wal_.unsynced_frames() > 0 ? wal_.Sync() : Status::OK();
  if (written.ok()) {
    written = WriteSnapshot(store_, wal_.last_seq(), options_.snapshot_dir);
  }
  if (!written.ok()) {
    // Snapshot loss is graceful: recovery just replays a longer WAL tail.
    // Keep streaming and retry at the next boundary.
    ++stats_.snapshot_failures;
    MAROON_COUNTER("maroon.stream.snapshot_failures")->Add();
    return Status::OK();
  }
  ++stats_.snapshots_written;
  MAROON_COUNTER("maroon.stream.snapshots")->Add();
  applied_since_snapshot_ = 0;
  return Status::OK();
}

Status StreamLinker::Drain() {
  const Status status = DrainImpl();
  // Latch non-transient failures for the health surface; a later Drain
  // that empties the queue clears the latch (the condition passed).
  last_error_ = status;
  return status;
}

Status StreamLinker::DrainImpl() {
  thread_checker_.Check();
  const bool timed = obs::MetricsRegistry::Enabled();
  while (!queue_.empty()) {
    const auto start = timed ? std::chrono::steady_clock::now()
                             : std::chrono::steady_clock::time_point();
    const TemporalRecord& record = queue_.front();
    if (durable_ids_.count(record.id()) > 0) {
      // Resume after a crash: the record is already durable (and applied by
      // recovery), so the at-least-once redelivery becomes exactly-once.
      ++stats_.resumed_skips;
      MAROON_COUNTER("maroon.stream.resumed_skips")->Add();
      queue_.pop_front();
      continue;
    }
    if (ShouldShed(record)) {
      ++stats_.shed;
      MAROON_COUNTER("maroon.stream.shed")->Add();
      quarantine_.push_back(std::move(queue_.front()));
      queue_.pop_front();
      continue;
    }
    // WAL first, store second: a crash between the two replays the record;
    // a crash before the append loses only what was never acknowledged.
    MAROON_RETURN_IF_ERROR(AppendWithRetry(record));
    MAROON_CRASH_POINT("stream.apply.before");
    durable_ids_.insert(record.id());
    auto applied = ApplyRecordToStore(record, &store_);
    if (!applied.ok()) return applied.status();
    queue_.pop_front();
    ++stats_.applied;
    ++applied_since_snapshot_;
    MAROON_COUNTER("maroon.stream.applied")->Add();
    if (timed) {
      MAROON_HISTOGRAM("maroon.stream.record_seconds")
          ->Record(SecondsSince(start));
    }
    MAROON_RETURN_IF_ERROR(MaybeSnapshot(/*force=*/false));
  }
  return Status::OK();
}

Status StreamLinker::Flush() {
  thread_checker_.Check();
  MAROON_RETURN_IF_ERROR(Drain());
  const Status synced = wal_.Sync();
  if (!synced.ok()) last_error_ = synced;
  return synced;
}

void StreamLinker::ReportHealth(obs::HealthRegistry* health) const {
  if (!last_error_.ok()) {
    health->Set("wal", obs::HealthState::kUnhealthy,
                "latched: " + last_error_.message());
  } else {
    health->Set("wal", obs::HealthState::kOk);
  }

  const size_t depth = queue_.size();
  if (options_.max_queue > 0 && depth * 4 >= options_.max_queue * 3) {
    health->Set("backpressure", obs::HealthState::kDegraded,
                "admission queue " + std::to_string(depth) + "/" +
                    std::to_string(options_.max_queue));
  } else {
    health->Set("backpressure", obs::HealthState::kOk);
  }

  if (options_.max_store_entities > 0 &&
      store_.size() >= options_.max_store_entities) {
    health->Set("memory", obs::HealthState::kDegraded,
                "store at its " +
                    std::to_string(options_.max_store_entities) +
                    "-entity bound; shedding new entities");
  } else {
    health->Set("memory", obs::HealthState::kOk);
  }

  if (!options_.snapshot_dir.empty()) {
    if (stats_.snapshot_failures > 0) {
      health->Set("snapshot", obs::HealthState::kDegraded,
                  std::to_string(stats_.snapshot_failures) +
                      " snapshot write failures");
    } else if (options_.snapshot_every > 0 &&
               applied_since_snapshot_ > 2 * options_.snapshot_every) {
      health->Set("snapshot", obs::HealthState::kDegraded,
                  "snapshot cadence slipped: " +
                      std::to_string(applied_since_snapshot_) +
                      " records since the last one");
    } else {
      health->Set("snapshot", obs::HealthState::kOk);
    }
  }
}

Status StreamLinker::Close() {
  thread_checker_.Check();
  MAROON_RETURN_IF_ERROR(Flush());
  MAROON_RETURN_IF_ERROR(MaybeSnapshot(/*force=*/true));
  return wal_.Close();
}

}  // namespace maroon
