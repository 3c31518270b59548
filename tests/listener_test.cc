#include "obs/event_listener.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <memory>
#include <mutex>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "core/db.h"
#include "core/db_impl.h"
#include "storage/env.h"

namespace lsmlab {
namespace {

/// Records every callback (name + captured metadata) in arrival order and
/// verifies the delivery contract: no callback ever runs while the caller
/// holds the DB mutex.
class RecordingListener : public EventListener {
 public:
  struct Event {
    std::string name;
    FlushJobInfo flush;
    CompactionJobInfo compaction;
    WriteStallInfo stall;
    TableFileInfo file;
    TableFileDeletionInfo deletion;
  };

  void Attach(DBImpl* db) { db_ = db; }

  /// Sleep this long inside OnFlushEnd (first `n` times) to hold the
  /// background worker in a callback while the foreground keeps writing.
  void DelayFlushEnd(int millis, int n) {
    flush_end_delay_ms_ = millis;
    delayed_flush_ends_ = n;
  }

  void OnFlushBegin(const FlushJobInfo& info) override {
    Event e;
    e.name = "flush.begin";
    e.flush = info;
    Record(std::move(e));
  }
  void OnFlushEnd(const FlushJobInfo& info) override {
    int delay = 0;
    {
      std::lock_guard<std::mutex> lock(mu_);
      if (delayed_flush_ends_ > 0) {
        delayed_flush_ends_--;
        delay = flush_end_delay_ms_;
      }
    }
    if (delay > 0) {
      std::this_thread::sleep_for(std::chrono::milliseconds(delay));
    }
    Event e;
    e.name = "flush.end";
    e.flush = info;
    Record(std::move(e));
  }
  void OnCompactionBegin(const CompactionJobInfo& info) override {
    Event e;
    e.name = "compaction.begin";
    e.compaction = info;
    Record(std::move(e));
  }
  void OnCompactionEnd(const CompactionJobInfo& info) override {
    Event e;
    e.name = "compaction.end";
    e.compaction = info;
    Record(std::move(e));
  }
  void OnWriteStall(const WriteStallInfo& info) override {
    Event e;
    e.name = "stall";
    e.stall = info;
    Record(std::move(e));
  }
  void OnTableFileCreated(const TableFileInfo& info) override {
    Event e;
    e.name = "file.created";
    e.file = info;
    Record(std::move(e));
  }
  void OnTableFileDeleted(const TableFileDeletionInfo& info) override {
    Event e;
    e.name = "file.deleted";
    e.deletion = info;
    Record(std::move(e));
  }

  std::vector<Event> events() const {
    std::lock_guard<std::mutex> lock(mu_);
    return events_;
  }

  int mutex_violations() const {
    std::lock_guard<std::mutex> lock(mu_);
    return mutex_violations_;
  }

  size_t CountNamed(const std::string& name) const {
    std::lock_guard<std::mutex> lock(mu_);
    size_t n = 0;
    for (const Event& e : events_) {
      if (e.name == name) {
        n++;
      }
    }
    return n;
  }

  /// Blocks until at least `count` events named `name` have arrived, or the
  /// timeout expires (background delivery may lag the operation).
  bool WaitForNamed(const std::string& name, size_t count,
                    int timeout_ms = 5000) {
    std::unique_lock<std::mutex> lock(mu_);
    return cv_.wait_for(lock, std::chrono::milliseconds(timeout_ms),
                        [&] {
                          size_t n = 0;
                          for (const Event& e : events_) {
                            if (e.name == name) {
                              n++;
                            }
                          }
                          return n >= count;
                        });
  }

 private:
  void Record(Event e) {
    // The whole point of the staging queue in DBImpl: by the time any
    // callback runs, the operating thread must have released mu_.
    const bool held =
        db_ != nullptr && db_->TEST_MutexHeldByCurrentThread();
    std::lock_guard<std::mutex> lock(mu_);
    if (held) {
      mutex_violations_++;
    }
    events_.push_back(std::move(e));
    cv_.notify_all();
  }

  DBImpl* db_ = nullptr;
  mutable std::mutex mu_;
  std::condition_variable cv_;
  std::vector<Event> events_;
  int mutex_violations_ = 0;
  int flush_end_delay_ms_ = 0;
  int delayed_flush_ends_ = 0;
};

class ListenerTest : public ::testing::Test {
 protected:
  void SetUp() override {
    env_.reset(NewMemEnv());
    options_.env = env_.get();
    options_.write_buffer_size = 64 << 10;
    options_.max_file_size = 1 << 20;
    listener_ = std::make_shared<RecordingListener>();
    options_.listeners.push_back(listener_);
  }

  void Open() {
    ASSERT_TRUE(DB::Open(options_, "/db", &db_).ok());
    listener_->Attach(static_cast<DBImpl*>(db_.get()));
  }

  std::vector<size_t> IndicesOf(const std::vector<RecordingListener::Event>& v,
                                const std::string& name) {
    std::vector<size_t> out;
    for (size_t i = 0; i < v.size(); i++) {
      if (v[i].name == name) {
        out.push_back(i);
      }
    }
    return out;
  }

  std::unique_ptr<Env> env_;
  Options options_;
  std::shared_ptr<RecordingListener> listener_;
  std::unique_ptr<DB> db_;
};

TEST_F(ListenerTest, FlushEventsFireInOrderWithMetadata) {
  Open();
  ASSERT_TRUE(db_->Put({}, "a", "1").ok());
  ASSERT_TRUE(db_->Put({}, "z", "2").ok());
  ASSERT_TRUE(db_->Flush().ok());

  const auto events = listener_->events();
  const auto begins = IndicesOf(events, "flush.begin");
  const auto creates = IndicesOf(events, "file.created");
  const auto ends = IndicesOf(events, "flush.end");
  ASSERT_EQ(begins.size(), 1u);
  ASSERT_EQ(ends.size(), 1u);
  ASSERT_EQ(creates.size(), 1u);
  // begin < created < end, in staging order.
  EXPECT_LT(begins[0], creates[0]);
  EXPECT_LT(creates[0], ends[0]);

  const auto& end = events[ends[0]].flush;
  EXPECT_EQ(end.db_name, "/db");
  EXPECT_FALSE(end.background);  // inline flush on the calling thread
  EXPECT_TRUE(end.status.ok());
  EXPECT_GT(end.bytes_written, 0u);
  ASSERT_EQ(end.outputs.size(), 1u);
  EXPECT_EQ(end.outputs[0].level, 0);
  EXPECT_EQ(end.outputs[0].smallest_user_key, "a");
  EXPECT_EQ(end.outputs[0].largest_user_key, "z");
  EXPECT_GT(end.outputs[0].file_number, 0u);
  EXPECT_GT(end.outputs[0].file_size, 0u);

  const auto& created = events[creates[0]].file;
  EXPECT_EQ(created.file_number, end.outputs[0].file_number);

  EXPECT_EQ(listener_->mutex_violations(), 0);
}

TEST_F(ListenerTest, CompactionEventsCarryInputsOutputsAndDeletions) {
  Open();
  for (int run = 0; run < 3; run++) {
    char lo[16], hi[16];
    std::snprintf(lo, sizeof(lo), "a%02d", run);
    std::snprintf(hi, sizeof(hi), "z%02d", run);
    ASSERT_TRUE(db_->Put({}, lo, "v").ok());
    ASSERT_TRUE(db_->Put({}, hi, "v").ok());
    ASSERT_TRUE(db_->Flush().ok());
  }

  // The three flush outputs are this compaction's victims.
  std::set<uint64_t> flushed_files;
  for (const auto& e : listener_->events()) {
    if (e.name == "file.created") {
      flushed_files.insert(e.file.file_number);
    }
  }
  ASSERT_EQ(flushed_files.size(), 3u);

  ASSERT_TRUE(db_->CompactAll().ok());

  const auto events = listener_->events();
  const auto begins = IndicesOf(events, "compaction.begin");
  const auto ends = IndicesOf(events, "compaction.end");
  ASSERT_GE(begins.size(), 1u);
  ASSERT_EQ(begins.size(), ends.size());
  EXPECT_LT(begins[0], ends[0]);

  const auto& begin = events[begins[0]].compaction;
  EXPECT_EQ(begin.db_name, "/db");
  EXPECT_EQ(begin.input_level, 0);
  // An L0-only tree collapses its runs in place (output level 0); deeper
  // shapes push down. Either way the output never sits above the input.
  EXPECT_GE(begin.output_level, begin.input_level);
  EXPECT_GE(begin.inputs.size(), 3u);  // all three overlapping L0 runs

  const auto& end = events[ends[0]].compaction;
  EXPECT_TRUE(end.status.ok());
  EXPECT_GT(end.bytes_written, 0u);
  ASSERT_GE(end.outputs.size(), 1u);
  EXPECT_EQ(end.outputs[0].level, end.output_level);
  // Output events follow their compaction's begin.
  const auto creates = IndicesOf(events, "file.created");
  bool saw_compaction_output = false;
  for (size_t idx : creates) {
    if (idx > begins[0] && idx < ends[0] + 1 &&
        events[idx].file.level == end.output_level) {
      saw_compaction_output = true;
    }
  }
  EXPECT_TRUE(saw_compaction_output);

  // Every flushed input file must be reported deleted once it leaves the
  // version set (deletions are queued under the DB mutex and drained by
  // the same CompactAll before it returns).
  std::set<uint64_t> deleted;
  for (const auto& e : events) {
    if (e.name == "file.deleted") {
      EXPECT_EQ(e.deletion.db_name, "/db");
      deleted.insert(e.deletion.file_number);
    }
  }
  for (uint64_t f : flushed_files) {
    EXPECT_TRUE(deleted.count(f)) << "file " << f << " never deleted";
  }

  EXPECT_EQ(listener_->mutex_violations(), 0);
}

// Level-0 runs that overlap nothing, neither each other nor level 1,
// move there: one begin/end pair, marked moved, with the runs' files as
// inputs and nothing written, created or deleted. The compaction counts
// as one, and as one move; the bytes and table-file tickers do not see it.
TEST_F(ListenerTest, MoveFiresOnePairAndCreatesNoFile) {
  options_.level0_compaction_trigger = 2;
  Open();
  ASSERT_TRUE(db_->Put({}, "a1", "v").ok());
  ASSERT_TRUE(db_->Put({}, "a2", "v").ok());
  ASSERT_TRUE(db_->Flush().ok());
  ASSERT_TRUE(db_->Put({}, "b1", "v").ok());
  ASSERT_TRUE(db_->Put({}, "b2", "v").ok());
  ASSERT_TRUE(db_->Flush().ok());
  ASSERT_TRUE(db_->CompactAll().ok());

  const auto events = listener_->events();
  const auto begins = IndicesOf(events, "compaction.begin");
  const auto ends = IndicesOf(events, "compaction.end");
  ASSERT_EQ(begins.size(), 1u);
  ASSERT_EQ(ends.size(), 1u);
  EXPECT_LT(begins[0], ends[0]);
  const auto& end = events[ends[0]].compaction;
  EXPECT_TRUE(end.status.ok());
  EXPECT_TRUE(end.moved);
  EXPECT_EQ(end.input_level, 0);
  EXPECT_EQ(end.output_level, 1);
  EXPECT_EQ(end.inputs.size(), 2u);
  EXPECT_EQ(end.bytes_written, 0u);
  EXPECT_TRUE(end.outputs.empty());
  EXPECT_EQ(IndicesOf(events, "file.created").size(), 2u);  // the flushes
  EXPECT_TRUE(IndicesOf(events, "file.deleted").empty());

  const DBStats stats = db_->GetStats();
  EXPECT_EQ(stats.compactions, 1u);
  EXPECT_EQ(stats.bytes_compacted, 0u);
  EXPECT_EQ(stats.runs_per_level[1], 1) << db_->DebugShape();
  std::string dump;
  ASSERT_TRUE(db_->GetProperty("lsmlab.stats", &dump));
  EXPECT_NE(dump.find("ticker.compaction.moves=1\n"), std::string::npos)
      << dump;
  EXPECT_NE(dump.find("ticker.table_files.created=2\n"), std::string::npos)
      << dump;
  EXPECT_EQ(listener_->mutex_violations(), 0);
}

TEST_F(ListenerTest, BackgroundFlushReportsBackgroundFlag) {
  options_.background_compaction = true;
  // Must stay above the arena's 4 KiB block floor or an empty memtable
  // already looks full.
  options_.write_buffer_size = 8 << 10;
  Open();

  // Overflow the memtable so the write path freezes it and hands it to the
  // background worker.
  const std::string pad(3000, 'p');
  for (int i = 0; i < 8; i++) {
    char key[16];
    std::snprintf(key, sizeof(key), "k%04d", i);
    ASSERT_TRUE(db_->Put({}, key, pad).ok());
  }
  ASSERT_TRUE(listener_->WaitForNamed("flush.end", 1));

  bool saw_background = false;
  for (const auto& e : listener_->events()) {
    if (e.name == "flush.end" && e.flush.background) {
      EXPECT_TRUE(e.flush.status.ok());
      EXPECT_GT(e.flush.bytes_written, 0u);
      saw_background = true;
    }
  }
  EXPECT_TRUE(saw_background);
  EXPECT_EQ(listener_->mutex_violations(), 0);
}

TEST_F(ListenerTest, WriteStallEventsFireOffMutex) {
  options_.background_compaction = true;
  options_.write_buffer_size = 8 << 10;
  Open();

  // Hold the background worker inside a callback for 150ms: the foreground
  // fills the next memtable, freezes it, fills another, and must then stall
  // on the still-pending immutable memtable.
  listener_->DelayFlushEnd(150, 2);
  const std::string pad(3000, 'p');
  for (int i = 0; i < 40; i++) {
    char key[16];
    std::snprintf(key, sizeof(key), "k%04d", i);
    ASSERT_TRUE(db_->Put({}, key, pad).ok());
  }

  EXPECT_GE(listener_->CountNamed("stall"), 1u);
  bool saw_memtable_full = false;
  for (const auto& e : listener_->events()) {
    if (e.name == "stall") {
      EXPECT_EQ(e.stall.db_name, "/db");
      if (e.stall.cause == WriteStallInfo::Cause::kMemtableFull) {
        saw_memtable_full = true;
      }
    }
  }
  EXPECT_TRUE(saw_memtable_full);
  EXPECT_EQ(listener_->mutex_violations(), 0);
}

TEST_F(ListenerTest, MultipleListenersAllSeeEvents) {
  auto second = std::make_shared<RecordingListener>();
  options_.listeners.push_back(second);
  Open();
  second->Attach(static_cast<DBImpl*>(db_.get()));

  ASSERT_TRUE(db_->Put({}, "k", "v").ok());
  ASSERT_TRUE(db_->Flush().ok());

  EXPECT_EQ(listener_->CountNamed("flush.end"), 1u);
  EXPECT_EQ(second->CountNamed("flush.end"), 1u);
  EXPECT_EQ(second->mutex_violations(), 0);
}

}  // namespace
}  // namespace lsmlab
