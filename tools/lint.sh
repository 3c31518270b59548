#!/usr/bin/env bash
# Banned-API and annotation-discipline lint for lsmlab.
#
# Checks (all over src/ unless noted):
#   1. No raw std::mutex / std::lock_guard / std::unique_lock /
#      std::condition_variable outside src/util/mutex.h. Raw primitives are
#      invisible to clang's thread-safety analysis; everything must go
#      through lsmlab::Mutex / MutexLock / CondVar.
#   2. NO_THREAD_SAFETY_ANALYSIS appears only in src/util/mutex.h (the
#      CondVar adopt/release dance) and the header defining the macro.
#   3. No rand()/srand() — benchmarks and tests must use the seeded
#      generators in util/random.h so runs are reproducible.
#   4. No `(void)` casts of Status results — intentional drops must use the
#      grep-able Status::IgnoreError(). The allowlist (snprintf & friends)
#      is matched against the *called identifier*, not the whole line, so
#      `(void)DropStatus(snprintf(...))` cannot hide behind its argument.
#   5. No direct IoStats pokes (RecordRead/RecordAppend/RecordSync) outside
#      src/storage. I/O accounting happens exactly once, at the Env file
#      wrappers; a second call site would double-count and break the
#      PerfContext <-> IoStats reconciliation the tests assert. The
#      blocking-I/O-under-lock guard (util/mutex.h) also lives behind these
#      chokepoints, so a bypass would dodge it too.
#   6. No assert() in the untrusted-byte parsers listed in
#      tools/parser_audit.list: asserts compile out of release builds, so
#      corruption must surface as Status, never as an invariant check.
#      (tools/check_parsers.sh enforces the rest of the parser contract.)
#   7. No per-key I/O calls in the batch read path. The whole point of
#      MultiGet is one open per table and one fetch per distinct block;
#      a stray Read/open in those files silently reverts it to a looped
#      Get. Deliberate, amortized calls carry a `batch-io-ok:` comment.
#   8. No WAL appends or WAL-file syncs outside the group-commit module
#      (src/core/db_write.cc). The writer-queue protocol is what makes
#      unlocked WAL I/O safe (one leader at a time, log_busy_ excludes
#      rotation) and what keeps the wal.group_commits / wal.syncs /
#      wal.sync_skipped reconciliation exact; a stray append or sync
#      elsewhere bypasses both. Deliberate exceptions carry a
#      `group-commit-ok:` comment.
#   9. Every `.IgnoreError()` call site carries a `status-ok:` annotation
#      on the call line or within the two lines above. This is the textual
#      backstop for tools/check_resource_flow.py, whose scanner skips
#      lambda bodies: the interprocedural tool matches annotated sites
#      bidirectionally against tools/status_audit.list, while this check
#      guarantees no site anywhere — lambda or not — drops a Status
#      without a written reason. The declaration in status.h is exempt
#      (matched as a definition, not a call).
#  10. A table iterator is built in src/core only inside
#      TableCache::NewRunIterator: TableCache::NewIterator is private, and
#      a `NewIterator(` call in table_cache.cc outside NewRunIterator (or
#      a `table_cache_->NewIterator(` anywhere) is listed. Scans and
#      compactions both merge one iterator per sorted run; a per-file
#      table iterator handed to a merge turns its O(entries x runs) cost
#      back into O(entries x files) and opens every input table up front.
#      Deliberate exceptions carry a `run-iter-ok:` comment on the call
#      line or the line above.
#  11. Memtable inserts (`.InsertInto(` / `.InsertIntoConcurrent(` calls)
#      appear in src/core only inside DBImpl::ApplyMemberThenLock, the
#      write path's one apply site, and DBImpl::RecoverWal. Every group is
#      inserted by that helper outside mu_ inside the leader's commit
#      window; a second insert site is a second apply protocol, and one
#      under mu_ blocks every reader. Deliberate exceptions carry an
#      `apply-ok:` comment on the call line or the line above.
#  12. One range-read builder: `NewDBIterator(` has at most one call site
#      in src/core (its declaration and definition in db_iter.{h,cc} aside).
#      NewIterator, Scan, GarbageCollectValues and ShardedDB's merged
#      iterators all build through DBImpl::NewReadIterator; a second
#      pin -> collect -> merge -> DBIter stack is a second read path whose
#      pruning, pinning and tickers drift from the first. Deliberate
#      exceptions carry an `iter-ok:` comment on the call line or the line
#      above.
#  13. One merging policy: at most two classes in src/ derive from
#      CompactionPolicy (the merging policy, whose presets are leveling,
#      tiering and lazy leveling, and FIFO), and no src/ file outside
#      src/core/compaction/ and src/core/options.h reads `merge_policy` or
#      `file_picker` (comment lines aside). A third policy class is a
#      second pick loop; an option read elsewhere re-derives from Options
#      what the picks already say, such as whether a merge may be split.
#  14. One fence search: `partition_point`, `lower_bound` and `upper_bound`
#      appear in src/core only in version.cc, home of FenceSearch, the one
#      search of a run's files by key (point lookups, range reads,
#      subrange narrowing, run seeks and the policy's overlap search).
#      A second search drifts from the first in its bound rules.
#      Deliberate exceptions carry a `fence-ok:` comment on the call line
#      or the line above; comment lines do not count.
#  15. Every option is exercised: each field of Options, ReadOptions and
#      WriteOptions (src/core/options.h) is set in some file under tests/
#      (`.field =`, or `.field.push_back(` for a list). An option no test
#      sets changes nothing anyone checks: pin its effect or delete it.
#
# `lint.sh --self-test` seeds a throwaway tree with one violation per check
# and asserts every check fires (the same discipline as
# tools/check_parsers.sh and tools/check_lock_io.py --self-test).
#
# Exit code 0 = clean, 1 = violations found.

set -u

if [ "${1:-}" = "--self-test" ]; then
  self="$(cd "$(dirname "$0")" && pwd)/$(basename "$0")"
  tmp="$(mktemp -d -t lint_self_test.XXXXXX)"
  trap 'rm -rf "$tmp"' EXIT
  mkdir -p "$tmp/src/core/compaction" "$tmp/src/memtable" "$tmp/tools" \
      "$tmp/tests"
  # check 1 must fire inside the lock-free skiplist specifically: a raw
  # mutex smuggled into the concurrent-insert path would be invisible to
  # the thread-safety analysis AND would break the lock-free reader
  # contract, so the self-test pins the ban to that file.
  cat > "$tmp/src/memtable/skiplist.h" << 'EOF'
template <typename Key>
class SkipList {
  std::mutex splice_mu_;                              // check 1: raw mutex in the lock-free skiplist
};
EOF
  cat > "$tmp/src/core/seeded.cc" << 'EOF'
std::mutex raw_mu;                                    // check 1
void Escape() NO_THREAD_SAFETY_ANALYSIS;              // check 2
int Dice() { return rand(); }                         // check 3
void Drop() { (void)DoThing(); }                      // check 4
void Hide() { (void)DropStatus(snprintf(b, 1, "x")); }  // check 4: arg must not excuse the call
void Ok() { (void)snprintf(b, 1, "x"); }              // check 4: allowlisted callee, must NOT fire
void Poke() { stats_->RecordSync(); }                 // check 5
void Wal() { wal_file_->Sync(); }                     // check 8
void Quiet() { DoThing().IgnoreError(); }             // check 9
void Merge() { kids.push_back(table_cache_->NewIterator(f)); }  // check 10
void Sneak() { Status s = group->InsertInto(mem_); }  // check 11
void DBImpl::ApplyMemberThenLock(const WriteBatch& batch) {
  Status s = batch.InsertIntoConcurrent(mem, base, &r);  // check 11: must NOT fire
}
void Replay() {
  // apply-ok: documented exception, must NOT fire
  Status s = scratch.InsertInto(mem_);
}
Iterator* Build() { return NewDBIterator(ucmp, merged, seq); }  // check 12
Iterator* Again() { return NewDBIterator(ucmp, other, seq); }   // check 12: second site
Iterator* Test() {
  // iter-ok: documented exception, must NOT fire
  return NewDBIterator(ucmp, model, kMaxSequenceNumber);
}
void Probe() {
  // run-iter-ok: documented exception, must NOT fire
  auto* it = table_cache_->NewIterator(f);
}
void Loud() {
  // status-ok: documented drop, must NOT fire
  DoOther().IgnoreError();
}
class ThirdPolicy : public CompactionPolicy {};       // check 13
bool Split() { return options_.merge_policy == MergePolicy::kTiering; }  // check 13
// A comment may name options_.file_picker: must NOT fire
auto Fence() { return std::lower_bound(a, b, key); }  // check 14
auto Kept() {
  // fence-ok: documented exception, must NOT fire
  return std::upper_bound(c, d, key);
}
// A comment may name std::partition_point: must NOT fire
EOF
  cat > "$tmp/src/core/version.cc" << 'EOF'
auto Search() { return std::partition_point(e, f, pred); }  // check 14: must NOT fire
EOF
  cat > "$tmp/src/core/compaction/compaction_policy.cc" << 'EOF'
class FluidPolicy : public CompactionPolicy {         // check 13: must NOT fire alone
  bool Partial() { return options_.file_picker != kWhole; }  // check 13: must NOT fire
};
class FifoPolicy
    : public CompactionPolicy {};
EOF
  cat > "$tmp/src/core/table_cache.cc" << 'EOF'
Iterator* TableCache::NewIterator(const FileMetaPtr& file) {  // check 10: must NOT fire
  return new TableIterator(table->NewIterator(), file);      // check 10: must NOT fire
}
Iterator* TableCache::NewRunIterator(std::span<const FileMetaPtr> files) {
  if (files.size() == 1) {
    return NewIterator(files[0]);                     // check 10: must NOT fire
  }
  return Concat([this](const FileMetaPtr& f) { return NewIterator(f); });  // check 10: must NOT fire
}
Iterator* TableCache::Peek(const FileMetaPtr& f) { return NewIterator(f); }  // check 10
EOF
  cat > "$tmp/src/core/options.h" << 'EOF'
struct Options {
  MergePolicy merge_policy = MergePolicy::kLeveling;  // check 13: must NOT fire
  bool paranoid_checks = false;                       // check 15
  std::vector<std::shared_ptr<EventListener>> listeners;  // check 15: must NOT fire
};
struct ReadOptions {
  bool use_filter = true;                             // check 15: must NOT fire
};
EOF
  cat > "$tmp/tests/options_seeded_test.cc" << 'EOF'
  options.merge_policy = MergePolicy::kTiering;
  options.listeners.push_back(listener);
  ReadOptions ro; ro.use_filter = false;
  // A comment may name options.paranoid_checks = true: must NOT count
EOF
  cat > "$tmp/src/core/db_iter.cc" << 'EOF'
Iterator* NewDBIterator(const Comparator* ucmp, Iterator* it, SequenceNumber s) {  // check 12: must NOT fire
  return new DBIter(ucmp, it, s);
}
EOF
  cat > "$tmp/src/core/db_multiget.cc" << 'EOF'
void Batch() { file->Read(0, n, &result, scratch); }  // check 7
EOF
  cat > "$tmp/src/core/parser.cc" << 'EOF'
void Parse() { assert(len > 0); }                     // check 6
EOF
  echo "src/core/parser.cc" > "$tmp/tools/parser_audit.list"

  out="$(LINT_ROOT="$tmp" bash "$self" 2>&1)"
  rc=$?
  fail=0
  expect() {
    if ! grep -qF "$1" <<< "$out"; then
      echo "lint --self-test: check did not fire: $1"
      fail=1
    fi
  }
  expect "raw std synchronization primitive"
  if ! grep -q 'src/memtable/skiplist.h' <<< "$out"; then
    echo "lint --self-test: raw std::mutex seeded in the skiplist not flagged"
    fail=1
  fi
  expect "NO_THREAD_SAFETY_ANALYSIS outside"
  expect "rand()/srand()"
  expect "(void)-cast call result"
  expect "DropStatus"                # fixed check 4: callee filter, not line filter
  expect "direct IoStats poke"
  expect "assert() in an audited parser"
  expect "unannotated I/O call in a batch-path file"
  expect "WAL append/sync outside"
  expect "Status dropped without a status-ok: annotation"
  expect "table iterator outside TableCache::NewRunIterator"
  if ! grep -q 'Peek(' <<< "$out"; then
    echo "lint --self-test: seeded table iterator in table_cache.cc not flagged"
    fail=1
  fi
  expect "memtable insert outside DBImpl::ApplyMemberThenLock"
  expect "second NewDBIterator call site"
  if ! grep -q 'other, seq' <<< "$out"; then
    echo "lint --self-test: seeded second NewDBIterator site not flagged"
    fail=1
  fi
  if grep -qE 'kMaxSequenceNumber|db_iter\.cc' <<< "$out"; then
    echo "lint --self-test: db_iter.cc definition or iter-ok: site wrongly flagged"
    fail=1
  fi
  if ! grep -q 'group->InsertInto' <<< "$out"; then
    echo "lint --self-test: seeded memtable insert not flagged"
    fail=1
  fi
  if grep -qE 'batch\.InsertIntoConcurrent|scratch\.InsertInto' <<< "$out"; then
    echo "lint --self-test: apply helper body or apply-ok: site wrongly flagged"
    fail=1
  fi
  if grep -qE 'files\[0\]|auto\* it = |TableIterator|Concat' <<< "$out"; then
    echo "lint --self-test: NewRunIterator body or run-iter-ok: site wrongly flagged"
    fail=1
  fi
  if grep -qE '^\s+.*\(void\)snprintf' <<< "$out"; then
    echo "lint --self-test: allowlisted (void)snprintf wrongly flagged"
    fail=1
  fi
  if grep -q 'DoOther' <<< "$out"; then
    echo "lint --self-test: annotated IgnoreError wrongly flagged"
    fail=1
  fi
  expect "third CompactionPolicy subclass"
  if ! grep -q 'ThirdPolicy' <<< "$out"; then
    echo "lint --self-test: seeded third CompactionPolicy subclass not listed"
    fail=1
  fi
  expect "merge_policy/file_picker read outside src/core/compaction"
  if ! grep -q 'Split()' <<< "$out"; then
    echo "lint --self-test: seeded merge_policy read not flagged"
    fail=1
  fi
  if grep -qE 'Partial\(\)|MergePolicy merge_policy|comment may name' <<< "$out"; then
    echo "lint --self-test: compaction/, options.h or comment read wrongly flagged"
    fail=1
  fi
  expect "fence search outside src/core/version.cc"
  if ! grep -q 'Fence()' <<< "$out"; then
    echo "lint --self-test: seeded lower_bound not flagged"
    fail=1
  fi
  if grep -qE 'upper_bound\(c|partition_point' <<< "$out"; then
    echo "lint --self-test: version.cc, fence-ok: or comment search wrongly flagged"
    fail=1
  fi
  expect "option set by no test"
  if ! grep -q 'paranoid_checks' <<< "$out"; then
    echo "lint --self-test: seeded unset option not flagged"
    fail=1
  fi
  if grep -qE ': (use_filter|listeners|merge_policy)$' <<< "$out"; then
    echo "lint --self-test: an option a test sets was flagged"
    fail=1
  fi
  if [ "$rc" -eq 0 ]; then
    echo "lint --self-test: seeded tree passed the lint (expected failure)"
    fail=1
  fi
  if [ "$fail" -eq 0 ]; then
    echo "lint --self-test: PASS (all 15 checks fire on seeded violations)"
  fi
  exit "$fail"
fi

cd "${LINT_ROOT:-$(dirname "$0")/..}"

# report() is the last element of each check's pipeline; without lastpipe
# it would run in a subshell and its fail=1 could never reach this shell,
# turning every violation into exit 0.
shopt -s lastpipe

fail=0

report() {
  # $1 = message, stdin = offending grep output (empty = pass)
  local out
  out=$(cat)
  if [ -n "$out" ]; then
    echo "LINT: $1"
    echo "$out" | sed 's/^/  /'
    echo
    fail=1
  fi
}

# 1. Raw synchronization primitives outside the wrapper.
grep -rnE 'std::(mutex|lock_guard|unique_lock|scoped_lock|condition_variable)' \
    src/ --include='*.h' --include='*.cc' \
  | grep -v '^src/util/mutex.h:' \
  | report "raw std synchronization primitive (use util/mutex.h wrappers)"

# 2. Analysis escapes are confined to the wrapper layer.
grep -rn 'NO_THREAD_SAFETY_ANALYSIS' \
    src/ --include='*.h' --include='*.cc' \
  | grep -v '^src/util/mutex.h:' \
  | grep -v '^src/util/thread_annotations.h:' \
  | report "NO_THREAD_SAFETY_ANALYSIS outside util/mutex.h"

# 3. Unseeded C randomness anywhere in the tree.
grep -rnE '\b(s?rand)\(' \
    src/ tests/ bench/ examples/ --include='*.h' --include='*.cc' \
  | report "rand()/srand() (use the seeded generators in util/random.h)"

# 4. Casting a Status to void instead of IgnoreError(). The allowlist is
#    applied to the identifier actually being called (the last component of
#    the callee expression), never to the rest of the line — an argument or
#    a comment containing "printf" must not excuse a dropped Status.
grep -rnE '\(void\) *[A-Za-z_][A-Za-z0-9_:>.-]*\(' \
    src/ tests/ bench/ examples/ --include='*.h' --include='*.cc' \
  | awk '{
      line = $0
      sub(/^[^:]*:[0-9]+:/, "", line)          # strip file:line prefix
      while (match(line, /\(void\) *[A-Za-z_][A-Za-z0-9_:>.-]*\(/)) {
        callee = substr(line, RSTART, RLENGTH)
        line = substr(line, RSTART + RLENGTH)
        sub(/^\(void\) */, "", callee)         # drop the cast
        sub(/\($/, "", callee)                 # drop the call paren
        n = split(callee, parts, /::|->|\./)   # called identifier
        if (parts[n] !~ /^(snprintf|printf|fprintf|fwrite|fread|memcpy|memmove|memset|assert)$/) {
          print $0
          break
        }
      }
    }' \
  | report "(void)-cast call result (if it returns Status, use .IgnoreError())"

# 5. IoStats mutation is the storage layer's job alone. RecordSync is in
#    the set too: it feeds both the syncs counter and the
#    blocking-I/O-under-lock runtime guard.
grep -rnE '\bRecord(Read|Append|Sync)\(' \
    src/ --include='*.h' --include='*.cc' \
  | grep -v '^src/storage/' \
  | report "direct IoStats poke outside src/storage (I/O is charged once, in the Env wrappers)"

# 6. assert() in audited untrusted-byte parsers (tools/parser_audit.list).
#    \bassert\( does not match static_assert(; `builder-ok:` marks a
#    trusted build-side invariant inside an otherwise-audited file.
grep -v -e '^#' -e '^$' tools/parser_audit.list \
  | xargs grep -nE '\bassert\(' 2>/dev/null \
  | grep -v 'builder-ok:' \
  | report "assert() in an audited parser (corrupt bytes must return Status::Corruption; see tools/check_parsers.sh)"

# 7. Per-key I/O in the batch read path. Any block read, file read, or
#    file open in these files must be the amortized one (annotated
#    `batch-io-ok:` on the call line or the line above); anything else is
#    a looped-Get regression hiding inside MultiGet.
BATCH_PATH_FILES="src/core/db_multiget.cc src/core/table_cache.cc"
for f in $BATCH_PATH_FILES; do
  [ -f "$f" ] || continue
  awk -v file="$f" '
    /ReadBlock\(|->Read\(|NewRandomAccessFile\(|NewSequentialFile\(/ {
      if ($0 !~ /batch-io-ok:/ && prev !~ /batch-io-ok:/) {
        printf "%s:%d: %s\n", file, NR, $0
      }
    }
    { prev = $0 }
  ' "$f"
done | report "unannotated I/O call in a batch-path file (coalesce it, or mark the amortized call with batch-io-ok:)"

# 8. WAL appends/syncs happen only inside the group-commit module. The
#    DBImpl members are wal_ (the record writer) and wal_file_ (the
#    underlying file); touching their append/sync surface anywhere else
#    bypasses the writer queue — the leader is the only thread the
#    protocol lets near the log, and the ticker reconciliation
#    (group_commits == syncs + sync_skipped) assumes it. Annotate a
#    deliberate exception with `group-commit-ok:` on the call line.
grep -rnE 'wal_->AddRecord\(|wal_file_->Sync\(|wal_file_->Flush\(' \
    src/ --include='*.h' --include='*.cc' \
  | grep -v '^src/core/db_write.cc:' \
  | grep -v 'group-commit-ok:' \
  | report "WAL append/sync outside src/core/db_write.cc (route it through the writer queue, or mark it group-commit-ok:)"

# 9. Undocumented Status drops. Sites inside lambda bodies are invisible
#    to check_resource_flow.py's scanner, so this textual pass is the
#    guarantee that every drop in the tree has a written reason; the
#    Python tool then cross-checks the non-lambda sites against
#    tools/status_audit.list.
#    A `status-ok:` annotation excuses the statement it precedes: the
#    pending flag survives comment and continuation lines and clears when
#    a statement completes, so multi-line calls and multi-line comments
#    both work. Comment-only lines never match as call sites.
grep -rl --include='*.h' --include='*.cc' -E '(\.|->)IgnoreError\(\)' src/ 2>/dev/null \
  | while read -r f; do
      awk -v file="$f" '
        {
          stripped = $0
          sub(/^[[:space:]]+/, "", stripped)
        }
        stripped ~ /^\/\// {
          if ($0 ~ /status-ok:/) pending = 1
          next
        }
        {
          if ($0 ~ /status-ok:/) pending = 1
          if ($0 ~ /(\.|->)IgnoreError\(\)/ && !pending) {
            printf "%s:%d: %s\n", file, NR, $0
          }
          if ($0 ~ /[;{}][[:space:]]*$/) pending = 0
        }
      ' "$f"
    done \
  | report "Status dropped without a status-ok: annotation (write the reason on the call line or just above; see tools/status_audit.list)"

# 10. Merges read runs, not files: a table iterator is built in src/core
#     only by TableCache::NewRunIterator (whose body ends at the first line
#     that is a lone `}`). In table_cache.cc a bare `NewIterator(` call
#     outside it is listed (the definition aside); elsewhere the method is
#     private, and `table_cache_->NewIterator(` is listed too. A
#     `run-iter-ok:` comment on the call line or the line above excuses a
#     deliberate exception.
grep -rlE --include='*.h' --include='*.cc' 'NewIterator\(' src/core/ \
    2>/dev/null \
  | while read -r f; do
      own=0
      [ "${f##*/}" = table_cache.cc ] && own=1
      awk -v file="$f" -v own="$own" '
        /TableCache::NewRunIterator\(/ { in_run = 1 }
        /table_cache_->NewIterator\(/ ||
            (own && /(^|[^A-Za-z0-9_>.:])NewIterator\(/) {
          if (!in_run && $0 !~ /run-iter-ok:/ && prev !~ /run-iter-ok:/) {
            printf "%s:%d: %s\n", file, NR, $0
          }
        }
        /^}/ { in_run = 0 }
        { prev = $0 }
      ' "$f"
    done \
  | report "table iterator outside TableCache::NewRunIterator (merge one iterator per run through it, or mark the call run-iter-ok:)"

# 11. One memtable-apply site: inserts in src/core happen only in the
#     write path's apply helper and in WAL recovery (each body ends at the
#     first line that is a lone `}`). An `apply-ok:` comment on the call
#     line or the line above excuses a deliberate exception.
grep -rlE --include='*.h' --include='*.cc' '(\.|->)InsertInto(Concurrent)?\(' \
    src/core/ 2>/dev/null \
  | while read -r f; do
      awk -v file="$f" '
        /DBImpl::(ApplyMemberThenLock|RecoverWal)\(/ { in_apply = 1 }
        /(\.|->)InsertInto(Concurrent)?\(/ {
          if (!in_apply && $0 !~ /apply-ok:/ && prev !~ /apply-ok:/) {
            printf "%s:%d: %s\n", file, NR, $0
          }
        }
        /^}/ { in_apply = 0 }
        { prev = $0 }
      ' "$f"
    done \
  | report "memtable insert outside DBImpl::ApplyMemberThenLock / DBImpl::RecoverWal (insert through the one apply helper, or mark the call apply-ok:)"

# 12. One range-read builder: every unannotated `NewDBIterator(` call in
#     src/core outside db_iter.{h,cc} is listed once a second one exists.
#     An `iter-ok:` comment on the call line or the line above excuses a
#     deliberate exception.
grep -rl --include='*.h' --include='*.cc' 'NewDBIterator(' src/core/ \
    2>/dev/null \
  | grep -vE '/db_iter\.(h|cc)$' \
  | xargs -r awk '
      FNR == 1 { prev = "" }
      /NewDBIterator\(/ && $0 !~ /iter-ok:/ && prev !~ /iter-ok:/ {
        sites[++n] = FILENAME ":" FNR ": " $0
      }
      { prev = $0 }
      END { if (n > 1) for (i = 1; i <= n; i++) print sites[i] }
    ' \
  | report "second NewDBIterator call site in src/core (build user iterators through DBImpl::NewReadIterator, or mark the call iter-ok:)"

# 13. One merging policy. Every CompactionPolicy subclass is listed once
#     there are more than two; a base on its own line counts too.
grep -rnE --include='*.h' --include='*.cc' \
    '(public|protected|private)[[:space:]]+(lsmlab::)?CompactionPolicy\b|(class|struct)[^;(]*:[[:space:]]*(lsmlab::)?CompactionPolicy\b' \
    src/ 2>/dev/null \
  | awk '{ sites[++n] = $0 } END { if (n > 2) for (i = 1; i <= n; i++) print sites[i] }' \
  | report "third CompactionPolicy subclass (make it a preset of the merging policy in src/core/compaction/)"

grep -rnE --include='*.h' --include='*.cc' '\b(merge_policy|file_picker)\b' \
    src/ 2>/dev/null \
  | grep -vE '^src/core/compaction/|^src/core/options\.h:' \
  | grep -vE '^[^:]*:[0-9]+:[[:space:]]*//' \
  | report "merge_policy/file_picker read outside src/core/compaction/ and options.h (let the policy's picks say it)"

# 14. One fence search. A `fence-ok:` comment on the call line or the line
#     above excuses a deliberate exception; comment lines never match.
grep -rlE --include='*.h' --include='*.cc' \
    '\b(partition_point|lower_bound|upper_bound)\b' src/core/ 2>/dev/null \
  | grep -v '^src/core/version\.cc$' \
  | while read -r f; do
      awk -v file="$f" '
        /(partition_point|lower_bound|upper_bound)/ && $0 !~ /^[[:space:]]*\/\// {
          if ($0 !~ /fence-ok:/ && prev !~ /fence-ok:/) {
            printf "%s:%d: %s\n", file, NR, $0
          }
        }
        { prev = $0 }
      ' "$f"
    done \
  | report "fence search outside src/core/version.cc (search a run's files through FenceSearch, or mark the call fence-ok:)"

# 15. Every option is exercised. A field of the three option structs is
#     the last identifier of a member line, before its `= default` and
#     `;` (a function-pointer member's name precedes `)(`); each must be
#     set in some tests/ file, on a line that is not a comment.
awk '
  /^struct (Options|ReadOptions|WriteOptions) \{/ { inside = 1; next }
  inside && /^\};/ { inside = 0 }
  inside && $0 !~ /^[[:space:]]*\/\// && /;[[:space:]]*(\/\/.*)?$/ {
    line = $0
    sub(/[[:space:]]*\/\/.*$/, "", line)
    sub(/[[:space:]]*=[^;]*;$/, "", line)
    sub(/;$/, "", line)
    sub(/\)\(.*$/, "", line)
    if (match(line, /[A-Za-z_][A-Za-z0-9_]*$/)) {
      print FILENAME ":" FNR ": " substr(line, RSTART, RLENGTH)
    }
  }
' src/core/options.h 2>/dev/null \
  | while IFS= read -r site; do
      field="${site##* }"
      if ! grep -rhE --include='*.cc' --include='*.h' \
          "(\.|->)${field}[[:space:]]*(=[^=]|\.(push_back|emplace_back)\()" \
          tests/ 2>/dev/null | grep -qvE '^[[:space:]]*//'; then
        echo "$site"
      fi
    done \
  | report "option set by no test (pin its effect in a test under tests/, or delete it)"

if [ "$fail" -eq 0 ]; then
  echo "lint: OK"
fi
exit "$fail"
