#!/usr/bin/env python3
"""Interprocedural lock / blocking-I/O analyzer (static half of the invariant
whose runtime half lives in src/util/mutex.h + src/storage/io_stats.h).

Invariant: no blocking I/O (Env / file-handle calls, raw posix I/O, sleeps)
may execute while a ranked *no-io* engine mutex is held, except at sites
explicitly audited with an `io-under-lock-ok:` comment AND listed in
tools/lock_io_audit.list.

A second leaf class covers the parallel group apply (PR 10): the
concurrent memtable insert entry points (SkipList::InsertConcurrently,
MemTable::AddConcurrent, WriteBatch::InsertIntoConcurrent) run outside
mu_ by design — the whole point is that group members insert in parallel
without serializing on the DB mutex — so calling one while a no-io
engine mutex is held is flagged exactly like blocking I/O. The serial
siblings (Insert/Add/InsertInto) are not in the set: a serial insert
races no other member, so it needs no lock released (tools/lint.sh check
11 confines them to the write path's apply helper and WAL recovery).

The tool:
  1. scans every .h/.cc under src/ (file list from compile_commands.json when
     present, e.g. build/compile_commands.json exported by the default cmake
     configure; falls back to walking src/),
  2. builds a call graph of project functions with per-site lock context
     (MutexLock scopes, raw Lock()/Unlock() spans, REQUIRES(...) entry locks),
  3. propagates "performs blocking I/O" through the graph (io_reach fixpoint),
  4. reports every path from a locked region to a blocking leaf with the full
     call chain, minus audited exceptions,
  5. cross-checks the audit list both ways (stale entries and unlisted
     annotations are errors) and the lock-rank tables
     (tools/lock_ranks.tsv vs the X-macro in src/util/lock_rank.h vs the
     actual `Mutex member{LockRank::k...}` declarations).

The C++ parsing itself (scope-stack scanner, call-graph builder, receiver
resolution) lives in the shared frontend tools/cpp_frontend.py, which
tools/check_resource_flow.py builds on too; this file adds only the
lock/blocking-I/O semantics.

Frontends: `--frontend text` (default; pure stdlib, always available) or
`clang` (libclang refinement; this container ships no python libclang, so
`auto` degrades to text with a note). `--self-test` runs the analyzer over an
embedded tree with seeded violations and asserts they are flagged.

Exit status: 0 clean, 1 violations or consistency errors.
"""

import argparse
import os
import re
import sys
import tempfile

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import cpp_frontend  # noqa: E402
from cpp_frontend import Frontend, collect_files, load_audit_list  # noqa: E402

ANNOTATION = "io-under-lock-ok"

# Blocking leaves, by receiver interface (types from src/storage/env.h).
FILE_TYPES = {"WritableFile", "RandomAccessFile", "SequentialFile"}
FILE_BLOCKING = {"Read", "Append", "Sync", "Flush", "Skip", "Close"}
ENV_BLOCKING = {
    "NewWritableFile", "NewRandomAccessFile", "NewSequentialFile",
    "GetChildren", "RemoveFile", "RenameFile", "GetFileSize", "FileExists",
    "CreateDir", "RemoveDir",
}
# Raw libc/posix calls (matched only receiver-less or ::-qualified).
RAW_BLOCKING = {
    "fsync", "fdatasync", "open", "pread", "pwrite", "fwrite", "fread",
    "fflush", "fopen", "fclose", "stat", "unlink", "mkdir",
    "sleep_for", "sleep_until",
}
# Parallel-apply entry points: must run with no no-io engine mutex held
# (the member-parallel insert region of src/core/db_write.cc). Matched by
# method name alone — the names are unique to the concurrent memtable
# path, and their serial siblings (Insert/Add/InsertInto) stay callable
# under mu_.
APPLY_BLOCKING = {
    "InsertConcurrently", "AddConcurrent", "InsertIntoConcurrent",
}


class Analyzer(Frontend):
    """Lock/blocking-I/O semantics on top of the shared frontend."""

    def __init__(self, root, verbose=False):
        super().__init__(root, annotations=(ANNOTATION,), verbose=verbose)
        self.enum_to_name = {}

    # -- rank tables ------------------------------------------------------
    def load_rank_tsv(self, path):
        if not os.path.exists(path):
            self.errors.append(f"missing rank table: {path}")
            return {}
        table = {}
        with open(path) as f:
            for ln, raw in enumerate(f, 1):
                s = raw.strip()
                if not s or s.startswith("#"):
                    continue
                parts = s.split("\t")
                if len(parts) != 3 or parts[2] not in ("io-ok", "no-io"):
                    self.errors.append(f"{path}:{ln}: malformed row: {s!r}")
                    continue
                table[parts[1]] = (int(parts[0]), parts[2] == "io-ok")
        return table

    def load_rank_header(self, path):
        """Parse X(kName, rank, "Lock::name", io_ok) rows from the X-macro."""
        if not os.path.exists(path):
            self.errors.append(f"missing rank header: {path}")
            return {}
        with open(path) as f:
            text = f.read()
        rows = {}
        for m in re.finditer(
                r'X\(\s*(k\w+)\s*,\s*(\d+)\s*,\s*"([^"]+)"\s*,\s*'
                r'(true|false)\s*\)', text):
            rows[m.group(1)] = (int(m.group(2)), m.group(3),
                                m.group(4) == "true")
        return rows

    def check_rank_tables(self, tsv_path, header_path):
        tsv = self.load_rank_tsv(tsv_path)
        hdr = self.load_rank_header(header_path)
        self.rank_names = dict(tsv)
        self.enum_to_name = {e: name for e, (_, name, _) in hdr.items()}
        hdr_by_name = {name: (rank, io) for (rank, name, io) in hdr.values()}
        for name, (rank, io_ok) in tsv.items():
            if name not in hdr_by_name:
                self.errors.append(
                    f"{tsv_path}: lock {name!r} has no X-macro row in "
                    f"{header_path}")
            elif hdr_by_name[name] != (rank, io_ok):
                self.errors.append(
                    f"rank table mismatch for {name!r}: tsv says "
                    f"{(rank, io_ok)}, header says {hdr_by_name[name]}")
        for name in hdr_by_name:
            if name not in tsv:
                self.errors.append(
                    f"{header_path}: lock {name!r} missing from {tsv_path}")

    def check_mutex_members(self):
        """Every Mutex member in src/ must be ranked, and its rank's name
        must equal the qualified declaration (tsv is the single source)."""
        for cls, member, enum, file, line in self.mutex_members:
            qual = f"{cls}::{member}" if cls else member
            if enum is None:
                self.errors.append(
                    f"{file}:{line}: unranked engine mutex member {qual!r}; "
                    f"add a LockRank (see tools/lock_ranks.tsv)")
                continue
            name = self.enum_to_name.get(enum)
            if name is None:
                self.errors.append(
                    f"{file}:{line}: {qual!r} uses unknown LockRank::{enum}")
            elif name != qual:
                self.errors.append(
                    f"{file}:{line}: {qual!r} declared with LockRank::{enum} "
                    f"whose registered name is {name!r}")

    # -- call classification ----------------------------------------------
    def classify_call(self, scanner, func, cls, expr, parts, method):
        if method in APPLY_BLOCKING:
            return "memtable-apply", []
        if method in ("sleep_for", "sleep_until"):
            return "sleep", []
        if method in RAW_BLOCKING and expr in (
                method, "::" + method, "std::" + method):
            return "raw", []
        if len(parts) > 1 and "::" not in parts[-1]:
            recv = self.resolve_chain(parts[:-1], func, cls)
            if recv in FILE_TYPES and method in FILE_BLOCKING:
                return "file", []
            if recv == "Env" and method in ENV_BLOCKING:
                return "env", []
            if recv is not None:
                return None, [f"{recv}::{method}"]
            return None, []
        if "::" in expr:
            return None, [expr[2:] if expr.startswith("::") else expr]
        if cls is not None:
            return None, [f"{cls}::{method}", method]
        return None, [method]

    # -- fixpoint + reporting ---------------------------------------------
    def requires_noio(self, f):
        return [q for q in f.requires
                if q in self.rank_names and not self.rank_names[q][1]]

    def site_counts_for_reach(self, f, site):
        if site.annotated:
            return False
        if self.requires_noio(f) and not site.locks:
            # Entry lock(s) released at this point: the caller's lock is the
            # same lock, so the call does not block under any mutex.
            return False
        return True

    def compute_io_reach(self):
        changed = True
        while changed:
            changed = False
            for f in self.functions.values():
                if f.io_reach is not None:
                    continue
                for site in f.sites:
                    if not self.site_counts_for_reach(f, site):
                        continue
                    if site.leaf:
                        f.io_reach = site
                        changed = True
                        break
                    for t in site.targets:
                        g = self.lookup(t)
                        if g is not None and g.io_reach is not None:
                            f.io_reach = site
                            changed = True
                            break
                    if f.io_reach is not None:
                        break

    def witness_chain(self, site, limit=12):
        chain = [site]
        while chain[-1].leaf is None and len(chain) < limit:
            nxt = None
            for t in chain[-1].targets:
                g = self.lookup(t)
                if g is not None and g.io_reach is not None:
                    nxt = g.io_reach
                    break
            if nxt is None:
                break
            chain.append(nxt)
        return chain

    def find_violations(self):
        violations = []
        for f in self.functions.values():
            for site in f.sites:
                if not site.locks or site.annotated:
                    continue
                reaches = site.leaf is not None or any(
                    (g := self.lookup(t)) is not None
                    and g.io_reach is not None
                    for t in site.targets)
                if reaches:
                    violations.append(site)
        return violations


def run_analysis(root, verbose=False):
    an = Analyzer(root, verbose=verbose)
    an.check_rank_tables(os.path.join(root, "tools", "lock_ranks.tsv"),
                         os.path.join(root, "src", "util", "lock_rank.h"))
    an.run(collect_files(root))
    an.check_mutex_members()
    an.compute_io_reach()
    return an


def relevant_annotated(an):
    """Annotated call sites that actually name a blocking operation (the
    annotation line may contain incidental helper calls too)."""
    out = []
    for site in an.annotated_sites:
        reaches = site.leaf is not None or any(
            (g := an.lookup(t)) is not None and g.io_reach is not None
            for t in site.targets)
        if reaches:
            out.append(site)
    return out


def check_audit_list(an, root):
    path = os.path.join(root, "tools", "lock_io_audit.list")
    entries = load_audit_list(path, an.errors)
    sites = relevant_annotated(an)
    used = set()
    warnings = []
    seen = set()
    for site in sites:
        sig = (site.file, site.func.key, site.callee)
        if not site.locks:
            if sig not in seen:
                warnings.append(
                    f"{site.file}:{site.line}: {ANNOTATION} annotation on "
                    f"{site.callee!r} but no no-io mutex is held there")
            seen.add(sig)
            continue
        seen.add(sig)
        hit = None
        for e in entries:
            if (e[1], e[2], e[3]) == sig:
                hit = e
                break
        if hit is None:
            an.errors.append(
                f"{site.file}:{site.line}: audited site "
                f"[{site.func.key}] {site.callee!r} is missing from "
                f"tools/lock_io_audit.list")
        else:
            used.add(hit[0])
    for e in entries:
        if e[0] not in used:
            an.errors.append(
                f"{path}:{e[0]}: stale audit entry ({e[1]}, {e[2]}, "
                f"{e[3]!r}) matches no annotated blocking site in src/")
    return warnings


def report(an, violations, warnings, verbose):
    for w in warnings:
        print(f"warning: {w}")
    for e in an.errors:
        print(f"error: {e}")
    for site in sorted(violations, key=lambda s: (s.file, s.line)):
        locks = ", ".join(sorted(site.locks))
        print(f"VIOLATION {site.file}:{site.line} in [{site.func.key}] "
              f"holding {{{locks}}}: {site.callee}(...)")
        for step in an.witness_chain(site)[1:]:
            print(f"    -> {step.file}:{step.line} [{step.func.key}] "
                  f"{step.callee}(...)")
        last = an.witness_chain(site)[-1]
        if last.leaf:
            print(f"    => blocking leaf [{last.leaf}] {last.callee}")
    if verbose and an.unresolved:
        print(f"note: {len(an.unresolved)} unresolved calls under locks "
              f"(textual frontend limit):")
        for file, line, expr in an.unresolved[:40]:
            print(f"  unresolved {file}:{line}: {expr}")
    if not violations and not an.errors:
        print(f"check_lock_io: OK — {len(an.functions)} functions, "
              f"{len(relevant_annotated(an))} audited blocking sites, "
              f"0 unaudited lock->I/O paths")


# -------------------------------------------------------------- self-test --
SELF_TEST_RANK_H = """\
#pragma once
#define LSMLAB_LOCK_RANKS(X) \\
  X(kWidgetMu, 10, "Widget::mu_", false) \\
  X(kLoggerMu, 20, "Logger::mu_", true)
"""

SELF_TEST_TSV = """\
10\tWidget::mu_\tno-io
20\tLogger::mu_\tio-ok
"""

SELF_TEST_H = """\
#pragma once
namespace lsmlab {
class Status;
class Slice;
class WritableFile {
 public:
  Status Append(const Slice& s);
  Status Sync();
};
class MemTable {
 public:
  uint64_t AddConcurrent(int seq);
  void Add(int seq);
};
class Widget {
 public:
  void Direct();
  void Indirect();
  void Required() REQUIRES(mu_);
  void Audited();
  void Scoped();
  void Span();
  void ApplyLocked();
  void ApplyUnlocked();
 private:
  void Helper();
  Mutex mu_{LockRank::kWidgetMu};
  Mutex logger_mu_{LockRank::kLoggerMu};
  std::unique_ptr<WritableFile> file_;
  MemTable* mem_;
};
}  // namespace lsmlab
"""

SELF_TEST_CC = """\
#include "widget.h"
namespace lsmlab {

void Widget::Helper() {
  file_->Append(Slice("x")).IgnoreError();
}

void Widget::Direct() {
  MutexLock l(&mu_);
  file_->Sync().IgnoreError();  // seeded violation: direct leaf under mu_
}

void Widget::Indirect() {
  MutexLock l(&mu_);
  Helper();  // seeded violation: leaf one call away
}

void Widget::Required() {
  file_->Sync().IgnoreError();  // seeded violation: REQUIRES(mu_) entry lock
}

void Widget::Audited() {
  MutexLock l(&mu_);
  // io-under-lock-ok: exercised by the self-test; listed in the audit file.
  file_->Sync().IgnoreError();
}

void Widget::Scoped() {
  {
    MutexLock l(&mu_);
  }
  file_->Sync().IgnoreError();  // clean: lock scope already closed
}

void Widget::Span() {
  mu_.Lock();
  mu_.Unlock();
  file_->Sync().IgnoreError();  // clean: explicit span already released
  MutexLock g(&logger_mu_);
  file_->Append(Slice("y")).IgnoreError();  // clean: io-ok rank
}

void Widget::ApplyLocked() {
  MutexLock l(&mu_);
  mem_->AddConcurrent(1);  // seeded violation: parallel apply under mu_
}

void Widget::ApplyUnlocked() {
  mu_.Lock();
  mem_->Add(1);  // clean: the serial sibling is fine under mu_
  mu_.Unlock();
  mem_->AddConcurrent(1);  // clean: no lock held
}

}  // namespace lsmlab
"""

SELF_TEST_AUDIT = (
    "# file\tfunction\tcallee\treason\n"
    "src/widget.cc\tWidget::Audited\tfile_->Sync\tself-test exception\n"
    "src/widget.cc\tWidget::Bogus\tfile_->Sync\tstale entry, must error\n"
)


def self_test(verbose):
    with tempfile.TemporaryDirectory(prefix="check_lock_io_") as tmp:
        os.makedirs(os.path.join(tmp, "src", "util"))
        os.makedirs(os.path.join(tmp, "tools"))
        paths = {
            "src/util/lock_rank.h": SELF_TEST_RANK_H,
            "tools/lock_ranks.tsv": SELF_TEST_TSV,
            "src/widget.h": SELF_TEST_H,
            "src/widget.cc": SELF_TEST_CC,
            "tools/lock_io_audit.list": SELF_TEST_AUDIT,
        }
        for rel, content in paths.items():
            with open(os.path.join(tmp, rel), "w") as f:
                f.write(content)
        an = run_analysis(tmp, verbose=verbose)
        warnings = check_audit_list(an, tmp)
        violations = an.find_violations()
        flagged = {v.func.key for v in violations}
        failures = []
        for expect in ("Widget::Direct", "Widget::Indirect",
                       "Widget::Required", "Widget::ApplyLocked"):
            if expect not in flagged:
                failures.append(f"seeded violation in {expect} NOT flagged")
        for clean in ("Widget::Scoped", "Widget::Span", "Widget::Audited",
                      "Widget::ApplyUnlocked"):
            if clean in flagged:
                failures.append(f"clean function {clean} falsely flagged")
        if not any("stale audit entry" in e for e in an.errors):
            failures.append("stale audit entry (Widget::Bogus) not reported")
        if any("Widget::Audited" in e for e in an.errors):
            failures.append("listed+annotated site wrongly reported")
        if verbose:
            report(an, violations, warnings, verbose)
        if failures:
            print("check_lock_io --self-test: FAIL")
            for f in failures:
                print(f"  {f}")
            return 1
        print("check_lock_io --self-test: PASS "
              f"({len(flagged)} seeded violations flagged, "
              "clean/audited/scoped sites quiet, stale entry rejected)")
        return 0


def main():
    ap = argparse.ArgumentParser(
        description="no-blocking-I/O-under-engine-lock analyzer")
    ap.add_argument("--root",
                    default=os.path.dirname(os.path.dirname(
                        os.path.abspath(__file__))),
                    help="repo root (default: parent of tools/)")
    ap.add_argument("--frontend", choices=("auto", "text", "clang"),
                    default="auto",
                    help="parser frontend; 'clang' needs python libclang "
                         "and degrades to 'text' when unavailable")
    ap.add_argument("--self-test", action="store_true",
                    help="run the embedded seeded-violation self-test")
    ap.add_argument("--dump-annotated", action="store_true",
                    help="list every audited blocking site and exit")
    ap.add_argument("--verbose", action="store_true")
    args = ap.parse_args()

    if args.frontend == "clang":
        try:
            import clang.cindex  # noqa: F401
            print("note: libclang frontend not yet wired; the textual "
                  "frontend is authoritative for this tree")
        except ImportError:
            print("note: python libclang unavailable; using the textual "
                  "frontend")

    if args.self_test:
        sys.exit(self_test(args.verbose))

    an = run_analysis(args.root, verbose=args.verbose)
    warnings = check_audit_list(an, args.root)
    violations = an.find_violations()
    if args.dump_annotated:
        for site in relevant_annotated(an):
            locks = ",".join(sorted(site.locks)) or "-"
            print(f"{site.file}:{site.line}\t{site.func.key}\t"
                  f"{site.callee}\t{locks}")
        sys.exit(0)
    report(an, violations, warnings, args.verbose)
    sys.exit(1 if violations or an.errors else 0)


if __name__ == "__main__":
    main()
