#!/usr/bin/env python3
"""Interprocedural resource-flow & status-drop analyzer (static half of the
invariant whose runtime half lives in src/util/pin_tracker.h).

Two contracts, both over the shared frontend in tools/cpp_frontend.py:

1. Resource pairing. A call that returns a raw *owning* pointer — an
   `Iterator*` factory, `LruCache::Handle*` from Lookup/Insert — creates an
   obligation: on every path (including early `return s;` error exits) the
   value must reach a release (`delete`, `Release(h)`, wrapping into a
   smart pointer / owning constructor / container) or a documented transfer
   (returned to the caller, or a `transfers-ownership:` annotation
   cross-checked against tools/resource_audit.list; stale rows are errors).
   Acquire sources are found interprocedurally from declared return types
   (the frontend records them from both definitions and in-class
   declarations), so a helper that returns a fresh iterator makes every
   caller a tracked acquire site, and leak reports carry a witness chain
   through the transfer provenance.

2. Status drops. Every `.IgnoreError()` call site in src/ must carry a
   `status-ok:` annotation (same line or the comment run above) AND a
   matching row in tools/status_audit.list; the check is bidirectional, so
   a stale row or an annotation without a row is an error too. This is the
   same audited-exception grammar PR 7 established for
   `io-under-lock-ok:` / tools/lock_io_audit.list.

Deliberate approximations (the tool is path-insensitive and textual):
  * a binding consumed anywhere in the function counts as consumed for
    later statements too (textual order approximates path order);
  * values assigned into containers/members or passed as a call argument
    transfer ownership to the consumer;
  * braceless `if (e) return s;` bodies are not separate scopes;
  * out-param ownership (`Env::NewWritableFile(&file)`) is RAII-managed
    via unique_ptr and is covered by the runtime tracker, not this tool.

`--self-test` runs the analyzer over an embedded tree seeding direct,
interprocedural, and error-path leaks plus clean transfer/audited cases.
Exit status: 0 clean, 1 violations or consistency errors.
"""

import argparse
import os
import re
import sys
import tempfile

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
from cpp_frontend import (CALL_RE, FileScanner, Frontend, collect_files,  # noqa: E402
                          load_audit_list, strip_type)

ANNOT_TRANSFER = "transfers-ownership"
ANNOT_STATUS = "status-ok"

# Raw owning pointer types (declared-return-type base -> resource kind).
RESOURCE_KINDS = {
    "Iterator": "iterator",
    "BlockIterator": "iterator",
    "Block::BlockIterator": "iterator",
    "Handle": "cache-handle",
    "LruCache::Handle": "cache-handle",
}
# Factory names treated as iterator acquires even when the receiver cannot
# be resolved (textual-frontend fallback; all return Iterator*).
FALLBACK_ACQUIRES = {
    "NewIterator", "NewEmptyIterator", "NewMergingIterator",
    "NewTwoLevelIterator", "NewDBIterator", "NewReadIterator",
    "NewRunIterator",
}

NEW_RE = re.compile(r"\bnew\s+([A-Za-z_][\w:]*)\s*[({]")
RETURN_RE = re.compile(r"^\s*(?:co_)?return\b")
DROP_RE = re.compile(r"\.\s*IgnoreError\s*\(")


def kind_from_return(ret):
    """Resource kind for a raw declared return type, or None. Requires
    exactly one '*' (Handle** is an internal link, not an obligation)."""
    if not ret or ret.count("*") != 1 or "&" in ret:
        return None
    return RESOURCE_KINDS.get(strip_type(ret))


def chain_start(stmt, pos):
    """Start offset of the full postfix chain ending at `pos` — walks left
    over `recv->`, `recv.`, `A::`, including bracketed/called receivers
    like `shards_[k]->` that CALL_RE's identifier chain cannot span."""
    i = pos
    while True:
        j = i
        while j > 0 and stmt[j - 1].isspace():
            j -= 1
        if j >= 2 and stmt[j - 2:j] in ("->", "::"):
            j -= 2
        elif j >= 1 and stmt[j - 1] == ".":
            j -= 1
        else:
            return i
        while j > 0 and stmt[j - 1].isspace():
            j -= 1
        while j > 0 and stmt[j - 1] in ")]":
            close = stmt[j - 1]
            open_ = "(" if close == ")" else "["
            depth = 0
            while j > 0:
                j -= 1
                if stmt[j] == close:
                    depth += 1
                elif stmt[j] == open_:
                    depth -= 1
                    if depth == 0:
                        break
            while j > 0 and stmt[j - 1].isspace():
                j -= 1
        k = j
        while k > 0 and (stmt[k - 1].isalnum() or stmt[k - 1] == "_"):
            k -= 1
        if k == j:
            return i
        i = k


class Binding:
    """A live raw-owning-pointer local and its release obligation."""
    __slots__ = ("name", "kind", "file", "line", "callee", "target",
                 "scope_idx", "null_scopes", "consumed")

    def __init__(self, name, kind, file, line, callee, target, scope_idx):
        self.name = name
        self.kind = kind
        self.file = file
        self.line = line          # acquire statement line
        self.callee = callee      # acquire expression text
        self.target = target      # resolved provider function key or None
        self.scope_idx = scope_idx
        self.null_scopes = set()  # scope idxs where the value is known null
        self.consumed = None      # how the obligation was met, once it was


class Leak:
    __slots__ = ("file", "line", "func", "binding", "how")

    def __init__(self, file, line, func, binding, how):
        self.file = file
        self.line = line          # where the value escapes
        self.func = func
        self.binding = binding
        self.how = how            # dropped|early-return|scope-end|function-end


class ResourceScanner(FileScanner):
    def on_function_begin(self, func):
        self.bindings = {}

    def on_function_end(self, func):
        for b in self.bindings.values():
            if b.consumed is None:
                self.an.leaks.append(
                    Leak(self.rel, b.line, func, b, "function-end"))
        self.bindings = {}

    def on_block_open(self, scope_idx, header):
        for b in self.bindings.values():
            if b.consumed is None and re.search(
                    rf"\b{b.name}\s*==\s*nullptr|!\s*{b.name}\b", header):
                b.null_scopes.add(scope_idx)

    def on_scope_close(self, scope, idx):
        if scope.kind == "function":
            return  # on_function_end reports these as function-end leaks
        dead = []
        for name, b in self.bindings.items():
            b.null_scopes.discard(idx)
            if b.scope_idx == idx:
                if b.consumed is None:
                    self.an.leaks.append(
                        Leak(self.rel, self.pending_line, self.func, b,
                             "scope-end"))
                dead.append(name)
        for name in dead:
            del self.bindings[name]

    def on_statement(self, stmt, line):
        if DROP_RE.search(stmt):
            self.record_status_drop(stmt, line)
        self.consume_events(stmt, line)
        self.find_acquires(stmt, line)
        if RETURN_RE.match(stmt.strip()):
            self.check_return_leaks(stmt, line)

    # -- status drops ------------------------------------------------------
    def record_status_drop(self, stmt, line):
        callee = "IgnoreError"
        for m in CALL_RE.finditer(stmt):
            expr = re.sub(r"\s+", "", m.group(1))
            if expr.split("::")[-1].split(".")[-1] != "IgnoreError":
                callee = expr
                break
            if expr.endswith(".IgnoreError") and len(expr) > len(
                    ".IgnoreError"):
                callee = expr[:-len(".IgnoreError")]
                break
        annotated = self.is_annotated(
            line, self.annotated_lines[ANNOT_STATUS])
        self.an.status_sites.append(
            (self.rel, line, self.func.key, callee, annotated))

    # -- obligation consumption -------------------------------------------
    def consume_events(self, stmt, line):
        is_return = RETURN_RE.match(stmt.strip()) is not None
        for b in self.bindings.values():
            if b.consumed is not None:
                continue
            nm = re.escape(b.name)
            if re.search(rf"\bdelete\s+(?:\[\]\s*)?{nm}\b", stmt):
                b.consumed = "delete"
            elif re.search(rf"[({{,]\s*(?:std::move\(\s*)?{nm}\s*[,)}}]",
                           stmt):
                b.consumed = "passed-to-consumer"
            elif is_return and re.search(rf"\b{nm}\b", stmt):
                b.consumed = "returned"
                self.record_origin(b)
            elif re.search(rf"[^=!<>+\-*/]=\s*(?:std::move\(\s*)?{nm}\b",
                           stmt):
                b.consumed = "stored"

    def record_origin(self, b):
        f = self.func
        if getattr(f, "origin", None) is None:
            f.origin = (b.file, b.line, b.callee, b.target)

    # -- acquisition -------------------------------------------------------
    def find_acquires(self, stmt, line):
        f = self.func
        seen_pos = set()
        for m in CALL_RE.finditer(stmt):
            if re.search(r"\bnew\s*$", stmt[:m.start()]):
                continue  # constructor call; NEW_RE handles the new-expr
            expr = re.sub(r"\s+", "", m.group(1))
            parts = re.split(r"\.|->", expr)
            method = parts[-1].split("::")[-1]
            if method in self.SKIP_METHODS:
                continue
            kind, target = self.an.acquire_kind(f, expr, parts, method)
            if kind is None:
                continue
            start = chain_start(stmt, m.start())
            if start in seen_pos:
                continue
            seen_pos.add(start)
            self.handle_acquire(stmt, line, start, kind, expr, target)
        for m in NEW_RE.finditer(stmt):
            ty = strip_type(m.group(1))
            if not ty.endswith("Iterator"):
                continue
            self.handle_acquire(stmt, line, m.start(), "iterator",
                                f"new {m.group(1)}", None)

    def handle_acquire(self, stmt, line, start, kind, callee, target):
        f = self.func
        prefix = stmt[:start].rstrip()
        annotated = self.is_annotated(
            line, self.annotated_lines[ANNOT_TRANSFER])
        if annotated:
            self.an.transfer_sites.append(
                (self.rel, line, f.key, callee))
            return
        if re.search(r"\breturn$", prefix):
            # Transferred to the caller; record provenance for witnesses.
            if getattr(f, "origin", None) is None:
                f.origin = (self.rel, line, callee, target)
            return
        if not prefix:
            # Bare statement: the owning pointer is dropped on the spot.
            b = Binding("<temporary>", kind, self.rel, line, callee, target,
                        len(self.scopes) - 1)
            self.an.leaks.append(Leak(self.rel, line, f, b, "dropped"))
            return
        bm = re.search(r"([A-Za-z_]\w*)\s*=$", prefix)
        if bm and not re.search(r"[=!<>+\-*/&|]\s*=$", prefix):
            name = bm.group(1)
            if name in f.locals:
                self.bindings[name] = Binding(
                    name, kind, self.rel, line, callee, target,
                    len(self.scopes) - 1)
                return
            # Member/global store: ownership escapes to the object.
            return
        # Nested inside a consumer expression (argument, smart-pointer
        # constructor, container insert, comparison): consumed there.

    # -- leak checks -------------------------------------------------------
    def check_return_leaks(self, stmt, line):
        depth = len(self.scopes) - 1
        for b in self.bindings.values():
            if b.consumed is not None or b.null_scopes:
                continue
            if b.scope_idx > depth:
                continue
            if re.search(rf"\b{re.escape(b.name)}\b", stmt):
                continue
            self.an.leaks.append(
                Leak(self.rel, line, self.func, b, "early-return"))
            b.consumed = "leak-reported"  # one report per obligation


class ResourceAnalyzer(Frontend):
    scanner_class = ResourceScanner

    def __init__(self, root, verbose=False):
        super().__init__(root, annotations=(ANNOT_TRANSFER, ANNOT_STATUS),
                         verbose=verbose)
        self.leaks = []
        self.status_sites = []    # (file, line, func key, callee, annotated)
        self.transfer_sites = []  # (file, line, func key, callee)

    def reset_pass(self):
        super().reset_pass()
        self.leaks = []
        self.status_sites = []
        self.transfer_sites = []

    def acquire_kind(self, func, expr, parts, method):
        """(kind, provider function key) when the call returns a raw owning
        resource pointer; (None, None) otherwise."""
        cls = func.cls
        resolved_any = False
        if len(parts) > 1 and "::" not in parts[-1]:
            recv = self.resolve_chain(parts[:-1], func, cls)
            targets = [f"{recv}::{method}"] if recv is not None else []
        elif "::" in expr:
            targets = [expr[2:] if expr.startswith("::") else expr]
        elif cls is not None:
            targets = [f"{cls}::{method}", method]
        else:
            targets = [method]
        for t in targets:
            g = self.lookup(t)
            ret = self.return_type_of(t)
            if g is not None or ret is not None:
                resolved_any = True
            kind = kind_from_return(ret)
            if kind is None:
                continue
            return kind, g.key if g is not None else t
        if not resolved_any and method in FALLBACK_ACQUIRES:
            return "iterator", None
        return None, None

    def witness_chain(self, binding, limit=6):
        """Provenance steps behind an acquire: follow each provider's
        recorded return-transfer origin."""
        chain = []
        target = binding.target
        while target is not None and len(chain) < limit:
            fn = self.lookup(target)
            origin = getattr(fn, "origin", None) if fn is not None else None
            if origin is None:
                break
            chain.append((fn.key, origin))
            target = origin[3]
        return chain


def check_resource_audit(an, root):
    path = os.path.join(root, "tools", "resource_audit.list")
    entries = load_audit_list(path, an.errors)
    used = set()
    for file, line, fkey, callee in an.transfer_sites:
        hit = None
        for e in entries:
            if (e[1], e[2], e[3]) == (file, fkey, callee):
                hit = e
                break
        if hit is None:
            an.errors.append(
                f"{file}:{line}: {ANNOT_TRANSFER} site [{fkey}] {callee!r} "
                f"is missing from tools/resource_audit.list")
        else:
            used.add(hit[0])
    for e in entries:
        if e[0] not in used:
            an.errors.append(
                f"{path}:{e[0]}: stale audit entry ({e[1]}, {e[2]}, "
                f"{e[3]!r}) matches no {ANNOT_TRANSFER} acquire in src/")


def check_status_audit(an, root):
    path = os.path.join(root, "tools", "status_audit.list")
    entries = load_audit_list(path, an.errors)
    used = set()
    drops = []
    for file, line, fkey, callee, annotated in an.status_sites:
        if not annotated:
            drops.append((file, line, fkey, callee))
            continue
        hit = None
        for e in entries:
            if (e[1], e[2], e[3]) == (file, fkey, callee):
                hit = e
                break
        if hit is None:
            an.errors.append(
                f"{file}:{line}: {ANNOT_STATUS} drop [{fkey}] {callee!r} "
                f"is missing from tools/status_audit.list")
        else:
            used.add(hit[0])
    for e in entries:
        if e[0] not in used:
            an.errors.append(
                f"{path}:{e[0]}: stale audit entry ({e[1]}, {e[2]}, "
                f"{e[3]!r}) matches no annotated IgnoreError site in src/")
    return drops


def run_analysis(root, verbose=False):
    an = ResourceAnalyzer(root, verbose=verbose)
    an.run(collect_files(root))
    return an


HOW_TEXT = {
    "dropped": "acquired and dropped on the spot",
    "early-return": "escapes via early return",
    "scope-end": "escapes at end of scope",
    "function-end": "escapes at end of function",
}


def report(an, drops, verbose):
    for e in an.errors:
        print(f"error: {e}")
    for lk in sorted(an.leaks, key=lambda l: (l.file, l.line)):
        b = lk.binding
        print(f"LEAK {lk.file}:{lk.line} in [{lk.func.key}]: "
              f"{b.kind} '{b.name}' {HOW_TEXT[lk.how]} without "
              f"release or documented transfer")
        print(f"    acquired at {b.file}:{b.line} from {b.callee}(...)")
        for fkey, (ofile, oline, ocallee, _) in an.witness_chain(b):
            print(f"    -> [{fkey}] transfers a value acquired from "
                  f"{ocallee}(...) at {ofile}:{oline}")
    for file, line, fkey, callee in sorted(drops):
        print(f"DROP {file}:{line} in [{fkey}]: {callee}(...) status "
              f"discarded without a {ANNOT_STATUS} annotation")
    if not an.leaks and not drops and not an.errors:
        n_acq = sum(
            1 for f in an.functions.values()
            if getattr(f, "origin", None) is not None)
        print(f"check_resource_flow: OK — {len(an.functions)} functions, "
              f"{n_acq} transfer sources, "
              f"{len(an.status_sites)} audited status drops, "
              f"0 unaudited acquire-without-release paths, "
              f"0 unaudited status drops")


# -------------------------------------------------------------- self-test --
SELF_TEST_H = """\
#pragma once
namespace lsmlab {
class Slice;
class Status;
class Iterator {
 public:
  virtual ~Iterator();
  virtual void SeekToFirst() = 0;
};
class Table {
 public:
  Iterator* NewIterator() const;
};
class Cache {
 public:
  struct Handle;
  Handle* Lookup(const Slice& key);
  void Release(Handle* h);
};
class Store {
 public:
  void DirectLeak();
  void DroppedLeak();
  Iterator* MakeIterator();
  void IndirectLeak(bool err);
  Status ErrorPathLeak(bool fail);
  void CleanRelease();
  void CleanTransfer();
  void AuditedEscape();
  void UnlistedEscape();
  void StatusDrops();
 private:
  Status Prepare();
  Status Cleanup();
  Status Teardown();
  Table* table_;
  Cache* cache_;
  std::vector<Iterator*> registry_;
};
}  // namespace lsmlab
"""

SELF_TEST_CC = """\
#include "store.h"
namespace lsmlab {

void Store::DirectLeak() {
  Iterator* it = table_->NewIterator();
  it->SeekToFirst();
}  // seeded: leak at end of function

void Store::DroppedLeak() {
  table_->NewIterator();  // seeded: owning pointer dropped on the spot
}

Iterator* Store::MakeIterator() {
  return table_->NewIterator();  // clean: ownership transfers to caller
}

void Store::IndirectLeak(bool err) {
  Iterator* it = MakeIterator();  // interprocedural acquire
  if (err) {
    return;  // seeded: early return leaks it
  }
  delete it;
}

Status Store::ErrorPathLeak(bool fail) {
  Cache::Handle* h = cache_->Lookup(Slice("k"));
  Status s = Prepare();
  if (!s.ok()) {
    return s;  // seeded: error path drops the pinned handle
  }
  cache_->Release(h);
  return Status::OK();
}

void Store::CleanRelease() {
  Cache::Handle* h = cache_->Lookup(Slice("k"));
  if (h == nullptr) {
    return;  // clean: the obligation is void on the null path
  }
  cache_->Release(h);
}

void Store::CleanTransfer() {
  Iterator* it = MakeIterator();
  registry_.push_back(it);  // clean: moved into an owning container
}

void Store::AuditedEscape() {
  // transfers-ownership: self-registering iterator; listed in the audit.
  table_->NewIterator();
}

void Store::UnlistedEscape() {
  // transfers-ownership: annotated but missing from the list -> error.
  table_->NewIterator();
}

void Store::StatusDrops() {
  Cleanup().IgnoreError();  // seeded: unaudited status drop
  // status-ok: best-effort teardown; listed in status_audit.list.
  Teardown().IgnoreError();
}

}  // namespace lsmlab
"""

SELF_TEST_RESOURCE_AUDIT = (
    "# file\tfunction\tcallee\treason\n"
    "src/store.cc\tStore::AuditedEscape\ttable_->NewIterator\t"
    "self-test exception\n"
    "src/store.cc\tStore::Bogus\ttable_->NewIterator\t"
    "stale entry, must error\n"
)

SELF_TEST_STATUS_AUDIT = (
    "# file\tfunction\tcallee\treason\n"
    "src/store.cc\tStore::StatusDrops\tTeardown\tself-test exception\n"
    "src/store.cc\tStore::Bogus\tTeardown\tstale entry, must error\n"
)


def self_test(verbose):
    with tempfile.TemporaryDirectory(prefix="check_resource_flow_") as tmp:
        os.makedirs(os.path.join(tmp, "src"))
        os.makedirs(os.path.join(tmp, "tools"))
        paths = {
            "src/store.h": SELF_TEST_H,
            "src/store.cc": SELF_TEST_CC,
            "tools/resource_audit.list": SELF_TEST_RESOURCE_AUDIT,
            "tools/status_audit.list": SELF_TEST_STATUS_AUDIT,
        }
        for rel, content in paths.items():
            with open(os.path.join(tmp, rel), "w") as f:
                f.write(content)
        an = run_analysis(tmp, verbose=verbose)
        check_resource_audit(an, tmp)
        drops = check_status_audit(an, tmp)
        flagged = {(lk.func.key, lk.how) for lk in an.leaks}
        failures = []
        for expect in (("Store::DirectLeak", "function-end"),
                       ("Store::DroppedLeak", "dropped"),
                       ("Store::IndirectLeak", "early-return"),
                       ("Store::ErrorPathLeak", "early-return")):
            if expect not in flagged:
                failures.append(
                    f"seeded {expect[1]} leak in {expect[0]} NOT flagged")
        for clean in ("Store::MakeIterator", "Store::CleanRelease",
                      "Store::CleanTransfer", "Store::AuditedEscape"):
            if any(k == clean for k, _ in flagged):
                failures.append(f"clean function {clean} falsely flagged")
        # The interprocedural leak must carry a witness through the helper.
        indirect = [lk for lk in an.leaks
                    if lk.func.key == "Store::IndirectLeak"]
        if indirect and not an.witness_chain(indirect[0].binding):
            failures.append(
                "interprocedural leak has no witness chain through "
                "Store::MakeIterator")
        drop_funcs = {d[2] for d in drops}
        if "Store::StatusDrops" not in drop_funcs:
            failures.append("seeded unaudited status drop NOT flagged")
        if len(drops) != 1:
            failures.append(
                f"expected exactly 1 unaudited drop, got {len(drops)}")
        if not any("stale audit entry" in e and "resource_audit" in e
                   for e in an.errors):
            failures.append("stale resource_audit entry not reported")
        if not any("stale audit entry" in e and "status_audit" in e
                   for e in an.errors):
            failures.append("stale status_audit entry not reported")
        if not any("Store::UnlistedEscape" in e for e in an.errors):
            failures.append(
                "annotated-but-unlisted transfer site not reported")
        if any("Store::AuditedEscape" in e for e in an.errors):
            failures.append("listed+annotated transfer wrongly reported")
        if verbose:
            report(an, drops, verbose)
        if failures:
            print("check_resource_flow --self-test: FAIL")
            for f in failures:
                print(f"  {f}")
            return 1
        print("check_resource_flow --self-test: PASS "
              f"({len(an.leaks)} seeded leaks flagged with witnesses, "
              "clean transfer/release/audited cases quiet, "
              "stale rows rejected)")
        return 0


def main():
    ap = argparse.ArgumentParser(
        description="resource acquire/release pairing + audited status-drop "
                    "analyzer")
    ap.add_argument("--root",
                    default=os.path.dirname(os.path.dirname(
                        os.path.abspath(__file__))),
                    help="repo root (default: parent of tools/)")
    ap.add_argument("--self-test", action="store_true",
                    help="run the embedded seeded-violation self-test")
    ap.add_argument("--dump-status", action="store_true",
                    help="print every IgnoreError site as audit-list rows "
                         "and exit")
    ap.add_argument("--verbose", action="store_true")
    args = ap.parse_args()

    if args.self_test:
        sys.exit(self_test(args.verbose))

    an = run_analysis(args.root, verbose=args.verbose)
    if args.dump_status:
        for file, line, fkey, callee, annotated in sorted(an.status_sites):
            mark = "audited" if annotated else "UNAUDITED"
            print(f"{file}\t{fkey}\t{callee}\t{mark} (line {line})")
        sys.exit(0)
    check_resource_audit(an, args.root)
    drops = check_status_audit(an, args.root)
    report(an, drops, args.verbose)
    sys.exit(1 if an.leaks or drops or an.errors else 0)


if __name__ == "__main__":
    main()
