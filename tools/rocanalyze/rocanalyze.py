#!/usr/bin/env python3
"""rocanalyze: whole-repo semantic analysis of rocpio-specific invariants.

Ten rule families (see rules.py for the full catalogue):

  R1 buffer-lifetime      stored/returned borrowing views (ConstBuffer,
                          WireBlockView, std::string_view) must have a
                          provably-outliving owner.
  R2 guard-completeness   fields written under a roc::Mutex / comm::Gate
                          must be ROC_GUARDED_BY it.  This closes the gap
                          Clang's -Wthread-safety leaves when annotations
                          are simply absent (Clang itself checks that
                          guarded fields are not touched lock-free).
  R3 hook-coverage        checker-registered shared cells
                          (ROC_CHECK_SHARED_*) must be hooked at every
                          observing/mutating method, and guarded siblings
                          of registered cells must be registered.
  R4 wire-format hygiene  no memcpy/reinterpret_cast serialization of
                          non-trivially-copyable or padded structs outside
                          util/serialize.h.
  R5 static lock order    whole-program lock acquisition graph (call graph
                          + lock-set dataflow) must be acyclic; cycles are
                          potential deadlocks, found without running the
                          schedule; each finding names both acquisition
                          paths.
  R6 blocking under lock  no path from a lock-held region to a curated
                          blocking op (vfs I/O, Comm send/recv, waits,
                          submit backpressure, join, raw syscalls).
  R7 view suspension      borrowing views must not cross into async
                          submissions / thread handoffs unpinned.
  R8 hot-path allocation  nothing reachable from a ROC_HOT root may
                          allocate outside the sanctioned BufferPool
                          channel or an explicit ROC_COLD branch; findings
                          carry the witness chain from the root.  The
                          dynamic catcher beside it is the operator new
                          interposer (src/check/alloc_hook.h), diffed
                          around steady-state operations by
                          tests/alloc_test.cpp and bench_micro.
  R9 copy discipline      by-value SharedBuffer / BufferChain /
                          std::function parameters must be moved into
                          their final home, and ConstBuffer borrows must
                          not be materialised into owned bytes on a hot
                          path.
  R10 cold escape         hot-reachable code must not call curated cold
                          roots (stdio, to_text/to_json, trace-file
                          writers, log emission).

The model is built from source text alone (cxxmodel.LexicalEngine: a
conservative structural parse of the repository's own idiom), so the
analyzer needs no compiler, build tree or compilation database.

Every finding fails the run.  The one way to accept a finding is an inline
suppression with its reason, on the finding line or up to two lines above
it (tools/lint.py rule `analyzer-allow` rejects one without a `why:`):

    // ROCANALYZE-ALLOW(rule-id): why: reason

Usage:
  tools/rocanalyze/rocanalyze.py [--root DIR] [--rules r1,r2-...]
      [--out findings.json] [--paths file...] [-q]

Exit status: 0 clean, 1 findings, 2 usage error.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

from cxxmodel import LexicalEngine  # noqa: E402
from rules import ALL_RULES, run_rules  # noqa: E402

# Directories holding first-party sources the invariants apply to.  Tests
# and benches construct deliberately odd shapes (dangling fixtures, planted
# races) and are exercised by their own tooling.
SOURCE_DIRS = ("src",)
CXX_EXTENSIONS = (".h", ".hpp", ".cpp", ".cc")


def iter_source_files(root):
    for d in SOURCE_DIRS:
        top = os.path.join(root, d)
        if not os.path.isdir(top):
            continue
        for dirpath, dirnames, filenames in os.walk(top):
            dirnames[:] = [x for x in dirnames if not x.startswith(".")]
            for f in sorted(filenames):
                if f.endswith(CXX_EXTENSIONS):
                    yield os.path.relpath(os.path.join(dirpath, f), root)


def expand_rules(spec):
    """Expands `r1,r2-unannotated` style specs: a bare family prefix
    (r1..r10) selects every rule in the family."""
    out = []
    for tok in (t.strip() for t in spec.split(",")):
        if not tok:
            continue
        if tok in ALL_RULES:
            out.append(tok)
        else:
            fam = [r for r in ALL_RULES if r.startswith(tok + "-")
                   or r == tok]
            if not fam:
                return None, tok
            out.extend(fam)
    return out, None


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--root", default=os.path.dirname(os.path.dirname(
        os.path.dirname(os.path.abspath(__file__)))),
        help="repository root (default: grandparent of this file)")
    ap.add_argument("--rules", default="r1,r2,r3,r4,r5,r6,r7,r8,r9,r10",
                    help="comma-separated rule ids or family prefixes "
                         f"(families r1..r10; ids: {', '.join(ALL_RULES)})")
    ap.add_argument("--out", default="",
                    help="write findings as JSON to this path")
    ap.add_argument("--paths", nargs="*", default=None,
                    help="analyze exactly these files (relative to --root "
                         "or absolute) instead of the source tree")
    ap.add_argument("-q", "--quiet", action="store_true")
    args = ap.parse_args(argv)

    root = os.path.abspath(args.root)
    rules, bad = expand_rules(args.rules)
    if bad is not None:
        print(f"rocanalyze: unknown rule or family: {bad}", file=sys.stderr)
        return 2

    if args.paths is not None:
        rel_paths = []
        for p in args.paths:
            ap_ = p if os.path.isabs(p) else os.path.join(root, p)
            if not os.path.isfile(ap_):
                print(f"rocanalyze: no such file: {p}", file=sys.stderr)
                return 2
            rel_paths.append(os.path.relpath(ap_, root))
    else:
        rel_paths = list(iter_source_files(root))
    if not rel_paths:
        print("rocanalyze: nothing to analyze", file=sys.stderr)
        return 2

    models, structs = LexicalEngine(root, rel_paths).build()

    from rules import ALLOC_RULES, INTERPROC_RULES
    analysis = None
    if any(r in rules for r in INTERPROC_RULES):
        import lockset
        analysis = lockset.analyze(models)
    alloc_analysis = None
    if any(r in rules for r in ALLOC_RULES):
        import allocsum
        alloc_analysis = allocsum.analyze(
            models, analysis.prog if analysis is not None else None)

    findings = run_rules(models, structs, rules=rules, analysis=analysis,
                         alloc_analysis=alloc_analysis)

    if args.out:
        payload = {"rules": rules,
                   "findings": [f.to_json() for f in findings]}
        with open(args.out, "w", encoding="utf-8") as fh:
            json.dump(payload, fh, indent=2)
            fh.write("\n")

    for f in findings:
        print(f)
    if not args.quiet:
        status = f"{len(findings)} finding(s)" if findings else "clean"
        print(f"rocanalyze: {len(rel_paths)} file(s) -- {status}")
    return 1 if findings else 0


if __name__ == "__main__":
    sys.exit(main())
