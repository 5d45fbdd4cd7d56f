#!/usr/bin/env python3
"""Repo-invariant linter: cheap greps for contracts a compiler can't see.

Run from anywhere: `python3 tools/check_invariants.py`. Exits non-zero
with one line per violation. Checks:

  1. Raw synchronization primitives (std::mutex, std::condition_variable,
     std::lock_guard, std::unique_lock, std::scoped_lock and their
     headers) are banned outside src/common/sync.{h,cc}. Unannotated
     locking is invisible to clang's thread-safety analysis, which would
     quietly rot the checked contracts back into prose.
  2. rand() / argless srand() are banned everywhere: the repo's benches
     and tests are seeded-deterministic through common/random.h (Rng).
  3. The wire verbs parsed by src/server/wire.cc and the verb table in
     docs/protocol.md must agree exactly; every STATS key the server
     emits (src/server/net_server.cc) must be documented in protocol.md;
     and the QUERY option keys (MODE=..., NPROBE=..., any future
     KEY=VALUE) parsed by wire.cc and documented in protocol.md must
     agree exactly in both directions.
  4. Every NOLINT marker and every GDIM_NO_THREAD_SAFETY_ANALYSIS /
     GDIM_ASSERT_CAPABILITY use site must carry an inline justification
     (same line or the line above) — suppressions without a recorded
     reason are just deleted evidence.
  5. The v3 snapshot section tags defined in src/core/index_io.cc
     (kSectionXxxx constants) and the tag table in protocol.md's
     "Snapshot format" section must agree exactly in both directions —
     an undocumented section is invisible to operators, a documented but
     unparsed one is fiction.
  6. The pipeline stage names defined in src/obs/ (kStageXxxx constants,
     each the <stage> of a `gdim_stage_<stage>_usec` histogram) and the
     stage table in protocol.md's "Query tracing" section must agree
     exactly in both directions — dashboards are built from the docs, and
     a renamed stage silently orphans every panel watching it.
  7. The identifier QueryEngine (the private shard segment) may appear
     only in src/serve/query_engine.* and src/server/sharded_engine.* —
     ShardedEngine is the one engine anything else builds, queries,
     mutates or snapshots, so a second public engine surface cannot grow
     back. Comments count: naming the segment elsewhere is the first step
     toward calling it.
"""

import re
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
CODE_DIRS = ("src", "bench", "tools", "tests", "examples")
SYNC_FILES = {"src/common/sync.h", "src/common/sync.cc"}
SHARD_SEGMENT_FILES = {
    "src/serve/query_engine.h",
    "src/serve/query_engine.cc",
    "src/server/sharded_engine.h",
    "src/server/sharded_engine.cc",
}

errors = []


def report(path, lineno, message):
    errors.append(f"{path}:{lineno}: {message}")


def code_files():
    for d in CODE_DIRS:
        base = ROOT / d
        if not base.is_dir():
            continue
        for ext in ("*.cc", "*.h", "*.cpp", "*.hpp"):
            yield from sorted(base.rglob(ext))


def strip_line_comment(line):
    """Drop // comments so banned names in prose don't trip the linter."""
    pos = line.find("//")
    return line if pos < 0 else line[:pos]


# ---------------------------------------------------------------- check 1 --
RAW_SYNC = re.compile(
    r"std::(mutex|condition_variable(_any)?|lock_guard|unique_lock"
    r"|scoped_lock|shared_mutex|shared_lock)\b"
    r"|#\s*include\s*<(mutex|condition_variable|shared_mutex)>"
)

# ---------------------------------------------------------------- check 2 --
# Bare rand()/srand() calls; std::rand too. Word boundary keeps Rng methods
# and identifiers like `operand(` out.
RAW_RAND = re.compile(r"(?<![\w.])(?:std::)?s?rand\s*\(")

# ---------------------------------------------------------------- check 7 --
SHARD_SEGMENT = re.compile(r"\bQueryEngine\b")

# ---------------------------------------------------------------- check 4 --
NOLINT = re.compile(r"NOLINT(NEXTLINE|BEGIN|END)?\b")
TSA_ESCAPE = re.compile(
    r"GDIM_NO_THREAD_SAFETY_ANALYSIS\b|\.\s*Assert\s*\(\s*\)"
)


def has_justification(lines, idx):
    """A justification is comment prose on the marker line or the 2 above."""
    for back in range(0, 3):
        if idx - back < 0:
            break
        line = lines[idx - back]
        m = (re.search(r"//+\s*(.*)", line)
             or re.search(r"/\*\s*(.*?)\s*\*/", line))
        if m:
            prose = NOLINT.sub("", m.group(1))
            prose = re.sub(r"\([-a-z0-9*,._ ]*\)", "", prose)  # check list
            if len(prose.strip()) >= 8:
                return True
    return False


def lint_file(path):
    rel = path.relative_to(ROOT).as_posix()
    text = path.read_text(encoding="utf-8", errors="replace")
    lines = text.splitlines()
    in_sync = rel in SYNC_FILES
    owns_segment = rel in SHARD_SEGMENT_FILES
    for i, raw in enumerate(lines):
        line = strip_line_comment(raw)
        if not in_sync and RAW_SYNC.search(line):
            report(rel, i + 1,
                   "raw std synchronization primitive; use the annotated "
                   "wrappers in common/sync.h")
        if RAW_RAND.search(line):
            report(rel, i + 1,
                   "rand()/srand() is banned; use common/random.h (Rng) "
                   "so runs stay seeded-deterministic")
        if not owns_segment and SHARD_SEGMENT.search(raw):
            report(rel, i + 1,
                   "QueryEngine is the sharded engine's private segment; "
                   "use ShardedEngine (server/sharded_engine.h)")
        if NOLINT.search(raw) and not has_justification(lines, i):
            report(rel, i + 1,
                   "NOLINT without an inline justification comment")
        if (not in_sync and TSA_ESCAPE.search(line)
                and not has_justification(lines, i)):
            report(rel, i + 1,
                   "thread-safety-analysis escape hatch "
                   "(GDIM_NO_THREAD_SAFETY_ANALYSIS / role Assert()) "
                   "without an inline justification comment")


# ---------------------------------------------------------------- check 3 --
def check_wire_docs():
    wire = ROOT / "src" / "server" / "wire.cc"
    server = ROOT / "src" / "server" / "net_server.cc"
    doc = ROOT / "docs" / "protocol.md"
    for p in (wire, server, doc):
        if not p.is_file():
            report(p.relative_to(ROOT).as_posix(), 1, "file missing")
            return
    wire_text = wire.read_text(encoding="utf-8")
    doc_text = doc.read_text(encoding="utf-8")

    code_verbs = set(re.findall(r'verb == "([A-Z]+)"', wire_text))
    # Scope the verb scan to the request table: the snapshot-format section
    # documents section tags in the same `| `TAG` |` table shape.
    requests = re.search(r"^## Requests$(.*?)^## ", doc_text, re.M | re.S)
    requests_text = requests.group(1) if requests else doc_text
    doc_verbs = set(re.findall(r"^\|\s*`([A-Z]+)\b", requests_text, re.M))
    for verb in sorted(code_verbs - doc_verbs):
        report("docs/protocol.md", 1,
               f"wire verb {verb} is parsed by src/server/wire.cc but "
               "missing from the request table")
    for verb in sorted(doc_verbs - code_verbs):
        report("src/server/wire.cc", 1,
               f"documented verb {verb} is not parsed (docs/protocol.md "
               "request table)")

    # Every key in the STATS response format string must be documented.
    server_text = server.read_text(encoding="utf-8")
    stats_fmt = re.search(r'"OK graphs=.*?"\s*,', server_text, re.S)
    if not stats_fmt:
        report("src/server/net_server.cc", 1,
               "could not locate the STATS response format string")
        return
    emitted = set(re.findall(r"(\w+)=%", stats_fmt.group(0)))
    documented = set(re.findall(r"`(\w+)`", doc_text))
    for key in sorted(emitted - documented):
        report("docs/protocol.md", 1,
               f"STATS key `{key}` is emitted by net_server.cc but "
               "undocumented")

    # QUERY option keys: wire.cc's parser branches (key == "MODE" etc.)
    # and protocol.md's `KEY=` spellings must agree in both directions.
    # `KEY` itself is the docs' generic placeholder (`KEY=VALUE`), not an
    # option.
    code_keys = set(re.findall(r'key == "([A-Z]+)"', wire_text))
    doc_keys = set(re.findall(r"`([A-Z]+)=", doc_text)) - {"KEY"}
    for key in sorted(code_keys - doc_keys):
        report("docs/protocol.md", 1,
               f"QUERY option {key} is parsed by src/server/wire.cc but "
               "undocumented (spell it as `" + key + "=...`)")
    for key in sorted(doc_keys - code_keys):
        report("src/server/wire.cc", 1,
               f"documented QUERY option {key} is not parsed "
               "(docs/protocol.md)")


# ---------------------------------------------------------------- check 5 --
def check_snapshot_section_tags():
    index_io = ROOT / "src" / "core" / "index_io.cc"
    doc = ROOT / "docs" / "protocol.md"
    for p in (index_io, doc):
        if not p.is_file():
            report(p.relative_to(ROOT).as_posix(), 1, "file missing")
            return
    code_text = index_io.read_text(encoding="utf-8")
    doc_text = doc.read_text(encoding="utf-8")

    code_tags = set(
        re.findall(r'constexpr char kSection\w+\[5\] = "(\w{4})";',
                   code_text))
    if not code_tags:
        report("src/core/index_io.cc", 1,
               "no kSectionXxxx tag constants found (the greppable "
               '`constexpr char kSectionXxxx[5] = "XXXX";` shape is a '
               "linter contract)")
        return
    section = re.search(r"^## Snapshot format.*?$(.*?)^## ", doc_text,
                        re.M | re.S)
    if not section:
        report("docs/protocol.md", 1,
               'no "## Snapshot format" section to hold the v3 tag table')
        return
    doc_tags = set(
        re.findall(r"^\|\s*`([A-Z0-9]{4})`\s*\|", section.group(1), re.M))
    for tag in sorted(code_tags - doc_tags):
        report("docs/protocol.md", 1,
               f"v3 section tag {tag} is defined in src/core/index_io.cc "
               "but missing from the snapshot-format tag table")
    for tag in sorted(doc_tags - code_tags):
        report("src/core/index_io.cc", 1,
               f"documented v3 section tag {tag} has no kSection constant "
               "(docs/protocol.md snapshot-format table)")


# ---------------------------------------------------------------- check 6 --
def check_stage_names():
    obs_dir = ROOT / "src" / "obs"
    doc = ROOT / "docs" / "protocol.md"
    if not obs_dir.is_dir() or not doc.is_file():
        report("src/obs", 1, "src/obs/ or docs/protocol.md missing")
        return
    code_stages = set()
    for path in sorted(obs_dir.rglob("*.h")) + sorted(obs_dir.rglob("*.cc")):
        code_stages |= set(
            re.findall(r'constexpr char kStage\w+\[\] = "(\w+)";',
                       path.read_text(encoding="utf-8")))
    if not code_stages:
        report("src/obs", 1,
               "no kStageXxxx constants found (the greppable "
               '`constexpr char kStageXxxx[] = "xxx";` shape is a '
               "linter contract)")
        return
    doc_text = doc.read_text(encoding="utf-8")
    section = re.search(r"^## Query tracing.*?$(.*?)^## ", doc_text,
                        re.M | re.S)
    if not section:
        report("docs/protocol.md", 1,
               'no "## Query tracing" section to hold the stage table')
        return
    doc_stages = set(
        re.findall(r"^\|\s*`([a-z_]+)`\s*\|", section.group(1), re.M))
    for stage in sorted(code_stages - doc_stages):
        report("docs/protocol.md", 1,
               f"pipeline stage {stage} is defined in src/obs/ but missing "
               "from the query-tracing stage table")
    for stage in sorted(doc_stages - code_stages):
        report("src/obs", 1,
               f"documented pipeline stage {stage} has no kStage constant "
               "(docs/protocol.md query-tracing stage table)")


def main():
    for path in code_files():
        lint_file(path)
    check_wire_docs()
    check_snapshot_section_tags()
    check_stage_names()
    if errors:
        print(f"check_invariants: {len(errors)} violation(s)",
              file=sys.stderr)
        for e in errors:
            print(e, file=sys.stderr)
        return 1
    print("check_invariants: OK")
    return 0


if __name__ == "__main__":
    sys.exit(main())
