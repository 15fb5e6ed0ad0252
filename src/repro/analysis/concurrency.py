"""The shared-mutable-state report: concurrency readiness, measured.

The ROADMAP's two parallelism items — snapshot-reader serving and worker
pools over the ``batches()`` seam — both need an *inventory* of every
piece of state two workers could race on.  This module derives that
inventory from the :class:`~repro.analysis.dataflow.ProgramGraph` and
classifies each entry:

- ``immutable-after-init`` — built once, never mutated afterwards
  (lookup tables, interned constants, objects only written in
  ``__init__``);
- ``statement-scoped`` — the owning object lives and dies inside one
  statement execution (runtime subquery caches, decode caches, compiled
  plan programs), so statement-level confinement is the guard;
- ``version-stamped`` — mutations bump a version counter that dependent
  caches compare before trusting their contents (``Catalog.version`` and
  the stat caches keyed on it); detected structurally: a method that
  advances ``self._version`` and rebuilds/clears the state in the same
  breath;
- ``lock-guarded`` — every mutation site sits lexically inside a
  ``with`` block whose context expression names a lock-like object
  (``lock``/``latch``/``mutex``/``cond`` in the name); the serving
  layer's page store, buffer pool, and commit queue live here;
- ``mergeable-counter`` — the :class:`~repro.rss.counters.CostCounters`
  fields, *proven* increment-only and confined to ``rss/`` so per-worker
  copies can merge by summation at a pipeline breaker (the precondition
  for the ROADMAP's counter-merge design);
- ``driver-confined`` — mutated only by the single driving thread of a
  parallel statement; workers see it through read-only snapshots
  (``ScanSnapshot``) or never at all (the buffer pool, whose fetch trace
  the driver replays serially at the gather point);
- ``UNGUARDED`` — none of the above.

Unguarded state is a violation unless the committed baseline
(``analysis/concurrency_baseline.toml``) acknowledges it: the baseline is
a reviewed ratchet — existing known state is listed with a justification,
and any *new* unguarded shared state fails ``repro check --concurrency``.
State whose mutation sites are reachable from the parallel paths (the
fused drivers of ``engine/fuse.py`` and their bucketed probes in
``engine/probe.py``, the compiled closures of
``engine/compile.py``, the worker tasks and gather drivers of
``engine/parallel.py``, ``batches()`` in ``rss/scan.py``) is flagged
``parallel: yes`` — that subset is the worklist parallel execution must
guard before it can grow.

An in-source trailing comment ``# concurrency: statement-scoped`` (on the
declaration line or the line above) classifies state where the
justification belongs next to the code; the baseline file covers the
rest.
"""

from __future__ import annotations

import ast
import tomllib
from dataclasses import dataclass, field
from pathlib import Path

from .dataflow import ClassInfo, Mutation, ProgramGraph
from .plan_check import Violation

#: Every classification the report can assign.
CLASSIFICATIONS = (
    "immutable-after-init",
    "statement-scoped",
    "version-stamped",
    "lock-guarded",
    "mergeable-counter",
    "driver-confined",
    "UNGUARDED",
)

#: The CostCounters fields whose mergeability is audited.
COUNTER_FIELDS = ("page_fetches", "rsi_calls", "buffer_hits")

#: Roots of the future parallel execution paths (module prefix or exact
#: function qualname): state mutated under these must not stay unguarded.
PARALLEL_ROOT_MODULES = (
    "engine/fuse.py",
    "engine/compile.py",
    "engine/parallel.py",
    "engine/probe.py",
    "engine/scheduler.py",
)
PARALLEL_ROOT_FUNCTIONS = (
    "rss/scan.py::SegmentScan.batches",
    "rss/scan.py::IndexScan.batches",
)

#: Attribute names matched to declaring classes only when the name is
#: this distinctive (declared by at most this many classes): common names
#: would otherwise attribute unrelated mutations to everyone.
_MAX_DECLARING_CLASSES = 3

#: Modules outside the report's scope: the analysis framework runs in its
#: own ``repro check`` process and is never on an engine execution path.
_EXCLUDED_PREFIXES = ("analysis/",)


@dataclass
class Finding:
    """One piece of shared mutable state."""

    key: str  # "module::Name" or "module::Class.attr"
    kind: str  # "module-global" | "class-attr" | "counter-field"
    classification: str
    #: Where the classification came from: "auto", "annotation", "baseline".
    source: str
    reason: str
    sites: list[str] = field(default_factory=list)
    parallel: bool = False

    def as_dict(self) -> dict:
        """JSON-ready representation."""
        return {
            "key": self.key,
            "kind": self.kind,
            "classification": self.classification,
            "source": self.source,
            "reason": self.reason,
            "sites": list(self.sites),
            "parallel": self.parallel,
        }


@dataclass
class ConcurrencyReport:
    """Findings plus the violations they imply under the baseline."""

    findings: list[Finding]
    violations: list[Violation]

    def by_classification(self) -> dict[str, list[Finding]]:
        grouped: dict[str, list[Finding]] = {c: [] for c in CLASSIFICATIONS}
        for finding in self.findings:
            grouped.setdefault(finding.classification, []).append(finding)
        return grouped

    def finding(self, key: str) -> Finding | None:
        for candidate in self.findings:
            if candidate.key == key:
                return candidate
        return None


def default_baseline_path() -> Path:
    """The committed baseline next to this module."""
    return Path(__file__).resolve().parent / "concurrency_baseline.toml"


# ---------------------------------------------------------------------------
# the analysis
# ---------------------------------------------------------------------------


def analyze_concurrency(
    graph: ProgramGraph, baseline_path: Path | None = None
) -> ConcurrencyReport:
    """Build the shared-mutable-state report for a program graph."""
    baseline, baseline_errors = _load_baseline(
        default_baseline_path() if baseline_path is None else baseline_path
    )
    parallel_functions = _parallel_reachable(graph)

    findings: list[Finding] = []
    findings.extend(_module_global_findings(graph, parallel_functions))
    findings.extend(_class_attr_findings(graph, parallel_functions))
    counter_findings, counter_violations = _audit_counters(
        graph, parallel_functions
    )
    findings.extend(counter_findings)
    findings.sort(key=lambda f: f.key)

    violations: list[Violation] = list(baseline_errors)
    violations.extend(counter_violations)
    known_keys = {finding.key for finding in findings}
    for key, entry in baseline.items():
        if key not in known_keys:
            violations.append(
                Violation(
                    "stale-baseline",
                    key,
                    "baseline entry does not match any current finding; "
                    "remove it so the baseline stays an honest inventory",
                )
            )
    for finding in findings:
        entry = baseline.get(finding.key)
        if finding.classification != "UNGUARDED":
            if entry is not None:
                violations.append(
                    Violation(
                        "stale-baseline",
                        finding.key,
                        f"already classified {finding.classification} "
                        f"({finding.source}); drop the baseline entry",
                    )
                )
            continue
        if entry is not None:
            # The baseline either reclassifies the finding or acknowledges
            # it as known-unguarded; both carry the reviewed reason.
            finding.classification = str(entry["classification"])
            finding.source = "baseline"
            finding.reason = str(entry["reason"])
        else:
            rule = (
                "unguarded-parallel-state"
                if finding.parallel
                else "unguarded-shared-state"
            )
            scope = (
                "reachable from the parallel execution paths "
                "(fused drivers / compiled closures / batches())"
                if finding.parallel
                else "not currently on a parallel path"
            )
            violations.append(
                Violation(
                    rule,
                    finding.key,
                    f"new unguarded shared mutable state, {scope}; mutated "
                    f"at {', '.join(finding.sites[:4]) or 'declaration'} — "
                    "guard it (confine, version-stamp, or make it "
                    "mergeable) or acknowledge it in "
                    "analysis/concurrency_baseline.toml",
                )
            )
    return ConcurrencyReport(findings=findings, violations=violations)


# -- baseline ---------------------------------------------------------------


def _load_baseline(
    path: Path,
) -> tuple[dict[str, dict], list[Violation]]:
    violations: list[Violation] = []
    if not path.exists():
        return {}, violations
    try:
        with path.open("rb") as handle:
            raw = tomllib.load(handle)
    except (OSError, tomllib.TOMLDecodeError) as error:
        return {}, [Violation("baseline-unreadable", str(path), str(error))]
    entries: dict[str, dict] = {}
    for key, entry in raw.items():
        if not isinstance(entry, dict):
            violations.append(
                Violation(
                    "baseline-malformed",
                    key,
                    "baseline entries must be tables with 'classification' "
                    "and 'reason'",
                )
            )
            continue
        classification = entry.get("classification")
        if classification not in CLASSIFICATIONS:
            violations.append(
                Violation(
                    "baseline-malformed",
                    key,
                    f"unknown classification {classification!r}; one of "
                    f"{', '.join(CLASSIFICATIONS)} required",
                )
            )
            continue
        if not entry.get("reason"):
            violations.append(
                Violation(
                    "baseline-malformed",
                    key,
                    "baseline entries need a 'reason' a reviewer signed "
                    "off on",
                )
            )
            continue
        entries[key] = entry
    return entries, violations


def render_baseline(findings: list[Finding]) -> str:
    """Draft baseline TOML for every currently-unacknowledged finding.

    Drafted entries keep classification ``UNGUARDED`` on purpose: the
    check stays red until a human replaces each with a real
    classification and reason — the review *is* the workflow.
    """
    lines = [
        "# Shared-mutable-state baseline (repro check --concurrency).",
        "# Every entry acknowledges one finding; 'reason' is the reviewed",
        "# justification. New unguarded state not listed here fails CI.",
        "",
    ]
    for finding in findings:
        if finding.classification != "UNGUARDED" or finding.source != "auto":
            continue
        lines.append(f'["{finding.key}"]')
        lines.append('classification = "UNGUARDED"  # FIXME: classify')
        lines.append('reason = ""  # FIXME: justify')
        if finding.sites:
            lines.append(f"# mutated at: {', '.join(finding.sites[:6])}")
        if finding.parallel:
            lines.append("# NOTE: reachable from the parallel paths")
        lines.append("")
    return "\n".join(lines)


# -- parallel-path reachability ---------------------------------------------


def _parallel_reachable(graph: ProgramGraph) -> set[str]:
    roots = [
        qualname
        for qualname, func in graph.functions.items()
        if func.module in PARALLEL_ROOT_MODULES
    ]
    roots.extend(PARALLEL_ROOT_FUNCTIONS)
    return graph.reachable(roots)


# -- module-level globals ---------------------------------------------------


def _module_global_findings(
    graph: ProgramGraph, parallel_functions: set[str]
) -> list[Finding]:
    mutation_sites: dict[tuple[str, str], list[tuple[str, int]]] = {}
    for qualname, mutations in graph.mutations.items():
        func = graph.functions[qualname]
        for mutation in mutations:
            if mutation.kind in ("global", "global-attr"):
                key = (func.module, mutation.target)
                mutation_sites.setdefault(key, []).append(
                    (qualname, mutation.lineno)
                )

    findings: list[Finding] = []
    for module in graph.modules.values():
        if module.relpath.startswith(_EXCLUDED_PREFIXES):
            continue
        for var in module.globals.values():
            sites = mutation_sites.get((module.relpath, var.name), [])
            if var.kind == "other" and not sites:
                continue  # constants (Structs, interned strings, numbers)
            annotation = _annotation(module.source_lines, var.lineno)
            if sites:
                classification, source, reason = _classify_mutable(
                    annotation,
                    default_reason="module-level mutable mutated at runtime",
                )
            else:
                classification, source, reason = (
                    "immutable-after-init",
                    "auto",
                    "module-level container never mutated after import",
                )
            findings.append(
                Finding(
                    key=var.key,
                    kind="module-global",
                    classification=classification,
                    source=source,
                    reason=reason,
                    sites=_format_sites(graph, sites),
                    parallel=any(q in parallel_functions for q, __ in sites),
                )
            )
    return findings


def _classify_mutable(
    annotation: str | None, default_reason: str
) -> tuple[str, str, str]:
    if annotation is not None:
        return annotation, "annotation", "classified at the declaration site"
    return "UNGUARDED", "auto", default_reason


# -- lock-guarded detection -------------------------------------------------

#: Name fragments that mark a with-block's context object as a lock.
_LOCKISH_NAMES = ("lock", "latch", "mutex", "cond")


def _is_lockish(node: ast.expr) -> bool:
    """Whether a with-item expression names a lock-like object."""
    for sub in ast.walk(node):
        if isinstance(sub, ast.Attribute):
            name = sub.attr
        elif isinstance(sub, ast.Name):
            name = sub.id
        else:
            continue
        lowered = name.lower()
        if any(token in lowered for token in _LOCKISH_NAMES):
            return True
    return False


def _lock_ranges(graph: ProgramGraph) -> dict[str, list[tuple[int, int]]]:
    """Per module, the line spans of with-blocks that hold a lock."""
    ranges: dict[str, list[tuple[int, int]]] = {}
    for relpath, module in graph.modules.items():
        spans: list[tuple[int, int]] = []
        for node in ast.walk(module.tree):
            if not isinstance(node, (ast.With, ast.AsyncWith)):
                continue
            end = getattr(node, "end_lineno", None)
            if end is None:
                continue
            if any(_is_lockish(item.context_expr) for item in node.items):
                spans.append((node.lineno, end))
        if spans:
            ranges[relpath] = spans
    return ranges


def _all_sites_locked(
    graph: ProgramGraph,
    lock_ranges: dict[str, list[tuple[int, int]]],
    sites: list[tuple[str, int]],
) -> bool:
    """Whether every mutation site sits inside a with-lock block."""
    if not sites:
        return False
    for qualname, lineno in sites:
        func = graph.functions.get(qualname)
        if func is None:
            return False
        spans = lock_ranges.get(func.module, ())
        if not any(start <= lineno <= end for start, end in spans):
            return False
    return True


# -- class attributes -------------------------------------------------------


def _class_attr_findings(
    graph: ProgramGraph, parallel_functions: set[str]
) -> list[Finding]:
    # self-attr mutations outside __init__, grouped per (class, attr).
    self_sites: dict[tuple[str, str, str], list[tuple[str, int]]] = {}
    version_stamped: set[tuple[str, str, str]] = set()
    for qualname, mutations in graph.mutations.items():
        func = graph.functions[qualname]
        if func.klass is None:
            continue
        if func.name in ("__init__", "__post_init__"):
            continue
        attrs_here = {
            m.target for m in mutations if m.kind == "self-attr"
        }
        for mutation in mutations:
            if mutation.kind != "self-attr":
                continue
            key = (func.module, func.klass, mutation.target)
            self_sites.setdefault(key, []).append((qualname, mutation.lineno))
        # Version-stamp detection: this method advances the version field
        # and rebuilds other attributes in the same breath.  The version
        # field itself is the stamp, so it carries its own classification.
        if "_version" in attrs_here or "version" in attrs_here:
            for attr in attrs_here:
                version_stamped.add((func.module, func.klass, attr))

    # param-attr / unknown-attr mutations matched by distinctive attr name.
    for qualname, mutations in graph.mutations.items():
        func = graph.functions[qualname]
        for mutation in mutations:
            if mutation.kind not in ("param-attr", "unknown-attr"):
                continue
            if mutation.target in ("[]=",):
                continue
            declaring = graph.classes_declaring(mutation.target)
            if not declaring or len(declaring) > _MAX_DECLARING_CLASSES:
                continue
            for klass in declaring:
                if func.klass == klass.name and func.module == klass.module:
                    continue  # already counted as a self mutation
                key = (klass.module, klass.name, mutation.target)
                self_sites.setdefault(key, []).append(
                    (qualname, mutation.lineno)
                )

    lock_ranges = _lock_ranges(graph)
    findings: list[Finding] = []
    for (module_path, class_name, attr), sites in self_sites.items():
        if module_path.startswith(_EXCLUDED_PREFIXES):
            continue
        klass = graph.class_of(module_path, class_name)
        if klass is None:
            continue
        if attr in COUNTER_FIELDS and class_name == "CostCounters":
            continue  # audited separately, classification mergeable-counter
        annotation = _attr_annotation(graph, klass, attr)
        if annotation is not None:
            classification, source, reason = (
                annotation,
                "annotation",
                "classified at the declaration site",
            )
        elif _all_sites_locked(graph, lock_ranges, sites):
            classification, source, reason = (
                "lock-guarded",
                "auto",
                "every mutation site sits inside a with-block holding a "
                "lock-named object",
            )
        elif (module_path, class_name, attr) in version_stamped:
            classification, source, reason = (
                "version-stamped",
                "auto",
                "rebuilt by the method that advances the class's version "
                "counter; staleness is one int compare",
            )
        else:
            classification, source, reason = (
                "UNGUARDED",
                "auto",
                "instance attribute mutated outside __init__",
            )
        findings.append(
            Finding(
                key=f"{module_path}::{class_name}.{attr}",
                kind="class-attr",
                classification=classification,
                source=source,
                reason=reason,
                sites=_format_sites(graph, sorted(set(sites))),
                parallel=any(q in parallel_functions for q, __ in sites),
            )
        )
    return findings


# -- CostCounters mergeability ----------------------------------------------


def _audit_counters(
    graph: ProgramGraph, parallel_functions: set[str]
) -> tuple[list[Finding], list[Violation]]:
    """Prove the cost counters stay confined to rss/ and increment-only.

    Per-worker counters can merge by summation only if every mutation is
    an increment (``+=``) — plus ``reset()`` zeroing and dataclass
    defaults inside :mod:`repro.rss.counters` itself.  Any other write
    anywhere breaks the ROADMAP's counter-merge design and is reported.
    """
    violations: list[Violation] = []
    sites: dict[str, list[tuple[str, int]]] = {f: [] for f in COUNTER_FIELDS}
    broken: set[str] = set()
    for relpath, module in graph.modules.items():
        for node in ast.walk(module.tree):
            targets: list[ast.expr] = []
            if isinstance(node, ast.Assign):
                targets = list(node.targets)
            elif isinstance(node, (ast.AugAssign, ast.AnnAssign)):
                targets = [node.target]
            else:
                continue
            for target in targets:
                if not (
                    isinstance(target, ast.Attribute)
                    and target.attr in COUNTER_FIELDS
                ):
                    continue
                where = f"{relpath}:{node.lineno}"
                qualname = _enclosing_function(graph, relpath, node.lineno)
                if qualname:
                    sites[target.attr].append((qualname, node.lineno))
                if not relpath.startswith("rss/"):
                    broken.add(target.attr)
                    violations.append(
                        Violation(
                            "counter-confinement",
                            where,
                            f"cost counter {target.attr!r} mutated outside "
                            "rss/; per-worker merge needs all counting in "
                            "the storage layer",
                        )
                    )
                elif isinstance(node, ast.AugAssign):
                    if not isinstance(node.op, ast.Add):
                        broken.add(target.attr)
                        violations.append(
                            Violation(
                                "counter-not-mergeable",
                                where,
                                f"cost counter {target.attr!r} mutated with "
                                "a non-additive operator; per-worker "
                                "counters merge by summation, so only += "
                                "is mergeable",
                            )
                        )
                elif relpath != "rss/counters.py":
                    broken.add(target.attr)
                    violations.append(
                        Violation(
                            "counter-not-mergeable",
                            where,
                            f"cost counter {target.attr!r} overwritten "
                            "outside rss/counters.py; absolute writes do "
                            "not merge across workers",
                        )
                    )
    findings = [
        Finding(
            key=f"rss/counters.py::CostCounters.{fieldname}",
            kind="counter-field",
            classification=(
                "UNGUARDED" if fieldname in broken else "mergeable-counter"
            ),
            source="auto",
            reason=(
                "increment-only and confined to rss/ (verified); "
                "per-worker copies merge by summation at a pipeline "
                "breaker"
                if fieldname not in broken
                else "counter mutated in a non-mergeable way; see violations"
            ),
            sites=_format_sites(graph, sites[fieldname]),
            parallel=any(
                q in parallel_functions for q, __ in sites[fieldname]
            ),
        )
        for fieldname in COUNTER_FIELDS
    ]
    return findings, violations


def _enclosing_function(
    graph: ProgramGraph, relpath: str, lineno: int
) -> str | None:
    best: str | None = None
    best_line = -1
    for qualname, func in graph.functions.items():
        if func.module != relpath:
            continue
        node = func.node
        end = getattr(node, "end_lineno", None)
        if node is None or end is None:
            continue
        if func.lineno <= lineno <= end and func.lineno > best_line:
            best, best_line = qualname, func.lineno
    return best


# -- annotations ------------------------------------------------------------


def _annotation(source_lines: list[str], lineno: int) -> str | None:
    """``# concurrency: <class>`` on the line or the line above."""
    for line_index in (lineno - 1, lineno - 2):
        if not 0 <= line_index < len(source_lines):
            continue
        line = source_lines[line_index]
        marker = "# concurrency:"
        position = line.find(marker)
        if position < 0:
            continue
        word = line[position + len(marker) :].strip().split()[0:1]
        if word and word[0] in CLASSIFICATIONS and word[0] != "UNGUARDED":
            return word[0]
    return None


def _attr_annotation(
    graph: ProgramGraph, klass: ClassInfo, attr: str
) -> str | None:
    """Attr-line annotation, falling back to one on the class def line.

    A class-level ``# concurrency: statement-scoped`` classifies every
    attribute of the class at once — the idiom for per-statement worker
    objects (parsers, binders, runtimes) whose whole instance shares one
    lifetime.
    """
    module = graph.modules.get(klass.module)
    if module is None:
        return None
    lineno = klass.attrs.get(attr)
    if lineno is not None:
        found = _annotation(module.source_lines, lineno)
        if found is not None:
            return found
    return _annotation(module.source_lines, klass.lineno)


# -- rendering --------------------------------------------------------------


def _format_sites(
    graph: ProgramGraph, sites: list[tuple[str, int]]
) -> list[str]:
    formatted = []
    for qualname, lineno in sorted(set(sites)):
        func = graph.functions.get(qualname)
        module = func.module if func else "?"
        formatted.append(f"{module}:{lineno} ({qualname.split('::')[-1]})")
    return formatted


def render_report(report: ConcurrencyReport) -> list[str]:
    """Human-readable report lines (one classification per section)."""
    lines: list[str] = []
    grouped = report.by_classification()
    for classification in CLASSIFICATIONS:
        findings = grouped.get(classification, [])
        if not findings:
            continue
        lines.append(f"{classification} ({len(findings)}):")
        for finding in findings:
            marker = " [parallel path]" if finding.parallel else ""
            suffix = "" if finding.source == "auto" else f" ({finding.source})"
            lines.append(f"  {finding.key}{suffix}{marker}")
            if classification == "UNGUARDED" and finding.sites:
                lines.append(f"    mutated at {', '.join(finding.sites[:4])}")
    return lines
