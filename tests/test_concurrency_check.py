"""The shared-mutable-state report and its baseline ratchet.

The fixture trees seed one interference point each and prove the report
classifies (or flags) it; the baseline tests walk the ratchet workflow
end to end (acknowledge, reclassify, go stale, go malformed).  The
real-tree tests pin the acceptance classifications: the cost counters are
mergeable, the decode cache is statement-scoped, the stat caches are
version-stamped, and the compiled-plan slot is covered by the committed
baseline.
"""

from __future__ import annotations

import textwrap
from pathlib import Path

from repro.analysis.concurrency import (
    analyze_concurrency,
    default_baseline_path,
    render_baseline,
    render_report,
)
from repro.analysis.dataflow import ProgramGraph

PACKAGE_ROOT = Path(__file__).resolve().parent.parent / "src" / "repro"


def write(tmp_path, relative, source):
    path = tmp_path / relative
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(textwrap.dedent(source), encoding="utf-8")


def analyze(tmp_path, baseline=None):
    graph = ProgramGraph.build(tmp_path)
    # default to a missing baseline file so the committed repo baseline
    # never leaks into fixture-tree assertions
    baseline_path = baseline if baseline is not None else tmp_path / "none.toml"
    return analyze_concurrency(graph, baseline_path=baseline_path)


def rules(report):
    return [v.rule for v in report.violations]


#: One module-level mutable mutated at runtime: the canonical seeded
#: violation the acceptance criteria require the check to fail on.
_UNGUARDED_GLOBAL = """
    CACHE = {}

    def memo(key, value):
        CACHE[key] = value
"""


# ---------------------------------------------------------------------------
# classification of seeded fixtures
# ---------------------------------------------------------------------------


def test_seeded_unguarded_global_fails(tmp_path):
    write(tmp_path, "m.py", _UNGUARDED_GLOBAL)
    report = analyze(tmp_path)
    finding = report.finding("m.py::CACHE")
    assert finding is not None
    assert finding.classification == "UNGUARDED"
    assert finding.kind == "module-global"
    assert rules(report) == ["unguarded-shared-state"]
    assert "m.py::CACHE" in report.violations[0].where


def test_unmutated_module_container_is_immutable_after_init(tmp_path):
    write(
        tmp_path,
        "m.py",
        """
        LOOKUP = {"a": 1}

        def get(key):
            return LOOKUP[key]
        """,
    )
    report = analyze(tmp_path)
    finding = report.finding("m.py::LOOKUP")
    assert finding is not None
    assert finding.classification == "immutable-after-init"
    assert report.violations == []


def test_class_attr_mutated_outside_init_is_unguarded(tmp_path):
    write(
        tmp_path,
        "m.py",
        """
        class Holder:
            def __init__(self):
                self._rows = []

            def push(self, x):
                self._rows.append(x)
        """,
    )
    report = analyze(tmp_path)
    finding = report.finding("m.py::Holder._rows")
    assert finding is not None
    assert finding.classification == "UNGUARDED"
    assert "unguarded-shared-state" in rules(report)


def test_init_only_class_attr_is_not_reported(tmp_path):
    write(
        tmp_path,
        "m.py",
        """
        class Frozen:
            def __init__(self):
                self._table = {}

            def get(self, key):
                return self._table.get(key)
        """,
    )
    report = analyze(tmp_path)
    assert report.finding("m.py::Frozen._table") is None
    assert report.violations == []


def test_version_stamped_attr_is_auto_detected(tmp_path):
    write(
        tmp_path,
        "m.py",
        """
        class Catalog:
            def __init__(self):
                self._version = 0
                self._tables = {}

            def create(self, name):
                self._version += 1
                self._tables[name] = name
        """,
    )
    report = analyze(tmp_path)
    tables = report.finding("m.py::Catalog._tables")
    version = report.finding("m.py::Catalog._version")
    assert tables is not None and tables.classification == "version-stamped"
    assert version is not None and version.classification == "version-stamped"
    assert report.violations == []


def test_annotation_classifies_at_the_declaration(tmp_path):
    write(
        tmp_path,
        "m.py",
        """
        SCRATCH = []  # concurrency: statement-scoped

        def stash(x):
            SCRATCH.append(x)
        """,
    )
    report = analyze(tmp_path)
    finding = report.finding("m.py::SCRATCH")
    assert finding is not None
    assert finding.classification == "statement-scoped"
    assert finding.source == "annotation"
    assert report.violations == []


def test_class_level_annotation_covers_every_attr(tmp_path):
    write(
        tmp_path,
        "m.py",
        """
        class Runtime:  # concurrency: statement-scoped
            def __init__(self):
                self.rows = []
                self.depth = 0

            def push(self, x):
                self.rows.append(x)
                self.depth += 1
        """,
    )
    report = analyze(tmp_path)
    for attr in ("rows", "depth"):
        finding = report.finding(f"m.py::Runtime.{attr}")
        assert finding is not None
        assert finding.classification == "statement-scoped"
        assert finding.source == "annotation"
    assert report.violations == []


def test_parallel_path_state_gets_the_parallel_rule(tmp_path):
    # a global mutated from engine/fuse.py is on the future parallel path
    write(
        tmp_path,
        "engine/fuse.py",
        """
        BATCHES = []

        def drive(batch):
            BATCHES.append(batch)
        """,
    )
    report = analyze(tmp_path)
    finding = report.finding("engine/fuse.py::BATCHES")
    assert finding is not None
    assert finding.parallel
    assert rules(report) == ["unguarded-parallel-state"]


# ---------------------------------------------------------------------------
# counter audit
# ---------------------------------------------------------------------------


def test_counter_increment_in_rss_is_mergeable(tmp_path):
    write(
        tmp_path,
        "rss/counters.py",
        """
        class CostCounters:
            page_fetches: int = 0
        """,
    )
    write(
        tmp_path,
        "rss/buffer.py",
        """
        def fetch(counters):
            counters.page_fetches += 1
        """,
    )
    report = analyze(tmp_path)
    finding = report.finding("rss/counters.py::CostCounters.page_fetches")
    assert finding is not None
    assert finding.classification == "mergeable-counter"
    assert report.violations == []


def test_counter_mutation_outside_rss_is_confinement_violation(tmp_path):
    write(
        tmp_path,
        "engine/executor.py",
        """
        def sneak(counters):
            counters.page_fetches += 1
        """,
    )
    report = analyze(tmp_path)
    assert "counter-confinement" in rules(report)


def test_counter_overwrite_outside_counters_module_not_mergeable(tmp_path):
    # regression for the real finding this PR fixed: suppress_counting in
    # rss/storage.py restored counters by absolute assignment; absolute
    # writes do not merge across workers, so restore() moved into
    # CostCounters itself (rule counter-not-mergeable)
    write(
        tmp_path,
        "rss/storage.py",
        """
        def restore(counters, saved):
            counters.rsi_calls = saved
        """,
    )
    report = analyze(tmp_path)
    assert "counter-not-mergeable" in rules(report)
    finding = report.finding("rss/counters.py::CostCounters.rsi_calls")
    assert finding is not None
    assert finding.classification == "UNGUARDED"


def test_non_additive_counter_operator_not_mergeable(tmp_path):
    write(
        tmp_path,
        "rss/scan.py",
        """
        def halve(counters):
            counters.buffer_hits //= 2
        """,
    )
    report = analyze(tmp_path)
    assert "counter-not-mergeable" in rules(report)


# ---------------------------------------------------------------------------
# the baseline ratchet
# ---------------------------------------------------------------------------


def test_baseline_acknowledges_unguarded_state(tmp_path):
    write(tmp_path, "m.py", _UNGUARDED_GLOBAL)
    baseline = tmp_path / "baseline.toml"
    baseline.write_text(
        '["m.py::CACHE"]\n'
        'classification = "UNGUARDED"\n'
        'reason = "single-threaded today; reviewed"\n',
        encoding="utf-8",
    )
    report = analyze(tmp_path, baseline=baseline)
    assert report.violations == []
    finding = report.finding("m.py::CACHE")
    assert finding is not None
    assert finding.source == "baseline"
    assert finding.reason == "single-threaded today; reviewed"


def test_baseline_reclassifies_unguarded_state(tmp_path):
    write(tmp_path, "m.py", _UNGUARDED_GLOBAL)
    baseline = tmp_path / "baseline.toml"
    baseline.write_text(
        '["m.py::CACHE"]\n'
        'classification = "statement-scoped"\n'
        'reason = "rebuilt per statement by the driver"\n',
        encoding="utf-8",
    )
    report = analyze(tmp_path, baseline=baseline)
    assert report.violations == []
    finding = report.finding("m.py::CACHE")
    assert finding is not None
    assert finding.classification == "statement-scoped"
    assert finding.source == "baseline"


def test_stale_baseline_entry_is_a_violation(tmp_path):
    write(tmp_path, "m.py", "def nop():\n    return 1\n")
    baseline = tmp_path / "baseline.toml"
    baseline.write_text(
        '["m.py::GONE"]\n'
        'classification = "UNGUARDED"\n'
        'reason = "this state was deleted"\n',
        encoding="utf-8",
    )
    report = analyze(tmp_path, baseline=baseline)
    assert rules(report) == ["stale-baseline"]


def test_baseline_shadowing_an_annotation_is_stale(tmp_path):
    # once the code classifies itself, the baseline entry must go
    write(
        tmp_path,
        "m.py",
        """
        SCRATCH = []  # concurrency: statement-scoped

        def stash(x):
            SCRATCH.append(x)
        """,
    )
    baseline = tmp_path / "baseline.toml"
    baseline.write_text(
        '["m.py::SCRATCH"]\n'
        'classification = "UNGUARDED"\n'
        'reason = "obsolete"\n',
        encoding="utf-8",
    )
    report = analyze(tmp_path, baseline=baseline)
    assert rules(report) == ["stale-baseline"]


def test_malformed_baseline_entries_are_violations(tmp_path):
    write(tmp_path, "m.py", _UNGUARDED_GLOBAL)
    baseline = tmp_path / "baseline.toml"
    baseline.write_text(
        '["m.py::CACHE"]\n'
        'classification = "thread-local"\n'  # not a classification
        'reason = "nope"\n',
        encoding="utf-8",
    )
    report = analyze(tmp_path, baseline=baseline)
    assert "baseline-malformed" in rules(report)
    # the entry is ignored, so the finding still fails the check
    assert "unguarded-shared-state" in rules(report)


def test_baseline_entry_requires_a_reason(tmp_path):
    write(tmp_path, "m.py", _UNGUARDED_GLOBAL)
    baseline = tmp_path / "baseline.toml"
    baseline.write_text(
        '["m.py::CACHE"]\nclassification = "UNGUARDED"\n', encoding="utf-8"
    )
    report = analyze(tmp_path, baseline=baseline)
    assert "baseline-malformed" in rules(report)


def test_render_baseline_drafts_fixme_entries(tmp_path):
    write(tmp_path, "m.py", _UNGUARDED_GLOBAL)
    report = analyze(tmp_path)
    draft = render_baseline(report.findings)
    assert '["m.py::CACHE"]' in draft
    assert "FIXME" in draft
    # drafted entries keep UNGUARDED: the check stays red until reviewed
    assert 'classification = "UNGUARDED"' in draft


def test_render_report_groups_by_classification(tmp_path):
    write(tmp_path, "m.py", _UNGUARDED_GLOBAL)
    write(tmp_path, "n.py", 'LOOKUP = {"a": 1}\n\ndef get(k):\n    return LOOKUP[k]\n')
    lines = render_report(analyze(tmp_path))
    text = "\n".join(lines)
    assert "UNGUARDED (1):" in text
    assert "immutable-after-init (1):" in text
    assert "mutated at m.py:" in text


# ---------------------------------------------------------------------------
# the real tree: the acceptance classifications
# ---------------------------------------------------------------------------


def real_report():
    graph = ProgramGraph.build(PACKAGE_ROOT)
    return analyze_concurrency(graph, baseline_path=default_baseline_path())


def test_real_tree_is_clean_under_committed_baseline():
    report = real_report()
    assert report.violations == []


def test_real_tree_cost_counters_are_mergeable():
    report = real_report()
    for field in ("page_fetches", "rsi_calls", "buffer_hits"):
        finding = report.finding(f"rss/counters.py::CostCounters.{field}")
        assert finding is not None
        assert finding.classification == "mergeable-counter"
        assert finding.kind == "counter-field"


def test_real_tree_decode_cache_is_statement_scoped():
    report = real_report()
    for scan in ("SegmentScan", "IndexScan"):
        finding = report.finding(f"rss/scan.py::{scan}._decode_cache")
        assert finding is not None
        assert finding.classification == "statement-scoped"
        assert finding.source == "annotation"


def test_real_tree_stat_caches_are_version_stamped():
    report = real_report()
    finding = report.finding(
        "optimizer/selectivity.py::SelectivityEstimator._qcard_cache"
    )
    assert finding is not None
    assert finding.classification == "version-stamped"
    assert finding.source == "auto"


def test_real_tree_compiled_plan_slot_is_classified():
    # Cached plans run on several sessions' threads at once, so every
    # addition to the compiled memo goes through plan.publish_compiled's
    # lock; the analyzer proves that structurally, with no baseline entry.
    report = real_report()
    finding = report.finding("optimizer/plan.py::PlanNode.compiled")
    assert finding is not None
    assert finding.classification == "lock-guarded"
    assert finding.source == "auto"


def test_real_tree_evaluator_keeps_no_module_level_cache():
    # regression for the unguarded-parallel-state finding this PR fixed:
    # engine/evaluator.py memoized LIKE patterns in a module-level dict
    # mutated from the compiled closures (a parallel path); like_regex is
    # pure now, and the module's only shared state is the per-statement
    # EvalEnv
    report = real_report()
    module_findings = [
        f for f in report.findings if f.key.startswith("engine/evaluator.py::")
    ]
    assert [f.key for f in module_findings] == [
        "engine/evaluator.py::EvalEnv.row"
    ]
    assert module_findings[0].classification == "statement-scoped"


def test_real_tree_no_unacknowledged_parallel_state():
    # anything on the fused-driver / compiled-closure / batches() paths is
    # either guarded or carries a reviewed baseline reason
    report = real_report()
    for finding in report.findings:
        if finding.parallel and finding.classification == "UNGUARDED":
            assert finding.source == "baseline"
            assert finding.reason


# ---------------------------------------------------------------------------
# lock-guarded detection
# ---------------------------------------------------------------------------


def test_lock_guarded_attr_is_auto_detected(tmp_path):
    write(
        tmp_path,
        "m.py",
        """
        import threading

        class Queue:
            def __init__(self):
                self._lock = threading.Lock()
                self._items = []

            def push(self, x):
                with self._lock:
                    self._items.append(x)

            def drain(self):
                with self._lock:
                    claimed = list(self._items)
                    self._items.clear()
                return claimed
        """,
    )
    report = analyze(tmp_path)
    finding = report.finding("m.py::Queue._items")
    assert finding is not None
    assert finding.classification == "lock-guarded"
    assert finding.source == "auto"
    assert report.violations == []


def test_one_mutation_outside_the_lock_defeats_lock_guarded(tmp_path):
    write(
        tmp_path,
        "m.py",
        """
        import threading

        class Queue:
            def __init__(self):
                self._lock = threading.Lock()
                self._items = []

            def push(self, x):
                with self._lock:
                    self._items.append(x)

            def sneak(self, x):
                self._items.append(x)
        """,
    )
    report = analyze(tmp_path)
    finding = report.finding("m.py::Queue._items")
    assert finding is not None
    assert finding.classification == "UNGUARDED"
    assert "unguarded-shared-state" in rules(report)


def test_with_block_without_a_lockish_name_does_not_count(tmp_path):
    write(
        tmp_path,
        "m.py",
        """
        class Writer:
            def __init__(self):
                self._rows = []

            def push(self, x, path):
                with open(path) as handle:
                    self._rows.append(handle.read() + x)
        """,
    )
    report = analyze(tmp_path)
    finding = report.finding("m.py::Writer._rows")
    assert finding is not None
    assert finding.classification == "UNGUARDED"


def test_real_tree_serving_state_is_lock_guarded():
    report = real_report()
    for key in (
        "serving/coordinator.py::GroupCommitCoordinator._queue",
        "serving/coordinator.py::_Ticket.pending",
        "rss/pagestore.py::PageStore._pages",
        "rss/pagestore.py::PageStore.version",
        "rss/buffer.py::BufferPool._counters",
        "rss/storage.py::StorageEngine._committed_meta",
    ):
        finding = report.finding(key)
        assert finding is not None, key
        assert finding.classification == "lock-guarded", key
