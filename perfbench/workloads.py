"""The benchmark's three workloads.

Each workload is a closed loop with one client: one process, ``workers=1``,
no extra threads, the next task starts when the previous one returns. A
workload has a *setup* (imports, suite build, input draw and, for the warm
workload, a warm-up pass) and a *unit* of timed work that is the same for a
given seed every time it runs. Every task's output is checked against a
reference that does not come from the code under test:

* ``table1_cold`` — each task's four judgments against ``table1.json``,
  whose per-task flags must add up to the Measured column of Table 1
  (copied by hand from EXPERIMENTS.md);
* ``qa_fuzz`` — every generated program must classify ``ok`` in both
  languages and be ``proved`` by the proof ladder, with no inconsistency;
* ``judge_warm`` — the suite's contract: every reference design passes its
  golden testbench and every functional mutant fails it.
"""

from __future__ import annotations

import itertools
import json
import random
import time
from dataclasses import dataclass, field
from pathlib import Path

HERE = Path(__file__).resolve().parent
TABLE1 = HERE / "table1.json"
JUDGE_COST = HERE / "judge_cost.json"
TABLE1_COLUMNS = (
    "baseline pass@1_S", "baseline pass@1_F",
    "AIVRIL2 pass@1_S", "AIVRIL2 pass@1_F",
)

#: table1_cold keeps one problem of every six of similar cost (26 of 156)
TABLE1_STRIDE = 6
#: judge_warm keeps one problem of every three of similar cost (52 of 156),
#: and always the costliest, which costs four times any other
JUDGE_STRIDE = 3
JUDGE_FIXED = 1
#: programs per qa_fuzz campaign: the programs differ from seed to seed,
#: so only a long campaign keeps the latency quantiles steady across seeds
FUZZ_COUNT = 120


@dataclass
class Unit:
    """What one timed unit of work produced."""

    wall: float
    #: per-task latency in seconds, in task order
    latencies: list[float] = field(default_factory=list)
    #: each task's name, in task order; the same for every unit of a seed
    keys: list[str] = field(default_factory=list)
    #: one line per task whose output did not match its reference
    failures: list[str] = field(default_factory=list)
    #: program-side counters read after the unit (cache hits and misses)
    extra: dict = field(default_factory=dict)
    #: whatever keeps the unit's working set alive for a heap census
    live: object = None


def another_unit(timed: float, last: float, seconds: float) -> bool:
    """Whether one more unit, as long as the last, ends nearer ``seconds``
    of timed work than stopping now does."""
    return timed + last / 2 < seconds


def stratified_draw(problems, seed, stride: int, salt: str, key,
                    fixed: int = 0):
    """The ``fixed`` last problems in ``key`` order, plus one problem from
    each group of ``stride`` problems adjacent in that order, chosen by
    ``seed``; the draw keeps the suite's order.

    With a key that tracks a problem's cost, the work per draw stays nearly
    constant from seed to seed while the problems themselves change. The
    cheapest group takes any problems left over, so the costly groups pair
    like with like; a problem that costs far more than any other would
    swing the draw's cost, so it is better drawn always (``fixed``).
    """
    ordered = sorted(problems, key=lambda p: (key(p), p.pid))
    cut = len(ordered) - fixed
    rest = ordered[:cut]
    head = stride + len(rest) % stride
    groups = [rest[:head]] + [
        rest[start:start + stride] for start in range(head, len(rest), stride)
    ]
    rng = random.Random(f"{salt}:{seed}")
    picked = {p.pid for p in ordered[cut:]}
    picked.update(rng.choice(group).pid for group in groups)
    return [p for p in problems if p.pid in picked]


# ---------------------------------------------------------------------------
# table1_cold
# ---------------------------------------------------------------------------


def load_table1() -> dict:
    """``table1.json``, once its per-task flags match Table 1.

    Each task's four judgments are 0/1 flags; over all 156 problems they
    must add up to exactly the hand-written Measured column.
    """
    data = json.loads(TABLE1.read_text(encoding="utf-8"))
    for config, cells in data["measured"].items():
        flags = data["tasks"][config].values()
        for column, measured in enumerate(cells):
            passed = sum(bits[column] == "1" for bits in flags)
            if round(100.0 * passed / len(flags), 2) != measured:
                raise ValueError(
                    f"{TABLE1.name}: {config} {TABLE1_COLUMNS[column]} flags "
                    f"give {passed}/{len(flags)}, Table 1 says {measured}%"
                )
    return data


def _judgments(record) -> str:
    return "".join(
        "1" if flag else "0"
        for flag in (
            record.baseline_syntax_ok,
            record.baseline_functional_ok,
            record.aivril_syntax_ok,
            record.aivril_functional_ok,
        )
    )


def _drawn_suite(suite, drawn):
    """``suite`` as the synthetic LLM sees it, but only ``drawn`` runs.

    The runner builds its task list by iterating the suite, while each
    profile's defect plan is calibrated over ``suite.problems``. Keeping
    the full problem list there makes every drawn task the very task of
    the full Table-1 sweep, with the outcome Table 1 records for it.
    """
    from repro.evalsuite.suite import Suite

    class DrawnSuite(Suite):
        def __iter__(self):
            return iter(drawn)

        def __len__(self) -> int:
            return len(drawn)

    return DrawnSuite(problems=list(suite.problems))


class Table1Cold:
    """Table-1 tasks in a fresh process, as ``repro sweep`` runs them:
    three profiles × two languages over a seeded draw of a sixth of the
    problems, serial, with the CLI's default result cache.

    The draw takes one problem from each group of six of similar cost
    (``cost_ms`` in ``table1.json``), so the work per seed stays nearly
    constant while the problems change."""

    name = "table1_cold"
    max_units_per_process = 1
    #: units an untraced run repeats, for a median latency per task
    repeats = 3

    def setup(self, seed: int) -> None:
        import repro.eval.runner  # noqa: F401
        from repro.evalsuite.suite import build_suite

        table1 = load_table1()
        self.expected = table1["tasks"]
        cost = table1["cost_ms"]
        suite = build_suite()
        self.drawn = stratified_draw(
            suite.problems, seed, TABLE1_STRIDE, self.name,
            lambda p: cost[p.pid],
        )
        self.suite = _drawn_suite(suite, self.drawn)

    def run_unit(self) -> Unit:
        from repro.eval.runner import ExperimentRunner

        started = time.perf_counter()
        runner = ExperimentRunner(suite=self.suite, workers=1)
        results = runner.run_all()
        unit = Unit(wall=time.perf_counter() - started, live=runner)
        for result in results:
            config = f"{result.model}/{result.language.value}"
            for record in result.records:
                unit.latencies.append(record.wall_seconds)
                unit.keys.append(f"{config}/{record.pid}")
                want = self.expected[config][record.pid]
                got = record.error or _judgments(record)
                if got != want:
                    unit.failures.append(
                        f"{config}/{record.pid}: {got}, Table 1 task {want}"
                    )
        if len(unit.latencies) != 6 * len(self.drawn):
            unit.failures.append(
                f"sweep ran {len(unit.latencies)} tasks, "
                f"expected {6 * len(self.drawn)}"
            )
        unit.extra["cache_hits"] = runner.metrics.cache_hits
        unit.extra["cache_misses"] = runner.metrics.cache_misses
        return unit


# ---------------------------------------------------------------------------
# qa_fuzz
# ---------------------------------------------------------------------------


class QaFuzz:
    """One seeded differential fuzz campaign with the proof ladder on."""

    name = "qa_fuzz"
    max_units_per_process = 1
    repeats = 1

    def setup(self, seed: int) -> None:
        import repro.formal  # noqa: F401 - imported lazily by the oracle
        import repro.qa.fuzz  # noqa: F401
        import repro.qa.render  # noqa: F401

        self.seed = seed

    def run_unit(self) -> Unit:
        from repro.qa.fuzz import run_fuzz

        started = time.perf_counter()
        report = run_fuzz(self.seed, FUZZ_COUNT, workers=1, formal=True)
        unit = Unit(wall=time.perf_counter() - started)
        for result in report.results:
            unit.latencies.append(result.seconds)
            unit.keys.append(result.name)
            verdicts = (result.formal_verilog, result.formal_vhdl)
            if (
                result.failure_class.value != "ok"
                or verdicts != ("proved", "proved")
                or result.formal_inconsistencies
            ):
                unit.failures.append(
                    f"program {result.index} {result.name}: class "
                    f"{result.failure_class.value}, formal {verdicts}, "
                    f"inconsistencies {list(result.formal_inconsistencies)}"
                )
        if len(report.results) != FUZZ_COUNT:
            unit.failures.append(
                f"campaign judged {len(report.results)} of {FUZZ_COUNT}"
            )
        unit.extra["formal_proved"] = report.formal_counts.get("proved", 0)
        return unit


# ---------------------------------------------------------------------------
# judge_warm
# ---------------------------------------------------------------------------


def _judging_pool(problems) -> list[tuple]:
    """``(problem, language, rtl, passes, label)`` for each reference and
    functional mutant of ``problems``, in both languages."""
    from repro.designs.mutations import apply_mutation
    from repro.eda.toolchain import Language

    pool = []
    for problem in problems:
        for language in Language:
            reference = problem.reference[language]
            pool.append((problem, language, reference, True, "ref"))
            for index, mutation in enumerate(
                problem.functional_mutations[language]
            ):
                pool.append((
                    problem, language, apply_mutation(reference, mutation),
                    False, f"mutant{index}",
                ))
    return pool


class JudgeWarm:
    """Golden-testbench judgments through one long-lived toolchain with the
    result cache off, as ``repro validate`` and the pass@k sampler use it."""

    name = "judge_warm"
    max_units_per_process = None

    def setup(self, seed: int) -> None:
        from repro.eda.toolchain import Language, Toolchain
        from repro.evalsuite.suite import build_suite

        suite = build_suite()
        cost = json.loads(JUDGE_COST.read_text(encoding="utf-8"))["cost_ms"]
        # a draw whose files overflow the frontend memos would measure LRU
        # eviction, not warm judging: such a draw is made again
        for attempt in itertools.count():
            drawn = stratified_draw(
                suite.problems, (seed, attempt), JUDGE_STRIDE, self.name,
                lambda p: cost[p.pid], fixed=JUDGE_FIXED,
            )
            self.pool = _judging_pool(drawn)
            files = {rtl for _problem, _language, rtl, *_ in self.pool}
            files.update(p.golden_tb[lang] for p in drawn for lang in Language)
            if len(files) < Toolchain.FRONTEND_MEMO_MAX:
                break
        self.keys = [
            f"{problem.pid}/{language.value}/{label}"
            for problem, language, _rtl, _expected, label in self.pool
        ]
        self.toolchain = Toolchain()
        #: the untimed warm-up pass fills the frontend memos
        self.warmup = self.run_unit()

    def run_unit(self) -> Unit:
        from repro.eval.runner import ExperimentRunner

        passes_golden = ExperimentRunner._passes_golden
        toolchain = self.toolchain
        latencies = []
        failures = []
        clock = time.perf_counter
        started = clock()
        for problem, language, rtl, expected, label in self.pool:
            begin = clock()
            verdict = passes_golden(problem, rtl, language, toolchain)
            latencies.append(clock() - begin)
            if verdict is not expected:
                failures.append(
                    f"{problem.pid}/{language.value}/{label}: "
                    f"{'passed' if verdict else 'failed'} its golden testbench"
                )
        return Unit(
            wall=clock() - started, latencies=latencies, keys=self.keys,
            failures=failures, live=toolchain,
        )


WORKLOADS = {cls.name: cls for cls in (Table1Cold, QaFuzz, JudgeWarm)}
