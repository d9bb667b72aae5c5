"""Run every paper experiment and print the paper-vs-measured report.

Used by ``python -m repro experiments`` and by the EXPERIMENTS.md
regeneration workflow.  Each experiment also reports its shape-claim
check: the list of paper claims the measured numbers violate (expected to
be empty on the default corpus).

Independent experiments can run concurrently (``workers > 1``) through
the dependency-aware executor in :mod:`repro.experiments.parallel`: the
similarity matrix is one node, Table 2 and the seeding study depend on
it, and everything else depends only on the shared context.  The report
is assembled in canonical order after all nodes finish, so its text is
identical at any worker count.
"""

from typing import Callable, Dict, List, Tuple

from repro.experiments import corpus_profile, errors, fig2, fig3, hac_seeding
from repro.experiments import hubstats, robustness, table1, table2, vocabulary
from repro.experiments import weights
from repro.experiments.context import get_context
from repro.experiments.parallel import ExperimentSpec, run_specs

_Section = Tuple[str, List[str]]  # (report text, shape violations)


def experiment_names() -> List[str]:
    """The runnable experiment ids, in report order."""
    return [
        "corpus_profile", "table1", "hubstats", "vocabulary",
        "fig2", "fig3", "table2", "seeding", "weights", "errors",
        "robustness",
    ]


def run_all(
    seed: int = 42,
    n_runs: int = 20,
    only: str = "",
    workers: int = 1,
    report_header: bool = False,
) -> str:
    """Run the full experiment battery; returns the combined report.

    The non-paper ablation (the robustness sweep) follows the paper's
    tables and figures.  ``only`` restricts the run to one experiment id
    (see :func:`experiment_names`).
    ``workers`` runs independent experiments concurrently (and is also
    handed to corpus ingestion).  ``report_header`` prepends a run
    header naming the chosen executors.
    """
    if only and only not in experiment_names():
        raise ValueError(
            f"unknown experiment {only!r}; known: {experiment_names()}"
        )

    context = get_context(seed=seed, workers=workers)
    needs_matrix = only in ("", "table2", "seeding")

    def wanted(name: str) -> bool:
        return not only or only == name

    # One spec per experiment; runners close over the shared context.
    # The pairwise similarity matrix is the dominant shared cost of the
    # HAC experiments — it is its own node, computed once.
    specs: List[ExperimentSpec] = []
    formatters: Dict[str, Callable[[object], _Section]] = {}

    def experiment(
        name: str,
        runner: Callable,
        formatter: Callable,
        checker: Callable,
        deps: Tuple[str, ...] = (),
    ) -> None:
        if not wanted(name):
            return
        specs.append(ExperimentSpec(name=name, runner=runner, deps=deps))
        formatters[name] = lambda result: (formatter(result), checker(result))

    if needs_matrix:
        specs.append(ExperimentSpec(
            name="matrix",
            runner=context.similarity_matrix,
        ))

    experiment(
        "corpus_profile",
        lambda: corpus_profile.run_corpus_profile(context),
        corpus_profile.format_corpus_profile, corpus_profile.check_shape,
    )
    experiment(
        "table1", lambda: table1.run_table1(context),
        table1.format_table1, table1.check_shape,
    )
    experiment(
        "hubstats", lambda: hubstats.run_hubstats(context),
        hubstats.format_hubstats, hubstats.check_shape,
    )
    experiment(
        "vocabulary", lambda: vocabulary.run_vocabulary(context),
        vocabulary.format_vocabulary, vocabulary.check_shape,
    )
    experiment(
        "fig2", lambda: fig2.run_fig2(context, n_runs=n_runs),
        fig2.format_fig2, fig2.check_shape,
    )
    experiment(
        "fig3", lambda: fig3.run_fig3(context, n_cafc_c_runs=n_runs),
        fig3.format_fig3, fig3.check_shape,
    )
    experiment(
        "table2",
        lambda matrix: table2.run_table2(
            context, n_kmeans_runs=n_runs, matrix=matrix
        ),
        table2.format_table2, table2.check_shape,
        deps=("matrix",),
    )
    experiment(
        "seeding",
        lambda matrix: hac_seeding.run_hac_seeding(
            context, n_random_runs=n_runs, matrix=matrix
        ),
        hac_seeding.format_hac_seeding, hac_seeding.check_shape,
        deps=("matrix",),
    )
    experiment(
        "weights", lambda: weights.run_weights(context, n_cafc_c_runs=n_runs),
        weights.format_weights, weights.check_shape,
    )
    experiment(
        "errors", lambda: errors.run_errors(context),
        errors.format_errors, errors.check_shape,
    )
    experiment(
        "robustness",
        lambda: robustness.run_robustness(
            context, coverages=(1.0, 0.8, 0.5, 0.2, 0.0)
        ),
        robustness.format_robustness, robustness.check_shape,
    )

    results = run_specs(specs, workers=workers)

    sections: List[str] = []
    if report_header:
        n_experiments = len(formatters)
        executor = (
            f"thread x{workers}" if workers > 1 else "serial"
        )
        sections.append(
            f"run: {n_experiments} experiment(s); executor: {executor}; "
            f"ingest: {context.ingest_summary}"
        )
        sections.append("")
    for name in experiment_names():
        if name not in formatters:
            continue
        text, violations = formatters[name](results[name])
        sections.append(text)
        if violations:
            sections.append("SHAPE VIOLATIONS: " + "; ".join(violations))
        else:
            sections.append("shape check: all paper claims hold")
        sections.append("")

    return "\n".join(sections)


def main() -> None:
    print(run_all())


if __name__ == "__main__":
    main()
