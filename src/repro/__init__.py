"""UCTR: a Unified framework for Unsupervised Complex Tabular Reasoning.

Reproduction of Li et al., "Toward a Unified Framework for Unsupervised
Complex Tabular Reasoning" (ICDE 2023).  The package synthesizes
complex tabular-reasoning training data — questions and claims with
multi-cell logic — from *unlabeled* tables and their surrounding text,
then trains downstream reasoning models on it.

Quickstart::

    from repro import UCTR, UCTRConfig
    from repro.datasets import make_wikisql

    bench = make_wikisql()
    framework = UCTR(UCTRConfig(program_kinds=("sql",)))
    framework.fit(list(bench.train.contexts))
    samples = framework.generate(list(bench.train.contexts))

Package layout:

* :mod:`repro.tables` — tables, typed values, table-text contexts.
* :mod:`repro.programs` — the three executable DSLs (SQL, logical
  forms, arithmetic expressions).
* :mod:`repro.templates` — program templates with typed placeholders.
* :mod:`repro.sampling` — random program sampling, filtering, labeling.
* :mod:`repro.nlgen` — the trainable NL-Generator.
* :mod:`repro.operators` — Table-To-Text and Text-To-Table.
* :mod:`repro.pipelines` — table-only / splitting / expansion pipelines
  and the :class:`UCTR` facade.
* :mod:`repro.telemetry` — generation counters, timers, and JSON
  run-reports.
* :mod:`repro.parallel` — the seed-stable context driver behind every
  ``UCTR.generate`` run, in-process or on a worker pool.
* :mod:`repro.datasets` — synthetic benchmark stand-ins.
* :mod:`repro.models` — downstream verifiers and QA models.
* :mod:`repro.train` / :mod:`repro.eval` — training plans and metrics.
* :mod:`repro.experiments` — regenerates every paper table and figure.
"""

from repro.errors import ReproError
from repro.pipelines import (
    EvidenceType,
    ReasoningSample,
    TaskType,
    UCTR,
    UCTRConfig,
)
from repro.programs import ProgramKind, execute_program, parse_program
from repro.tables import Table, TableContext

__version__ = "1.0.0"

__all__ = [
    "ReproError",
    "EvidenceType",
    "ReasoningSample",
    "TaskType",
    "UCTR",
    "UCTRConfig",
    "ProgramKind",
    "execute_program",
    "parse_program",
    "Table",
    "TableContext",
    "__version__",
]
