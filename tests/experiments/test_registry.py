"""The one table of what an experiment is, checked against the tree."""

import inspect
import re
from importlib import import_module
from pathlib import Path

import pytest

from repro.experiments import (
    ALL_EXPERIMENTS,
    EXPERIMENTS,
    resolve_experiment_id,
)
from repro.reporting import DEFAULT_ORDER

REPO_ROOT = Path(__file__).resolve().parents[2]
PACKAGE = REPO_ROOT / "src" / "repro" / "experiments"


@pytest.mark.parametrize("experiment", EXPERIMENTS, ids=lambda e: e.id)
def test_row_matches_its_module(experiment):
    module = import_module(f"repro.experiments.{experiment.module}")
    if experiment.runner is None:
        assert experiment.family and experiment.id not in ALL_EXPERIMENTS
        return
    runner = getattr(module, experiment.runner)
    parameters = inspect.signature(runner).parameters
    assert "quick" in parameters
    assert all(experiment.accepts(name) for name in parameters)
    assert not experiment.accepts("no_such_keyword")
    # One id per experiment: the registry's is the one the result carries.
    assert f'experiment_id="{experiment.id}"' in inspect.getsource(runner)
    assert resolve_experiment_id(experiment.id) == experiment.id
    assert ALL_EXPERIMENTS[resolve_experiment_id(experiment.module)].module \
        == experiment.module


def test_ids_are_unique():
    ids = [experiment.id for experiment in EXPERIMENTS]
    assert len(ids) == len(set(ids))


def test_report_rows_are_the_sections_of_the_checked_in_report():
    report = (REPO_ROOT / "experiment_results.txt").read_text()
    sections = re.findall(r"^### ([\w-]+):", report, flags=re.MULTILINE)
    assert sections == DEFAULT_ORDER
    assert DEFAULT_ORDER == [e.id for e in EXPERIMENTS if e.report]


def test_family_rows_are_the_modules_that_register_a_sim_family():
    registering = {
        path.stem
        for path in PACKAGE.glob("*.py")
        if re.search(r"^@register_sim\(", path.read_text(), re.MULTILINE)
    }
    assert {e.module for e in EXPERIMENTS if e.family} == registering


def test_unseeded_runner_is_called_without_the_seed():
    assert ALL_EXPERIMENTS["table1"](quick=True, seed=7).tables
