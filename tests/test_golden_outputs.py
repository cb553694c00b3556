"""Outputs are byte-identical to the ones `tests/golden_outputs.json`
records: one round of each benchmark workload, run in process through the
bench's workload classes, and the `dump-dataflow` and `dump-usage-vectors`
output on a fixed small corpus, what the MiniLang front end makes of
generated programs and their mutants, and pastes whose rankings hold
exact ties.  A change that moves an output on purpose
regenerates the file with `tests/golden_outputs.py`."""

import json

import pytest

import golden_outputs as golden
from smartpaste import cli, evaluation, train


@pytest.fixture(scope="module")
def recorded():
    with open(golden.PATH) as f:
        return json.load(f)


def check_versions(recorded):
    """The digests hold for the versions they were made with: any other
    version fails here, naming both, before a digest is compared."""
    for name, have in golden.versions().items():
        assert have == recorded[name], \
            (f"{name} {have} runs here, but {golden.PATH} was made with "
             f"{name} {recorded[name]}: regenerate it with "
             f"tests/golden_outputs.py on {name} {have}")


def test_the_file_records_every_run(recorded):
    assert [(r["workload"], r["seed"]) for r in recorded["runs"]] == \
        golden.RUNS


@pytest.mark.parametrize("name,seed", golden.RUNS,
                         ids=[f"{w}-seed{s}" for w, s in golden.RUNS])
def test_workload_round_matches_golden(name, seed, recorded, tmp_path):
    check_versions(recorded)
    run = next(r for r in recorded["runs"]
               if (r["workload"], r["seed"]) == (name, seed))
    wrappers = [cli.paste, evaluation.icm, train.train_step]
    digest, failures = golden.run_workload(name, seed, str(tmp_path))
    assert [cli.paste, evaluation.icm, train.train_step] == wrappers
    label = f"{name} seed {seed}"
    assert digest == run["digest"], \
        f"{label}: outputs digest {digest}, golden {run['digest']}"
    assert failures == run["failures"], f"{label}: check failures differ"


def test_dumps_match_golden(recorded, tmp_path):
    check_versions(recorded)
    got = golden.dump_digests(str(tmp_path))
    for name, want in recorded["dumps"].items():
        assert got[name] == want, f"{name}: digest {got[name]}, golden {want}"
    assert set(got) == set(recorded["dumps"])


def test_front_end_matches_golden(recorded):
    """Tokens, symbols, lattices and ASTs, or errors, of generated programs
    and of mutants of them."""
    check_versions(recorded)
    assert golden.front_end_digest() == recorded["front_end"]


def test_tied_pastes_match_golden(recorded):
    """A fresh `loc` model scores same-type candidates alike, so these
    pastes follow ICM's tie-break: the lowest symbol id."""
    check_versions(recorded)
    assert golden.loc_paste_digests() == recorded["loc_pastes"]


def test_workload_wrappers_are_removed_when_a_round_fails(tmp_path,
                                                         monkeypatch):
    """A workload whose round raises still leaves `cli.paste`,
    `evaluation.icm` and `train.train_step` as they were."""
    originals = [cli.paste, evaluation.icm, train.train_step]

    def broken(*args, **kwargs):
        raise RuntimeError("broken step")

    monkeypatch.setattr(train, "fit", broken)
    with pytest.raises(RuntimeError, match="broken step"):
        golden.run_workload("train-hybrid", 0, str(tmp_path))
    assert [cli.paste, evaluation.icm, train.train_step] == originals
