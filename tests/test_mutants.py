import pytest

import mutants


def _no_tier_1(mutant):
    raise AssertionError("a refused selection must start no Tier-1 run")


@pytest.mark.parametrize("listing", [["--list"], []], ids=["list", "run"])
@pytest.mark.parametrize(
    "argv, message",
    [(["tpm.py", "EnergyDistributon"], "error: EnergyDistributon in tpm.py selects no mutant"),
     (["nosuch.py"], "error: no module nosuch.py under src/ottospin"),
     (["nosuch.py", "EnergyDistribution"], "error: no module nosuch.py under src/ottospin")],
    ids=["misspelt-function", "missing-module", "function-of-missing-module"],
)
def test_an_empty_selection_is_refused_before_any_run(argv, message, listing, monkeypatch,
                                                       capsys):
    monkeypatch.setattr(mutants, "run_tier_1", _no_tier_1)
    assert mutants.main([*argv, *listing]) == 2
    out, err = capsys.readouterr()
    assert (out, err) == ("", message + "\n")


def test_a_selection_with_mutants_is_listed(capsys):
    assert mutants.main(["tpm.py", "_clipped", "--list"]) == 0
    listed = capsys.readouterr().out.splitlines()
    assert listed and listed == list(map(str, mutants.catalogue("tpm.py", "_clipped")))
