"""``tools/digest_sweep.py``: one repeatable digest line per run."""

from .test_docs import load_checker

sweep_tool = load_checker("digest_sweep")


def test_one_line_per_run_and_the_same_lines_on_repeat():
    first = list(sweep_tool.sweep(["c16"], ["overload", "atropos"], [0]))
    assert [line.rsplit(" ", 1)[0] for line in first] == [
        "c16 overload 0", "c16 atropos 0",
    ]
    digests = [line.rsplit(" ", 1)[1] for line in first]
    assert all(len(d) == 64 for d in digests)
    assert digests[0] != digests[1]  # the controller is in the digest
    assert list(sweep_tool.sweep(["c16"], ["overload", "atropos"], [0])) == first


def test_tier_lines_name_tier_mode_seed_and_repeat():
    tiers = [("fleet", ["coordinated"]), ("mesh", ["none", "atropos"])]
    first = list(sweep_tool.tier_sweep(tiers, [0]))
    assert [line.rsplit(" ", 1)[0] for line in first] == [
        "fleet coordinated 0", "mesh none 0", "mesh atropos 0",
    ]
    digests = [line.rsplit(" ", 1)[1] for line in first]
    assert all(len(d) == 64 for d in digests)
    assert len(set(digests)) == 3
    assert list(sweep_tool.tier_sweep(tiers, [0])) == first
