"""The calibrated platform mix is built once and shared by every compile.

``paper`` and ``archetype`` phases read the platform's calibrated mix
from one cache, so a compile must hand out its own copy: a caller that
changes the list it got must not change what the next compile sees.
"""

from __future__ import annotations

import pytest

from repro.spec import compile_spec, load_spec
from repro.spec.compile import get_pattern
from repro.workloads.mixes import cori_mix, summit_mix

MIXES = {"summit": summit_mix, "cori": cori_mix}


@pytest.mark.parametrize("platform", sorted(MIXES))
def test_two_compiles_give_equal_mixes(platform):
    first = compile_spec(load_spec("paper_mix"), platform=platform)
    second = compile_spec(load_spec("paper_mix"), platform=platform)
    assert first.mix == second.mix == tuple(MIXES[platform]())


@pytest.mark.parametrize("platform", sorted(MIXES))
def test_mutating_one_compiles_mix_does_not_change_the_next(platform):
    phase = load_spec("paper_mix").phases[0]
    paper = get_pattern("paper")
    built = paper.build(phase, platform, "phases[0]")
    expected = list(built)
    built.reverse()
    built.pop()
    built.append((1.0, expected[0][1]))
    assert paper.build(phase, platform, "phases[0]") == expected
    assert compile_spec(load_spec("paper_mix"), platform=platform).mix == tuple(expected)

    compiled = compile_spec(load_spec("paper_mix"), platform=platform)
    compiled.generator().mix.clear()
    assert compile_spec(load_spec("paper_mix"), platform=platform).mix == tuple(expected)
