"""Set-up of each workload: import the library and build what its operations use.

This module imports nothing of the benchmark, so a set-up probe times the
library alone.
"""

P = 5  # the field characteristic of hn_random


def hn_random():
    """The five n = 2 heart quivers with their lattices, specs and fields."""
    from gepnerstab import classify, gfield, quiverrep

    quivers = []
    for wtype, _ in classify.enumerate_types((2, 3, 4), 6):
        if wtype.n != 2:
            continue
        quiver = quiverrep.heart_quiver(wtype)
        gfield.field_for(P, quiver.conductor)
        quivers.append((wtype, quiver, quiverrep.default_spec(wtype)))
    return quivers


def exact_tables():
    """The twelve Table 1 types with their heart lattices."""
    from gepnerstab import classify, hearts

    return [(wtype, hearts.lattice_for(wtype)) for wtype, _ in classify.enumerate_types((2, 3, 4), 6)]


def cli_cold():
    """The CLI module; each command builds its own lattices lazily."""
    import gepnerstab.cli  # noqa: F401


def bare():
    """Nothing: the interpreter start-up that every set-up includes."""


SETUPS = {"bare": bare, "hn_random": hn_random, "exact_tables": exact_tables, "cli_cold": cli_cold}
