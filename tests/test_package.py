"""The package's public names."""

import conecalc

# public names deleted because nothing but their own tests used them
REMOVED = ("extremal_ray_decompositions", "sym_twist_c1")


def test_every_export_imports():
    for name in conecalc.__all__:
        namespace = {}
        exec(f"from conecalc import {name}", namespace)
        assert namespace[name] is getattr(conecalc, name)
    assert not set(REMOVED) & set(conecalc.__all__)
