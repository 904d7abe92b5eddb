"""The FD and 4D layers take neither the residual collar nor a check
tolerance as a parameter: each is one named module constant beside the code
that reads it (`grid.COLLAR`, `grid.DEGENERACY_TOL`, ...).  No switch turns
a check off: `Metric4Grid` always tests its signature.  The only
tolerance a caller of these layers sets is the `tol` of
`flow.plane_wave_check`; the pair algebra of
`spacetime_verifier.ParabolicPairData` is held to `PAIR_TOL`."""

import inspect

import pytest

from cauchypairs import coordinate_fields, flow, grid, spacetime_verifier

MODULES = (grid, coordinate_fields, flow, spacetime_verifier)


def public_callables(module):
    """(name, callable) of every public function and class that `module`
    defines, and of every public method of those classes."""
    for name, obj in vars(module).items():
        if name.startswith("_") or getattr(obj, "__module__", None) != module.__name__:
            continue
        if callable(obj):
            yield name, obj
        if inspect.isclass(obj):
            for attr in vars(obj):
                member = getattr(obj, attr)  # a classmethod comes bound
                if not attr.startswith("_") and inspect.isroutine(member):
                    yield f"{name}.{attr}", member


@pytest.mark.parametrize("module", MODULES, ids=lambda m: m.__name__.rsplit(".", 1)[-1])
def test_no_collar_or_tolerance_parameter(module):
    params = {f"{name}({p})" for name, obj in public_callables(module)
              for p in inspect.signature(obj).parameters}
    assert params  # the guard sees the module's callables
    assert [p for p in params
            if p.endswith(("(include_boundary)", "_tol)", "(check_signature)"))
            or p.endswith("(tol)") and p != "plane_wave_check(tol)"] == []

