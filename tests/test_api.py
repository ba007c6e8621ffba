"""The exported API: the names at the package root, and what every one of
them does with arguments outside the paper's domain."""

import ast
import inspect
import re
import types
from datetime import timedelta
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import curvecensus
from curvecensus import arith, curves, localfactors, quadforms

ROOT_NAMES = sorted(name for name, value in vars(curvecensus).items()
                    if not name.startswith("_") and not isinstance(value, types.ModuleType))


def test_package_root_exports_exactly_the_readme_names():
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text()
    section = readme.split("## Library example", 1)[1].split("\n## ", 1)[0]
    # the bullets of the root list run on in indented lines
    bullets = re.findall(r"^- .*(?:\n  .*)*", section, flags=re.M)
    listed = {name for b in bullets for name in re.findall(r"`([A-Za-z_]\w*)`", b)}
    assert listed == set(ROOT_NAMES)


def _unreached_definitions() -> list[str]:
    """The top-level functions, classes and constants of src/curvecensus that neither
    cli.main nor a name the package root exports reads, directly or through others.

    A definition reads the names its AST holds: a name of its own module, a name
    imported from a sibling module, or an attribute of a sibling module bound by
    `from . import`.  The statements a module runs on import outside its
    definitions, such as `if __name__ == "__main__"`, read names too.
    """
    defs, imported, modules, on_import = {}, {}, {}, []
    for path in Path(curvecensus.__file__).parent.glob("*.py"):
        mod = path.stem
        imported[mod], modules[mod] = {}, {}
        for node in ast.parse(path.read_text()).body:
            if isinstance(node, ast.ImportFrom) and node.level:
                for a in node.names:
                    if node.module:
                        imported[mod][a.asname or a.name] = (node.module, a.name)
                    else:
                        modules[mod][a.asname or a.name] = a.name
            elif isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                defs[mod, node.name] = node
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                for target in node.targets if isinstance(node, ast.Assign) else [node.target]:
                    if isinstance(target, ast.Name):
                        defs[mod, target.id] = node
            else:
                on_import.append((mod, node))

    def reads(mod, node):
        for x in ast.walk(node):
            if isinstance(x, ast.Name):
                yield (mod, x.id) if (mod, x.id) in defs else imported[mod].get(x.id)
            elif isinstance(x, ast.Attribute) and isinstance(x.value, ast.Name):
                if x.value.id in modules[mod]:
                    yield modules[mod][x.value.id], x.attr

    stack = [("cli", "main"), *imported["__init__"].values()]
    stack += [key for mod, node in on_import for key in reads(mod, node)]
    reached = set()
    while stack:
        key = stack.pop()
        if key in defs and key not in reached:
            reached.add(key)
            stack += reads(key[0], defs[key])
    return sorted(f"{mod}.{name}" for mod, name in set(defs) - reached
                  if (mod, name) != ("__init__", "__version__"))


def test_every_definition_is_read_by_a_command_or_the_root():
    # test oracles, such as the L-value routes, live in tests/
    assert _unreached_definitions() == []


def test_out_of_domain_arguments_raise_value_error():
    cap = quadforms.CLASS_SCAN_CAP
    probes = [
        (localfactors.p_of_ell, (4, 1, 1)),  # 4 is not prime
        (curvecensus.m_p_of_group, (1, 1, 4)),
        (curvecensus.m_p_of_group, (1, 1, -5)),
        (curvecensus.m_of_order, (True,)),  # a bool is not the integer 1
        (localfactors.t_of_n, (1, 0, 1)),  # m = 0 is not a shape
        # the local sums refuse past their caps before any loop or power
        (localfactors.t_of_n, (localfactors.T_MODULUS_CAP + 1, 1, 1)),
        (localfactors.t_closed_form, (5, localfactors.T_EXPONENT_CAP + 1, 1, 1)),
        (curvecensus.aut_order, (1.0, 1)),
        (curvecensus.main_term, (2, 0, 1.0)),  # #Aut >= 1
        (curvecensus.main_term, (2, -1, 1.0)),
        (curvecensus.m_of_group, ("x", 1)),
        (arith.euler_phi, (True,)),
        (curvecensus.is_prime, (1.0,)),
        (curves.window_terms, (1, True)),
        (curves.inclusion_exclusion_terms, (0, 1)),
        (curvecensus.euler_density, (4, 1, "x")),
        (curvecensus.count_c_closed, ((1, 1, 3, 1),)),  # a plain tuple is not a query
        (curvecensus.class_number_twelfths, (-3, True)),
        (curvecensus.kronecker_class_number_weighted, (-3, 1.0)),
        # exponents are bounded before any power is built
        (curvecensus.gl2_order, (2, 10**12)),
        (curvecensus.det_count_closed, (1, 2, 10**12)),
        # every route that walks the forms of d refuses |d| at the scan cap
        (curvecensus.kronecker_class_number_weighted, (-cap, 1)),
        (lambda d: next(quadforms.reduced_forms(d)), (-cap,)),
    ]
    for func, args in probes:
        with pytest.raises(ValueError) as exc:
            func(*args)
        assert "\n" not in str(exc.value), (func, args)
    with pytest.raises(ValueError, match=r"^order must be an int, got True$"):
        curvecensus.m_of_order(True)
    with pytest.raises(ValueError, match=r"^#Aut must be >= 1, got 0$"):
        curvecensus.main_term(2, 0, 1.0)
    with pytest.raises(ValueError, match=r"^4 is not prime$"):
        localfactors.p_of_ell(4, 1, 1)
    with pytest.raises(ValueError, match=r"^invalid shape \(x, 1\)$"):
        curvecensus.m_of_group("x", 1)
    # k is named before a bad d, and before an empty list is read
    with pytest.raises(ValueError, match="restriction parameter must be >= 1"):
        quadforms.class_number_twelfths_terms([-5], 0)


# Boundary values: the small ints, the discriminants -3 and -4 (so the class-number
# functions reach their k checks), 2^40 (the order bound), the edges of 2^64 (the
# factorization bound), a 30-digit int, and the non-ints a caller might pass.  No
# value sits just under a cap, where the work, though bounded, is long.
VALUES = [0, 1, 2, -1, -3, -4, 2**40, 2**64 - 1, 2**64, 2**64 + 1, 10**30,
          True, 1.0, "x", ""]


def _arity(obj) -> int:
    if isinstance(obj, type) and issubclass(obj, BaseException):
        return 1  # the message
    return sum(p.default is p.empty for p in inspect.signature(obj).parameters.values())


@pytest.mark.parametrize("name", ROOT_NAMES)
@settings(derandomize=True, max_examples=60, database=None,
          deadline=timedelta(seconds=2))
@given(data=st.data())
def test_every_root_callable_returns_or_refuses(name, data):
    """Each call returns, raises a one-line ValueError, or raises the window-scan
    OverflowError, within the 2 s deadline; any other exception fails."""
    func = getattr(curvecensus, name)
    args = [data.draw(st.sampled_from(VALUES)) for _ in range(_arity(func))]
    try:
        func(*args)
    except ValueError as exc:
        assert str(exc) and "\n" not in str(exc)
    except OverflowError as exc:
        assert str(exc).startswith("window scan of N"), exc

