"""The exported API: the names at the package root, and what every one of
them does with arguments outside the paper's domain."""

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


def test_out_of_domain_arguments_raise_value_error():
    cap = quadforms.CLASS_SCAN_CAP
    probes = [
        (localfactors.p_of_ell, (4, 1, 1)),  # 4 is not prime
        (curvecensus.m_p_of_group, (1, 1, 4)),
        (curvecensus.m_p_of_group, (1, 1, -5)),
        (curvecensus.m_of_order, (True,)),  # a bool is not the integer 1
        (localfactors.t_of_n, (1, 0, 1)),  # m = 0 is not a shape
        (localfactors.j_r_v, (0, 0, 0, 0)),
        # the local sums refuse past their caps before any loop or power
        (localfactors.t_of_n, (localfactors.T_MODULUS_CAP + 1, 1, 1)),
        (localfactors.t_closed_form, (5, localfactors.T_EXPONENT_CAP + 1, 1, 1)),
        (localfactors.j_r_v, (0, localfactors.J_LEVEL_CAP + 1, 1, 1)),
        (curvecensus.aut_order, (1.0, 1)),
        (curvecensus.main_term, (2, 0, 1.0)),  # #Aut >= 1
        (curvecensus.main_term, (2, -1, 1.0)),
        (curvecensus.m_of_group, ("x", 1)),
        (arith.euler_phi, (True,)),
        (curvecensus.is_prime, (1.0,)),
        (curves.window_terms, (1, True)),
        (curves.inclusion_exclusion_terms, (0, 1)),
        (curves.m_p_of_order, (4, 1, "x")),
        (curvecensus.inclusion_exclusion_check, (1, 1, 4)),
        (curvecensus.euler_density, (4, 1, "x")),
        (curvecensus.count_c_closed, ((1, 1, 3, 1),)),  # a plain tuple is not a query
        (curvecensus.class_number_twelfths, (-3, True)),
        (curvecensus.kronecker_class_number_weighted, (-3, 1.0)),
        # exponents are bounded before any power is built
        (curvecensus.gl2_order, (2, 10**12)),
        (curvecensus.det_count_closed, (1, 2, 10**12)),
        # every route that walks the forms of d refuses |d| at the scan cap
        (curvecensus.kronecker_class_number_weighted, (-cap, 1)),
        (quadforms.l_value_series, (-cap, cap)),
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
    with pytest.raises(ValueError, match=r"^level v must be <= 8, got 9$"):
        localfactors.j_r_v(0, 9, 1, 1)
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

