from collections import Counter

import pytest

from orbitcodes import ExtensionContext, FieldElement, FieldSpec, parse_poly


@pytest.fixture
def element_powers(monkeypatch):
    """element_powers(build): the FieldElement.__pow__ and inv calls made
    while build() runs, by name."""
    def count(build):
        calls = Counter()
        with monkeypatch.context() as patch:
            for name in ("__pow__", "inv"):
                def counting(*args, _op=getattr(FieldElement, name), _name=name):
                    calls[_name] += 1
                    return _op(*args)
                patch.setattr(FieldElement, name, counting)
            build()
        return calls
    return count


@pytest.fixture(scope="session")
def f2():
    return FieldSpec(2)


@pytest.fixture(scope="session")
def f3():
    return FieldSpec(3)


@pytest.fixture(scope="session")
def f4(f2):
    return f2.extend(parse_poly(f2, "x^2+x+1"))


@pytest.fixture(scope="session")
def p64(f2):
    return parse_poly(f2, "x^6+x+1")


@pytest.fixture(scope="session")
def ctx64(p64):
    return ExtensionContext.from_modulus(p64)


@pytest.fixture(scope="session")
def p5(f2):
    """The degree-4 modulus of order 5 (non-primitive)."""
    return parse_poly(f2, "x^4+x^3+x^2+x+1")


@pytest.fixture(scope="session")
def ctx16_nonprim(p5):
    return ExtensionContext.from_modulus(p5)


@pytest.fixture(scope="session")
def p15(f2):
    return parse_poly(f2, "x^4+x+1")


@pytest.fixture(scope="session")
def ctx16_prim(p15):
    return ExtensionContext.from_modulus(p15)
