"""The result records' contract: the field names and their order, the
defaults, ``_asdict``, ``_replace``, the ``repr`` and the absence of a
per-instance ``__dict__`` are fixed here, written out, so a record's
implementation can change without its callers seeing it."""

import pytest

from ramify import bounds, covers, groups, ramification
from ramify.reporting import canonical_dumps, to_jsonable

RECORDS = {
    (bounds, "InertiaStructure"): ("group", "p", "ell", "r", "P_indices", "M", "n", "M_prime"),
    (bounds, "TameizingReport"): ("H_indices", "H_order", "index_tame", "alpha_image_order"),
    (bounds, "ExplicitConstants"): ("N_prime", "M0", "M_crude"),
    (bounds, "WildOrderReport"): (
        "swan", "N_prime_exact", "jumps_visible", "P_order", "torus_bound",
        "torus_bound_holds", "linear_bound_holds", "ok", "constants", "warnings",
    ),
    (bounds, "DecompositionData"): ("order_I", "t", "e", "f_sep", "f_insep", "p"),
    (bounds, "CountsReport"): ("order_IC", "tame"),
    (bounds, "StarKernelReport"): ("passes", "kernel_order", "kernel_p_sylow_order"),
    (ramification, "RamFiltration"): ("group", "p", "jumps", "levels"),
    (ramification, "SwanReport"): ("swan", "breaks", "per_jump_terms"),
    (ramification, "PullbackReport"): ("sw_base", "sw_prime", "degree", "holds", "equality"),
    (ramification, "TransitivityReport"): ("points", "residuals", "quotient_matches"),
    (covers, "TowerParts"): ("lower", "H_indices"),
    (groups, "AbelianProbeReport"): (
        "max_order_found", "le_linear_bound", "le_torus_bound", "n_used", "linear_bound", "torus_bound",
    ),
}
DEFAULTS = {"WildOrderReport": {"warnings": ()}}


def _params():
    return [pytest.param(module, name, fields, id=name) for (module, name), fields in RECORDS.items()]


def _check_contract(cls, name, fields):
    assert cls._fields == fields
    assert cls._field_defaults == DEFAULTS.get(name, {})
    values = tuple(range(len(fields)))
    record = cls(*values)
    assert tuple(record) == values and record == values
    assert list(record._asdict()) == list(fields)
    assert list(record._asdict().values()) == list(values)
    changed = record._replace(**{fields[0]: "x"})
    assert type(changed) is cls and changed[0] == "x" and changed[1:] == values[1:] and record[0] == 0
    assert repr(record).startswith(f"{name}({fields[0]}=0, ")
    assert not hasattr(record, "__dict__")
    with pytest.raises(AttributeError):
        setattr(record, fields[0], 1)
    with pytest.raises(TypeError):
        to_jsonable(record)
    with pytest.raises(TypeError):
        canonical_dumps({"results": [record]})


@pytest.mark.parametrize("module,name,fields", _params())
def test_record_keeps_its_fields_defaults_and_repr(module, name, fields):
    cls = getattr(module, name)
    assert cls.__name__ == name and cls.__module__ == module.__name__
    _check_contract(cls, name, fields)


def test_a_subclass_without_slots_fails_the_contract():
    """The contract's ``__dict__`` check is what catches a record subclass
    that forgets ``__slots__ = ()``."""

    class Leaky(bounds.CountsReport):
        pass

    with pytest.raises(AssertionError):
        _check_contract(Leaky, "Leaky", bounds.CountsReport._fields)
