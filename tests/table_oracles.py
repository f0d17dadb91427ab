"""Table-based oracles for answers the library reads on a parent table.

``ramify`` no longer forms a subgroup's own table, or a quotient table, to
ask whether a subgroup commutes, whether a quotient is cyclic, or which
kernel a stabilizer has; these helpers keep the table versions, so tests
can compare the two on whole grids of groups.
"""

from ramify.errors import NoSuchQuotient
from ramify.fields import split_prime_power
from ramify.groups import FiniteGroup


def subgroup_table(group, subset):
    """The subgroup on ``subset`` as a group of its own; returns
    (FiniteGroup, index list into ``group``), indices in increasing order."""
    idx = sorted(set(subset))
    pos = {g: i for i, g in enumerate(idx)}
    mul = [[pos[group.mul[a][b]] for b in idx] for a in idx]
    labels = [group.labels[g] for g in idx]
    mats = [group.matrices[g] for g in idx] if group.matrices is not None else None
    return FiniteGroup(mul, labels, matrices=mats), idx


def is_cyclic(group):
    """Whether some element's order is the group's order."""
    return any(group.order_of(i) == group.n for i in range(group.n))


def quotient_is_cyclic(group, normal):
    """Whether the quotient table of ``group`` by ``normal`` is cyclic."""
    return is_cyclic(group.quotient(normal)[0])


def table_star_kernel(group, stabilizer, f_sep, e, f_insep, p):
    """The star-kernel check on the stabilizer's own table: its subgroups,
    a quotient table per candidate kernel, and every conjunct, including
    the two the library proves always true.  Returns the
    ``StarKernelReport`` fields as a tuple; refusals as in the library,
    except that a p that is not prime is not refused."""
    stab = frozenset(stabilizer)
    if not group.is_subgroup(stab):
        raise NoSuchQuotient("stabilizer is not a subgroup")
    if len(stab) != e * f_sep * f_insep:
        raise NoSuchQuotient(
            f"stabilizer order {len(stab)} != e*f_sep*f_insep = {e * f_sep * f_insep}"
        )
    s_grp, _ = subgroup_table(group, stab)
    for k_local in s_grp.all_subgroups():
        if len(k_local) * f_sep != s_grp.n or not (
            s_grp.is_normal(k_local) and quotient_is_cyclic(s_grp, k_local)
        ):
            continue
        kernel_p = k_local & frozenset(s_grp.p_elements(p))
        p_part = len(k_local) // split_prime_power(len(k_local), p)[1]
        unique_sylow = len(kernel_p) == p_part and s_grp.is_subgroup(kernel_p)
        return (len(k_local) == e * f_insep) and unique_sylow, len(k_local), p_part
    raise NoSuchQuotient(f"no normal subgroup of index {f_sep} with cyclic quotient")
