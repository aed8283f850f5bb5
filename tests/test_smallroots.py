import pytest

import coxlow.smallroots
from coxlow import (
    INF,
    build_root_system,
    dihedral_matrix,
    dominates,
    is_bipodal,
    small_roots,
    small_roots_by_dominance,
)
from coxlow.errors import ClosureCapExceeded

SIGMA_COUNTS = {"A3": 6, "B3": 9, "H3": 15, "affine-3-3-3": 6, "universal": 3}


def test_infinite_dihedral_sigma():
    rs = build_root_system(dihedral_matrix(INF))
    sigma = small_roots(rs)
    assert sorted(tuple(round(c, 9) for c in r.coords) for r in sigma) == [(0.0, 1.0), (1.0, 0.0)]


def test_m3_dihedral_sigma_is_phi_plus():
    rs = build_root_system(dihedral_matrix(3))
    sigma = small_roots(rs)
    assert sorted(tuple(round(c, 9) for c in r.coords) for r in sigma) == [(0.0, 1.0), (1.0, 0.0), (1.0, 1.0)]


def test_known_sigma_counts(battery):
    for name, count in SIGMA_COUNTS.items():
        _, sigma, _ = battery.get(name)
        assert len(sigma) == count, name


def test_sigma_contains_simples(battery):
    for name in ("universal-override", "hyperbolic-2-3-7"):
        rs, sigma, _ = battery.get(name)
        for s in range(rs.rank):
            assert rs.vec_key(rs.simple_roots[s]) in {r.key for r in sigma}
            assert s in sigma.bit        # alpha_s has id s in the table


def test_closure_cap(monkeypatch):
    rs = build_root_system(dihedral_matrix(3))
    # alpha_0 + alpha_1 (id 2, depth 2) would be the third small root
    monkeypatch.setattr(coxlow.smallroots, "_CAP", 2)
    named = r"cap 2 at root 2, Root\(\[1\.0, 1\.0\d*\], depth=2\)$"
    with pytest.raises(ClosureCapExceeded, match=named):
        small_roots(rs)


def test_frozen_indexing(battery):
    rs, sigma, _ = battery.get("B3")
    again = small_roots(rs)
    assert [r.key for r in sigma] == [r.key for r in again]
    assert sigma.ids == again.ids


# -- dominance ----------------------------------------------------------

def test_dominance_reflexive():
    rs = build_root_system(dihedral_matrix(INF))
    beta = rs.root_table.root(rs.root_table.reflect(1, 0))     # (2, 1)
    v = dominates(rs, beta, beta)
    assert v.value and v.decisive


def test_dominance_infinite_dihedral():
    rs = build_root_system(dihedral_matrix(INF))
    # s0 alpha_1 = alpha_t + 2 alpha_s with s=0, t=1
    beta = rs.root_table.root(rs.root_table.reflect(1, 0))
    alpha = rs.root_table.root(0)
    assert dominates(rs, beta, alpha).value
    # but not the other simple root's deep partner
    assert not dominates(rs, alpha, beta).value


def test_dominance_fast_path():
    rs = build_root_system(dihedral_matrix(3))
    beta = rs.root_table.root(rs.root_table.reflect(1, 0))     # (1, 1)
    v = dominates(rs, beta, rs.root_table.root(0))
    assert v == (False, True)


def test_is_small():
    rs = build_root_system(dihedral_matrix(INF))
    sigma = small_roots(rs)
    keys = {r.key for r in sigma}
    assert rs.root_table.root(0).key in keys
    assert rs.root_table.root(rs.root_table.reflect(1, 0)).key not in keys
    rs3 = build_root_system(dihedral_matrix(3))
    sigma3 = small_roots(rs3)
    assert (rs3.root_table.root(rs3.root_table.reflect(1, 0)).key
            in {r.key for r in sigma3})


def test_sigma_holds_the_root_table_roots(battery):
    # Sigma's roots are the table's roots, under the table's ids
    for name in ("B3", "hyperbolic-2-3-7", "universal-override"):
        rs, sigma, _ = battery.get(name)
        table = rs.root_table
        assert list(sigma.ids) == [table.ids[r.key] for r in sigma], name
        for b, root in enumerate(sigma.roots):
            i = sigma.ids[b]
            assert root.coords == table.coords[i], name
            assert (root.depth, root.key) == table.sort_keys[i], name
            assert sigma.bit[sigma.ids[b]] == b, name


def test_oracle_agreement_sample(battery):
    # full-battery oracle sweep lives in the acceptance suite; spot-check here
    for name in ("universal", "A3", "hyperbolic-3-3-4"):
        rs, sigma, _ = battery.get(name)
        oracle = small_roots_by_dominance(rs, sigma.max_depth() + 2)
        assert sorted(r.key for r in sigma) == sorted(r.key for r in oracle)


# -- bipodality ---------------------------------------------------------

def test_bipodal_trivial_cases(battery):
    rs, sigma, _ = battery.get("B3")
    assert is_bipodal(rs, [])
    assert is_bipodal(rs, [rs.root_table.root(s) for s in range(rs.rank)])
    assert is_bipodal(rs, sigma)


def test_removing_root_breaks_bipodality(battery):
    # sanity that the check is not vacuous: drop one non-simple small root
    rs, sigma, _ = battery.get("B3")
    broke = False
    for victim in sigma:
        if victim.depth == 1:
            continue
        rest = [r for r in sigma if r.key != victim.key]
        if not is_bipodal(rs, rest):
            broke = True
            break
    assert broke


def test_small_root_set_masks(battery):
    rs, sigma, _ = battery.get("A3")
    mask = (1 << 0) | (1 << 3)
    assert [sigma.bit[i] for i in sigma.mask_to_ids(mask)] == [0, 3]


def test_short_edge_closure_property(battery):
    # Sigma is closed under s.beta whenever -1 < B(alpha_s, beta) < 0
    for name in ("H3", "inf-3-3"):
        rs, sigma, _ = battery.get(name)
        for beta in sigma:
            for s in range(rs.rank):
                b = rs.form_simple(s, beta.coords)
                if rs.is_neg(b) and rs.is_pos(b + 1):
                    assert (rs.vec_key(rs.reflect(s, beta.coords))
                            in {r.key for r in sigma})
