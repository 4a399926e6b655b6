"""Gallery entries must reproduce their expected verdict tables, stay
deterministic per seed, and keep strict-inequality rows stable under small
parameter jitter."""

import numpy as np
import pytest

from confolkit import approx, gallery
from confolkit.conetame import FAIL, PASS
from confolkit.confolcheck import SKIPPED

ALL = gallery.names()


def test_registry_is_complete():
    assert set(ALL) == {
        "r5-cubic", "r5-flat-negative", "bourgeois-abstract",
        "branched-cover-r3", "mnw-torus", "openbook-solid-torus",
        "openbook-s3-binding", "openbook-deformation", "mori-formal",
        "bertelson-meigniez-r5", "product-blob"}
    with pytest.raises(KeyError):
        gallery.build("nonesuch")


@pytest.mark.parametrize("name", ALL)
def test_entry_reproduces_expected_table(name):
    entry = gallery.build(name)
    ok, got, bad = entry.verify()
    assert ok, bad
    assert list(got) == list(entry.expected)


@pytest.mark.parametrize("name", ALL)
def test_entry_deterministic_per_seed(name):
    a = gallery.build(name)
    b = gallery.build(name)
    assert a.run() == b.run() == a.run()   # rebuild and rerun agree


# 1% jitter on the float parameters must not flip any strict-inequality row
JITTERABLE = ("r5-cubic", "r5-flat-negative", "bertelson-meigniez-r5",
              "branched-cover-r3", "openbook-solid-torus",
              "openbook-s3-binding", "openbook-deformation")


@pytest.mark.parametrize("name", JITTERABLE)
def test_float_jitter_preserves_statuses(name):
    base = gallery.build(name)
    for rel in (0.01, -0.01):
        assert gallery.jittered(base, rel).run() == base.expected


# entries whose rows read an approx_verdict report
FAMILY_ENTRIES = ("r5-cubic", "r5-flat-negative", "bertelson-meigniez-r5",
                  "branched-cover-r3", "mnw-torus", "openbook-deformation")


@pytest.mark.parametrize("name", FAMILY_ENTRIES + ("product-blob",))
def test_rows_share_one_analysis_per_built_entry(name, monkeypatch):
    calls = {"approx_verdict": 0, "blob_pointwise_check": 0}
    for fn_name in calls:
        def counting(*args, _fn=getattr(gallery, fn_name), _name=fn_name,
                     **kwargs):
            calls[_name] += 1
            return _fn(*args, **kwargs)
        monkeypatch.setattr(gallery, fn_name, counting)
    gallery.build(name).run()
    assert calls == {"approx_verdict": int(name in FAMILY_ENTRIES),
                     "blob_pointwise_check": int(name == "product-blob")}


# family entries whose exponents row cross-checks item (b) of the report
EXPONENT_ENTRIES = ("r5-cubic", "r5-flat-negative", "bertelson-meigniez-r5",
                    "mnw-torus", "openbook-deformation")


@pytest.mark.parametrize("name", EXPONENT_ENTRIES)
def test_one_symbolic_limit_per_stratum_per_run(name, monkeypatch):
    entry = gallery.build(name)
    fam, pf = entry.structures["family"], entry.structures["partition"]
    strata = [lab for lab, sd in pf.strata.items()
              if 2 * sd.order + 3 <= fam.chart.dim]
    calls = []

    def counting(label, *args, _fn=approx._limit_symbolic):
        calls.append(label)
        return _fn(label, *args)
    monkeypatch.setattr(approx, "_limit_symbolic", counting)
    verdicts = entry.run_verdicts()
    assert sorted(calls, key=str) == sorted(strata, key=str)
    assert list(verdicts["exponents"].sub) == strata


def test_exponents_row_fails_a_stratum_left_out_of_item_b():
    # a non-contact stratum with no symbolic limit in the report is a FAIL,
    # not a row that passes with nothing checked
    entry = gallery.build("r5-cubic")
    fam, pf = entry.structures["family"], entry.structures["partition"]
    v = gallery._exponent_agreement(fam, pf, approx.ConformalLimitReport())
    assert v.status == FAIL
    assert list(v.sub) == ["C1"]
    assert v.sub["C1"].status == FAIL
    assert "no symbolic limit" in v.sub["C1"].message


def test_entries_report_margins():
    entry = gallery.build("openbook-solid-torus")
    v = entry.run_verdicts()
    assert v["shs-residual"].margins["residual"] < 1e-9
    v = gallery.build("r5-cubic").run_verdicts()
    assert v["factor"].margins["factor_coeff"] == pytest.approx(2.0,
                                                               rel=1e-9)


# ---------------------------------------------------------------------------
# symbolic identity helpers
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("n", [1, 2, 3])
def test_open_book_contact_identity(n):
    res = gallery.open_book_contact_identity(n)
    assert res["derived"]
    assert res["factorial_variant"] == (n <= 2)


@pytest.mark.parametrize("n", [1, 2])
def test_mnw_volume_identity(n):
    res = gallery.mnw_volume_identity(n)
    assert res["derived"] and not res["quoted_variant"]


def test_open_book_taming_identity():
    res = gallery.open_book_taming_identity()
    assert res["dalpha_derived"] and res["omega_exact"]
    assert not res["dalpha_quoted"]     # sign slip in the a^2 block


def test_bourgeois_bracket_bookkeeping():
    res = gallery.bourgeois_brackets(2)
    assert res["powers_at_top"] == [2]
    assert res["top_matches"] and res["index_matches"]
    assert res["top_power"] == 3 and res["quoted_multiplier_index"] == 2
    assert res["top_multipliers"] == (6, 3)
    assert res["quoted_multipliers"] == (2, 2)
    with pytest.raises(ValueError):
        gallery.build("bourgeois-abstract", n=1)


def test_mori_identities_and_defect_count():
    res = gallery.build("mori-formal").structures["identities"]
    assert res["dalpha"] and res["mu_expansion"] and res["top_expansion"]
    assert res["positivity"]
    assert res["mu_defect_monomials"] == 6


# ---------------------------------------------------------------------------
# specific margins and factors
# ---------------------------------------------------------------------------

def test_cubic_factor_message_names_two_s():
    v = gallery.build("r5-cubic").run_verdicts()["factor"]
    assert "1/(2s)" in v.message


def test_openbook_deformation_weights():
    entry = gallery.build("openbook-deformation")
    v = entry.run_verdicts()["factors"]
    rs = entry.structures["partition"].strata["g0-zero"].samples[:, 1]
    assert np.allclose(v.margins["g0_zero_values"], rs, atol=1e-7)
    assert v.margins["f0_zero_coeff"] == pytest.approx(1.0, rel=1e-9)


def test_flat_negative_fails_only_item_c():
    entry = gallery.build("r5-flat-negative")
    got = entry.run()
    assert got["approx"] == FAIL and got["failing-item"] == PASS


def test_product_blob_skips_global_items():
    got = gallery.build("product-blob").run()
    assert got["item3c"] == SKIPPED and got["item3d"] == SKIPPED
    assert got["transversely-exact"] == PASS


def test_to_cfl_one_liner():
    entry = gallery.build("mnw-torus", n=1, k=2)
    assert entry.to_cfl() == "gallery mnw-torus n=1 k=2 seed=0\n"
    assert gallery.build("mori-formal").to_cfl() == \
        "gallery mori-formal seed=0\n"
