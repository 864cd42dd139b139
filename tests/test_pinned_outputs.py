"""Byte-identity of the program's proofs: a change that alters any
survey certificate, `pqham quotient` output, quadric model or dihedral
model must update these digests on purpose and say why."""

import hashlib

import pytest

from pqham.actions import (
    dihedral_model,
    omega_model,
    psl2_coset_space,
    psl2_subgroup_scan,
)
from pqham.cli import main
from pqham.engine import (
    Descriptor,
    NotHamiltonianException,
    build_instance,
    format_certificate,
    prove,
    survey_descriptors,
)

# the two actions the large-actions pin draws its descriptors from
_omega_model = omega_model


def _psl2_space(p, *orders_and_size):
    return psl2_coset_space(p, *psl2_subgroup_scan(p, *orders_and_size))


def digest(text):
    return hashlib.sha256(text.encode()).hexdigest()[:16]


# sha256 prefix of format_certificate(prove(d)) for each survey descriptor
SURVEY_255 = {
    "metacirculant(m=2,n=5,alpha=2)": "NotHamiltonianException",
    "fermat(p=5,q=3)": "a5def4e70cf0117c",
    "metacirculant(m=3,n=7,alpha=2)": "9079976425281d60",
    "triple(4)": "84243d7974782ad1",
    "triple(12)": "a7b99f86b092b445",
    "triple(18)": "57cec1f759b8a05e",
    "fermat(p=17,q=3)": "44c9b2e436d936d5",
    "omega(5,0)": "917d5d0dd110eac2",
    "omega(5,1)": "a87a31eae25a5058",
    "omega(5,2)": "e2320e70ebc11642",
    "fermat(p=17,q=5)": "8e657ff6df897cc2",
    "dihedral(13,S2)": "c01bc98c9c95295c",
    "dihedral(13,S3)": "efbf257a5389daf2",
    "dihedral(13,S4+)": "845d77f4b7af0efb",
    "dihedral(13,S4-)": "80580142dbd3e9fa",
    "dihedral(13,S5)": "1224eb5849cec0bf",
    "dihedral(13,S6)": "f2b03ff826b23390",
    "dihedral(13,S7)": "530409371a5e9c22",
    "dihedral(13,axis+)": "4b77dd2a2a318889",
    "dihedral(13,axis-)": "6cae78b3b7c7abd5",
    "psl2sub(13,2,3,3,12,1)": "37d059190dca3804",
    "psl2sub(13,2,3,3,12,2)": "8327749e09c7f0b4",
    "psl2sub(13,2,3,3,12,3)": "7de4ad909b93f96e",
    "psl2sub(13,2,3,3,12,4)": "a3dadaea04f30854",
    "psl2sub(13,2,3,3,12,5)": "61fbcccb5e715e3c",
    "psl2sub(13,2,3,3,12,6)": "f9291099ca03b995",
    "psl2sub(13,2,3,3,12,8)": "2faac5333386054e",
    "psl2sub(13,2,3,3,12,9)": "448bb8e9e3a6344d",
    "psl2sub(13,2,3,3,12,10)": "227c7ea1cf731fdf",
}


def test_survey_certificates_pinned():
    got = {}
    for d in survey_descriptors(255):
        try:
            got[str(d)] = digest(format_certificate(prove(d)))
        except NotHamiltonianException:
            got[str(d)] = "NotHamiltonianException"
    assert got == SURVEY_255


def test_rho_pinned():
    # the semiregular automorphism build_instance hands the quotient, for
    # every survey descriptor and gp(7,2)
    descs = survey_descriptors(255) + [Descriptor("gp", (7, 2))]
    text = repr([(str(d), tuple(build_instance(d)[1])) for d in descs])
    assert digest(text) == "33e2c4af049702ee"


def test_large_actions_certificates_pinned():
    # every orbital graph of PSL(2,61) on the 1891 cosets of A5, one per
    # pair of nontrivial suborbits by index, then those of omega(11, lam)
    # by lam
    key = (61, 2, 3, 5, 60)
    sp = _psl2_space(*key)
    descs = [Descriptor("psl2sub", key + (s.index,)) for s in sp.suborbits
             if s.points != (sp.base,) and s.index <= s.paired]
    descs += [Descriptor("omega", (11, lam))
              for lam in sorted(_omega_model(11).suborbits)]
    assert len(descs) == 42
    text = "".join(format_certificate(prove(d)) for d in descs)
    assert digest(text) == "145f8617ded57002"


def test_large_actions_are_the_surveys_psl2_61_and_omega_11_rows():
    # the descriptors of the test above, by its own rule, are those
    # survey_descriptors lists for the two actions
    key = (61, 2, 3, 5, 60)
    sp = _psl2_space(*key)
    descs = [Descriptor("psl2sub", key + (s.index,)) for s in sp.suborbits
             if s.points != (sp.base,) and s.index <= s.paired]
    descs += [Descriptor("omega", (11, lam))
              for lam in sorted(_omega_model(11).suborbits)]
    listed = [d for d in survey_descriptors(1891)
              if (d.family, d.params[0]) in (("psl2sub", 61), ("omega", 11))]
    assert sorted(listed, key=str) == sorted(descs, key=str)


@pytest.mark.parametrize("argv, expected", [
    (["quotient", "--family", "dihedral", "--p", "13", "--suborbit", "S7"],
     "fa275d3afedda702"),
    (["quotient", "--family", "triple", "--size", "4"], "2e419ccedc5564b1"),
])
def test_quotient_stdout_pinned(capsys, argv, expected):
    assert main(argv) == 0
    assert digest(capsys.readouterr().out) == expected


@pytest.mark.parametrize("q, expected", [
    (5, "b2c72bc8512ec21e"),
    (11, "3808bfdb0ad7bed3"),
    (19, "c7578c9006a00d98"),
])
def test_omega_model_pinned(q, expected):
    m = omega_model(q)
    assert digest(repr((m.theta, m.points, m.base, sorted(m.suborbits.items()),
                        m.blocks, m.inner_blocks, m.outer_blocks, m.rho,
                        m.norm_gens, m.gens))) == expected


@pytest.mark.parametrize("p, expected", [
    (13, "fa6bb2bd39b83654"),
    (17, "e98c93064d8aca8e"),
    (29, "c4d0567cb927e25d"),
])
def test_dihedral_model_pinned(p, expected):
    m = dihedral_model(p)
    sp = m.space
    assert digest(repr((sp.gens, sp.stab_gens, sp.suborbits,
                        sorted(m.names.items()), m.rho,
                        sorted(m.orbits.items(), key=str)))) == expected
