"""Unit tests for the resource model, pages, editor, and checking."""

import pytest

from repro import asn1
from repro.resources import (
    ResourcePage,
    ResourcePageEditor,
    ResourcePageError,
    ResourceRange,
    ResourceRequest,
    ResourceRequestError,
    ResourceSet,
    SoftwareCatalogue,
    SoftwareItem,
    SoftwareKind,
    check_request,
)
from repro.resources.model import RESOURCE_AXES


def t3e_page() -> ResourcePage:
    return (
        ResourcePageEditor("FZJ-T3E")
        .set_system("Cray T3E", "UNICOS/mk", 460.0)
        .set_range("cpus", 1, 512)
        .set_range("time_s", 60, 86400)
        .set_range("memory_mb", 1, 128 * 512)
        .set_range("disk_permanent_mb", 0, 50_000)
        .set_range("disk_temporary_mb", 0, 200_000)
        .add_compiler("f90", version="3.1", invocation="f90")
        .add_library("mpi", version="1.2")
        .add_package("gaussian94")
        .publish()
    )


# ------------------------------------------------------------ ResourceSet
def test_resource_set_defaults():
    rs = ResourceSet()
    assert rs.cpus == 1 and rs.time_s == 3600.0


def test_resource_set_rejects_negative():
    with pytest.raises(ResourceRequestError):
        ResourceSet(cpus=-1)
    with pytest.raises(ResourceRequestError):
        ResourceSet(memory_mb=-5)


def test_resource_set_fits_within():
    small = ResourceSet(cpus=2, time_s=100, memory_mb=64)
    big = ResourceSet(cpus=4, time_s=200, memory_mb=128)
    assert small.fits_within(big)
    assert not big.fits_within(small)


def test_resource_set_add_combines():
    a = ResourceSet(cpus=2, time_s=100, memory_mb=64)
    b = ResourceSet(cpus=3, time_s=50, memory_mb=32)
    c = a + b
    assert c.cpus == 5
    assert c.time_s == 100  # parallel composition: max
    assert c.memory_mb == 96


def test_resource_request_from_dict():
    r = ResourceRequest.from_dict({"cpus": 8, "time_s": 120})
    assert r.cpus == 8 and r.time_s == 120.0


def test_resource_request_from_dict_unknown_axis():
    with pytest.raises(ResourceRequestError):
        ResourceRequest.from_dict({"gpus": 1})


def test_resource_set_as_dict_axes():
    assert set(ResourceSet().as_dict()) == set(RESOURCE_AXES)


# ------------------------------------------------------------- ResourceRange
def test_range_contains_and_clamp():
    r = ResourceRange(10, 20)
    assert r.contains(10) and r.contains(20) and not r.contains(21)
    assert r.clamp(5) == 10 and r.clamp(25) == 20 and r.clamp(15) == 15


def test_range_invalid():
    with pytest.raises(ResourceRequestError):
        ResourceRange(20, 10)
    with pytest.raises(ResourceRequestError):
        ResourceRange(-1, 10)


# ---------------------------------------------------------------- software
def test_catalogue_add_get():
    cat = SoftwareCatalogue()
    cat.add(SoftwareItem(kind=SoftwareKind.COMPILER, name="f90", invocation="xlf90"))
    assert cat.has("compiler", "f90")
    assert cat.get("compiler", "f90").invocation == "xlf90"
    assert len(cat) == 1


def test_catalogue_duplicate_rejected():
    cat = SoftwareCatalogue()
    item = SoftwareItem(kind=SoftwareKind.LIBRARY, name="mpi")
    cat.add(item)
    with pytest.raises(ResourcePageError):
        cat.add(item)


def test_catalogue_missing_get():
    with pytest.raises(ResourcePageError):
        SoftwareCatalogue().get("compiler", "f90")


def test_software_item_validation():
    with pytest.raises(ResourcePageError):
        SoftwareItem(kind="game", name="doom")
    with pytest.raises(ResourcePageError):
        SoftwareItem(kind=SoftwareKind.COMPILER, name="")


def test_catalogue_by_kind_sorted():
    cat = SoftwareCatalogue(
        [
            SoftwareItem(kind=SoftwareKind.COMPILER, name="f90"),
            SoftwareItem(kind=SoftwareKind.COMPILER, name="cc"),
            SoftwareItem(kind=SoftwareKind.LIBRARY, name="mpi"),
        ]
    )
    assert [i.name for i in cat.compilers()] == ["cc", "f90"]


# -------------------------------------------------------------------- page
def test_page_roundtrip_asn1():
    page = t3e_page()
    restored = ResourcePage.from_asn1(page.to_asn1())
    assert restored == page


def test_page_missing_axis_rejected():
    with pytest.raises(ResourcePageError, match="missing axes"):
        ResourcePage(
            vsite="X",
            architecture="a",
            operating_system="o",
            peak_gflops=1.0,
            ranges={"cpus": ResourceRange(1, 4)},
        )


def test_page_unknown_axis_rejected():
    ranges = {axis: ResourceRange(0, 10) for axis in RESOURCE_AXES}
    ranges["gpus"] = ResourceRange(0, 1)
    with pytest.raises(ResourcePageError, match="unknown axes"):
        ResourcePage(
            vsite="X",
            architecture="a",
            operating_system="o",
            peak_gflops=1.0,
            ranges=ranges,
        )


def test_page_from_asn1_garbage():
    with pytest.raises(ResourcePageError):
        ResourcePage.from_asn1(b"\x30\x03\x02\x01\x05")  # a bare sequence


def test_page_from_asn1_of_the_wrong_shape():
    """A capacity report carries pages from outside the program: ranges
    that are no map are refused with the page's own error."""
    raw = asn1.decode(t3e_page().to_asn1(), ResourcePageError)
    raw["ranges"] = ["cpus", 1, 512]
    with pytest.raises(ResourcePageError, match="malformed"):
        ResourcePage.from_asn1(asn1.encode(raw))


# ------------------------------------------------------------------- editor
def test_editor_requires_system_info():
    ed = ResourcePageEditor("V")
    for axis in RESOURCE_AXES:
        ed.set_range(axis, 0, 10)
    with pytest.raises(ResourcePageError, match="system identification"):
        ed.publish()


def test_editor_requires_all_ranges():
    ed = ResourcePageEditor("V").set_system("a", "o", 1.0)
    with pytest.raises(ResourcePageError, match="lacks ranges"):
        ed.publish()


def test_editor_rejects_unknown_axis():
    with pytest.raises(ResourcePageError):
        ResourcePageEditor("V").set_range("gpus", 0, 1)


def test_editor_rejects_bad_system():
    with pytest.raises(ResourcePageError):
        ResourcePageEditor("V").set_system("", "os", 1.0)
    with pytest.raises(ResourcePageError):
        ResourcePageEditor("V").set_system("arch", "os", 0.0)


def test_editor_requires_vsite_name():
    with pytest.raises(ResourcePageError):
        ResourcePageEditor("")


def test_editor_publish_asn1_decodes():
    ed = ResourcePageEditor("V").set_system("a", "o", 1.0)
    for axis in RESOURCE_AXES:
        ed.set_range(axis, 0, 10)
    page = ResourcePage.from_asn1(ed.publish_asn1())
    assert page.vsite == "V"


# -------------------------------------------------------------------- check
def test_check_acceptable_request():
    result = check_request(t3e_page(), ResourceRequest(cpus=64, time_s=3600))
    assert result.ok
    assert bool(result)
    assert "acceptable" in result.summary()


def test_check_collects_all_violations():
    req = ResourceRequest(cpus=1024, time_s=30, memory_mb=10.0)
    result = check_request(t3e_page(), req)
    assert not result.ok
    assert len(result.violations) == 2  # cpus above max, time below min
    assert any("cpus" in v for v in result.violations)
    assert any("time_s" in v for v in result.violations)


def test_check_software_requirement():
    page = t3e_page()
    ok = check_request(page, ResourceRequest(), [("compiler", "f90")])
    assert ok.ok
    bad = check_request(page, ResourceRequest(), [("compiler", "cc")])
    assert not bad.ok
    assert "missing compiler 'cc'" in bad.summary()
