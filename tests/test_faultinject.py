"""The fault-injection explorer: every injected fault leaves the table
bit-equal to the pre- or post-operation state (repro.check.faultinject)."""

import glob
import os
import secrets
from multiprocessing import shared_memory

import pytest

from repro.check.faultinject import (
    FaultCase,
    InjectionSite,
    default_cases,
    discover_sites,
    injected_exception_type,
    replay_site,
    report_json,
    run_case_sweep,
    run_sweep,
)
from repro.core.embedder import VisionEmbedder
from repro.core.shared_planes import SEGMENT_PREFIX


def _case(name):
    return {case.name: case for case in default_cases()}[name]


class TestSiteIds:
    def test_round_trip(self):
        site = InjectionSite("repro/core/update.py", 123, 4)
        assert site.site_id == "repro/core/update.py:123#4"
        assert InjectionSite.parse(site.site_id) == site

    @pytest.mark.parametrize("bad", [
        "", "update.py", "update.py:12", "update.py#3", "a:b#c",
    ])
    def test_malformed_rejected(self, bad):
        with pytest.raises(ValueError):
            InjectionSite.parse(bad)

    def test_fault_type_deterministic_by_parity(self):
        even = InjectionSite("a.py", 10, 0)
        odd = InjectionSite("a.py", 10, 1)
        assert injected_exception_type(even) is MemoryError
        assert injected_exception_type(odd) is OSError
        assert injected_exception_type(even) is injected_exception_type(even)


class TestDiscovery:
    def test_happy_path_sites_are_deterministic(self):
        case = _case("insert_batch-scalar")
        first = discover_sites(case)
        second = discover_sites(case)
        assert first == second
        assert len(first) > 100
        assert all(site.file.startswith("repro/core/") for site in first)

    def test_occurrences_number_repeat_visits(self):
        sites = discover_sites(_case("insert_batch-scalar"))
        by_line = {}
        for site in sites:
            key = (site.file, site.line)
            assert site.occurrence == by_line.get(key, 0)
            by_line[key] = site.occurrence + 1


class TestSweep:
    @pytest.mark.parametrize("name", [case.name for case in default_cases()])
    def test_small_sweep_holds_strong_guarantee(self, name):
        outcomes = run_case_sweep(_case(name), max_sites=12)
        assert outcomes
        for outcome in outcomes:
            assert outcome.fired, outcome.to_dict()
            assert outcome.raised, outcome.to_dict()
            assert outcome.consistent, outcome.to_dict()
            assert outcome.state in ("pre", "post"), outcome.to_dict()
            assert outcome.ok

    def test_leaked_segment_fails_the_site_and_is_released(self):
        # An operation that unlinks its segment only on success: every
        # injected fault escapes before the unlink.
        prefix = f"{SEGMENT_PREFIX}{os.getpid()}-"

        def operate(table):
            segment = shared_memory.SharedMemory(
                name=prefix + secrets.token_hex(4), create=True, size=64
            )
            segment.close()
            table.insert(5000, 1)
            segment.unlink()

        case = FaultCase(
            name="leaky", build=lambda: VisionEmbedder(64, 8, seed=1),
            operate=operate,
        )
        outcomes = run_case_sweep(case, max_sites=3)
        assert len(outcomes) == 3
        for outcome in outcomes:
            assert outcome.raised and outcome.state in ("pre", "post")
            assert len(outcome.leaked) == 1
            assert outcome.leaked[0].startswith(prefix)
            assert "left linked" in outcome.detail
            assert not outcome.ok
        assert not glob.glob(f"/dev/shm/{prefix}*")

    def test_replay_by_site_id_is_deterministic(self):
        case = _case("insert_batch-scalar")
        outcome = run_case_sweep(case, max_sites=8)[5]
        replayed = replay_site(case.name, outcome.site_id)
        assert replayed == outcome
        assert replay_site(case.name, outcome.site_id) == replayed

    def test_unknown_case_rejected(self):
        with pytest.raises(ValueError):
            replay_site("no-such-case", "repro/core/update.py:1#0")

    def test_report_shape(self):
        outcomes = run_sweep(max_sites=4)
        report = report_json(outcomes)
        assert report["format"] == "repro-faultinject/1"
        assert report["total_sites"] == len(outcomes)
        assert report["failures"] == 0
        assert set(report["cases"]) == {
            case.name for case in default_cases()
        }
        assert len(report["outcomes"]) == len(outcomes)
