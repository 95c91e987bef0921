"""Golden digests: sha256 of the outputs of small but complete runs.

Behavioural tests allow many outputs; these pin the exact bytes, so a
refactor or speed-up that changes any output fails here.  Configs are
shrunk (20 RBs, short timelines) to keep the module fast.

After a deliberate output change, print the new table with
``PYTHONPATH=src python tests/test_golden.py`` and paste it into GOLDEN.
"""
from __future__ import annotations

import hashlib
import json
import sys
import tempfile
from dataclasses import replace
from pathlib import Path

import numpy as np

from sliceloop.agents import (
    HeuristicOracleBackend,
    Predictor,
    build_meta_prompt,
    heuristic_oracle_decide,
)
from sliceloop.baselines import brute_force_optimal, enumerate_splits
from sliceloop.cli import main
from sliceloop.core import AllocationRatio, RadioConfig, SliceKind, SliceKpm, SliceSpec
from sliceloop.loop import Environment, run_experiment
from sliceloop.radio import QueueConfig, SimState, StepProfile, UeChannelState, simulate_interval
from sliceloop.sla import assess
from sliceloop.store import ExperienceRecord, ExperienceStore

SINR = 2.0 ** (2_200_000 / 180_000) - 1.0  # 2.2 Mbps per RB

# 20 RBs carry 44 Mbps; the steps overload each slice in turn.
CONFIG = dict(
    total_rbs=20,
    scenario1_cycles=16,
    scenario1_steps=[[[0, 16.0], [4, 26.0], [10, 16.0], [14, 28.0]],
                     [[0, 16.0], [6, 20.0], [12, 12.0]]],
    scenario2_grid=[12.0, 16.0, 20.0, 24.0, 28.0],
    scenario2_cycles=4,
)

LATENCY = SliceSpec(0, SliceKind.LATENCY, 10.0, 2.0, 10.0, 0.2)
THROUGHPUT = SliceSpec(1, SliceKind.THROUGHPUT, 1000.0, 1.0, -30.0, -0.02)


def _sha(data) -> str:
    if isinstance(data, str):
        data = data.encode()
    return hashlib.sha256(data).hexdigest()


def _cli_digests(args: list[str]) -> dict[str, str]:
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        cfg = tmp / "config.json"
        cfg.write_text(json.dumps(CONFIG))
        out = tmp / "out"
        assert main(args + ["--config", str(cfg), "--out", str(out)]) == 0
        return {p.name: _sha(p.read_bytes()) for p in sorted(out.iterdir())}


def tokens_digests() -> dict[str, str]:
    return _cli_digests(["tokens"])


def scenario2_digests() -> dict[str, str]:
    return _cli_digests(["scenario2", "--trials", "10"])


def oracle_table_digests() -> dict[str, str]:
    return _cli_digests(["oracle-table", "--rates", "24", "16"])


def three_slice_digests() -> dict[str, str]:
    """Enumeration rows and optimum for 3 slices, fresh and carried state."""
    radio = RadioConfig(total_rbs=20)
    queue = QueueConfig()
    channels = [UeChannelState(k, k, SINR) for k in range(3)]
    specs = [LATENCY, THROUGHPUT, replace(THROUGHPUT, slice_id=2)]
    carried = simulate_interval(
        [30.0, 14.0, 9.0], [6, 8, 6], channels, radio, queue, SimState.fresh(3)
    ).state
    out = {}
    # "carried_floors" once also declared throughput floors; no split is
    # feasible with or without them, so its digests are the same.
    for name, offered, state in (
        ("fresh", [12.0, 14.0, 9.0], None),
        ("carried_floors", [12.0, 14.0, 9.0], carried),
    ):
        args = (offered, channels, radio, queue, specs, state)
        out[f"rows_{name}"] = _sha(repr(enumerate_splits(*args)))
        out[f"optimum_{name}"] = _sha(repr(brute_force_optimal(*args)))
    return out


def oracle_order_digests() -> dict[str, str]:
    """Oracle decisions with the latency slice listed first and second."""
    radio = RadioConfig(total_rbs=10)
    queue = QueueConfig()
    channels = [UeChannelState(0, 0, SINR), UeChannelState(1, 1, SINR)]
    out = {}
    for latency_first in (True, False):
        if latency_first:
            specs = [LATENCY, THROUGHPUT]
        else:
            specs = [replace(THROUGHPUT, slice_id=0), replace(LATENCY, slice_id=1)]
        decisions = []
        for lat_rate in (2.0, 9.0, 14.0, 20.0):
            for thr_rate in (3.0, 12.0, 18.0):
                offered = [lat_rate, thr_rate] if latency_first else [thr_rate, lat_rate]
                predictor = Predictor(offered, channels, radio, queue, specs,
                                      SimState.fresh(2))
                for current in ([0.5, 0.5], [0.2, 0.8], [0.9, 0.1]):
                    current = AllocationRatio(current)
                    decisions.append(heuristic_oracle_decide(current, predictor).shares)
        order = "latency_first" if latency_first else "latency_second"
        out[f"decisions_{order}"] = _sha(repr(decisions))

        lat_steps = ((0, 8.0), (3, 15.0), (7, 6.0))
        thr_steps = ((0, 10.0), (5, 16.0))
        steps = (lat_steps, thr_steps) if latency_first else (thr_steps, lat_steps)
        env = Environment(radio, queue, specs, channels, StepProfile(steps=steps))
        log = run_experiment(env, 10, HeuristicOracleBackend(), gate_enabled=False)
        out[f"loop_{order}"] = _sha(repr(log.timeline_rows()))
    return out


def retrieval_digests() -> dict[str, str]:
    """Retrieved record ids while a store grows, and after reloading it.

    Rates lie on a 5 Mbps grid and sigmas on a 0.01 grid, so distances
    and sigmas tie often and the tie-break order is pinned too.
    """
    rng = np.random.default_rng(2024)
    grid = np.arange(40.0, 245.0, 5.0)
    n, checkpoints = 20_000, (100, 1_000, 5_000, 20_000)
    rates = rng.choice(grid, size=(n, 2)).tolist()
    sigmas = (-np.round(rng.uniform(0.0, 2.5, size=n), 2)).tolist()
    queries = rng.choice(grid, size=(8, 2)).tolist() + rng.uniform(30.0, 250.0, size=(8, 2)).tolist()

    def ids(store):
        return [[r.record_id for r in store.retrieve(q, k)] for q in queries for k in range(1, 6)]

    out = {}
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "history.jsonl"
        store = ExperienceStore(2, path=path)
        for i in range(n):
            kpm = tuple(SliceKpm(1.0, r, 0.0, r) for r in rates[i])
            store.record(kpm, [0.5, 0.5], sigmas[i], i)
            if i + 1 in checkpoints:
                out[f"appended_{i + 1}"] = _sha(repr(ids(store)))
        out["reloaded"] = _sha(repr(ids(ExperienceStore.load(path, 2))))
    return out


def prompt_digests() -> dict[str, str]:
    """Meta-prompt text with the latency slice first and second, with no and
    three retrieved records, and with the latency slice starved (rho clamped)."""
    radio = RadioConfig(total_rbs=20)
    current = AllocationRatio([0.35, 0.65])
    records = [
        ExperienceRecord(4, (14.25, 9.5), (0.45, 0.55), -0.0123456),
        ExperienceRecord(9, (15.0, 8.75), (0.6, 0.4), -0.5),
        ExperienceRecord(2, (13.3333, 10.0), (0.5, 0.5), -1.98765),
    ]
    latency = {
        "served": SliceKpm(12.3456789, 13.9, 0.0071428, 14.0),
        "starved": SliceKpm(0.0, 0.0, 1.0, 14.0),
    }
    throughput = SliceKpm(1.25, 8.8765432, 0.0663, 9.5)
    out = {}
    for latency_first in (True, False):
        if latency_first:
            specs = [LATENCY, THROUGHPUT]
        else:
            specs = [replace(THROUGHPUT, slice_id=0), replace(LATENCY, slice_id=1)]
        order = "latency_first" if latency_first else "latency_second"
        for case, lat in latency.items():
            kpm = (lat, throughput) if latency_first else (throughput, lat)
            assessment = assess(kpm, specs, 0.7)
            for retrieved in ([], records):
                prompt = build_meta_prompt(assessment, kpm, current, retrieved, specs, radio)
                out[f"{order}_{case}_{len(retrieved)}_records"] = _sha(prompt)
    return out


GOLDEN = {
    "tokens": {
        "config.json": "20463c0e43cb0379fd694c6d871ee1bffd33819d7f2cd3fbf2f486a08288d278",
        "fig5_tokens.csv": "fb6497ef05bb669cf4a00761d2b7e5005adc6d4e0dec55e10a4126f49d2e32ce",
        "summary.json": "ebf895085e76eb1439df1de4c5c16b2805cdffd242bbfebf9f07d5c441afb8d1",
        "timeline.csv": "53a0456038c93099f39b172cec2d251ac4a87e9bd99b8f8f9998a2fc9a20c863"
    },
    "scenario2": {
        "config.json": "20463c0e43cb0379fd694c6d871ee1bffd33819d7f2cd3fbf2f486a08288d278",
        "fig3a_latency_cdf.csv": "c62b808c5c16c936da594597880b3276ae022f31101834c185ba9d379bc71af9",
        "fig3b_drop_cdf.csv": "d510c3b01bb0dac48465e768db590988089dadb743d3ad5b8f87dc08dd5471a2",
        "fig4a_latency_box.csv": "6188f87de310297795d42d4016151ee48e846dd1528069c60ce611ee2052c5b7",
        "fig4b_drop_box.csv": "6557ad6286255509140b617b12e457da89096832af7d6c9e5a55801a59214dc5",
        "summary.json": "77188612262e97b7ac3f0e1fdae5a10d5eafe953f7083cf467179afd6c7d1950"
    },
    "oracle_table": {
        "oracle_table.csv": "4398b3c85a1433532adfe0272df2be5d34c9050e482511978cfb32702e7382ca"
    },
    "three_slice": {
        "rows_fresh": "a674ac6db8b2a1ed2e96f67436a878049e87d1dae056eaa694c3f5dc079e3ee4",
        "optimum_fresh": "bd5ff4334b87864ca4d776be72dab0123fa27c9083c83d90387bb638c7263795",
        "rows_carried_floors": "b05f54b7e80f019e70ccbb3b4949fa652cc8fe4c5bbd0d504f65829a44fb7f3c",
        "optimum_carried_floors": "5115061a17ab4f62adcb0d34f255c0c17ce8b7972aca4bc805935adab0595c92"
    },
    "oracle_order": {
        "decisions_latency_first": "f05d14d6088a80a991927500f07ffed19fb30fab2b18b5738f9aa2ac450fee74",
        "loop_latency_first": "af184a01ec0b390ab51ba4e8422728786520c166722c4be179e5de5b8d721610",
        "decisions_latency_second": "be596b298dc1fded0641c67b8a07e2f86d495a7d0b27b851e13fad60f097cc5d",
        "loop_latency_second": "4f1a800928bfa78256bbf5038e7109e778147de225e579e864dd235f5802c66c"
    },
    "retrieval": {
        "appended_100": "41c32d49854dab3c367c093a646f2ff36857ef65bf1817a9e1841ff2273ab8b4",
        "appended_1000": "e1418918689a2f470d45305f097162ec217ce9ad7313ef5fc6aa6adbde3d9bf4",
        "appended_5000": "1109ad85bde287def212970f81c3e493414a73f16ac276042ab627e0be4c1dfe",
        "appended_20000": "9fc54a7991ea4a7d5b249e731425ef838187fc10d0a7a70f059b4a7ee44f934b",
        "reloaded": "9fc54a7991ea4a7d5b249e731425ef838187fc10d0a7a70f059b4a7ee44f934b"
    },
    "prompt": {
        "latency_first_served_0_records": "3a688352aad9dba4d075bd2a70ae5ca011ee1631897221a460b2a2efdd5e3c2e",
        "latency_first_served_3_records": "6b9f70cbe98c6dbfc7bb0505988f5861228dd7184bd6880a8ceee039a4ae31c5",
        "latency_first_starved_0_records": "d0051d4d644ad8ab447c8180baf1744cdc28a3aec1b03249fb63141a70ec181e",
        "latency_first_starved_3_records": "9c1be002fe8e3fadf14ca056108d41aa2576413313fe18b215d444a15cf9ed03",
        "latency_second_served_0_records": "25735ef8eeeab0aba00c34d7bdd713c4b2056c2ed07ef8c9645d8f181776cc6a",
        "latency_second_served_3_records": "9b460b8bd186044d37f9d4d44d5facbbb779dc58257b9438a55dcff6751ca189",
        "latency_second_starved_0_records": "ae1f01f13536a255cd167de271510195c6ea88e00022f8698b7538d5676a4d5c",
        "latency_second_starved_3_records": "333516ce171e5b5629ef92ff3439fee2d25e6bb3719e63a05794220131067e77"
    }
}


def test_tokens_run_dir():
    assert tokens_digests() == GOLDEN["tokens"]


def test_scenario2_run_dir():
    assert scenario2_digests() == GOLDEN["scenario2"]


def test_oracle_table_csv():
    assert oracle_table_digests() == GOLDEN["oracle_table"]


def test_three_slice_enumeration_and_optimum():
    assert three_slice_digests() == GOLDEN["three_slice"]


def test_oracle_decisions_in_both_slice_orders():
    assert oracle_order_digests() == GOLDEN["oracle_order"]


def test_meta_prompt_text():
    assert prompt_digests() == GOLDEN["prompt"]


def test_retrieval_ids_while_appending_and_after_reload():
    assert retrieval_digests() == GOLDEN["retrieval"]


if __name__ == "__main__":
    table = {
        "tokens": tokens_digests(),
        "scenario2": scenario2_digests(),
        "oracle_table": oracle_table_digests(),
        "three_slice": three_slice_digests(),
        "oracle_order": oracle_order_digests(),
        "retrieval": retrieval_digests(),
        "prompt": prompt_digests(),
    }
    json.dump(table, sys.stdout, indent=4)
    print()
